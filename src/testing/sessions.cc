// Sessions axis of the differential harness: interleaved multi-session
// scripts checked three ways against MVCC snapshot isolation.
//
//   1. Model check. Every SELECT (in or out of a transaction) is compared
//      against a client-side visibility model: committed state for
//      autocommit reads, snapshot-at-BEGIN overlaid with the transaction's
//      own writes inside one. The generated grammar (see sessions.h) is
//      restricted so the model is *exact* — every engine-accepted DML
//      statement has a computable affected count, and INSERT/DELETE outcomes
//      in a session's own key range are fully predictable.
//   2. Commit-order serial replay. A second engine receives each committed
//      transaction's effective statements at its COMMIT point (autocommit
//      statements immediately, rolled-back transactions never). Because all
//      DML is row-local with constant values and first-committer-wins
//      blocks racy writers, the replay reconstructs the exact committed
//      state; out-of-transaction SELECTs and the final per-table states must
//      agree bit-for-bit (as multisets).
//   3. Snapshot stability. Every in-transaction SELECT is re-executed just
//      before its transaction ends; the result may only have changed if the
//      session itself wrote that table in between. Concurrent commits by
//      other sessions must be invisible.
//
// Serialization errors are the one place the engine's word is taken as
// ground truth: whether a write-write race manifests depends on physical
// rid-level interleaving the model does not track. Every other error is a
// divergence.

#include "testing/sessions.h"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <utility>

#include "api/database.h"
#include "api/session.h"
#include "common/value.h"

namespace xnf::testing {
namespace {

// splitmix64, same construction as the single-session generator: seed
// artifacts must replay bit-identically on every platform.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}

  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  int Int(int lo, int hi) {
    return lo + static_cast<int>(Next() % static_cast<uint64_t>(hi - lo + 1));
  }
  bool Chance(int percent) { return Int(0, 99) < percent; }

 private:
  uint64_t state_;
};

constexpr const char* kTables[] = {"m0", "m1"};
constexpr int kPrologueKeys = 5;  // per session per table: s*1000 + 0..4

// pk -> (b, c). The full client-side image of one table.
using TableMap = std::map<int64_t, std::pair<int64_t, int64_t>>;
using ModelState = std::map<std::string, TableMap>;

std::string SortedRendered(const std::vector<Row>& rows) {
  std::vector<std::string> out;
  out.reserve(rows.size());
  for (const Row& r : rows) out.push_back(RowToString(r));
  std::sort(out.begin(), out.end());
  std::string joined;
  for (const std::string& s : out) {
    joined += s;
    joined += '\n';
  }
  return joined;
}

std::string Preview(const std::string& rendered, size_t limit = 6) {
  std::ostringstream os;
  std::istringstream in(rendered);
  std::vector<std::string> lines;
  for (std::string l; std::getline(in, l);) lines.push_back(std::move(l));
  os << "[" << lines.size() << " rows";
  for (size_t i = 0; i < lines.size() && i < limit; ++i) {
    os << (i == 0 ? ": " : ", ") << lines[i];
  }
  if (lines.size() > limit) os << ", ...";
  os << "]";
  return os.str();
}

// The per-session harness state: the engine session plus the model's mirror
// of its open transaction.
struct SessState {
  std::unique_ptr<Session> session;
  bool in_txn = false;
  ModelState snapshot;  // committed state at BEGIN
  // Own writes overlaying the snapshot; nullopt = deleted.
  std::map<std::string, std::map<int64_t, std::optional<std::pair<int64_t,
                                                                  int64_t>>>>
      own;
  std::vector<std::string> buffer;  // engine-accepted effective DML, in order
  struct Recorded {
    SessionStep step;
    std::string rendered;
    bool valid = true;  // invalidated when the session writes a table it read
  };
  std::vector<Recorded> recorded;
};

// The table image a session currently sees.
TableMap VisibleTable(const ModelState& committed, const SessState& s,
                      const std::string& table) {
  if (!s.in_txn) {
    auto it = committed.find(table);
    return it == committed.end() ? TableMap{} : it->second;
  }
  TableMap view;
  if (auto it = s.snapshot.find(table); it != s.snapshot.end()) {
    view = it->second;
  }
  if (auto it = s.own.find(table); it != s.own.end()) {
    for (const auto& [pk, val] : it->second) {
      if (val.has_value()) {
        view[pk] = *val;
      } else {
        view.erase(pk);
      }
    }
  }
  return view;
}

std::string ExpectedRows(const ModelState& committed, const SessState& s,
                         const SessionStep& step) {
  const TableMap view = VisibleTable(committed, s, step.table);
  std::vector<Row> rows;
  switch (step.kind) {
    case SessionStep::Kind::kSelectPoint: {
      auto it = view.find(step.pk);
      if (it != view.end()) {
        rows.push_back({Value::Int(it->second.first),
                        Value::Int(it->second.second)});
      }
      break;
    }
    case SessionStep::Kind::kSelectCount:
      rows.push_back({Value::Int(static_cast<int64_t>(view.size()))});
      break;
    case SessionStep::Kind::kSelectAll:
      for (const auto& [pk, val] : view) {
        rows.push_back({Value::Int(pk), Value::Int(val.first),
                        Value::Int(val.second)});
      }
      break;
    case SessionStep::Kind::kSelectByB:
      for (const auto& [pk, val] : view) {
        if (val.first == step.v1) {
          rows.push_back({Value::Int(pk), Value::Int(val.second)});
        }
      }
      break;
    case SessionStep::Kind::kSelectJoin: {
      const TableMap m1 = VisibleTable(committed, s, "m1");
      for (const auto& [pk, val] : VisibleTable(committed, s, "m0")) {
        auto it = m1.find(val.second * 1000 + val.first);
        if (it == m1.end()) continue;
        rows.push_back({Value::Int(pk), Value::Int(it->first),
                        Value::Int(it->second.first),
                        Value::Int(it->second.second)});
      }
      break;
    }
    default:
      break;
  }
  return SortedRendered(rows);
}

struct Harness {
  Database* engine = nullptr;
  Database* replay = nullptr;
  ModelState committed;
  std::map<int, SessState> sessions;

  SessState& At(int sid) {
    SessState& s = sessions[sid];
    if (s.session == nullptr) s.session = engine->OpenSession();
    return s;
  }
};

Status Must(Database* db, const std::string& sql) {
  Result<ExecResult> r = db->Execute(sql);
  return r.status();
}

// Runs the fixed schema/data prologue on one database.
Status Prologue(Database* db) {
  for (const char* t : kTables) {
    XNF_RETURN_IF_ERROR(Must(db, std::string("CREATE TABLE ") + t +
                                     " (a INT PRIMARY KEY, b INT, c INT)"));
    for (int sid = 1; sid <= 4; ++sid) {
      for (int j = 0; j < kPrologueKeys; ++j) {
        std::ostringstream os;
        os << "INSERT INTO " << t << " VALUES (" << sid * 1000 + j << ", " << j
           << ", " << sid << ")";
        XNF_RETURN_IF_ERROR(Must(db, os.str()));
      }
    }
  }
  return Status::Ok();
}

void PrologueModel(ModelState* model) {
  for (const char* t : kTables) {
    TableMap& m = (*model)[t];
    for (int sid = 1; sid <= 4; ++sid) {
      for (int j = 0; j < kPrologueKeys; ++j) {
        m[sid * 1000 + j] = {j, sid};
      }
    }
  }
}

// Re-runs the still-valid recorded SELECTs of a transaction that is about to
// end. Returns a description on instability, "" otherwise.
std::string RecheckStability(SessState& s) {
  for (const SessState::Recorded& rec : s.recorded) {
    if (!rec.valid) continue;
    const std::string sql = rec.step.Sql();
    Result<ExecResult> r = s.session->Execute(sql);
    if (!r.ok()) {
      return "snapshot-stability re-read failed: " + sql + ": " +
             r.status().ToString();
    }
    std::string got = SortedRendered(r->rows.rows);
    if (got != rec.rendered) {
      return "snapshot instability: '" + sql + "' first returned " +
             Preview(rec.rendered) + " but re-reading inside the same "
             "transaction returned " + Preview(got);
    }
  }
  return "";
}

// The session's own committed-or-overlay write of one engine-accepted,
// effective (affected > 0) DML statement.
void ApplyWrite(Harness* h, SessState& s, const SessionStep& step) {
  for (SessState::Recorded& rec : s.recorded) {
    // The join reads both tables.
    if (rec.step.table == step.table ||
        rec.step.kind == SessionStep::Kind::kSelectJoin) {
      rec.valid = false;
    }
  }
  std::optional<std::pair<int64_t, int64_t>> val;
  if (step.kind != SessionStep::Kind::kDelete) val = {step.v1, step.v2};
  if (s.in_txn) {
    s.own[step.table][step.pk] = val;
    s.buffer.push_back(step.Sql());
  } else {
    TableMap& m = h->committed[step.table];
    if (val.has_value()) {
      m[step.pk] = *val;
    } else {
      m.erase(step.pk);
    }
  }
}

std::optional<SessionDivergence> RunSteps(
    const std::vector<SessionStep>& steps, Harness* h) {
  auto diverge = [](int i, const SessionStep* step, std::string desc) {
    return SessionDivergence{i, step != nullptr ? step->Sql() : "",
                             std::move(desc)};
  };

  for (size_t i = 0; i < steps.size(); ++i) {
    const SessionStep& step = steps[i];
    const int idx = static_cast<int>(i);
    SessState& s = h->At(step.session);
    const std::string sql = step.Sql();

    switch (step.kind) {
      case SessionStep::Kind::kBegin: {
        Result<ExecResult> r = s.session->Execute(sql);
        if (s.in_txn) {
          if (r.ok()) {
            return diverge(idx, &step, "BEGIN accepted inside an open "
                                       "transaction");
          }
          break;  // both sides refuse; nothing changes
        }
        if (!r.ok()) {
          return diverge(idx, &step, "BEGIN failed: " + r.status().ToString());
        }
        s.in_txn = true;
        s.snapshot = h->committed;
        s.own.clear();
        s.buffer.clear();
        s.recorded.clear();
        break;
      }

      case SessionStep::Kind::kCommit:
      case SessionStep::Kind::kRollback: {
        const bool commit = step.kind == SessionStep::Kind::kCommit;
        if (!s.in_txn) {
          Result<ExecResult> r = s.session->Execute(sql);
          if (r.ok()) {
            return diverge(idx, &step,
                           std::string(commit ? "COMMIT" : "ROLLBACK") +
                               " accepted outside a transaction");
          }
          break;
        }
        if (std::string unstable = RecheckStability(s); !unstable.empty()) {
          return diverge(idx, &step, unstable);
        }
        Result<ExecResult> r = s.session->Execute(sql);
        if (!r.ok()) {
          return diverge(idx, &step, std::string(commit ? "COMMIT"
                                                        : "ROLLBACK") +
                                         " failed: " + r.status().ToString());
        }
        if (commit) {
          for (const std::string& buffered : s.buffer) {
            Result<ExecResult> rr = h->replay->Execute(buffered);
            if (!rr.ok()) {
              return diverge(idx, &step,
                             "commit-order replay rejected committed "
                             "statement '" + buffered + "': " +
                                 rr.status().ToString());
            }
          }
          for (const auto& [table, writes] : s.own) {
            TableMap& m = h->committed[table];
            for (const auto& [pk, val] : writes) {
              if (val.has_value()) {
                m[pk] = *val;
              } else {
                m.erase(pk);
              }
            }
          }
        }
        s.in_txn = false;
        s.own.clear();
        s.buffer.clear();
        s.recorded.clear();
        break;
      }

      case SessionStep::Kind::kInsert:
      case SessionStep::Kind::kUpdate:
      case SessionStep::Kind::kDelete: {
        const TableMap view = VisibleTable(h->committed, s, step.table);
        const bool present = view.count(step.pk) != 0;
        Result<ExecResult> r = s.session->Execute(sql);
        if (!r.ok()) {
          if (r.status().code() == StatusCode::kSerialization) break;
          if (step.kind == SessionStep::Kind::kInsert && present) {
            break;  // duplicate key, predicted
          }
          return diverge(idx, &step,
                         "DML failed unexpectedly: " + r.status().ToString());
        }
        int64_t expect = 0;
        switch (step.kind) {
          case SessionStep::Kind::kInsert:
            if (present) {
              return diverge(idx, &step,
                             "INSERT accepted but the key is visible");
            }
            expect = 1;
            break;
          case SessionStep::Kind::kUpdate:
          case SessionStep::Kind::kDelete:
            expect = present ? 1 : 0;
            break;
          default:
            break;
        }
        if (r->affected != expect) {
          std::ostringstream os;
          os << "affected-count disagreement: model expects " << expect
             << ", engine reported " << r->affected;
          return diverge(idx, &step, os.str());
        }
        if (expect > 0) {
          ApplyWrite(h, s, step);
          if (!s.in_txn) {
            Result<ExecResult> rr = h->replay->Execute(sql);
            if (!rr.ok() || rr->affected != expect) {
              return diverge(
                  idx, &step,
                  "serial replay disagreed on autocommit DML: " +
                      (rr.ok() ? "affected " + std::to_string(rr->affected)
                               : rr.status().ToString()));
            }
          }
        }
        break;
      }

      case SessionStep::Kind::kSelectPoint:
      case SessionStep::Kind::kSelectCount:
      case SessionStep::Kind::kSelectAll:
      case SessionStep::Kind::kSelectByB:
      case SessionStep::Kind::kSelectJoin: {
        Result<ExecResult> r = s.session->Execute(sql);
        if (!r.ok()) {
          return diverge(idx, &step,
                         "SELECT failed: " + r.status().ToString());
        }
        std::string got = SortedRendered(r->rows.rows);
        std::string want = ExpectedRows(h->committed, s, step);
        if (got != want) {
          return diverge(idx, &step,
                         "visibility disagreement: model expects " +
                             Preview(want) + ", engine returned " +
                             Preview(got));
        }
        if (s.in_txn) {
          s.recorded.push_back({step, got, true});
        } else {
          Result<ExecResult> rr = h->replay->Execute(sql);
          if (!rr.ok()) {
            return diverge(idx, &step, "serial replay SELECT failed: " +
                                           rr.status().ToString());
          }
          std::string replay_got = SortedRendered(rr->rows.rows);
          if (replay_got != got) {
            return diverge(idx, &step,
                           "engine vs serial replay disagreement: engine " +
                               Preview(got) + ", replay " +
                               Preview(replay_got));
          }
        }
        break;
      }

      case SessionStep::Kind::kCreateIndex: {
        Result<ExecResult> r = s.session->Execute(sql);
        // Refusals (duplicate name, MVCC uncommitted-writer guard) are
        // legitimate; an accepted index is mirrored onto the replay engine
        // purely as an access-path change — replay failures are ignored
        // because results cannot depend on the index.
        if (r.ok()) (void)h->replay->Execute(sql);
        break;
      }
    }
  }

  // End of script: close every open transaction (checking stability one
  // last time), then compare the final committed state across engine,
  // replay, and model.
  for (auto& [sid, s] : h->sessions) {
    if (!s.in_txn) continue;
    if (std::string unstable = RecheckStability(s); !unstable.empty()) {
      return SessionDivergence{-1, "", "session " + std::to_string(sid) +
                                           " at end of script: " + unstable};
    }
    Result<ExecResult> r = s.session->Execute("ROLLBACK");
    if (!r.ok()) {
      return SessionDivergence{-1, "",
                               "end-of-script ROLLBACK failed on session " +
                                   std::to_string(sid) + ": " +
                                   r.status().ToString()};
    }
    s.in_txn = false;
    s.own.clear();
    s.buffer.clear();
    s.recorded.clear();
  }

  for (const char* t : kTables) {
    const std::string scan = std::string("SELECT a, b, c FROM ") + t;
    Result<ExecResult> re = h->engine->Execute(scan);
    Result<ExecResult> rr = h->replay->Execute(scan);
    if (!re.ok() || !rr.ok()) {
      return SessionDivergence{-1, "",
                               std::string("end-of-script scan of '") + t +
                                   "' failed: " +
                                   (!re.ok() ? re.status().ToString()
                                             : rr.status().ToString())};
    }
    std::string engine_state = SortedRendered(re->rows.rows);
    std::string replay_state = SortedRendered(rr->rows.rows);
    std::vector<Row> model_rows;
    for (const auto& [pk, val] : h->committed[t]) {
      model_rows.push_back({Value::Int(pk), Value::Int(val.first),
                            Value::Int(val.second)});
    }
    std::string model_state = SortedRendered(model_rows);
    if (engine_state != model_state) {
      return SessionDivergence{
          -1, "",
          std::string("end-of-script state of '") + t +
              "' disagrees with the model: engine " + Preview(engine_state) +
              ", model " + Preview(model_state)};
    }
    if (engine_state != replay_state) {
      return SessionDivergence{
          -1, "",
          std::string("end-of-script state of '") + t +
              "' disagrees with the commit-order replay: engine " +
              Preview(engine_state) + ", replay " + Preview(replay_state)};
    }
  }
  return std::nullopt;
}

}  // namespace

std::string SessionStep::Sql() const {
  std::ostringstream os;
  switch (kind) {
    case Kind::kBegin:
      os << "BEGIN";
      break;
    case Kind::kCommit:
      os << "COMMIT";
      break;
    case Kind::kRollback:
      os << "ROLLBACK";
      break;
    case Kind::kInsert:
      os << "INSERT INTO " << table << " VALUES (" << pk << ", " << v1 << ", "
         << v2 << ")";
      break;
    case Kind::kUpdate:
      os << "UPDATE " << table << " SET b = " << v1 << ", c = " << v2
         << " WHERE a = " << pk;
      break;
    case Kind::kDelete:
      os << "DELETE FROM " << table << " WHERE a = " << pk;
      break;
    case Kind::kSelectPoint:
      os << "SELECT b, c FROM " << table << " WHERE a = " << pk;
      break;
    case Kind::kSelectCount:
      os << "SELECT COUNT(*) FROM " << table;
      break;
    case Kind::kSelectAll:
      os << "SELECT a, b, c FROM " << table;
      break;
    case Kind::kSelectByB:
      os << "SELECT a, c FROM " << table << " WHERE b = " << v1;
      break;
    case Kind::kSelectJoin:
      os << "SELECT m0.a, m1.a, m1.b, m1.c FROM m0 JOIN m1 "
            "ON m0.c * 1000 + m0.b = m1.a";
      break;
    case Kind::kCreateIndex:
      os << "CREATE INDEX idx_" << table << "_" << pk << " ON " << table
         << " (b)";
      break;
  }
  return os.str();
}

std::vector<SessionStep> GenerateSessionCase(uint64_t seed,
                                             const SessionGenOptions& options) {
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 1);
  const int k = std::min(4, std::max(2, options.sessions));
  std::vector<SessionStep> steps;
  std::vector<bool> in_txn(k + 1, false);
  // Per session per table: known own keys (prologue plus own inserts) and a
  // fresh-key counter.
  std::map<std::pair<int, std::string>, std::vector<int64_t>> own_pks;
  std::vector<int64_t> fresh(k + 1);
  for (int sid = 1; sid <= k; ++sid) {
    fresh[sid] = sid * 1000 + 100;
    for (const char* t : kTables) {
      for (int j = 0; j < kPrologueKeys; ++j) {
        own_pks[{sid, t}].push_back(sid * 1000 + j);
      }
    }
  }

  auto pick_table = [&] { return std::string(kTables[rng.Int(0, 1)]); };

  for (int i = 0; i < options.steps; ++i) {
    const int sid = rng.Int(1, k);
    SessionStep step;
    step.session = sid;
    step.table = pick_table();
    const int roll = rng.Int(0, 99);

    auto gen_dml = [&] {
      const int d = rng.Int(0, 99);
      std::vector<int64_t>& pool = own_pks[{sid, step.table}];
      if (d < 30) {
        step.kind = SessionStep::Kind::kInsert;
        if (rng.Chance(20)) {
          // Deliberate duplicate-key attempt.
          step.pk = pool[rng.Next() % pool.size()];
        } else {
          step.pk = fresh[sid]++;
          pool.push_back(step.pk);
        }
        step.v1 = rng.Int(0, 9);
        step.v2 = rng.Int(0, 99);
      } else if (d < 70) {
        step.kind = SessionStep::Kind::kUpdate;
        if (rng.Chance(35)) {
          // Cross-range: contend with another session's keys.
          int other = rng.Int(1, k);
          if (other == sid) other = (other % k) + 1;
          step.pk = other * 1000 + rng.Int(0, kPrologueKeys - 1);
        } else {
          step.pk = pool[rng.Next() % pool.size()];
        }
        step.v1 = rng.Int(0, 9);
        step.v2 = rng.Int(0, 99);
      } else {
        step.kind = SessionStep::Kind::kDelete;
        step.pk = pool[rng.Next() % pool.size()];
      }
    };
    auto gen_select = [&] {
      const int q = rng.Int(0, 99);
      if (q < 35) {
        step.kind = SessionStep::Kind::kSelectPoint;
        const int target = rng.Int(1, k);
        const std::vector<int64_t>& pool = own_pks[{target, step.table}];
        step.pk = pool[rng.Next() % pool.size()];
      } else if (q < 55) {
        step.kind = SessionStep::Kind::kSelectCount;
      } else if (q < 70) {
        step.kind = SessionStep::Kind::kSelectAll;
      } else if (q < 85) {
        step.kind = SessionStep::Kind::kSelectByB;
        step.v1 = rng.Int(0, 9);
      } else {
        step.kind = SessionStep::Kind::kSelectJoin;
      }
    };

    if (!in_txn[sid]) {
      if (roll < 6) {
        step.kind = SessionStep::Kind::kCreateIndex;
        step.pk = i;  // uniquifies the index name
      } else if (roll < 32) {
        step.kind = SessionStep::Kind::kBegin;
        in_txn[sid] = true;
      } else if (roll < 68) {
        gen_dml();
      } else {
        gen_select();
      }
    } else {
      if (roll < 18) {
        step.kind = SessionStep::Kind::kCommit;
        in_txn[sid] = false;
      } else if (roll < 28) {
        step.kind = SessionStep::Kind::kRollback;
        in_txn[sid] = false;
      } else if (roll < 70) {
        gen_dml();
      } else {
        gen_select();
      }
    }
    steps.push_back(std::move(step));
  }
  return steps;
}

std::optional<SessionDivergence> RunSessionScript(
    const std::vector<SessionStep>& steps, bool column_storage) {
  Database::Options engine_opt;
  engine_opt.default_storage =
      column_storage ? StorageKind::kColumn : StorageKind::kRow;
  Database engine(engine_opt);
  // The replay engine sees only committed, conflict-free statements in a
  // single stream; it always runs the row layout so a columnar engine is
  // additionally cross-checked against the row write path.
  Database::Options replay_opt;
  replay_opt.default_storage = StorageKind::kRow;
  Database replay(replay_opt);

  Harness h;
  h.engine = &engine;
  h.replay = &replay;
  if (Status st = Prologue(&engine); !st.ok()) {
    return SessionDivergence{-1, "", "prologue failed on the engine: " +
                                         st.ToString()};
  }
  if (Status st = Prologue(&replay); !st.ok()) {
    return SessionDivergence{-1, "", "prologue failed on the replay engine: " +
                                         st.ToString()};
  }
  PrologueModel(&h.committed);
  // Sessions must close before their Database: RunSteps rolls open
  // transactions back, and `h` (holding the Session objects) is destroyed
  // before `engine` on scope exit.
  return RunSteps(steps, &h);
}

std::vector<SessionStep> MinimizeSessionScript(
    const std::vector<SessionStep>& steps, bool column_storage) {
  std::vector<SessionStep> cur = steps;
  auto diverges = [&](const std::vector<SessionStep>& s) {
    return RunSessionScript(s, column_storage).has_value();
  };
  if (!diverges(cur)) return cur;
  for (size_t chunk = std::max<size_t>(cur.size() / 2, 1);; chunk /= 2) {
    bool changed = true;
    while (changed) {
      changed = false;
      for (size_t i = 0; i + 1 <= cur.size();) {
        size_t n = std::min(chunk, cur.size() - i);
        std::vector<SessionStep> candidate = cur;
        candidate.erase(candidate.begin() + i, candidate.begin() + i + n);
        if (!candidate.empty() && diverges(candidate)) {
          cur = std::move(candidate);
          changed = true;
        } else {
          i += n;
        }
      }
    }
    if (chunk == 1) break;
  }
  return cur;
}

std::string RenderSessionArtifact(const SessionFuzzReport& report) {
  std::ostringstream os;
  os << "-- SQL/XNF sessions-axis fuzz artifact\n";
  os << "-- seed: " << report.seed << "\n";
  os << "-- layout: " << report.layout << "\n";
  os << "-- replay: fuzz_runner --sessions --seed=" << report.seed << "\n";
  if (report.divergence.step >= 0) {
    os << "-- divergence at step " << report.divergence.step << ": "
       << report.divergence.description << "\n";
  } else {
    os << "-- divergence: " << report.divergence.description << "\n";
  }
  os << "-- minimized reproducer (" << report.minimized.size()
     << " steps):\n";
  for (const SessionStep& s : report.minimized) {
    os << "-- S" << s.session << ": " << s.Sql() << ";\n";
  }
  return os.str();
}

SessionFuzzReport RunSessionSeed(uint64_t seed,
                                 const SessionGenOptions& options) {
  SessionFuzzReport report;
  report.seed = seed;
  std::vector<SessionStep> steps = GenerateSessionCase(seed, options);
  for (bool column : {false, true}) {
    std::optional<SessionDivergence> div = RunSessionScript(steps, column);
    if (!div.has_value()) continue;
    report.ok = false;
    report.layout = column ? "column" : "row";
    report.minimized = MinimizeSessionScript(steps, column);
    std::optional<SessionDivergence> min_div =
        RunSessionScript(report.minimized, column);
    report.divergence = min_div.has_value() ? *min_div : *div;
    if (const char* path = std::getenv("SQLXNF_FUZZ_ARTIFACT");
        path != nullptr && path[0] != '\0') {
      std::ofstream out(path, std::ios::app);
      if (out) {
        out << RenderSessionArtifact(report) << "\n";
        report.artifact_path = path;
      }
    }
    return report;
  }
  return report;
}

}  // namespace xnf::testing
