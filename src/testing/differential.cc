// Differential harness: one script, one reference interpretation, N engine
// configurations; any disagreement is a bug in one of them.
//
// Comparison policy (see ISSUE/DESIGN):
//   - Status agreement is boolean: all parties succeed or all fail. Error
//     texts are free-form and never compared.
//   - Row results compare as multisets against the reference (row order is
//     only contractual under ORDER BY). When the statement has ORDER BY,
//     every engine's sequence must additionally be sorted on the keys; when
//     the keys cover the whole select list the sequence itself is compared
//     (ties are then full duplicates, so stability cannot matter).
//   - Engines in the same (use_indexes, use_rewrite) plan group must agree
//     bit-identically including order: parallelism, batching, and CSE are
//     not allowed to change observable results.
//   - Affected counts compare exactly; composite objects compare through the
//     canonical order-insensitive rendering.
//   - After the script, every base table is drained with SELECT * and
//     compared against the reference state, so silent write-path corruption
//     surfaces even when no later statement reads the table.

#include "testing/differential.h"

#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <utility>

#include "api/database.h"
#include "common/value.h"
#include "testing/reference.h"

namespace xnf::testing {
namespace {

std::vector<std::string> RenderRows(const std::vector<Row>& rows) {
  std::vector<std::string> out;
  out.reserve(rows.size());
  for (const Row& r : rows) out.push_back(RowToString(r));
  return out;
}

std::string Preview(const std::vector<std::string>& rendered, size_t limit = 4) {
  std::ostringstream os;
  os << "[" << rendered.size() << " rows";
  for (size_t i = 0; i < rendered.size() && i < limit; ++i) {
    os << (i == 0 ? ": " : ", ") << rendered[i];
  }
  if (rendered.size() > limit) os << ", ...";
  os << "]";
  return os.str();
}

bool SortedByKeys(const std::vector<Row>& rows,
                  const std::vector<std::pair<int, bool>>& keys) {
  for (size_t i = 1; i < rows.size(); ++i) {
    for (const auto& [pos, asc] : keys) {
      if (pos < 0 || static_cast<size_t>(pos) >= rows[i].size()) return false;
      int c = rows[i - 1][pos].TotalOrderCompare(rows[i][pos]);
      if (!asc) c = -c;
      if (c < 0) break;
      if (c > 0) return false;
    }
  }
  return true;
}

// Outcome of one statement on one engine, reduced to comparable form.
struct EngineOut {
  bool ok = true;
  std::string error;
  ExecResult::Kind kind = ExecResult::Kind::kNone;
  std::vector<Row> rows;
  std::vector<std::string> rendered;  // RowToString per row, same order
  int64_t affected = 0;
  std::string co_canonical;
};

EngineOut RunOnEngine(Database* db, const std::string& stmt) {
  EngineOut out;
  Result<ExecResult> r = db->Execute(stmt);
  if (!r.ok()) {
    out.ok = false;
    out.error = r.status().ToString();
    return out;
  }
  out.kind = r->kind;
  switch (r->kind) {
    case ExecResult::Kind::kRows:
      out.rows = std::move(r->rows.rows);
      out.rendered = RenderRows(out.rows);
      break;
    case ExecResult::Kind::kAffected:
      out.affected = r->affected;
      break;
    case ExecResult::Kind::kCo:
      out.co_canonical = ReferenceEngine::Canonicalize(r->co);
      break;
    case ExecResult::Kind::kNone:
      break;
  }
  return out;
}

const char* KindName(ExecResult::Kind k) {
  switch (k) {
    case ExecResult::Kind::kNone: return "none";
    case ExecResult::Kind::kRows: return "rows";
    case ExecResult::Kind::kAffected: return "affected";
    case ExecResult::Kind::kCo: return "co";
  }
  return "?";
}

const char* KindName(RefOutcome::Kind k) {
  switch (k) {
    case RefOutcome::Kind::kNone: return "none";
    case RefOutcome::Kind::kRows: return "rows";
    case RefOutcome::Kind::kAffected: return "affected";
    case RefOutcome::Kind::kCo: return "co";
  }
  return "?";
}

bool SameKind(RefOutcome::Kind ref, ExecResult::Kind eng) {
  switch (ref) {
    case RefOutcome::Kind::kNone: return eng == ExecResult::Kind::kNone;
    case RefOutcome::Kind::kRows: return eng == ExecResult::Kind::kRows;
    case RefOutcome::Kind::kAffected:
      return eng == ExecResult::Kind::kAffected;
    case RefOutcome::Kind::kCo: return eng == ExecResult::Kind::kCo;
  }
  return false;
}

// Compares one statement's outcomes. Returns a description or "".
std::string CompareStatement(const RefOutcome& ref,
                             const std::vector<EngineConfig>& configs,
                             const std::vector<EngineOut>& outs) {
  for (size_t i = 0; i < outs.size(); ++i) {
    if (outs[i].ok != ref.ok) {
      std::ostringstream os;
      os << "status disagreement: reference "
         << (ref.ok ? "succeeded" : "failed (" + ref.error + ")") << ", "
         << configs[i].Label() << " "
         << (outs[i].ok ? "succeeded" : "failed (" + outs[i].error + ")");
      return os.str();
    }
  }
  if (!ref.ok) return "";  // everyone failed; messages are not compared

  for (size_t i = 0; i < outs.size(); ++i) {
    if (!SameKind(ref.kind, outs[i].kind)) {
      std::ostringstream os;
      os << "result-kind disagreement: reference " << KindName(ref.kind)
         << ", " << configs[i].Label() << " " << KindName(outs[i].kind);
      return os.str();
    }
  }

  switch (ref.kind) {
    case RefOutcome::Kind::kNone:
      return "";
    case RefOutcome::Kind::kAffected: {
      for (size_t i = 0; i < outs.size(); ++i) {
        if (outs[i].affected != ref.affected) {
          std::ostringstream os;
          os << "affected-count disagreement: reference " << ref.affected
             << ", " << configs[i].Label() << " " << outs[i].affected;
          return os.str();
        }
      }
      return "";
    }
    case RefOutcome::Kind::kCo: {
      for (size_t i = 0; i < outs.size(); ++i) {
        if (outs[i].co_canonical != ref.co_canonical) {
          std::ostringstream os;
          os << "composite-object disagreement with " << configs[i].Label()
             << ": reference <<" << ref.co_canonical << ">> vs engine <<"
             << outs[i].co_canonical << ">>";
          return os.str();
        }
      }
      return "";
    }
    case RefOutcome::Kind::kRows:
      break;
  }

  std::vector<std::string> ref_sorted = RenderRows(ref.rows);
  std::sort(ref_sorted.begin(), ref_sorted.end());
  for (size_t i = 0; i < outs.size(); ++i) {
    std::vector<std::string> got = outs[i].rendered;
    std::sort(got.begin(), got.end());
    if (got != ref_sorted) {
      std::ostringstream os;
      os << "row-multiset disagreement with " << configs[i].Label()
         << ": reference " << Preview(ref_sorted) << " vs engine "
         << Preview(got);
      return os.str();
    }
    if (!ref.order_keys.empty()) {
      if (ref.full_order) {
        // Keys cover the select list: sequences must match outright.
        std::vector<std::string> ref_seq = RenderRows(ref.rows);
        if (outs[i].rendered != ref_seq) {
          std::ostringstream os;
          os << "ORDER BY sequence disagreement with " << configs[i].Label()
             << ": reference " << Preview(ref_seq) << " vs engine "
             << Preview(outs[i].rendered);
          return os.str();
        }
      } else if (!SortedByKeys(outs[i].rows, ref.order_keys)) {
        std::ostringstream os;
        os << "ORDER BY violation: " << configs[i].Label()
           << " output is not sorted on the statement's keys: "
           << Preview(outs[i].rendered, 8);
        return os.str();
      }
    }
  }

  // Same plan group -> bit-identical sequences.
  for (size_t i = 0; i < outs.size(); ++i) {
    for (size_t j = 0; j < i; ++j) {
      if (configs[i].PlanGroup() != configs[j].PlanGroup()) continue;
      if (outs[i].rendered != outs[j].rendered) {
        std::ostringstream os;
        os << "plan-group determinism violation: " << configs[j].Label()
           << " " << Preview(outs[j].rendered) << " vs " << configs[i].Label()
           << " " << Preview(outs[i].rendered);
        return os.str();
      }
      break;  // comparing against the group's first member is enough
    }
  }
  return "";
}

}  // namespace

std::string EngineConfig::Label() const {
  std::ostringstream os;
  os << "dop" << threads << (use_cse ? "-cse" : "-nocse") << (use_indexes ? "-idx" : "-noidx")
     << (use_rewrite ? "-rw" : "-norw")
     << (column_storage ? "-col" : "-row");
  if (durable) os << (durable_checkpoint ? "-durckpt" : "-durwal");
  return os.str();
}

std::vector<EngineConfig> DefaultMatrix() {
  // threads, use_cse, use_indexes, use_rewrite, column_storage, durable,
  // durable_checkpoint
  return {
      {1, true, true, true, false},     // group A: serial
      {2, true, true, true, false},     // group A: parallel
      {8, false, true, true, false},    // group A: wide, no CSE
      {1, true, true, true, true},      // group A: columnar
      {1, true, false, true, false},    // group B: no index paths
      {4, false, false, true, false},   // group B: parallel, no CSE
      {4, true, false, true, true},     // group B: columnar parallel
      {1, true, true, false, false},    // group C: no rewrite
      {1, true, true, false, true},     // group C: columnar
      {2, false, false, false, false},  // group D: bare plans
      {2, false, false, false, true},   // group D: columnar
      {1, true, true, true, false, true, false},
                                        // group A: durable row,
                                        //   WAL replay per stmt
      {2, true, true, true, true, true, true},
                                        // group A: durable columnar,
                                        //   checkpoint per close
  };
}

namespace {

// Temp data_dir for a durable engine, removed when the script finishes.
class ScopedDataDir {
 public:
  ScopedDataDir() {
    std::string tmpl =
        (std::filesystem::temp_directory_path() / "sqlxnf-diff-XXXXXX")
            .string();
    std::vector<char> buf(tmpl.begin(), tmpl.end());
    buf.push_back('\0');
    if (::mkdtemp(buf.data()) != nullptr) path_ = buf.data();
  }
  ~ScopedDataDir() {
    if (!path_.empty()) {
      std::error_code ec;
      std::filesystem::remove_all(path_, ec);
    }
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

// One engine of the matrix plus everything needed to rebuild it: durable
// configurations are destroyed and reopened between statements, so each
// statement's effects must survive recovery.
struct EngineInstance {
  Database::Options options;
  co::Evaluator::Options xnf;
  std::unique_ptr<ScopedDataDir> dir;
  std::unique_ptr<Database> db;

  void Open() {
    db = std::make_unique<Database>(options);
    db->set_xnf_options(xnf);
  }
};

}  // namespace

std::optional<Divergence> RunScript(const std::vector<std::string>& statements,
                                    const std::vector<EngineConfig>& configs) {
  ReferenceEngine ref;
  std::vector<EngineInstance> engines;
  engines.reserve(configs.size());
  for (const EngineConfig& c : configs) {
    EngineInstance e;
    e.options.threads = c.threads;
    e.options.use_indexes = c.use_indexes;
    e.options.use_rewrite = c.use_rewrite;
    // Pin the layout explicitly so a SQLXNF_STORAGE environment override
    // (the columnar CI lane) can never skew the matrix.
    e.options.default_storage =
        c.column_storage ? StorageKind::kColumn : StorageKind::kRow;
    if (c.durable) {
      e.dir = std::make_unique<ScopedDataDir>();
      e.options.data_dir = e.dir->path();
      e.options.wal_fsync = false;
      e.options.checkpoint_on_close = c.durable_checkpoint;
      // Bound the WAL-replay engine's O(n^2) reopen cost on long scripts.
      e.options.checkpoint_wal_bytes = c.durable_checkpoint ? 0 : 1 << 20;
    }
    e.xnf.use_cse = c.use_cse;
    e.Open();
    if (!e.db->open_error().ok()) {
      return Divergence{-1, "",
                        "durable engine " + c.Label() +
                            " failed to open: " +
                            e.db->open_error().ToString()};
    }
    engines.push_back(std::move(e));
  }

  for (size_t s = 0; s < statements.size(); ++s) {
    RefOutcome ref_out = ref.Execute(statements[s]);
    std::vector<EngineOut> outs;
    outs.reserve(engines.size());
    for (auto& e : engines) outs.push_back(RunOnEngine(e.db.get(), statements[s]));
    std::string diff = CompareStatement(ref_out, configs, outs);
    if (!diff.empty()) {
      return Divergence{static_cast<int>(s), statements[s], std::move(diff)};
    }
    // Durability axis: kill and recover the durable engines between
    // statements (a close mid-transaction would roll it back, so those
    // wait for the COMMIT/ROLLBACK to land first).
    for (size_t i = 0; i < engines.size(); ++i) {
      if (!configs[i].durable || engines[i].db->in_transaction()) continue;
      engines[i].db.reset();
      engines[i].Open();
      if (!engines[i].db->open_error().ok()) {
        return Divergence{static_cast<int>(s), statements[s],
                          "recovery after statement failed on " +
                              configs[i].Label() + ": " +
                              engines[i].db->open_error().ToString()};
      }
    }
  }

  // End-of-script base-table state check.
  for (const std::string& table : ref.TableNames()) {
    const std::vector<Row>* ref_rows = ref.TableRows(table);
    if (ref_rows == nullptr) continue;
    std::vector<std::string> want = RenderRows(*ref_rows);
    std::sort(want.begin(), want.end());
    for (size_t i = 0; i < engines.size(); ++i) {
      Result<ResultSet> rs = engines[i].db->Query("SELECT * FROM " + table);
      if (!rs.ok()) {
        return Divergence{-1, "",
                          "end-of-script scan of '" + table + "' failed on " +
                              configs[i].Label() + ": " +
                              rs.status().ToString()};
      }
      std::vector<std::string> got = RenderRows(rs->rows);
      std::sort(got.begin(), got.end());
      if (got != want) {
        return Divergence{
            -1, "",
            "end-of-script state disagreement on table '" + table + "' with " +
                configs[i].Label() + ": reference " + Preview(want) +
                " vs engine " + Preview(got)};
      }
    }
  }
  return std::nullopt;
}

std::vector<std::string> MinimizeScript(
    const std::vector<std::string>& statements,
    const std::vector<EngineConfig>& configs) {
  std::vector<std::string> cur = statements;
  auto diverges = [&](const std::vector<std::string>& s) {
    return RunScript(s, configs).has_value();
  };
  if (!diverges(cur)) return cur;

  // Chunked passes first (fast shrink), then single statements until fixed
  // point: the result is 1-minimal.
  for (size_t chunk = std::max<size_t>(cur.size() / 2, 1);; chunk /= 2) {
    bool changed = true;
    while (changed) {
      changed = false;
      for (size_t i = 0; i + 1 <= cur.size();) {
        size_t n = std::min(chunk, cur.size() - i);
        std::vector<std::string> candidate = cur;
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

std::string RenderArtifact(const FuzzReport& report) {
  std::ostringstream os;
  os << "-- SQL/XNF differential fuzz artifact\n";
  os << "-- seed: " << report.seed << "\n";
  os << "-- replay: fuzz_runner --seed=" << report.seed << "\n";
  if (report.divergence.statement >= 0) {
    os << "-- divergence at statement " << report.divergence.statement
       << ": " << report.divergence.description << "\n";
  } else {
    os << "-- divergence: " << report.divergence.description << "\n";
  }
  os << "-- minimized reproducer (" << report.minimized.size()
     << " statements):\n";
  for (const std::string& s : report.minimized) os << s << ";\n";
  return os.str();
}

FuzzReport RunSeed(uint64_t seed, const GenOptions& gen,
                   const std::vector<EngineConfig>& configs) {
  FuzzReport report;
  report.seed = seed;
  FuzzCase c = GenerateCase(seed, gen);
  std::optional<Divergence> div = RunScript(c.statements, configs);
  if (!div.has_value()) return report;

  report.ok = false;
  report.minimized = MinimizeScript(c.statements, configs);
  std::optional<Divergence> min_div = RunScript(report.minimized, configs);
  report.divergence = min_div.has_value() ? *min_div : *div;

  if (const char* path = std::getenv("SQLXNF_FUZZ_ARTIFACT");
      path != nullptr && path[0] != '\0') {
    std::ofstream out(path, std::ios::app);
    if (out) {
      out << RenderArtifact(report) << "\n";
      report.artifact_path = path;
    }
  }
  return report;
}

}  // namespace xnf::testing
