// sql_shared: the Fig. 7 database as plain SQL applications see it. nproc - 1
// sessions on their own threads run a closed-loop mix of point and short
// index reads (half prepared, half text), a join, a grouped report over a
// columnar fact table, and write transactions on each session's own key
// range, against a durable database whose buffer pool is smaller than its
// tables. XNF plays no part here.

#include <algorithm>
#include <deque>
#include <filesystem>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include <unistd.h>

#include "api/database.h"
#include "api/session.h"
#include "design_db.h"
#include "extract.h"
#include "harness.h"
#include "workloads.h"

namespace xnfbench {
namespace {

using xnf::Database;
using xnf::Session;
using xnf::Value;

constexpr int kConfigurations = 2000;  // 10 items x 10 parts each: 222k rows
constexpr int kItemsPerCfg = 10;
constexpr int kSessionRows = 400;      // live rows per session range
constexpr int kSessionRange = 2 * kSessionRows;
constexpr int kSalesRows = 12000;
constexpr int kRegions = 16;
constexpr int kMinQty = 10;  // the report keeps sales with qty >= this
constexpr size_t kBufferPoolPages = 2048;      // tables span ~4k pages
constexpr uint64_t kCheckpointWalBytes = 1 << 20;

// Operation mix, in permille of draws.
constexpr int kPointPermille = 400;
constexpr int kRangePermille = 250;
constexpr int kJoinPermille = 130;
constexpr int kReportPermille = 20;  // the rest are write transactions

Database::Options DbOptions(const std::string& dir) {
  Database::Options o = BaseOptions();
  o.data_dir = dir;
  o.wal_fsync = false;  // measure the engine, not the disk
  o.checkpoint_wal_bytes = kCheckpointWalBytes;
  o.checkpoint_on_close = false;  // the directory is deleted anyway
  o.buffer_pool_pages = kBufferPoolPages;
  return o;
}

std::string OptionsText() {
  return "threads=1 data_dir=<tmp> wal_fsync=false checkpoint_wal_bytes=" +
         std::to_string(kCheckpointWalBytes) +
         " checkpoint_on_close=false buffer_pool_pages=" +
         std::to_string(kBufferPoolPages);
}

// One session's key range of ledger rows: lids [lo, lo + kSessionRange),
// of which kSessionRows are live at any time, all with owner = the session.
struct SessionRange {
  int lo = 0;
  int owner = 0;
  int64_t amount_sum = 0;  // conserved by every write transaction
};

struct Fixture {
  std::string dir;
  std::unique_ptr<Database> db;
  DesignDb design;  // read-only during the run
  std::vector<SessionRange> ranges;
  int64_t report_rows = 0;  // sales rows the report keeps
  int64_t report_amount = 0;

  ~Fixture() {
    db.reset();
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
  }
};

std::unique_ptr<Fixture> BuildFixture(const Config& config, int sessions,
                                      int index) {
  auto f = std::make_unique<Fixture>();
  f->dir = config.work_dir + "/sql_shared-" + std::to_string(::getpid()) +
           "-" + std::to_string(index);
  std::error_code ec;
  std::filesystem::remove_all(f->dir, ec);
  std::filesystem::create_directories(f->dir, ec);
  if (ec) SetupCheck(xnf::Status::InvalidArgument(ec.message()), f->dir);
  f->db = std::make_unique<Database>(DbOptions(f->dir));
  Database* db = f->db.get();
  SetupCheck(db->open_error(), "open durable database");
  std::mt19937_64 rng(config.seed);

  f->design = LoadDesignDb(
      db, std::vector<int>(kConfigurations, kItemsPerCfg), &rng);
  // The ledger the write transactions share, one key range per session.
  SetupCheck(db->Execute("CREATE TABLE ledger (lid INT PRIMARY KEY, "
                         "owner INT, amount INT, memo VARCHAR)")
                 .status(),
             "ledger");
  BulkLoader ledger(db, "ledger");
  std::uniform_int_distribution<int> cost(1, 100);
  for (int s = 0; s < sessions; ++s) {
    SessionRange r;
    r.lo = s * kSessionRange;
    r.owner = s;
    for (int k = 0; k < kSessionRows; ++k) {
      const int amount = cost(rng);
      ledger.Add({Value::Int(r.lo + k), Value::Int(s), Value::Int(amount),
                  Value::String("opening balance")});
      r.amount_sum += amount;
    }
    f->ranges.push_back(r);
  }
  SetupCheck(db->ExecuteScript(R"sql(
    CREATE INDEX part_iid ON part (iid);
    CREATE INDEX item_gid ON item (gid);
    CREATE TABLE sales (sid INT, gid INT, region INT, qty INT, amount INT)
      USING column;
  )sql").status(), "sql_shared schema");
  BulkLoader sales(db, "sales");
  std::uniform_int_distribution<int> region(0, kRegions - 1);
  std::uniform_int_distribution<int> gid(0, kConfigurations - 1);
  for (int i = 0; i < kSalesRows; ++i) {
    const int amount = cost(rng) * 10;
    const int qty = cost(rng);
    sales.Add({Value::Int(i), Value::Int(gid(rng)), Value::Int(region(rng)),
               Value::Int(qty), Value::Int(amount)});
    if (qty >= kMinQty) {
      ++f->report_rows;
      f->report_amount += amount;
    }
  }
  // Start the measured phase from a clean checkpoint and an empty WAL.
  SetupCheck(db->Checkpoint(), "initial checkpoint");
  return f;
}

enum OpKind { kPoint, kRange, kJoin, kReport, kWrite, kOpKinds };

// What one client accumulates over one measured phase.
struct Tally {
  uint64_t attempted = 0, failed = 0, conflicts = 0, txns = 0;
  Samples latency[kOpKinds];
  Samples prepare_us;      // first QueryPrepared of each statement text
  double stmt_us = 0;      // outside latency of every engine call
  double stall_us = 0;     // ... of calls during which a checkpoint ran
  double rows_returned = 0;
  double kernel_filters = 0, scan_filters = 0;
  double user_bytes = 0;   // text bytes of the DML statements sent
  std::vector<double> done_s;  // op completion times since the phase start
  Samples op_us;               // op latencies, in the order of done_s

  void Merge(const Tally& o) {
    attempted += o.attempted;
    failed += o.failed;
    conflicts += o.conflicts;
    txns += o.txns;
    for (int k = 0; k < kOpKinds; ++k) latency[k].Merge(o.latency[k]);
    prepare_us.Merge(o.prepare_us);
    stmt_us += o.stmt_us;
    stall_us += o.stall_us;
    rows_returned += o.rows_returned;
    kernel_filters += o.kernel_filters;
    scan_filters += o.scan_filters;
    user_bytes += o.user_bytes;
    done_s.insert(done_s.end(), o.done_s.begin(), o.done_s.end());
    op_us.Merge(o.op_us);
  }
};

// One session's closed loop. The session keeps its key range's live rows
// (oldest first) and their amounts across phases.
class Client {
 public:
  Client(Fixture* f, int index, uint64_t seed)
      : f_(f),
        range_(f->ranges[index]),
        rng_(seed),
        session_(f->db->OpenSession()),
        checkpoints_(f->db->metrics()->counter("checkpoint.count")) {
    auto rows = SetupValue(
        session_->Query("SELECT lid, amount FROM ledger WHERE owner = " +
                        std::to_string(range_.owner)),
        "session range");
    for (const auto& row : rows.rows) {
      live_.push_back(static_cast<int>(AsInt64(row[0])));
      amount_[live_.back()] = AsInt64(row[1]);
    }
    std::sort(live_.begin(), live_.end());
    next_slot_ = kSessionRows;
  }

  // Runs the closed loop until `deadline`; engine calls get benchmark
  // spans on `sink` (null = untraced).
  Tally Run(Clock::time_point start, Clock::time_point deadline,
            AggregatingTraceSink* sink) {
    tally_ = Tally();
    sink_ = sink;
    while (Clock::now() < deadline) {
      const int draw = std::uniform_int_distribution<int>(0, 999)(rng_);
      const bool prepared = std::uniform_int_distribution<int>(0, 1)(rng_);
      const auto op_start = Clock::now();
      OpKind kind;
      bool ok;
      {
        Span root(sink_, "sql.unit");
        if (draw < kPointPermille) {
          kind = kPoint;
          ok = PointRead(prepared);
        } else if (draw < kPointPermille + kRangePermille) {
          kind = kRange;
          ok = RangeRead(prepared);
        } else if (draw < kPointPermille + kRangePermille + kJoinPermille) {
          kind = kJoin;
          ok = Join();
        } else if (draw < kPointPermille + kRangePermille + kJoinPermille +
                              kReportPermille) {
          kind = kReport;
          ok = GroupReport();
        } else {
          kind = kWrite;
          ok = WriteTxn();
        }
      }
      const double us = UsSince(op_start);
      tally_.latency[kind].Add(us);
      tally_.op_us.Add(us);
      tally_.done_s.push_back(SecondsSince(start));
      ++tally_.attempted;
      if (!ok) ++tally_.failed;
    }
    return tally_;
  }

  // Hands the failures and error notes collected on the client thread to
  // the report (called after the thread has joined).
  void Flush(Report* report) {
    for (const std::string& note : notes_) report->Note(note);
    for (const std::string& why : failures_) report->Fail(why);
    notes_.clear();
    failures_.clear();
  }

  // The range must hold kSessionRows rows with the conserved amount sum.
  void CheckRange(Report* report) {
    auto rows = session_->Query(
        "SELECT COUNT(*), SUM(amount) FROM ledger WHERE lid >= " +
        std::to_string(range_.lo) + " AND lid < " +
        std::to_string(range_.lo + kSessionRange));
    if (!rows.ok() || rows->rows.size() != 1 ||
        AsInt64(rows->rows[0][0]) != kSessionRows ||
        AsInt64(rows->rows[0][1]) != range_.amount_sum) {
      report->Fail("ledger range of session " + std::to_string(range_.owner) +
                   " lost its row count or amount sum");
    }
  }

 private:
  bool Error(const std::string& what, const xnf::Status& status) {
    if (status.code() == xnf::StatusCode::kSerialization) ++tally_.conflicts;
    if (notes_.size() < 3) {
      notes_.push_back("sql_shared error (" + what + "): " +
                       status.ToString());
    }
    return false;
  }

  bool Wrong(const std::string& what) {
    if (failures_.size() < 3) failures_.push_back(what);
    return false;
  }

  // Times one engine call from outside and notes whether a checkpoint ran
  // meanwhile (on any session: this call then waited for it).
  template <typename Call>
  auto Timed(const char* span, Call&& call) {
    Span s(sink_, span);
    const uint64_t checkpoints = checkpoints_->value();
    const auto start = Clock::now();
    auto result = call();
    const double us = UsSince(start);
    tally_.stmt_us += us;
    if (checkpoints_->value() != checkpoints) tally_.stall_us += us;
    return result;
  }

  // A SELECT, prepared or as text.
  xnf::Result<xnf::ResultSet> Select(const char* prepared_text,
                                     const std::string& text, int64_t param,
                                     bool prepared) {
    xnf::Result<xnf::ResultSet> rows = Timed("bench.query", [&] {
      if (!prepared) return session_->Query(text);
      const size_t cached = session_->prepared_cache_size();
      const auto start = Clock::now();
      auto result = session_->QueryPrepared(prepared_text, {Value::Int(param)});
      if (session_->prepared_cache_size() > cached) {
        tally_.prepare_us.Add(UsSince(start));
      }
      return result;
    });
    if (rows.ok()) {
      tally_.rows_returned += rows->rows.size();
      tally_.kernel_filters += rows->stats.kernel_filters;
      tally_.scan_filters += rows->stats.scan_filters;
    }
    return rows;
  }

  bool PointRead(bool prepared) {
    const int pid = std::uniform_int_distribution<int>(
        0, static_cast<int>(f_->design.part_rows) - 1)(rng_);
    auto rows = Select("SELECT pid, iid, cost FROM part WHERE pid = ?",
                       "SELECT pid, iid, cost FROM part WHERE pid = " +
                           std::to_string(pid),
                       pid, prepared);
    if (!rows.ok()) return Error("point read", rows.status());
    if (rows->rows.size() != 1 ||
        AsInt64(rows->rows[0][1]) != pid / kPartsPerItem) {
      return Wrong("point read of part " + std::to_string(pid));
    }
    return true;
  }

  bool RangeRead(bool prepared) {
    const int item = std::uniform_int_distribution<int>(
        0, kConfigurations * kItemsPerCfg - 1)(rng_);
    auto rows = Select("SELECT pid, cost FROM part WHERE iid = ?",
                       "SELECT pid, cost FROM part WHERE iid = " +
                           std::to_string(item),
                       item, prepared);
    if (!rows.ok()) return Error("range read", rows.status());
    int64_t sum = 0;
    for (const auto& row : rows->rows) sum += AsInt64(row[1]);
    if (rows->rows.size() != kPartsPerItem ||
        sum != f_->design.item_cost_sum[item]) {
      return Wrong("range read of item " + std::to_string(item));
    }
    return true;
  }

  bool Join() {
    const int gid =
        std::uniform_int_distribution<int>(0, kConfigurations - 1)(rng_);
    auto rows = Select(
        nullptr,
        "SELECT i.iid, p.pid, p.cost FROM item i, part p WHERE i.gid = " +
            std::to_string(gid) + " AND p.iid = i.iid",
        0, false);
    if (!rows.ok()) return Error("join", rows.status());
    if (rows->rows.size() != kItemsPerCfg * kPartsPerItem) {
      return Wrong("join of group " + std::to_string(gid));
    }
    return true;
  }

  bool GroupReport() {
    auto rows = Select(
        nullptr,
        "SELECT region, COUNT(*), SUM(amount) FROM sales WHERE qty >= " +
            std::to_string(kMinQty) + " GROUP BY region",
        0, false);
    if (!rows.ok()) return Error("report", rows.status());
    int64_t count = 0, amount = 0;
    for (const auto& row : rows->rows) {
      count += AsInt64(row[1]);
      amount += AsInt64(row[2]);
    }
    if (count != f_->report_rows || amount != f_->report_amount) {
      return Wrong("report totals");
    }
    return true;
  }

  bool Exec(const std::string& text, bool dml) {
    if (dml) tally_.user_bytes += text.size();
    auto result =
        Timed("bench.statement", [&] { return session_->Execute(text); });
    if (!result.ok()) return Error("write transaction", result.status());
    return true;
  }

  // Moves an amount between two live rows (the range's SUM is conserved)
  // and replaces the oldest live row by a new one with the same amount (its
  // row count is conserved).
  bool WriteTxn() {
    // a and b never pick the oldest row, which this transaction deletes.
    std::uniform_int_distribution<size_t> any(1, live_.size() - 1);
    const int a = live_[any(rng_)];
    int b = a;
    while (b == a) b = live_[any(rng_)];
    const int d = std::uniform_int_distribution<int>(1, 9)(rng_);
    const int victim = live_.front();
    const int fresh = range_.lo + next_slot_ % kSessionRange;
    const int64_t victim_amount = amount_[victim];
    if (!Exec("BEGIN", false)) return false;
    const bool ok =
        Exec("UPDATE ledger SET amount = amount + " + std::to_string(d) +
                 " WHERE lid = " + std::to_string(a),
             true) &&
        Exec("UPDATE ledger SET amount = amount - " + std::to_string(d) +
                 " WHERE lid = " + std::to_string(b),
             true) &&
        Exec("DELETE FROM ledger WHERE lid = " + std::to_string(victim),
             true) &&
        Exec("INSERT INTO ledger VALUES (" + std::to_string(fresh) + ", " +
                 std::to_string(range_.owner) + ", " +
                 std::to_string(victim_amount) + ", 'carried forward')",
             true) &&
        Exec("COMMIT", false);
    if (!ok) {
      if (session_->in_transaction()) Exec("ROLLBACK", false);
      return false;
    }
    ++tally_.txns;
    amount_[a] += d;
    amount_[b] -= d;
    amount_.erase(victim);
    amount_[fresh] = victim_amount;
    live_.pop_front();
    live_.push_back(fresh);
    ++next_slot_;
    return true;
  }

  Fixture* f_;
  SessionRange range_;
  std::mt19937_64 rng_;
  std::unique_ptr<Session> session_;
  xnf::Counter* checkpoints_;
  AggregatingTraceSink* sink_ = nullptr;
  Tally tally_;
  std::deque<int> live_;  // live pids, oldest first
  int next_slot_ = 0;
  std::unordered_map<int, int64_t> amount_;  // live lid -> amount
  std::vector<std::string> notes_, failures_;
};

struct Phase {
  double wall_s = 0;
  Tally tally;
  MetricsSnapshot metrics;
  int64_t versions_retained_peak = 0;
};

// Runs every client on its own thread for `seconds`. With `monitor` (every
// phase of a traced run), one more session samples sqlxnf_transactions
// every 20 ms for the peak of retained MVCC versions.
Phase RunPhase(Fixture* f, std::vector<std::unique_ptr<Client>>* clients,
               double seconds, AggregatingTraceSink* sink, bool monitor) {
  Phase phase;
  Database* db = f->db.get();
  db->set_trace_sink(sink);
  const auto before = MetricsSnapshot::Take(db->metrics());
  const auto start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::vector<Tally> tallies(clients->size());
  std::vector<std::thread> threads;
  for (size_t i = 0; i < clients->size(); ++i) {
    threads.emplace_back(
        [&, i] { tallies[i] = (*clients)[i]->Run(start, deadline, sink); });
  }
  if (monitor) {
    std::unique_ptr<Session> watcher = db->OpenSession();
    while (Clock::now() < deadline) {
      auto rows =
          watcher->Query("SELECT versions_retained FROM sqlxnf_transactions");
      if (rows.ok() && rows->rows.size() == 1) {
        phase.versions_retained_peak = std::max(
            phase.versions_retained_peak, AsInt64(rows->rows[0][0]));
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }
  for (std::thread& t : threads) t.join();
  phase.wall_s = SecondsSince(start);
  phase.metrics = MetricsSnapshot::Take(db->metrics()) - before;
  db->set_trace_sink(nullptr);
  for (const Tally& t : tallies) phase.tally.Merge(t);
  return phase;
}

Samples Reads(const Tally& t) {
  Samples reads = t.latency[kPoint];
  reads.Merge(t.latency[kRange]);
  return reads;
}

void AddLayerMetrics(const Phase& p, Report* report) {
  const Tally& t = p.tally;
  const MetricsSnapshot& m = p.metrics;
  const double ops = static_cast<double>(t.attempted);
  const double engine_us = m.SumMatching("stmt.latency_us.", "#sum");
  report->Add("api.latch_wait_share", (t.stmt_us - engine_us) / t.stmt_us,
              "ratio");
  report->Add("plan.prepare_us", t.prepare_us.Mean(), "us");
  report->Add("exec.kernel_coverage",
              t.scan_filters > 0 ? t.kernel_filters / t.scan_filters : 0.0,
              "ratio");
  AddEngineMetrics(m, ops, t.rows_returned, report);
  report->Add("storage.wal_bytes_per_user_byte",
              m.Get("wal.bytes") / t.user_bytes, "ratio");
  report->Add("storage.wal_appends_per_txn",
              m.Get("wal.appends") / static_cast<double>(t.txns), "count");
  report->Add("catalog.serialization_conflicts",
              static_cast<double>(t.conflicts), "count");
}

// Checkpoints are a few per run, so these count every phase.
void AddWholeRunMetrics(const std::vector<const Phase*>& phases,
                        Report* report) {
  double checkpoints = 0, bytes = 0, stall_us = 0;
  int64_t versions_peak = 0;
  for (const Phase* p : phases) {
    checkpoints += p->metrics.Get("checkpoint.count");
    bytes += p->metrics.Get("checkpoint.bytes");
    stall_us += p->tally.stall_us;
    versions_peak = std::max(versions_peak, p->versions_retained_peak);
  }
  report->Add("catalog.versions_retained_peak",
              static_cast<double>(versions_peak), "count");
  report->Add("catalog.checkpoints", checkpoints, "count");
  report->Add("catalog.checkpoint_bytes",
              checkpoints > 0 ? bytes / checkpoints : 0.0, "bytes");
  report->Add("catalog.checkpoint_stall_us",
              checkpoints > 0 ? stall_us / checkpoints : 0.0, "us");
}

}  // namespace

RunInfo RunSqlShared(const Config& config, Report* report) {
  // One vCPU stays free, so that nothing else of this process or its host
  // preempts the statement-latch holder: with nproc sessions on 4 vCPUs the
  // p99s spread 30-47% over ten seeds, with nproc - 1 8-14%.
  const int sessions =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()) - 1);
  int index = 0;
  std::unique_ptr<Fixture> f = TimedSetup<Fixture>(
      config, [&] { return BuildFixture(config, sessions, index++); },
      report);
  RunInfo info;
  info.dop = f->db->threads();
  info.clients = sessions;
  info.options = OptionsText();
  {
    std::vector<std::unique_ptr<Client>> clients;
    for (int s = 0; s < sessions; ++s) {
      clients.push_back(std::make_unique<Client>(
          f.get(), s, config.seed * 1000003 + s));
    }
    if (!config.trace) {
      Phase phase =
          RunPhase(f.get(), &clients, config.seconds, nullptr, false);
      const Tally& t = phase.tally;
      report->attempted = t.attempted;
      report->failed = t.failed;
      report->AddUnitMetrics(t.done_s, t.op_us, config.seconds);
      report->NoteLatency("read", Reads(t));
      report->NoteLatency("write", t.latency[kWrite]);
      report->NoteLatency("report", t.latency[kReport]);
      report->NoteLatency("join", t.latency[kJoin]);
      report->Note("checkpoints: " +
                   std::to_string(phase.metrics.Get("checkpoint.count")));
    } else {
      AggregatingTraceSink sink;
      const auto [plain, wide, traced, dop] = RunThirds<Phase>(
          f->db.get(), config.seconds, &sink,
          [&](double seconds, AggregatingTraceSink* k) {
            return RunPhase(f.get(), &clients, seconds, k, /*monitor=*/true);
          });
      report->attempted = plain.tally.attempted + wide.tally.attempted +
                          traced.tally.attempted;
      report->failed =
          plain.tally.failed + wide.tally.failed + traced.tally.failed;
      AddLayerMetrics(plain, report);
      AddWholeRunMetrics({&plain, &wide, &traced}, report);
      const double plain_rate = plain.tally.attempted / plain.wall_s;
      AddPoolMetrics(wide.metrics, wide.tally.attempted, dop,
                     wide.tally.attempted / wide.wall_s / plain_rate, report);
      AddTraceSummary(sink, plain_rate, traced.tally.attempted,
                      traced.wall_s, /*xnf=*/false, {"sql.unit"}, report);
    }
    for (auto& client : clients) {
      client->Flush(report);
      client->CheckRange(report);
    }
  }
  if (!config.trace) report->Add("rss_peak_mb", PeakRssMb(), "MB");
  return info;
}

}  // namespace xnfbench
