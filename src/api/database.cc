#include "api/database.h"

#include "api/session.h"

#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <numeric>
#include <string_view>
#include <thread>

#include "common/failpoint.h"
#include "common/str_util.h"
#include "exec/dml.h"
#include "exec/explain.h"
#include "exec/operators.h"
#include "plan/planner.h"
#include "qgm/builder.h"
#include "qgm/rewrite.h"
#include "sql/lexer.h"
#include "sql/parser.h"
#include "xnf/manipulate.h"
#include "xnf/path.h"
#include "xnf/parser.h"

namespace xnf {

namespace {

// Splits `text` on newlines into single-column "plan" rows.
void EmitLines(const std::string& text, ResultSet* out) {
  size_t start = 0;
  while (start < text.size()) {
    size_t nl = text.find('\n', start);
    if (nl == std::string::npos) nl = text.size();
    out->rows.push_back({Value::String(text.substr(start, nl - start))});
    start = nl + 1;
  }
}

// "12.3us" — matches the RenderPlan time format.
std::string FormatUs(uint64_t ns) {
  return std::to_string(ns / 1000) + "." + std::to_string((ns / 100) % 10) +
         "us";
}

// FNV-1a 64 of the statement text: a stable, platform-independent identity
// for sqlxnf_statements (the text itself may hold user data; the hash does
// not).
uint64_t Fnv1a(const std::string& s) {
  uint64_t h = 1469598103934665603ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

// Statement kind from the leading keyword(s); the stmt.latency_us.<kind>
// histogram family and the sqlxnf_statements `kind` column. XNF statements
// are refined by ExecuteXnf (xnf_take / xnf_update / xnf_delete).
std::string StatementKindOf(const std::string& text) {
  size_t pos = 0;
  auto word = [&]() {
    while (pos < text.size() &&
           !std::isalpha(static_cast<unsigned char>(text[pos]))) {
      ++pos;
    }
    std::string w;
    while (pos < text.size() &&
           std::isalpha(static_cast<unsigned char>(text[pos]))) {
      w.push_back(static_cast<char>(
          std::tolower(static_cast<unsigned char>(text[pos]))));
      ++pos;
    }
    return w;
  };
  std::string first = word();
  if (first.empty()) return "other";
  if (first == "create" || first == "drop") {
    std::string second = word();
    if (second == "table" || second == "index" || second == "view") {
      return first + "_" + second;
    }
    return first;
  }
  if (first == "begin" || first == "commit" || first == "rollback") {
    return "txn";
  }
  if (first == "out") return "xnf";
  return first;  // select / insert / update / delete / explain / ...
}

}  // namespace

Database::Database(Options options)
    : options_(options), buffer_pool_(options.buffer_pool_pages),
      catalog_(&buffer_pool_, options.tuples_per_page),
      exec_pool_(std::make_unique<ThreadPool>(options.threads)) {
  catalog_.set_exec_pool(exec_pool_.get());
  ExecConfig exec_config;
  exec_config.use_indexes = options.use_indexes;
  exec_config.use_rewrite = options.use_rewrite;
  catalog_.set_exec_config(exec_config);
  // Fault injection: the Options spec first, then the environment on top
  // (the env wins on per-site conflicts). Both are no-ops when empty; a
  // malformed spec aborts construction loudly rather than silently running
  // without the requested faults.
  if (!options_.failpoints.empty()) {
    Status armed = Failpoints::EnableSpec(options_.failpoints);
    if (!armed.ok()) {
      std::fprintf(stderr, "sqlxnf: bad failpoint spec: %s\n",
                   armed.message().c_str());
      std::abort();
    }
  }
  if (const char* env = std::getenv("SQLXNF_FAILPOINTS");
      env != nullptr && env[0] != '\0') {
    Status armed = Failpoints::EnableSpec(env);
    if (!armed.ok()) {
      std::fprintf(stderr, "sqlxnf: bad SQLXNF_FAILPOINTS: %s\n",
                   armed.message().c_str());
      std::abort();
    }
  }
  // Default table layout: explicit option > SQLXNF_STORAGE env > row. An
  // unknown env value aborts loudly for the same reason a bad failpoint
  // spec does — silently running the wrong layout would invalidate a whole
  // CI matrix leg.
  if (options_.default_storage.has_value()) {
    catalog_.set_default_storage(*options_.default_storage);
  } else if (const char* env = std::getenv("SQLXNF_STORAGE");
             env != nullptr && env[0] != '\0') {
    std::string value = env;
    if (value == "row") {
      catalog_.set_default_storage(StorageKind::kRow);
    } else if (value == "column") {
      catalog_.set_default_storage(StorageKind::kColumn);
    } else {
      std::fprintf(stderr, "sqlxnf: bad SQLXNF_STORAGE: %s\n", env);
      std::abort();
    }
  }
  if (options_.collect_metrics) {
    metrics_ = std::make_unique<MetricsRegistry>();
    catalog_.set_metrics(metrics_.get());
    exec_pool_->set_metrics(metrics_.get());
    // Subsystems that already keep their own atomics are exported as pull
    // gauges: sampled only when a snapshot is taken, free otherwise. The
    // callbacks read exec_pool_ through `this`, so they survive the pool
    // swap in set_threads().
    metrics_->RegisterGaugeCallback("bufferpool.accesses", [this] {
      return static_cast<int64_t>(buffer_pool_.accesses());
    });
    metrics_->RegisterGaugeCallback("bufferpool.faults", [this] {
      return static_cast<int64_t>(buffer_pool_.faults());
    });
    metrics_->RegisterGaugeCallback("bufferpool.evictions", [this] {
      return static_cast<int64_t>(buffer_pool_.evictions());
    });
    metrics_->RegisterGaugeCallback("bufferpool.resident", [this] {
      return static_cast<int64_t>(buffer_pool_.resident_pages());
    });
    metrics_->RegisterGaugeCallback("bufferpool.dirty", [this] {
      return static_cast<int64_t>(buffer_pool_.dirty_pages());
    });
    static constexpr PageKind kKinds[] = {PageKind::kHeap, PageKind::kIndex,
                                          PageKind::kColumn};
    for (PageKind kind : kKinds) {
      std::string prefix = std::string("bufferpool.") + PageKindName(kind);
      metrics_->RegisterGaugeCallback(prefix + ".accesses", [this, kind] {
        return static_cast<int64_t>(buffer_pool_.accesses(kind));
      });
      metrics_->RegisterGaugeCallback(prefix + ".faults", [this, kind] {
        return static_cast<int64_t>(buffer_pool_.faults(kind));
      });
      metrics_->RegisterGaugeCallback(prefix + ".evictions", [this, kind] {
        return static_cast<int64_t>(buffer_pool_.evictions(kind));
      });
      metrics_->RegisterGaugeCallback(prefix + ".resident", [this, kind] {
        return static_cast<int64_t>(buffer_pool_.resident_pages(kind));
      });
    }
    metrics_->RegisterGaugeCallback("threadpool.queue_depth", [this] {
      return static_cast<int64_t>(exec_pool_->queue_depth());
    });
    // Process-lifetime fault-injection trips (the registry is global, so
    // two databases report the same number — by design).
    metrics_->RegisterGaugeCallback("failpoint.trips", [] {
      return static_cast<int64_t>(Failpoints::total_fires());
    });
    plan_cache_hits_ = metrics_->counter("plan_cache.hits");
    plan_cache_misses_ = metrics_->counter("plan_cache.misses");
    plan_cache_invalidations_ = metrics_->counter("plan_cache.invalidations");
    plan_cache_evictions_ = metrics_->counter("plan_cache.evictions");
  }
  RegisterSystemViews();
  if (!options_.data_dir.empty()) {
    open_error_ = OpenDurable();
    if (!open_error_.ok()) {
      // Leave the database inert rather than half-recovered: every
      // Execute() reports open_error_ until the caller reopens.
      catalog_.set_wal(nullptr);
      catalog_.set_undo_log(nullptr);
      durable_store_.reset();
    }
  }
  // The transaction manager goes live only after replay: recovery applies
  // the log physically, below any notion of visibility.
  catalog_.set_txn_manager(&txn_manager_);
  default_session_ =
      std::unique_ptr<Session>(new Session(this, next_session_id_++));
}

Database::~Database() {
  // Member sessions (and any user session racing shutdown, which is a use
  // error) skip their rollback-on-destroy: an open transaction at close is
  // left for recovery to roll back, exactly like a crash.
  closing_ = true;
  if (durable_store_ != nullptr && options_.checkpoint_on_close &&
      !in_transaction()) {
    // Best-effort: a failed close checkpoint just leaves the WAL to replay
    // on the next open, which is always safe.
    Failpoints::Suppressor suppress;
    (void)durable_store_->Checkpoint();
  }
  catalog_.set_wal(nullptr);
}

Status Database::OpenDurable() {
  DurableStore::Options store_options;
  store_options.wal_fsync = options_.wal_fsync;
  store_options.metrics = metrics_.get();
  std::vector<Wal::Record> wal_records;
  DurableStore::RecoveryInfo info;
  XNF_ASSIGN_OR_RETURN(
      durable_store_,
      DurableStore::Open(options_.data_dir, &catalog_, store_options,
                         &wal_records, &info));
  XNF_RETURN_IF_ERROR(ReplayWal(wal_records));
  // Only now does the engine start logging: replay itself must not append.
  catalog_.set_wal(durable_store_->wal());
  // Restore the MVCC visibility horizon above every recovered commit: the
  // checkpoint pinned the epoch at checkpoint time, and each replayed
  // commit marker carries the epoch it committed at. Post-recovery
  // snapshots must order after all of them.
  uint64_t horizon = info.mvcc_epoch;
  for (const Wal::Record& rec : wal_records) {
    if (rec.commit_epoch > horizon) horizon = rec.commit_epoch;
  }
  txn_manager_.set_epoch_floor(horizon);
  // Future checkpoints persist the live horizon so the next recovery
  // restores it even with an empty WAL.
  durable_store_->set_epoch_source([this] { return txn_manager_.epoch(); });
  if (metrics_ != nullptr) {
    metrics_->counter("recovery.count")->Add(1);
    metrics_->counter("recovery.tables_restored")->Add(info.tables_restored);
    metrics_->counter("recovery.units_restored")->Add(info.units_restored);
    metrics_->counter("recovery.wal_records")->Add(info.wal_records);
    if (info.torn_wal_tail) metrics_->counter("recovery.torn_tails")->Add(1);
  }
  return Status::Ok();
}

Status Database::ReplayWal(const std::vector<Wal::Record>& records) {
  // Replay must look like the original run, not like new work: no fault
  // injection, no WAL appends (the log is attached only after replay).
  Failpoints::Suppressor suppress;
  exec::DmlExecutor dml(&catalog_);
  std::vector<const Wal::Record*> pending;
  // Transaction brackets in the log replay through a recovery-local undo
  // log; sessions (and the MVCC manager) are not up yet.
  std::unique_ptr<UndoLog> replay_txn;

  // Applies the first `apply_count` buffered records of one statement
  // through the normal DML/DDL paths, then commits or rolls the statement
  // back — an abort replays its rid-space side effects (tombstoned insert
  // slots) so later records' rids stay valid.
  auto replay_statement = [&](size_t apply_count, bool commit,
                              bool surplus_burned = false) -> Status {
    exec::StatementAtomicity statement(&catalog_);
    for (size_t i = 0; i < apply_count && i < pending.size(); ++i) {
      const Wal::Record& rec = *pending[i];
      switch (rec.kind) {
        case Wal::RecordKind::kInsert: {
          TableInfo* table = catalog_.GetTable(rec.table);
          if (table == nullptr) {
            return Status::Internal("recovery: WAL insert into unknown table '" +
                                    rec.table + "'");
          }
          Result<Rid> rid = dml.InsertRow(table, rec.row);
          if (!rid.ok()) return rid.status();
          break;
        }
        case Wal::RecordKind::kUpdate: {
          TableInfo* table = catalog_.GetTable(rec.table);
          if (table == nullptr) {
            return Status::Internal("recovery: WAL update of unknown table '" +
                                    rec.table + "'");
          }
          XNF_RETURN_IF_ERROR(dml.UpdateRow(table, rec.rid, rec.row));
          break;
        }
        case Wal::RecordKind::kDelete: {
          TableInfo* table = catalog_.GetTable(rec.table);
          if (table == nullptr) {
            return Status::Internal("recovery: WAL delete from unknown table '" +
                                    rec.table + "'");
          }
          XNF_RETURN_IF_ERROR(dml.DeleteRow(table, rec.rid));
          break;
        }
        case Wal::RecordKind::kDdl: {
          // DDL re-executes its statement text; file ids stay deterministic
          // because the checkpoint pinned next_file_id.
          Result<ExecResult> r = ExecuteInternal(nullptr, rec.sql);
          if (!r.ok()) return r.status();
          break;
        }
        default:
          return Status::Internal("recovery: marker inside statement body");
      }
    }
    if (commit) return statement.Commit();
    // The op after the applied prefix failed mid-apply and its compensation
    // tombstoned a freshly allocated rid: insert-then-delete directly on
    // the storage (the original's index changes compensated to nothing) to
    // burn the identical slot.
    if (surplus_burned && apply_count < pending.size()) {
      const Wal::Record& rec = *pending[apply_count];
      TableInfo* table = catalog_.GetTable(rec.table);
      if (table == nullptr || rec.kind != Wal::RecordKind::kInsert) {
        return Status::Internal("recovery: malformed surplus insert record");
      }
      Result<Rid> rid = table->storage->Insert(rec.row);
      if (!rid.ok()) return rid.status();
      XNF_RETURN_IF_ERROR(table->storage->Delete(*rid));
    }
    return statement.Abort();
  };

  for (const Wal::Record& rec : records) {
    switch (rec.kind) {
      case Wal::RecordKind::kInsert:
      case Wal::RecordKind::kUpdate:
      case Wal::RecordKind::kDelete:
      case Wal::RecordKind::kDdl:
        // A new sequence while older records are buffered means the older
        // statement's marker was lost to a torn tail and appends resumed
        // after recovery truncated the garbage: the stray records stayed in
        // the file and must not merge into this statement.
        if (!pending.empty() && pending.back()->stmt_seq != rec.stmt_seq) {
          pending.clear();
        }
        pending.push_back(&rec);
        break;
      case Wal::RecordKind::kStmtCommit:
        XNF_RETURN_IF_ERROR(replay_statement(pending.size(), /*commit=*/true));
        pending.clear();
        break;
      case Wal::RecordKind::kStmtAbort:
        XNF_RETURN_IF_ERROR(replay_statement(rec.applied_ops, /*commit=*/false,
                                             rec.surplus_burned));
        pending.clear();
        break;
      case Wal::RecordKind::kTxnBegin:
        if (replay_txn != nullptr) {
          return Status::Internal("recovery: nested transaction in WAL");
        }
        replay_txn = std::make_unique<UndoLog>();
        catalog_.set_undo_log(replay_txn.get());
        break;
      case Wal::RecordKind::kTxnCommit:
        if (replay_txn == nullptr) {
          return Status::Internal("recovery: commit without transaction");
        }
        replay_txn->Commit();
        catalog_.set_undo_log(nullptr);
        replay_txn.reset();
        break;
      case Wal::RecordKind::kTxnRollback: {
        if (replay_txn == nullptr) {
          return Status::Internal("recovery: rollback without transaction");
        }
        Status rolled = replay_txn->Rollback(&catalog_);
        catalog_.set_undo_log(nullptr);
        replay_txn.reset();
        XNF_RETURN_IF_ERROR(rolled);
        break;
      }
    }
  }
  // An unmarked record tail is a crash mid-statement: drop it (pending just
  // goes out of scope). An unterminated transaction — a crash, or a close
  // with a session's transaction still open — rolls back exactly like an
  // in-process ROLLBACK would have: uncommitted work never survives a
  // reopen.
  if (replay_txn != nullptr) {
    Status rolled = replay_txn->Rollback(&catalog_);
    catalog_.set_undo_log(nullptr);
    replay_txn.reset();
    XNF_RETURN_IF_ERROR(rolled);
    if (metrics_ != nullptr) {
      metrics_->counter("recovery.txn_rollbacks")->Add(1);
    }
  }
  return Status::Ok();
}

std::unique_lock<std::mutex> Database::LockLatch() {
  std::unique_lock<std::mutex> lock(exec_mu_, std::try_to_lock);
  if (lock.owns_lock()) return lock;
  // A statement served from the statement cache holds the latch for a few
  // microseconds, less than a blocked thread needs to wake up. A waiter that
  // slept at once would mostly find the latch taken again by the session
  // that just released it, and wait out a whole run of that session's
  // statements. So a waiter polls for a few statement lengths first and
  // sleeps only behind a long holder (a report, a checkpoint).
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::microseconds(100);
  while (!lock.try_lock()) {
    if (std::chrono::steady_clock::now() >= give_up) {
      lock.lock();
      break;
    }
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#else
    std::this_thread::yield();
#endif
  }
  return lock;
}

Status Database::Checkpoint() {
  XNF_RETURN_IF_ERROR(open_error_);
  if (durable_store_ == nullptr) {
    return Status::InvalidArgument(
        "not a durable database (Options::data_dir unset)");
  }
  // The latch keeps the checkpoint off a statement's back: no session can
  // be mid-write while pages are snapshotted.
  std::lock_guard<std::mutex> lock(exec_mu_);
  if (in_transaction()) {
    return Status::InvalidArgument(
        "cannot checkpoint while a transaction is open");
  }
  return durable_store_->Checkpoint();
}

void Database::MaybeAutoCheckpoint() {
  if (durable_store_ == nullptr || options_.checkpoint_wal_bytes == 0 ||
      in_transaction()) {
    return;
  }
  if (durable_store_->wal()->bytes_written() < options_.checkpoint_wal_bytes) {
    return;
  }
  // Failure is benign: the WAL keeps growing and the next statement
  // boundary retries.
  (void)durable_store_->Checkpoint();
}

void Database::set_threads(int n) {
  catalog_.set_exec_pool(nullptr);
  exec_pool_ = std::make_unique<ThreadPool>(n);
  catalog_.set_exec_pool(exec_pool_.get());
  if (metrics_ != nullptr) exec_pool_->set_metrics(metrics_.get());
}

int Database::threads() const { return exec_pool_->dop(); }

Result<const ResultSet*> Database::ResolveExtra(const std::string& name) {
  // "view.component": materialize the XNF view and expose one node as a
  // table (closure type (3), Fig. 6).
  size_t dot = name.find('.');
  if (dot == std::string::npos) {
    return static_cast<const ResultSet*>(nullptr);
  }
  std::string view_name = name.substr(0, dot);
  std::string component = name.substr(dot + 1);
  const ViewInfo* view = catalog_.GetView(view_name);
  if (view == nullptr || !view->is_xnf) {
    return Status::NotFound("XNF view '" + view_name + "' not found");
  }
  co::Evaluator evaluator(&catalog_, xnf_options_);
  XNF_ASSIGN_OR_RETURN(co::CoInstance instance,
                       evaluator.EvaluateText(view->definition));
  int n = instance.NodeIndex(component);
  if (n < 0) {
    return Status::NotFound("component '" + component +
                            "' not found in XNF view '" + view_name + "'");
  }
  component_cache_.push_back(
      std::make_unique<ResultSet>(instance.nodes[n].ToResultSet()));
  return static_cast<const ResultSet*>(component_cache_.back().get());
}

Result<ResultSet> PreparedQuery::Execute(const std::vector<Value>& params) {
  XNF_RETURN_IF_ERROR(db_->open_error_);
  std::unique_lock<std::mutex> lock = db_->LockLatch();
  return ExecuteLocked(params);
}

Result<ResultSet> PreparedQuery::ExecuteLocked(
    const std::vector<Value>& params) {
  // Prepared queries execute in their session's transaction context: a
  // session that prepared inside BEGIN reads its own snapshot here too.
  Database::StatementContext ctx_guard(db_, session_);
  db_->catalog_.BeginStatementEpoch();
  const uint64_t before[3] = {
      db_->buffer_pool_.accesses(PageKind::kHeap),
      db_->buffer_pool_.accesses(PageKind::kIndex),
      db_->buffer_pool_.accesses(PageKind::kColumn)};
  const auto start = std::chrono::steady_clock::now();
  Result<ResultSet> rows = [&]() -> Result<ResultSet> {
    // DDL since the plan was compiled may have moved the tables, indexes or
    // column slots it binds: re-plan from the text first.
    if (version_ != db_->catalog_.version()) {
      CounterAdd(db_->plan_cache_invalidations_);
      XNF_ASSIGN_OR_RETURN(plan_, db_->PlanPrepared(text_));
      version_ = db_->catalog_.version();
    }
    return db_->RunSelectPlan(plan_.get(), &params, "prepared");
  }();
  db_->RecordStatement("", "prepared", start, before,
                       rows.ok() ? static_cast<int64_t>(rows->rows.size()) : 0,
                       rows.ok() ? rows->stats.kernel_filters : 0,
                       rows.ok() ? rows->stats.scan_filters : 0,
                       rows.ok() ? Status::Ok() : rows.status());
  return rows;
}

Result<exec::OperatorPtr> Database::PlanPrepared(
    const std::string& select_text) {
  sql::Parser parser(select_text);
  XNF_ASSIGN_OR_RETURN(std::unique_ptr<sql::SelectStmt> stmt,
                       [&]() -> Result<std::unique_ptr<sql::SelectStmt>> {
                         TraceScope span(trace_sink_, "parse");
                         return parser.ParseSelect();
                       }());
  parser.Accept(sql::TokenKind::kSemicolon);
  if (!parser.AtEnd()) {
    return parser.MakeError("unexpected trailing input");
  }
  return CompileSelect(*stmt, /*used_extra=*/nullptr);
}

Result<std::unique_ptr<PreparedQuery>> Database::Prepare(
    const std::string& select_text) {
  XNF_RETURN_IF_ERROR(open_error_);
  // Planning reads the catalog; the latch keeps concurrent DDL out.
  std::unique_lock<std::mutex> lock = LockLatch();
  return PrepareLocked(select_text);
}

Result<std::unique_ptr<PreparedQuery>> Database::PrepareLocked(
    const std::string& select_text) {
  XNF_ASSIGN_OR_RETURN(exec::OperatorPtr plan, PlanPrepared(select_text));
  return std::unique_ptr<PreparedQuery>(
      new PreparedQuery(select_text, std::move(plan), catalog_.version(), this,
                        default_session_.get()));
}

PreparedCo::PreparedCo(Database* db, std::unique_ptr<co::XnfQuery> query,
                       std::unique_ptr<co::CoPlan> plan, uint64_t version)
    : db_(db), query_(std::move(query)), plan_(std::move(plan)),
      version_(version) {}

PreparedCo::~PreparedCo() = default;

Result<std::unique_ptr<PreparedCo>> Database::PrepareCo(
    const std::string& xnf_text) {
  XNF_RETURN_IF_ERROR(open_error_);
  std::unique_lock<std::mutex> lock = LockLatch();
  auto query = std::make_unique<co::XnfQuery>();
  XNF_ASSIGN_OR_RETURN(*query, [&]() -> Result<co::XnfQuery> {
    TraceScope span(trace_sink_, "parse");
    return co::Parser::Parse(xnf_text);
  }());
  if (query->action != co::XnfQuery::Action::kTake) {
    return Status::InvalidArgument("PrepareCo takes an OUT OF ... TAKE query");
  }
  co::Evaluator evaluator(&catalog_, xnf_options_);
  evaluator.set_trace_sink(trace_sink_);
  XNF_ASSIGN_OR_RETURN(std::unique_ptr<co::CoPlan> plan,
                       evaluator.Compile(*query));
  return std::unique_ptr<PreparedCo>(new PreparedCo(
      this, std::move(query), std::move(plan), catalog_.version()));
}

Result<co::CoInstance> PreparedCo::Query(const std::vector<Value>& params) {
  XNF_RETURN_IF_ERROR(db_->open_error_);
  std::unique_lock<std::mutex> lock = db_->LockLatch();
  Database::StatementContext ctx_guard(db_, db_->default_session_.get());
  db_->catalog_.BeginStatementEpoch();
  co::Evaluator evaluator(&db_->catalog_, db_->xnf_options_);
  evaluator.set_trace_sink(db_->trace_sink_);
  // Recompile after DDL, and always for a plan holding premade view data
  // (evaluated at compile time, so stale by the next call).
  if (version_ != db_->catalog_.version() || !plan_->cacheable) {
    if (version_ != db_->catalog_.version()) {
      CounterAdd(db_->plan_cache_invalidations_);
    }
    XNF_ASSIGN_OR_RETURN(plan_, evaluator.Compile(*query_));
    version_ = db_->catalog_.version();
  }
  Result<co::CoInstance> result = evaluator.Run(*plan_, params);
  db_->xnf_stats_ = evaluator.stats();
  db_->RecordXnfStats(db_->xnf_stats_);
  return result;
}

Result<std::unique_ptr<co::CoCache>> PreparedCo::Open(
    const std::vector<Value>& params) {
  XNF_ASSIGN_OR_RETURN(co::CoInstance instance, Query(params));
  return db_->BuildCache(std::move(instance));
}

Result<ResultSet> Database::Query(const std::string& select_text) {
  XNF_ASSIGN_OR_RETURN(ExecResult result, Execute(select_text));
  if (result.kind != ExecResult::Kind::kRows) {
    return Status::InvalidArgument("statement did not produce rows");
  }
  return std::move(result.rows);
}

Result<co::CoInstance> Database::QueryCo(const std::string& xnf_text) {
  XNF_RETURN_IF_ERROR(open_error_);
  std::unique_lock<std::mutex> lock = LockLatch();
  Session* session = default_session_.get();
  StatementContext ctx_guard(this, session);
  catalog_.BeginStatementEpoch();
  std::string_view first_word;
  const bool scanned = sql::ScanShape(xnf_text, &session->shape_,
                                      &first_word) == sql::StatementHead::kXnf;
  const co::XnfQuery* query = nullptr;
  std::unique_ptr<co::XnfQuery> owned;
  return EvaluateXnf(session, xnf_text, scanned ? &session->shape_ : nullptr,
                     &query, &owned);
}

Result<std::unique_ptr<co::CoCache>> Database::OpenCo(
    const std::string& xnf_text) {
  XNF_ASSIGN_OR_RETURN(co::CoInstance instance, QueryCo(xnf_text));
  return BuildCache(std::move(instance));
}

Result<std::unique_ptr<co::CoCache>> Database::BuildCache(
    co::CoInstance instance) {
  XNF_ASSIGN_OR_RETURN(auto cache, co::CoCache::Build(std::move(instance)));
  if (metrics_ != nullptr) {
    std::call_once(cocache_once_, [this] {
      cocache_fills_ = metrics_->counter("cocache.fills");
      cocache_tuples_ = metrics_->counter("cocache.tuples_linked");
      cocache_connections_ = metrics_->counter("cocache.connections_linked");
      cocache_pointer_nav_ = metrics_->counter("cocache.pointer_navigations");
      cocache_hash_nav_ = metrics_->counter("cocache.hash_navigations");
    });
    cocache_fills_->Add(1);
    cocache_tuples_->Add(cache->stats().tuples_linked);
    cocache_connections_->Add(cache->stats().connections_linked);
    cache->set_nav_counters(cocache_pointer_nav_, cocache_hash_nav_);
  }
  return cache;
}

Result<ExecResult> Database::ExecuteScript(const std::string& text) {
  return default_session_->ExecuteScript(text);
}

Result<ExecResult> Database::Execute(const std::string& text) {
  return ExecuteOn(default_session_.get(), text);
}

Result<ExecResult> Database::ExecuteOn(Session* session,
                                       const std::string& text) {
  XNF_RETURN_IF_ERROR(open_error_);
  std::unique_lock<std::mutex> lock = LockLatch();
  StatementContext ctx_guard(this, session);
  // Every statement starts a fresh system-view snapshot epoch: the first
  // access to a sqlxnf_* view inside this statement re-fills it, repeated
  // accesses (self-joins) see the same frozen snapshot.
  catalog_.BeginStatementEpoch();
  if (metrics_ == nullptr) {
    Result<ExecResult> result = ExecuteInternal(session, text);
    MaybeAutoCheckpoint();
    return result;
  }
  stmt_kind_override_.clear();
  const uint64_t before[3] = {buffer_pool_.accesses(PageKind::kHeap),
                              buffer_pool_.accesses(PageKind::kIndex),
                              buffer_pool_.accesses(PageKind::kColumn)};
  const auto start = std::chrono::steady_clock::now();
  Result<ExecResult> result = ExecuteInternal(session, text);
  const std::string kind = !stmt_kind_override_.empty()
                               ? stmt_kind_override_
                               : StatementKindOf(text);
  int64_t rows = 0;
  uint64_t kernel_filters = 0;
  uint64_t scan_filters = 0;
  if (result.ok()) {
    switch (result->kind) {
      case ExecResult::Kind::kRows:
        rows = static_cast<int64_t>(result->rows.rows.size());
        kernel_filters = result->rows.stats.kernel_filters;
        scan_filters = result->rows.stats.scan_filters;
        break;
      case ExecResult::Kind::kAffected:
        rows = result->affected;
        break;
      case ExecResult::Kind::kCo:
        for (const co::CoNodeInstance& node : result->co.nodes) {
          rows += static_cast<int64_t>(node.tuples.size());
        }
        break;
      case ExecResult::Kind::kNone:
        break;
    }
  }
  RecordStatement(text, kind, start, before, rows, kernel_filters,
                  scan_filters,
                  result.ok() ? Status::Ok() : result.status());
  MaybeAutoCheckpoint();
  return result;
}

Result<ExecResult> Database::ExecuteInternal(Session* session,
                                             const std::string& text) {
  component_cache_.clear();
  TraceScope statement_span(trace_sink_, "statement",
                            trace_sink_ != nullptr ? text : std::string());

  // Dispatch from one scan of the text: its first word, and for SELECT and
  // OUT OF statements the shape the statement cache is keyed by. Other
  // statements stop scanning after the first word. XNF queries begin with
  // OUT OF; EXPLAIN [ANALYZE] goes through the parser like any other
  // statement.
  sql::Shape local_shape;  // no session: WAL replay (DDL only)
  sql::Shape* shape = session != nullptr ? &session->shape_ : &local_shape;
  std::string_view first_word;
  const sql::StatementHead head = sql::ScanShape(text, shape, &first_word);
  if (head == sql::StatementHead::kError) {
    // The lexer reports the malformed token, as for any other statement.
    XNF_ASSIGN_OR_RETURN(auto tokens, sql::Lex(text));
    (void)tokens;
  }
  if (EqualsIgnoreCase(first_word, "out")) {
    return ExecuteXnf(session, text,
                      head == sql::StatementHead::kXnf && session != nullptr
                          ? shape
                          : nullptr);
  }
  if (head == sql::StatementHead::kSelect && session != nullptr) {
    return ExecuteSelect(session, text, *shape);
  }
  // Transaction control. DDL (CREATE/DROP) is non-transactional: it takes
  // effect immediately and is not undone by ROLLBACK.
  if (EqualsIgnoreCase(first_word, "begin") ||
      EqualsIgnoreCase(first_word, "commit") ||
      EqualsIgnoreCase(first_word, "rollback")) {
    XNF_ASSIGN_OR_RETURN(auto tokens, sql::Lex(text));
    if (tokens.size() > 2 ||
        (tokens.size() == 2 && tokens[1].kind != sql::TokenKind::kEnd &&
         tokens[1].kind != sql::TokenKind::kSemicolon)) {
      return Status::ParseError("unexpected input after transaction keyword");
    }
    if (session == nullptr) {
      return Status::Internal("transaction control without a session");
    }
    ExecResult result;
    result.kind = ExecResult::Kind::kNone;
    if (tokens[0].Is("begin")) {
      if (session->undo_ != nullptr) {
        return Status::InvalidArgument("a transaction is already active");
      }
      // Marker before state change: a failed append fails BEGIN with no
      // transaction open, which the log (no kTxnBegin) agrees with.
      if (Wal* wal = catalog_.wal(); wal != nullptr) {
        XNF_RETURN_IF_ERROR(wal->AppendTxnBegin());
      }
      session->undo_ = std::make_unique<UndoLog>();
      catalog_.set_undo_log(session->undo_.get());
      // The snapshot is taken here, at BEGIN: every read of this
      // transaction sees the database as of this instant.
      session->txn_ = txn_manager_.Begin(/*ephemeral=*/false);
      session->txn_->undo = session->undo_.get();
      txn_manager_.set_current(session->txn_);
      ++open_txns_;
      result.message = "transaction started";
      return result;
    }
    if (session->undo_ == nullptr) {
      return Status::InvalidArgument("no active transaction");
    }
    // Drops the session's transaction context; the StatementContext
    // destructor re-clears the catalog pointers anyway, but the session
    // members must go now.
    auto clear = [&] {
      catalog_.set_undo_log(nullptr);
      session->undo_.reset();
      session->txn_ = nullptr;
      txn_manager_.set_current(nullptr);
      --open_txns_;
    };
    if (tokens[0].Is("commit")) {
      // Reserve the commit epoch first so the WAL marker carries the same
      // epoch the in-memory commit publishes at — recovery restores the
      // visibility horizon from these markers.
      const uint64_t epoch = txn_manager_.PrepareCommitEpoch();
      if (Wal* wal = catalog_.wal(); wal != nullptr) {
        Status marker = wal->AppendTxnCommit(epoch);
        if (!marker.ok()) {
          // The commit could not be made durable: roll the transaction
          // back so memory matches what recovery would reconstruct, and
          // mark the rollback in the log so later statements don't read as
          // part of this transaction.
          wal->RollbackTxn();
          Status rolled = session->undo_->Rollback(&catalog_);
          txn_manager_.Rollback(session->txn_);
          clear();
          XNF_RETURN_IF_ERROR(rolled);
          return marker;
        }
      }
      // Harvest the pre-image versions BEFORE UndoLog::Commit clears the
      // entries they are copied from: concurrent snapshots older than this
      // epoch keep reading the pre-images from the version store.
      txn_manager_.Commit(session->txn_, epoch);
      session->txn_ = nullptr;
      session->undo_->Commit();
      result.message = "committed";
    } else {
      if (Wal* wal = catalog_.wal(); wal != nullptr) wal->RollbackTxn();
      Status rolled = session->undo_->Rollback(&catalog_);
      txn_manager_.Rollback(session->txn_);
      clear();
      XNF_RETURN_IF_ERROR(rolled);
      result.message = "rolled back";
      return result;
    }
    clear();
    return result;
  }

  sql::Parser parser(text);
  XNF_ASSIGN_OR_RETURN(sql::Statement stmt, [&]() -> Result<sql::Statement> {
    TraceScope span(trace_sink_, "parse");
    return parser.ParseStatement();
  }());
  if (!parser.AtEnd()) {
    return parser.MakeError("unexpected trailing input");
  }

  // DDL durability: the statement text is logged as a single-record WAL
  // statement (record before apply, commit marker after) and re-executed
  // verbatim on replay. DDL has no undo, so a commit marker that fails
  // after the catalog op already applied cannot roll back — it poisons the
  // log instead (see wal.h); injected marker faults are suppressed for the
  // same reason.
  auto apply_ddl = [&](auto&& op) -> Status {
    Wal* wal = catalog_.wal();
    if (wal == nullptr) return op();
    XNF_RETURN_IF_ERROR(wal->AppendDdl(text));
    Status applied = op();
    if (!applied.ok()) {
      wal->AbortStatement(/*applied_ops=*/0);
      return applied;
    }
    Failpoints::Suppressor suppress_marker;
    Status marker = wal->CommitStatement();
    if (!marker.ok()) wal->Poison();
    return Status::Ok();
  };

  ExecResult result;
  switch (stmt.kind) {
    case sql::Statement::Kind::kSelect: {
      // A SELECT the cache does not see (no session): compile and run once.
      bool used_extra = false;
      XNF_ASSIGN_OR_RETURN(exec::OperatorPtr root,
                           CompileSelect(*stmt.select, &used_extra));
      XNF_ASSIGN_OR_RETURN(result.rows,
                           RunSelectPlan(root.get(), nullptr, ""));
      result.kind = ExecResult::Kind::kRows;
      return result;
    }
    case sql::Statement::Kind::kExplain:
      return ExecuteExplain(*stmt.explain);
    case sql::Statement::Kind::kCreateTable: {
      Schema schema;
      for (const sql::ColumnDef& c : stmt.create_table->columns) {
        Column col(ToLower(c.name), c.type);
        col.not_null = c.not_null;
        col.primary_key = c.primary_key;
        schema.AddColumn(std::move(col));
      }
      std::optional<StorageKind> storage;
      if (stmt.create_table->storage == sql::StorageClause::kRow) {
        storage = StorageKind::kRow;
      } else if (stmt.create_table->storage == sql::StorageClause::kColumn) {
        storage = StorageKind::kColumn;
      }
      XNF_RETURN_IF_ERROR(apply_ddl([&] {
        return catalog_.CreateTable(stmt.create_table->name, std::move(schema),
                                    storage, stmt.create_table->cluster_by);
      }));
      result.kind = ExecResult::Kind::kNone;
      result.message = "table created";
      return result;
    }
    case sql::Statement::Kind::kCreateIndex: {
      const sql::CreateIndexStmt& ci = *stmt.create_index;
      // An index is built from the physical rows; building one while
      // another live transaction holds uncommitted writes to the table
      // would bake uncommitted (or about-to-be-rolled-back) data into it.
      if (txn_manager_.OtherTransactionTouched(ci.table)) {
        return Status::Serialization(
            "cannot CREATE INDEX on '" + ci.table +
            "' while another transaction has uncommitted writes to it");
      }
      XNF_RETURN_IF_ERROR(apply_ddl([&] {
        return catalog_.CreateIndex(
            ci.name, ci.table, ci.columns, ci.unique,
            ci.ordered ? Index::Kind::kOrdered : Index::Kind::kHash);
      }));
      result.kind = ExecResult::Kind::kNone;
      result.message = "index created";
      return result;
    }
    case sql::Statement::Kind::kCreateView: {
      const sql::CreateViewStmt& cv = *stmt.create_view;
      // Validate the body now so broken views are rejected at definition
      // time (as in the paper's view concept).
      if (cv.is_xnf) {
        XNF_ASSIGN_OR_RETURN(co::XnfQuery q, co::Parser::Parse(cv.definition));
        co::Resolver resolver(&catalog_);
        XNF_ASSIGN_OR_RETURN(co::CoDef def, resolver.Resolve(q));
        (void)def;
      } else {
        sql::Parser body(cv.definition);
        XNF_ASSIGN_OR_RETURN(auto select, body.ParseSelect());
        qgm::Builder builder(&catalog_, [this](const std::string& name) {
          return ResolveExtra(name);
        });
        XNF_ASSIGN_OR_RETURN(qgm::QueryGraph graph, builder.Build(*select));
        (void)graph;
      }
      XNF_RETURN_IF_ERROR(apply_ddl(
          [&] { return catalog_.CreateView(cv.name, cv.definition, cv.is_xnf); }));
      result.kind = ExecResult::Kind::kNone;
      result.message = cv.is_xnf ? "XNF view created" : "view created";
      return result;
    }
    case sql::Statement::Kind::kInsert:
    case sql::Statement::Kind::kUpdate:
    case sql::Statement::Kind::kDelete: {
      exec::DmlExecutor dml(&catalog_);
      TraceScope span(trace_sink_, "execute");
      using Kind = sql::Statement::Kind;
      XNF_ASSIGN_OR_RETURN(
          result.affected,
          stmt.kind == Kind::kInsert   ? dml.Insert(*stmt.insert)
          : stmt.kind == Kind::kUpdate ? dml.Update(*stmt.update)
                                       : dml.Delete(*stmt.del));
      result.kind = ExecResult::Kind::kAffected;
      return result;
    }
    case sql::Statement::Kind::kDrop: {
      if (stmt.drop->is_view) {
        XNF_RETURN_IF_ERROR(
            apply_ddl([&] { return catalog_.DropView(stmt.drop->name); }));
        result.message = "view dropped";
      } else {
        // Refuses while any live transaction wrote the table (its rollback
        // would need the storage back), then purges retained versions.
        XNF_RETURN_IF_ERROR(txn_manager_.OnDropTable(stmt.drop->name));
        XNF_RETURN_IF_ERROR(
            apply_ddl([&] { return catalog_.DropTable(stmt.drop->name); }));
        result.message = "table dropped";
      }
      result.kind = ExecResult::Kind::kNone;
      return result;
    }
  }
  return Status::Internal("unhandled statement kind");
}

Result<ExecResult> Database::ExecuteSelect(Session* session,
                                           const std::string& text,
                                           const sql::Shape& shape) {
  // A text with '?' placeholders is not parameterized: its placeholders
  // and the literal ordinals would share one parameter vector.
  const bool cacheable = shape.key.find('?') == std::string::npos;
  CachedStatement* entry = nullptr;
  if (cacheable) {
    StatementCache::Outcome outcome;
    entry = session->cache_.Find(shape.key, shape.literals, catalog_.version(),
                                 &outcome);
    CountLookup(outcome);
  }
  std::unique_ptr<CachedStatement> uncached;
  if (entry == nullptr) {
    sql::Parser parser(text);
    XNF_ASSIGN_OR_RETURN(sql::Statement stmt, [&]() -> Result<sql::Statement> {
      TraceScope span(trace_sink_, "parse");
      return parser.ParseStatement();
    }());
    if (!parser.AtEnd()) {
      return parser.MakeError("unexpected trailing input");
    }
    auto compiled = std::make_unique<CachedStatement>();
    compiled->version = catalog_.version();
    compiled->literals = shape.literals;
    compiled->is_param.assign(shape.literals.size(), 0);
    if (cacheable) {
      sql::ParameterizeWhere(stmt.select.get(), &compiled->is_param);
    }
    bool used_extra = false;
    XNF_ASSIGN_OR_RETURN(compiled->select,
                         CompileSelect(*stmt.select, &used_extra));
    if (cacheable && !used_extra) {
      bool evicted = false;
      entry = session->cache_.Insert(shape.key, std::move(compiled), &evicted);
      CountStore(evicted);
    } else {
      uncached = std::move(compiled);
      entry = uncached.get();
    }
  }
  ExecResult result;
  XNF_ASSIGN_OR_RETURN(
      result.rows,
      RunSelectPlan(entry->select.get(), cacheable ? &shape.literals : nullptr,
                    ""));
  result.kind = ExecResult::Kind::kRows;
  return result;
}

Result<exec::OperatorPtr> Database::CompileSelect(const sql::SelectStmt& select,
                                                  bool* used_extra) {
  qgm::Builder::ExtraResolver extra;
  if (used_extra != nullptr) {
    extra = [this, used_extra](const std::string& name) {
      Result<const ResultSet*> resolved = ResolveExtra(name);
      if (resolved.ok() && *resolved != nullptr) *used_extra = true;
      return resolved;
    };
  }
  qgm::Builder builder(&catalog_, std::move(extra));
  XNF_ASSIGN_OR_RETURN(qgm::QueryGraph graph,
                       [&]() -> Result<qgm::QueryGraph> {
                         TraceScope span(trace_sink_, "qgm-build");
                         return builder.Build(select);
                       }());
  XNF_ASSIGN_OR_RETURN(qgm::RewriteStats rw,
                       [&]() -> Result<qgm::RewriteStats> {
                         if (!catalog_.exec_config().use_rewrite) {
                           return qgm::RewriteStats{};
                         }
                         TraceScope span(trace_sink_, "rewrite");
                         return qgm::Rewrite(&graph, trace_sink_);
                       }());
  (void)rw;
  plan::Planner planner(&catalog_);
  TraceScope span(trace_sink_, "plan");
  return planner.Plan(graph);
}

Result<ResultSet> Database::RunSelectPlan(exec::Operator* root,
                                          const std::vector<Value>* params,
                                          const char* trace_detail) {
  exec::ExecContext ctx;
  ctx.catalog = &catalog_;
  ctx.params = params;
  ctx.collect_stats = collect_exec_stats_;
  // A plan that ran before reports this run alone.
  if (collect_exec_stats_) root->ResetStats();
  Result<ResultSet> rows = [&]() -> Result<ResultSet> {
    TraceScope span(trace_sink_, "execute", trace_detail);
    return exec::RunPlan(root, &ctx);
  }();
  if (rows.ok()) {
    exec_stats_ = rows->stats;
    if (collect_exec_stats_) {
      last_plan_profile_ = exec::RenderPlan(root, &catalog_, /*analyze=*/true);
    }
  }
  return rows;
}

Result<ExecResult> Database::ExecuteExplain(const sql::ExplainStmt& explain) {
  ExecResult result;
  result.kind = ExecResult::Kind::kRows;
  result.rows.schema.AddColumn(Column("plan", Type::kString));
  std::string dump;

  if (!explain.xnf_text.empty()) {
    // XNF body: EXPLAIN shows the resolved CO schema graph; ANALYZE
    // evaluates the query and appends the per-node/per-edge derived-query
    // profile (§4.3) plus the CSE and reachability counters.
    XNF_ASSIGN_OR_RETURN(co::XnfQuery query,
                         co::Parser::Parse(explain.xnf_text));
    if (explain.analyze) {
      co::Evaluator evaluator(&catalog_, xnf_options_);
      evaluator.set_trace_sink(trace_sink_);
      XNF_ASSIGN_OR_RETURN(co::CoInstance instance, evaluator.Evaluate(query));
      xnf_stats_ = evaluator.stats();
      RecordXnfStats(xnf_stats_);
      const co::Evaluator::Stats& s = xnf_stats_;
      dump += "xnf evaluation profile:\n";
      for (const co::Evaluator::QueryProfile& p : s.profiles) {
        dump += std::string("  ") +
                (p.kind == co::Evaluator::QueryProfile::Kind::kNode
                     ? "node "
                     : "edge ") +
                p.name + " access=" + p.access +
                " rows=" + std::to_string(p.rows) +
                " time=" + FormatUs(p.time_ns) + "\n";
      }
      dump += "queries: " + std::to_string(s.node_queries) + " node, " +
              std::to_string(s.edge_queries) + " edge\n";
      dump += "cse: " + std::to_string(s.cse_hits) + " hit(s), " +
              std::to_string(s.cse_misses) + " miss(es), " +
              std::to_string(s.temp_reuses) + " temp reuse(s)\n";
      dump += "reachability passes: " +
              std::to_string(s.reachability_passes) + "\n";
      dump += "restrictions applied: " +
              std::to_string(s.restrictions_applied) + "\n";
      // Columnar candidate-scan decode accounting: a TAKE list that lets
      // the scans skip columns shows up here as skipped > 0.
      if (s.scan_columns_decoded > 0 || s.scan_columns_skipped > 0) {
        dump += "scan columns: " + std::to_string(s.scan_columns_decoded) +
                " decoded, " + std::to_string(s.scan_columns_skipped) +
                " skipped\n";
      }
      dump += "result:\n";
      for (const co::CoNodeInstance& node : instance.nodes) {
        dump += "  " + node.name + ": " + std::to_string(node.tuples.size()) +
                " tuple(s)\n";
      }
      for (const co::CoRelInstance& rel : instance.rels) {
        dump += "  " + rel.name + ": " +
                std::to_string(rel.connections.size()) + " connection(s)\n";
      }
    } else {
      co::Resolver resolver(
          &catalog_, [this](const co::XnfQuery& q) -> Result<co::CoInstance> {
            co::Evaluator nested(&catalog_, xnf_options_);
            return nested.Evaluate(q);
          });
      XNF_ASSIGN_OR_RETURN(co::CoDef def, resolver.Resolve(query));
      dump += "composite object:\n";
      for (const co::CoNodeDef& n : def.nodes) {
        dump += "  node " + n.name;
        if (!n.table.empty()) {
          dump += " (table " + n.table + ")";
        } else if (n.premade != nullptr) {
          dump += " (premade)";
        } else {
          dump += " (query)";
        }
        dump += "\n";
      }
      for (const co::CoRelDef& r : def.rels) {
        dump += "  edge " + r.name + ": " + r.parent + " -> " + r.child;
        if (!r.using_table.empty()) dump += " using " + r.using_table;
        dump += "\n";
      }
    }
    EmitLines(dump, &result.rows);
    return result;
  }

  // SQL body: the rewritten Query Graph Model, the rewrite summary, and the
  // selected operator tree; ANALYZE runs the plan with per-operator
  // collection and annotates each operator with its actual counters.
  qgm::Builder builder(&catalog_, [this](const std::string& name) {
    return ResolveExtra(name);
  });
  XNF_ASSIGN_OR_RETURN(qgm::QueryGraph graph, builder.Build(*explain.select));
  qgm::RewriteStats rw;
  if (catalog_.exec_config().use_rewrite) {
    XNF_ASSIGN_OR_RETURN(rw, qgm::Rewrite(&graph));
  }
  dump = graph.ToString();
  dump += "rewrite: " + std::to_string(rw.views_merged) +
          " view(s) merged, " + std::to_string(rw.predicates_pushed) +
          " predicate(s) pushed, " + std::to_string(rw.constants_folded) +
          " constant(s) folded\n";
  plan::Planner planner(&catalog_);
  XNF_ASSIGN_OR_RETURN(exec::OperatorPtr root, planner.Plan(graph));
  if (explain.analyze) {
    exec::ExecContext ctx;
    ctx.catalog = &catalog_;
    ctx.collect_stats = true;
    Result<ResultSet> rows = [&]() -> Result<ResultSet> {
      TraceScope span(trace_sink_, "execute");
      return exec::RunPlan(root.get(), &ctx);
    }();
    if (!rows.ok()) {
      // A failed run still rendered consistent per-operator counters
      // (RunPlan closes the tree on every path, so opens >= closes): show
      // the partial profile with the error appended instead of discarding
      // it — the profile of a failed query is exactly what one wants when
      // diagnosing the failure. The connection stays usable.
      dump += exec::RenderPlan(root.get(), &catalog_, /*analyze=*/true);
      dump += "error: " + rows.status().message() + "\n";
      EmitLines(dump, &result.rows);
      return result;
    }
    exec_stats_ = rows->stats;
  }
  dump += exec::RenderPlan(root.get(), &catalog_, explain.analyze);
  EmitLines(dump, &result.rows);
  return result;
}

Result<co::CoInstance> Database::EvaluateXnf(
    Session* session, const std::string& text, const sql::Shape* shape,
    const co::XnfQuery** query, std::unique_ptr<co::XnfQuery>* owned) {
  // Only OUT OF ... TAKE shapes are cached, and never a text with '?'
  // placeholders (see ExecuteSelect).
  const bool cacheable =
      shape != nullptr && shape->key.find('?') == std::string::npos;
  CachedStatement* entry = nullptr;
  if (cacheable) {
    StatementCache::Outcome outcome;
    entry = session->cache_.Find(shape->key, shape->literals,
                                 catalog_.version(), &outcome);
    CountLookup(outcome);
  }
  co::Evaluator evaluator(&catalog_, xnf_options_);
  evaluator.set_trace_sink(trace_sink_);
  static const std::vector<Value> kNoParams;
  const std::vector<Value>* params = &kNoParams;
  const co::CoPlan* plan = nullptr;
  std::unique_ptr<co::CoPlan> uncached_plan;
  if (entry != nullptr) {
    *query = entry->xnf_query.get();
    plan = entry->co.get();
    params = &shape->literals;
  } else {
    *owned = std::make_unique<co::XnfQuery>();
    XNF_ASSIGN_OR_RETURN(**owned, [&]() -> Result<co::XnfQuery> {
      TraceScope span(trace_sink_, "parse");
      return co::Parser::Parse(text);
    }());
    *query = owned->get();
  }
  // Refine the history kind: the generic "xnf" becomes the action.
  const co::XnfQuery::Action action = (*query)->action;
  stmt_kind_override_ = action == co::XnfQuery::Action::kDelete ? "xnf_delete"
                        : action == co::XnfQuery::Action::kUpdate
                            ? "xnf_update"
                            : "xnf_take";
  if (plan == nullptr) {
    const bool store = cacheable && action == co::XnfQuery::Action::kTake;
    std::vector<char> is_param;
    if (store) {
      // Literals in safe positions of the node queries' own WHERE clauses
      // become parameters (see sql::ParameterizeWhere).
      is_param.assign(shape->literals.size(), 0);
      for (co::OutOfItem& item : (*owned)->items) {
        if (item.kind == co::OutOfItem::Kind::kNodeQuery) {
          sql::ParameterizeWhere(item.query.get(), &is_param);
        }
      }
      params = &shape->literals;
    }
    XNF_ASSIGN_OR_RETURN(uncached_plan, evaluator.Compile(**query));
    plan = uncached_plan.get();
    if (store && uncached_plan->cacheable) {
      auto compiled = std::make_unique<CachedStatement>();
      compiled->version = catalog_.version();
      compiled->is_param = std::move(is_param);
      compiled->literals = shape->literals;
      compiled->xnf_query = std::move(*owned);
      compiled->co = std::move(uncached_plan);
      bool evicted = false;
      entry = session->cache_.Insert(shape->key, std::move(compiled), &evicted);
      CountStore(evicted);
    }
  }
  XNF_ASSIGN_OR_RETURN(co::CoInstance instance, evaluator.Run(*plan, *params));
  xnf_stats_ = evaluator.stats();
  RecordXnfStats(xnf_stats_);
  return instance;
}

Result<ExecResult> Database::ExecuteXnf(Session* session,
                                        const std::string& text,
                                        const sql::Shape* shape) {
  const co::XnfQuery* query = nullptr;
  std::unique_ptr<co::XnfQuery> owned;
  XNF_ASSIGN_OR_RETURN(co::CoInstance instance,
                       EvaluateXnf(session, text, shape, &query, &owned));
  if (query->action == co::XnfQuery::Action::kDelete) {
    return ExecuteCoDelete(instance);
  }
  if (query->action == co::XnfQuery::Action::kUpdate) {
    return ExecuteCoUpdate(*query, std::move(instance));
  }
  ExecResult result;
  result.kind = ExecResult::Kind::kCo;
  result.co = std::move(instance);
  return result;
}

Result<ExecResult> Database::ExecuteCoUpdate(const co::XnfQuery& query,
                                             co::CoInstance instance) {
  // CO-level update (§3.7): apply the SET assignments to every tuple of the
  // target component table; write-through uses the same propagation rules as
  // cache-side udi-operations (relationship-defining columns are rejected).
  int n = instance.NodeIndex(query.update_target);
  if (n < 0) {
    return Status::NotFound("component table '" + query.update_target +
                            "' not found in this CO");
  }
  // Compile every assignment expression, then evaluate each one over all of
  // the node's tuples of the pre-update instance.
  const co::CoNodeInstance& node = instance.nodes[n];
  qgm::ScalarScope scope;
  scope.sources.push_back({node.name, &node.schema});
  scope.allow_paths = true;
  std::vector<qgm::ExprPtr> compiled;
  for (const auto& assignment : query.assignments) {
    XNF_ASSIGN_OR_RETURN(qgm::ExprPtr e,
                         plan::CompileScalar(*assignment.second, scope));
    compiled.push_back(std::move(e));
  }
  co::InstanceEvaluator eval(&instance);
  std::vector<int> tuples(node.tuples.size());
  std::iota(tuples.begin(), tuples.end(), 0);
  exec::ExecContext exec_ctx;
  exec_ctx.catalog = &catalog_;
  exec::EvalContext ctx;
  ctx.exec = &exec_ctx;
  std::vector<std::vector<Value>> planned;  // per assignment, per tuple
  for (const qgm::ExprPtr& e : compiled) {
    XNF_ASSIGN_OR_RETURN(
        std::vector<Value> values,
        eval.EvalOnTuples(*e, tuples, {{ToLower(node.name), n, -1}}, &ctx));
    planned.push_back(std::move(values));
  }
  // Apply through the cache manipulator (enforces updatability rules). The
  // write-through loop is one statement: a failure part-way rolls every
  // earlier base-table write back before the error propagates.
  XNF_ASSIGN_OR_RETURN(auto cache, co::CoCache::Build(std::move(instance)));
  co::Manipulator manipulator(cache.get(), &catalog_);
  co::CoCache::Node& cached = cache->node(n);
  exec::StatementAtomicity statement(&catalog_);
  size_t t = 0;
  int64_t affected = 0;
  for (co::CoCache::Tuple& tuple : cached.tuples) {
    for (size_t a = 0; a < query.assignments.size(); ++a) {
      Status applied = manipulator.UpdateColumn(
          &tuple, query.assignments[a].first, planned[a][t]);
      if (!applied.ok()) {
        XNF_RETURN_IF_ERROR(statement.Abort());
        return applied;
      }
    }
    ++affected;
    ++t;
  }
  XNF_RETURN_IF_ERROR(statement.Commit());
  ExecResult result;
  result.kind = ExecResult::Kind::kAffected;
  result.affected = affected;
  result.message = "composite object updated";
  return result;
}

Result<ExecResult> Database::ExecuteCoDelete(const co::CoInstance& instance) {
  // CO deletion (§3.7): removal of all tuples and connections of the target
  // CO maps down to removals of the base tuples they are derived from.
  // Updatability is required for every component.
  for (const co::CoNodeInstance& node : instance.nodes) {
    if (!node.tuples.empty() && !node.updatable()) {
      return Status::NotUpdatable("component table '" + node.name +
                                  "' is not updatable; CO DELETE rejected");
    }
  }
  exec::DmlExecutor dml(&catalog_);
  int64_t affected = 0;
  // The whole CO deletion — link tuples plus component tuples — is one
  // statement: if any base-table delete fails, every earlier delete is
  // rolled back and the CO survives intact.
  exec::StatementAtomicity statement(&catalog_);
  auto abort_with = [&](Status cause) -> Result<ExecResult> {
    XNF_RETURN_IF_ERROR(statement.Abort());
    return cause;
  };

  // Connections derived from link tables map to link-tuple deletions.
  for (const co::CoRelInstance& rel : instance.rels) {
    if (rel.write_kind != co::CoRelInstance::WriteKind::kLinkTable) continue;
    TableInfo* link = catalog_.GetTable(rel.link_table);
    if (link == nullptr) continue;
    const co::CoNodeInstance& parent = instance.nodes[rel.parent_node];
    const co::CoNodeInstance& child = instance.nodes[rel.child_node];
    for (const co::CoConnection& c : rel.connections) {
      const Value& pkey = parent.tuples[c.parent][rel.parent_key_column];
      const Value& ckey = child.tuples[c.child][rel.child_key_column];
      Result<std::optional<Rid>> victim =
          co::FindVisibleLinkRow(catalog_, *link, rel.link_parent_column, pkey,
                                 rel.link_child_column, ckey);
      if (!victim.ok()) return abort_with(victim.status());
      if (victim->has_value()) {
        Status deleted = dml.DeleteRow(link, **victim);
        if (!deleted.ok()) return abort_with(deleted);
        ++affected;
      }
    }
  }

  for (const co::CoNodeInstance& node : instance.nodes) {
    if (node.tuples.empty()) continue;
    TableInfo* table = catalog_.GetTable(node.base_table);
    if (table == nullptr) {
      return abort_with(Status::NotFound("base table '" + node.base_table +
                                         "' not found"));
    }
    for (Rid rid : node.rids) {
      Status deleted = dml.DeleteRow(table, rid);
      if (!deleted.ok()) return abort_with(deleted);
      ++affected;
    }
  }
  XNF_RETURN_IF_ERROR(statement.Commit());

  ExecResult result;
  result.kind = ExecResult::Kind::kAffected;
  result.affected = affected;
  result.message = "composite object deleted";
  return result;
}

void Database::RecordStatement(const std::string& text,
                               const std::string& kind,
                               std::chrono::steady_clock::time_point start,
                               const uint64_t before[3], int64_t rows,
                               uint64_t kernel_filters, uint64_t scan_filters,
                               const Status& status) {
  if (metrics_ == nullptr) return;
  const auto end = std::chrono::steady_clock::now();
  int64_t latency_us =
      std::chrono::duration_cast<std::chrono::microseconds>(end - start)
          .count();
  if (latency_us < 0) latency_us = 0;
  if (stmt_count_ == nullptr) stmt_count_ = metrics_->counter("stmt.count");
  stmt_count_->Add(1);
  if (!status.ok()) {
    if (stmt_errors_ == nullptr) {
      stmt_errors_ = metrics_->counter("stmt.errors");
    }
    stmt_errors_->Add(1);
  }
  LatencyHistogram(kind)->Record(static_cast<uint64_t>(latency_us));
  if (options_.statement_history == 0) return;
  // history_mu_ nests inside exec_mu_ (always this order): readers outside
  // the statement latch — statement_history(), a concurrent session's
  // monitoring thread — copy the ring under history_mu_ alone.
  std::lock_guard<std::mutex> history_lock(history_mu_);
  StatementProfile p;
  p.seq = ++stmt_seq_;
  p.kind = kind;
  p.text_hash = Fnv1a(text);
  p.latency_us = latency_us;
  p.rows = rows;
  p.heap_pages = static_cast<int64_t>(
      buffer_pool_.accesses(PageKind::kHeap) - before[0]);
  p.index_pages = static_cast<int64_t>(
      buffer_pool_.accesses(PageKind::kIndex) - before[1]);
  p.column_pages = static_cast<int64_t>(
      buffer_pool_.accesses(PageKind::kColumn) - before[2]);
  p.dop = exec_pool_->dop();
  p.kernel_filters = static_cast<int64_t>(kernel_filters);
  p.scan_filters = static_cast<int64_t>(scan_filters);
  if (!status.ok()) p.error = StatusCodeName(status.code());
  history_.push_back(std::move(p));
  while (history_.size() > options_.statement_history) history_.pop_front();
}

Histogram* Database::LatencyHistogram(const std::string& kind) {
  for (const auto& [name, histogram] : stmt_latency_) {
    if (name == kind) return histogram;
  }
  Histogram* histogram = metrics_->histogram("stmt.latency_us." + kind);
  stmt_latency_.emplace_back(kind, histogram);
  return histogram;
}

void Database::RecordXnfStats(const co::Evaluator::Stats& stats) {
  if (metrics_ == nullptr) return;
  static constexpr const char* kNames[] = {
      "xnf.evaluations",          "xnf.node_queries",
      "xnf.edge_queries",         "xnf.temp_reuses",
      "xnf.cse_hits",             "xnf.cse_misses",
      "xnf.reachability_passes",  "xnf.restrictions_applied",
      "xnf.rows_produced",        "xnf.batches_produced",
      "xnf.scan_columns_decoded", "xnf.scan_columns_skipped"};
  if (xnf_counters_.empty()) {
    for (const char* name : kNames) {
      xnf_counters_.push_back(metrics_->counter(name));
    }
  }
  const uint64_t values[] = {
      1,
      static_cast<uint64_t>(stats.node_queries),
      static_cast<uint64_t>(stats.edge_queries),
      static_cast<uint64_t>(stats.temp_reuses),
      static_cast<uint64_t>(stats.cse_hits),
      static_cast<uint64_t>(stats.cse_misses),
      static_cast<uint64_t>(stats.reachability_passes),
      static_cast<uint64_t>(stats.restrictions_applied),
      stats.rows_produced,
      stats.batches_produced,
      stats.scan_columns_decoded,
      stats.scan_columns_skipped};
  static_assert(std::size(kNames) == std::size(values));
  for (size_t i = 0; i < std::size(values); ++i) {
    xnf_counters_[i]->Add(values[i]);
  }
}

void Database::CountLookup(StatementCache::Outcome outcome) {
  switch (outcome) {
    case StatementCache::Outcome::kHit:
      CounterAdd(plan_cache_hits_);
      return;
    case StatementCache::Outcome::kStale:
      CounterAdd(plan_cache_invalidations_);
      break;
    case StatementCache::Outcome::kMiss:
      break;
  }
  CounterAdd(plan_cache_misses_);
}

void Database::CountStore(bool evicted) {
  if (evicted) CounterAdd(plan_cache_evictions_);
}

}  // namespace xnf
