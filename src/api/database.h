#ifndef XNF_API_DATABASE_H_
#define XNF_API_DATABASE_H_

#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "api/statement_cache.h"
#include "catalog/catalog.h"
#include "catalog/durability.h"
#include "catalog/mvcc.h"
#include "catalog/undo_log.h"
#include "common/metrics.h"
#include "common/result_set.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "exec/operator.h"
#include "sql/shape.h"
#include "storage/buffer_pool.h"
#include "xnf/cache.h"
#include "xnf/evaluator.h"
#include "xnf/instance.h"

namespace xnf {

class Database;
class Session;

// A compiled parameterized SELECT ('?' placeholders), prepared once and
// executed many times with different bindings. This is the fast path of the
// "regular SQL DBMS interface" and serves as the honest baseline for the
// navigation benchmarks (C1/C6): no per-call parsing or planning, but still
// the full query-execution path the paper's cache bypasses. The plan records
// the catalog version it was compiled at; an Execute after DDL re-plans from
// the text first.
class PreparedQuery {
 public:
  Result<ResultSet> Execute(const std::vector<Value>& params);

 private:
  friend class Database;
  friend class Session;
  // Execute with the statement latch already held.
  Result<ResultSet> ExecuteLocked(const std::vector<Value>& params);
  PreparedQuery(std::string text, exec::OperatorPtr plan, uint64_t version,
                Database* db, Session* session)
      : text_(std::move(text)), plan_(std::move(plan)), version_(version),
        db_(db), session_(session) {}

  std::string text_;
  exec::OperatorPtr plan_;
  uint64_t version_;  // catalog version plan_ was compiled at
  Database* db_;      // owning database: catalog access + counter plumbing
  Session* session_;  // snapshot/transaction context the plan executes in
};

// A compiled XNF query with '?' placeholders in its node queries
// (Database::PrepareCo): resolved and planned once, then evaluated many
// times with different bindings. Like PreparedQuery, it recompiles from its
// query when the catalog version has moved; a dropped table then fails the
// call with the compile error.
class PreparedCo {
 public:
  ~PreparedCo();

  // Evaluates the CO with the placeholders bound to `params`, in order.
  Result<co::CoInstance> Query(const std::vector<Value>& params);

  // Evaluates the CO and loads it into an application cache, like
  // Database::OpenCo.
  Result<std::unique_ptr<co::CoCache>> Open(const std::vector<Value>& params);

 private:
  friend class Database;
  PreparedCo(Database* db, std::unique_ptr<co::XnfQuery> query,
             std::unique_ptr<co::CoPlan> plan, uint64_t version);

  Database* db_;
  std::unique_ptr<co::XnfQuery> query_;  // plan_ points into it
  std::unique_ptr<co::CoPlan> plan_;
  uint64_t version_;
};

// Result of executing one statement.
struct ExecResult {
  enum class Kind { kNone, kRows, kAffected, kCo };
  Kind kind = Kind::kNone;
  ResultSet rows;       // kRows
  int64_t affected = 0; // kAffected
  co::CoInstance co;    // kCo
  std::string message;  // human-readable summary ("table created", ...)
};

// The SQL/XNF database facade: one shared relational store serving both
// plain SQL applications and composite-object (XNF) applications — the
// architecture of the paper's Fig. 7. SQL statements, XNF queries, views of
// both kinds, and CO-level DELETE all go through Execute(); the XNF API
// (cache + cursors) is reached through OpenCo().
class Database {
 public:
  struct Options {
    // 0 = unbounded buffer pool (fault count == distinct pages touched).
    size_t buffer_pool_pages = 0;
    // Rows per heap page, which also bounds the row-group size of columnar
    // tables (StorageLayout::ForPageSize). Applies when a data dir is
    // created: an existing one keeps the layout its MANIFEST records.
    uint32_t tuples_per_page = 64;
    // Degree of parallelism of morsel scans, the only intra-query
    // parallelism (SQL scans and XNF candidate scans alike). 0 = hardware
    // concurrency; 1 = serial execution.
    int threads = 0;
    // Failpoint spec ("site=trigger,..."; see common/failpoint.h) armed at
    // construction. The SQLXNF_FAILPOINTS environment variable is applied
    // on top. Note the failpoint registry is process-global, not
    // per-database.
    std::string failpoints;
    // Execution-strategy knobs (see ExecConfig in catalog/catalog.h). The
    // differential fuzz harness runs the same statements with every
    // combination; production code leaves the defaults alone.
    bool use_indexes = true;
    bool use_rewrite = true;
    // Physical layout for CREATE TABLE without a USING clause. Unset means:
    // the SQLXNF_STORAGE environment variable ("row"/"column") if present,
    // else row storage. An explicit value here wins over the environment (so
    // the fuzz matrix and layout-sensitive tests stay pinned under a
    // SQLXNF_STORAGE=column CI run).
    std::optional<StorageKind> default_storage;
    // Engine metrics: counters/gauges/histograms wired through every
    // subsystem, the sqlxnf_* system views, and the statement history.
    // Off removes every instrument pointer (call sites skip the increment)
    // — the ABBA overhead benchmark's baseline.
    bool collect_metrics = true;
    // Statements retained in the sqlxnf_statements ring (oldest evicted
    // first). 0 disables history.
    size_t statement_history = 128;
    // Durability. Empty (the default) keeps today's purely in-memory
    // behavior: no WAL, no page file, nothing touches disk. Non-empty names
    // a directory (created if absent) holding the checkpoint page file, the
    // write-ahead log and the manifest; construction recovers whatever
    // state a previous process left there (see DESIGN.md, "Durability &
    // recovery"). A recovery failure is reported by open_error() and by
    // every subsequent Execute().
    std::string data_dir;
    // fsync the WAL at every statement commit marker (the durability
    // point). Turning it off trades crash durability of the last few
    // statements for speed — the recovery soak and benchmarks use this;
    // failpoint schedules still fire identically.
    bool wal_fsync = true;
    // Run a best-effort checkpoint in the destructor so a clean shutdown
    // leaves a snapshot and an empty WAL. Skipped while a transaction is
    // open. The kill-and-recover soak turns this off to model a crash.
    bool checkpoint_on_close = true;
    // Auto-checkpoint between statements once the live WAL exceeds this
    // many bytes. 0 = only explicit Checkpoint() / close checkpoints.
    uint64_t checkpoint_wal_bytes = 0;
  };

  // One executed statement's profile — a row of sqlxnf_statements. Recorded
  // after the statement finishes (so a SELECT over sqlxnf_statements never
  // sees itself), only when Options::collect_metrics is on.
  struct StatementProfile {
    uint64_t seq = 0;          // 1-based statement number
    std::string kind;          // "select", "insert", "xnf_take", ...
    uint64_t text_hash = 0;    // FNV-1a 64 of the statement text
    int64_t latency_us = 0;    // end-to-end wall time
    int64_t rows = 0;          // result rows / affected count / CO tuples
    int64_t heap_pages = 0;    // buffer-pool accesses by kind during the
    int64_t index_pages = 0;   // statement (whole-engine deltas: concurrent
    int64_t column_pages = 0;  // work on another thread would be included)
    int dop = 1;               // pool DOP available to the statement
    int64_t kernel_filters = 0;  // ExecStats kernel coverage (SELECT only)
    int64_t scan_filters = 0;
    std::string error;         // "" = ok, else the StatusCode name
  };

  Database() : Database(Options()) {}
  explicit Database(Options options);
  ~Database();

  Options options() const { return options_; }

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  // Executes a single SQL or XNF statement.
  Result<ExecResult> Execute(const std::string& text);

  // Executes a ';'-separated script on the default session, returning the
  // last statement's result.
  Result<ExecResult> ExecuteScript(const std::string& text);

  // Convenience: SELECT returning rows.
  Result<ResultSet> Query(const std::string& select_text);

  // Compiles a parameterized SELECT ('?' placeholders) for repeated
  // execution. XNF view components are not resolvable in prepared queries.
  Result<std::unique_ptr<PreparedQuery>> Prepare(
      const std::string& select_text);

  // Compiles an XNF query ("OUT OF ... TAKE ...") whose node queries may
  // hold '?' placeholders, for repeated evaluation (see PreparedCo).
  Result<std::unique_ptr<PreparedCo>> PrepareCo(const std::string& xnf_text);

  // Evaluates an XNF query ("OUT OF ... TAKE ...") to a materialized CO.
  // Like Execute, it goes through the default session's statement cache.
  Result<co::CoInstance> QueryCo(const std::string& xnf_text);

  // Evaluates an XNF query and loads the result into an application cache
  // with pointer navigation (§4.2). The cache borrows this database's
  // catalog for write-through.
  Result<std::unique_ptr<co::CoCache>> OpenCo(const std::string& xnf_text);

  // Opens a new session: independent BEGIN/COMMIT/ROLLBACK state, its own
  // MVCC snapshot while a transaction is open, and a statement cache (see
  // session.h). Sessions may run from different threads — the
  // engine executes one statement at a time behind a global latch. Every
  // session must be destroyed before the database.
  std::unique_ptr<Session> OpenSession();

  // The session Database::Execute() runs on.
  Session* default_session() { return default_session_.get(); }

  Catalog* catalog() { return &catalog_; }
  BufferPool* buffer_pool() { return &buffer_pool_; }

  // The MVCC transaction manager: every transaction reads from the
  // snapshot it took at BEGIN, and write-write conflicts fail with
  // StatusCode::kSerialization. Always present; it goes live in the
  // catalog once recovery has replayed the WAL.
  TransactionManager* txn_manager() { return &txn_manager_; }

  // Durable databases only: snapshot all dirty pages/row groups to the page
  // file, fsync, and start a fresh WAL. Errors on in-memory databases and
  // while a transaction is open. Also queryable from the shell via
  // `.checkpoint`.
  Status Checkpoint();

  // Non-OK iff recovery failed at construction (corrupt page file, replay
  // divergence, I/O error). Every Execute()/Query() then returns this.
  const Status& open_error() const { return open_error_; }

  // True when Options::data_dir was set and recovery succeeded.
  bool durable() const { return durable_store_ != nullptr; }

  // The durable store (WAL + page file), or null for in-memory databases.
  DurableStore* durable_store() { return durable_store_.get(); }

  // The engine metrics registry, or null when Options::collect_metrics is
  // off. Also queryable in SQL through the sqlxnf_metrics system view.
  MetricsRegistry* metrics() const { return metrics_.get(); }

  // A copy of the retained statement ring, oldest first (also queryable
  // as sqlxnf_statements). Safe to call from any thread while other
  // sessions execute: the ring is copied under its own mutex.
  std::deque<StatementProfile> statement_history() const;

  // Degree of parallelism for intra-query execution. set_threads() replaces
  // the worker pool (must not be called while queries are running); n <= 0
  // selects hardware concurrency. threads() reports the effective DOP.
  void set_threads(int n);
  int threads() const;

  // True iff the worker pool has no running or queued work. Statements must
  // leave the pool quiescent on error paths too — the fault-soak harness
  // asserts this after every injected failure.
  bool exec_quiescent() const { return exec_pool_->quiescent(); }

  // True while any session has a BEGIN ... COMMIT/ROLLBACK transaction
  // open.
  bool in_transaction() const { return open_txns_ > 0; }

  // Stats of the most recent XNF evaluation.
  const co::Evaluator::Stats& last_xnf_stats() const { return xnf_stats_; }

  // Execution counters of the most recent SELECT run through Execute()/
  // Query() (also available per-result on ResultSet::stats).
  const ExecStats& last_exec_stats() const { return exec_stats_; }

  // Evaluation knobs (benchmarks): defaults are production settings.
  // Compiled CO plans depend on them, so a change moves the catalog version.
  void set_xnf_options(co::Evaluator::Options options) {
    xnf_options_ = options;
    catalog_.BumpVersion();
  }

  // Observability hooks. A trace sink receives spans for every pipeline
  // stage (statement / parse / qgm-build / rewrite / plan / execute, plus
  // the XNF evaluator phases). Null = tracing off (the default).
  void set_trace_sink(TraceSink* sink) { trace_sink_ = sink; }

  // When on, every SELECT collects per-operator counters (rows, batches,
  // faults, time) and last_plan_profile() returns the annotated plan of the
  // most recent one. Off by default: the executor then pays only one
  // non-virtual branch per batch.
  void set_collect_exec_stats(bool on) { collect_exec_stats_ = on; }
  bool collect_exec_stats() const { return collect_exec_stats_; }

  // EXPLAIN ANALYZE-style rendering of the most recent SELECT's operator
  // tree; empty unless collect_exec_stats(true) was set before the query.
  const std::string& last_plan_profile() const { return last_plan_profile_; }

 private:
  friend class PreparedQuery;
  friend class PreparedCo;
  friend class Session;

  // Installs a session's transaction context (undo log + MVCC current
  // transaction) into the catalog for one statement and clears it again —
  // statements of different sessions must never share either. Constructed
  // with the statement latch held.
  class StatementContext {
   public:
    StatementContext(Database* db, Session* session);
    ~StatementContext();

   private:
    Database* db_;
  };

  // Takes the statement latch (exec_mu_) for one statement, polling it
  // briefly before blocking (see database.cc).
  std::unique_lock<std::mutex> LockLatch();

  // Statement entry point shared by Database::Execute (default session)
  // and Session::Execute: takes the statement latch, installs the
  // session's context, and wraps ExecuteInternal with the statement
  // epoch, the latency/pages profile, and the history ring entry.
  Result<ExecResult> ExecuteOn(Session* session, const std::string& text);
  // Execute() body. `session` carries transaction state; null only during
  // WAL replay (which never routes transaction-control text here).
  Result<ExecResult> ExecuteInternal(Session* session,
                                     const std::string& text);
  // Registers the sqlxnf_* system views against the catalog.
  void RegisterSystemViews();
  // Records one finished statement: stmt.* metrics plus the history entry.
  // `before` holds the per-PageKind buffer-pool access counts at statement
  // start.
  void RecordStatement(const std::string& text, const std::string& kind,
                       std::chrono::steady_clock::time_point start,
                       const uint64_t before[3], int64_t rows,
                       uint64_t kernel_filters, uint64_t scan_filters,
                       const Status& status);
  // Pushes one XNF evaluation's counters into the xnf.* metrics.
  void RecordXnfStats(const co::Evaluator::Stats& stats);
  // The stmt.latency_us.<kind> histogram, resolved once per kind.
  Histogram* LatencyHistogram(const std::string& kind);

  // Opens the durable store and replays the WAL over the restored
  // checkpoint; called from the constructor when Options::data_dir is set.
  Status OpenDurable();
  // Applies recovered WAL records through the normal DML/DDL paths:
  // records buffer per statement sequence and apply at their kStmtCommit
  // marker; kStmtAbort re-applies the statement's applied prefix and rolls
  // it back (reproducing tombstoned rid slots); transaction markers route
  // the statements between them through a recovery undo log.
  Status ReplayWal(const std::vector<Wal::Record>& records);
  // Auto-checkpoint between statements (Options::checkpoint_wal_bytes).
  void MaybeAutoCheckpoint();

  // SELECT through `session`'s statement cache: a hit runs the cached plan
  // with the text's literals bound; a miss parses (literals in safe
  // positions become parameters), compiles and stores the plan.
  Result<ExecResult> ExecuteSelect(Session* session, const std::string& text,
                                   const sql::Shape& shape);
  // Statement-level XNF (TAKE / DELETE / UPDATE). `shape` is null when the
  // text was not scanned (no session, or the scan failed).
  Result<ExecResult> ExecuteXnf(Session* session, const std::string& text,
                                const sql::Shape* shape);
  // Evaluates one XNF text, OUT OF ... TAKE through `session`'s statement
  // cache. `*query` receives the parsed query, owned by the cache entry or
  // by `*owned`.
  Result<co::CoInstance> EvaluateXnf(Session* session, const std::string& text,
                                     const sql::Shape* shape,
                                     const co::XnfQuery** query,
                                     std::unique_ptr<co::XnfQuery>* owned);
  Result<ExecResult> ExecuteExplain(const sql::ExplainStmt& explain);
  // SELECT compile: qgm-build -> rewrite -> plan, with trace spans. With
  // `used_extra` set, "view.component" sources resolve (and *used_extra
  // reports whether one did: such a plan reads a per-statement
  // materialization and must not be cached); without, they do not.
  Result<exec::OperatorPtr> CompileSelect(const sql::SelectStmt& select,
                                          bool* used_extra);
  // Database::Prepare's compile: parse + CompileSelect.
  Result<exec::OperatorPtr> PlanPrepared(const std::string& select_text);
  // Prepare with the statement latch already held.
  Result<std::unique_ptr<PreparedQuery>> PrepareLocked(
      const std::string& select_text);
  // Runs a compiled SELECT plan (a fresh, cached or prepared one) with
  // `params` bound, with the execute span, optional per-operator
  // collection, and the last_exec_stats / last_plan_profile bookkeeping.
  Result<ResultSet> RunSelectPlan(exec::Operator* root,
                                  const std::vector<Value>* params,
                                  const char* trace_detail);
  // Loads an evaluated CO into an application cache (OpenCo, PreparedCo).
  Result<std::unique_ptr<co::CoCache>> BuildCache(co::CoInstance instance);
  // plan_cache.* bookkeeping for one lookup / one store.
  void CountLookup(StatementCache::Outcome outcome);
  void CountStore(bool evicted);
  Result<ExecResult> ExecuteCoDelete(const co::CoInstance& instance);
  Result<ExecResult> ExecuteCoUpdate(const co::XnfQuery& query,
                                     co::CoInstance instance);
  // Resolver for temp names and "view.component" sources in plain SQL.
  Result<const ResultSet*> ResolveExtra(const std::string& name);

  Options options_;
  // Declared before the catalog/pool so instrument pointers resolved at
  // table/pool construction outlive their holders.
  std::unique_ptr<MetricsRegistry> metrics_;
  BufferPool buffer_pool_;
  Catalog catalog_;
  std::unique_ptr<ThreadPool> exec_pool_;  // intra-query workers
  co::Evaluator::Options xnf_options_;
  co::Evaluator::Stats xnf_stats_;
  ExecStats exec_stats_;
  TraceSink* trace_sink_ = nullptr;
  bool collect_exec_stats_ = false;
  std::string last_plan_profile_;
  // Installed into the catalog only after WAL replay, which must run
  // physically.
  TransactionManager txn_manager_;
  // Serializes statement execution engine-wide: sessions on different
  // threads interleave at statement boundaries, never within one.
  std::mutex exec_mu_;
  // The session Database::Execute() delegates to.
  std::unique_ptr<Session> default_session_;
  uint64_t next_session_id_ = 0;
  // Open explicit transactions across all sessions (checkpoints refuse
  // while > 0). Written under exec_mu_.
  int open_txns_ = 0;
  // Set at destruction: sessions torn down with the database skip their
  // rollback-on-destroy (the WAL records an unterminated transaction,
  // which recovery rolls back — the pre-session crash semantics).
  bool closing_ = false;
  // Durable backend; declared after catalog_ so the WAL outlives no one who
  // appends to it and is destroyed before the catalog it references.
  std::unique_ptr<DurableStore> durable_store_;
  Status open_error_ = Status::Ok();
  // Statement history ring (sqlxnf_statements): newest at the back.
  // Mutated under history_mu_ (readers outside the statement latch take a
  // copy through statement_history()).
  mutable std::mutex history_mu_;
  std::deque<StatementProfile> history_;
  uint64_t stmt_seq_ = 0;
  // Set by ExecuteXnf so the wrapper records xnf_take/xnf_update/xnf_delete
  // instead of the generic "xnf"; cleared per statement.
  std::string stmt_kind_override_;
  // Materializations of XNF view components referenced by SQL queries; kept
  // alive until the next statement.
  std::vector<std::unique_ptr<ResultSet>> component_cache_;
  // Statement-level instruments, resolved once — on first use, so
  // sqlxnf_metrics lists exactly the instruments statements have touched.
  // Written under exec_mu_, except the cocache.* set (call_once: OpenCo
  // builds its cache outside the latch).
  Counter* stmt_count_ = nullptr;
  Counter* stmt_errors_ = nullptr;
  std::vector<std::pair<std::string, Histogram*>> stmt_latency_;
  std::vector<Counter*> xnf_counters_;
  std::once_flag cocache_once_;
  Counter* cocache_fills_ = nullptr;
  Counter* cocache_tuples_ = nullptr;
  Counter* cocache_connections_ = nullptr;
  Counter* cocache_pointer_nav_ = nullptr;
  Counter* cocache_hash_nav_ = nullptr;
  // plan_cache.* counters (registered at construction).
  Counter* plan_cache_hits_ = nullptr;
  Counter* plan_cache_misses_ = nullptr;
  Counter* plan_cache_invalidations_ = nullptr;
  Counter* plan_cache_evictions_ = nullptr;
};

}  // namespace xnf

#endif  // XNF_API_DATABASE_H_
