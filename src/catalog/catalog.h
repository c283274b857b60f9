#ifndef XNF_CATALOG_CATALOG_H_
#define XNF_CATALOG_CATALOG_H_

#include <algorithm>
#include <cassert>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/schema.h"
#include "common/status.h"
#include "storage/buffer_pool.h"
#include "storage/column_store.h"
#include "storage/index.h"
#include "storage/table_heap.h"
#include "storage/table_storage.h"

namespace xnf {

class MetricsRegistry;
class ThreadPool;
class TransactionManager;
class UndoLog;
class Wal;

// A base table: schema + physical storage + secondary indexes. Storage is
// row- or column-oriented per table (CREATE TABLE ... USING); every engine
// layer goes through the TableStorage interface and is layout-agnostic.
// Indexes are maintained by the DML execution layer (see exec/dml.cc).
// `is_system` marks the read-only sqlxnf_* system views: they resolve
// through GetTable like any base table but reject DML, DROP, and
// CREATE INDEX.
struct TableInfo {
  std::string name;
  Schema schema;
  std::unique_ptr<TableStorage> storage;
  std::vector<std::unique_ptr<Index>> indexes;
  bool is_system = false;

  // Returns the first index whose leading key columns are exactly `columns`,
  // or nullptr.
  Index* FindIndexOn(const std::vector<size_t>& columns) const;
};

// A stored view definition. XNF views (composite-object views, §3.2 of the
// paper) and plain SQL views share the registry; `is_xnf` discriminates.
// Definitions are stored as source text and re-parsed on use, which keeps the
// catalog independent of the parser layers; CREATE VIEW validates the text
// before registering it.
struct ViewInfo {
  std::string name;
  std::string definition;  // the query text after "AS"
  bool is_xnf = false;
};

// Execution-strategy knobs consulted by the planner and the QGM rewriter.
// Defaults are the production settings; the differential fuzz harness
// flips them to cross-check every point of the configuration matrix
// against the same query text.
struct ExecConfig {
  // Planner may select index access paths (IndexLookup / index nested-loop
  // join). Off forces scans + hash/nested-loop joins.
  bool use_indexes = true;
  // QGM rewrite passes (view merging, predicate pushdown, constant folding)
  // run between build and plan. Off plans the raw graph.
  bool use_rewrite = true;
};

// Unit sizes of every table a catalog creates: rows per heap page and rows
// per columnar row group. A durable data dir records the layout it was
// created with and keeps it for life, since checkpoint units are restored
// into these sizes and WAL replay re-derives every rid from them.
struct StorageLayout {
  uint32_t tuples_per_page = 0;
  uint32_t rows_per_group = 0;

  // The layout of a new database: heap pages of `tuples_per_page` rows,
  // row groups of one executor batch, fewer only when pages are shrunk
  // below a sixteenth of that.
  static StorageLayout ForPageSize(uint32_t tuples_per_page) {
    return {tuples_per_page,
            static_cast<uint32_t>(std::min<uint64_t>(
                ColumnStore::kMaxRowsPerGroup, uint64_t{16} * tuples_per_page))};
  }
  bool operator==(const StorageLayout&) const = default;
};

// Name-to-object registry for one database. Names are case-insensitive.
class Catalog {
 public:
  // `buffer_pool` (optional, not owned) is attached to all created storage
  // so page-fault accounting spans the whole database; `tuples_per_page`
  // sets the storage layout (StorageLayout::ForPageSize).
  explicit Catalog(BufferPool* buffer_pool = nullptr,
                   uint32_t tuples_per_page = 64)
      : buffer_pool_(buffer_pool),
        layout_(StorageLayout::ForPageSize(tuples_per_page)) {}

  Catalog(const Catalog&) = delete;
  Catalog& operator=(const Catalog&) = delete;

  // Creates a table with the given physical layout; `storage` == nullopt
  // picks the catalog default (set_default_storage, initially row).
  // `cluster_by` (a column name; "" = none) requests CO-clustered row-group
  // placement: rows sharing the column's value land in the same row groups.
  // Columnar tables only — row storage rejects it.
  Status CreateTable(const std::string& name, Schema schema,
                     std::optional<StorageKind> storage = std::nullopt,
                     const std::string& cluster_by = "");

  // Recovery-time CreateTable: identical wiring but with an *explicit*
  // file id (CreateTable assigns ids in creation order; checkpoint restore
  // iterates name-sorted and drops leave holes, so the snapshot carries
  // each table's original id). Bumps next_file_id_ past `file_id`.
  Status CreateTableForRecovery(const std::string& name, Schema schema,
                                StorageKind storage,
                                const std::string& cluster_by,
                                uint32_t file_id);
  Status DropTable(const std::string& name);

  const StorageLayout& layout() const { return layout_; }
  // Replaces the layout before any table exists: recovery adopts the
  // layout a data dir recorded, whatever the opening process asked for.
  void set_layout(StorageLayout layout) {
    assert(tables_.empty());
    layout_ = layout;
  }
  // nullptr if absent.
  TableInfo* GetTable(const std::string& name) const;

  Status CreateIndex(const std::string& index_name,
                     const std::string& table_name,
                     const std::vector<std::string>& column_names, bool unique,
                     Index::Kind kind);

  Status CreateView(const std::string& name, std::string definition,
                    bool is_xnf);
  Status DropView(const std::string& name);
  // nullptr if absent.
  const ViewInfo* GetView(const std::string& name) const;

  bool NameExists(const std::string& name) const;

  std::vector<std::string> TableNames() const;
  std::vector<std::string> ViewNames() const;

  // --- System views (sqlxnf_*) -------------------------------------------
  //
  // A system view is a read-only relation over live engine state (metrics,
  // statement history, storage/buffer-pool introspection). It registers a
  // schema plus a fill callback; the callback is re-run lazily, at most
  // once per statement epoch, and the resulting snapshot is wrapped in a
  // VirtualTable so the planner/scan/join machinery sees an ordinary base
  // table. Snapshots within one statement are therefore consistent (a
  // self-join of sqlxnf_metrics sees one state), and scanning a view never
  // touches the buffer pool it reports on.

  using SystemViewFill = std::function<std::vector<Row>()>;

  // `name` must carry the reserved "sqlxnf_" prefix. The fill callback must
  // not resolve system views itself (it runs under the registry lock).
  Status RegisterSystemView(const std::string& name, Schema schema,
                            SystemViewFill fill);

  // Starts a new snapshot epoch; the next GetTable of each system view
  // re-runs its fill. Called by the Database facade at statement start.
  void BeginStatementEpoch() { ++epoch_; }

  // True iff `name` starts with the reserved system prefix ("sqlxnf_",
  // case-insensitive): such names cannot be created or dropped by users.
  static bool IsReservedName(const std::string& name);

  std::vector<std::string> SystemViewNames() const;

  BufferPool* buffer_pool() const { return buffer_pool_; }

  // Metrics registry shared by everything this catalog wires together
  // (storage engines created by CreateTable, the scan kernels, the XNF
  // evaluator). Null = metrics off; call sites hold null instrument
  // pointers and skip the increment.
  MetricsRegistry* metrics() const { return metrics_; }
  void set_metrics(MetricsRegistry* metrics) { metrics_ = metrics; }

  // Layout used when CREATE TABLE has no USING clause.
  StorageKind default_storage() const { return default_storage_; }
  void set_default_storage(StorageKind kind) { default_storage_ = kind; }

  // The owning Database's worker pool for intra-query parallelism, or
  // nullptr (serial execution). Operators and the XNF evaluator reach the
  // pool through here so the executor needs no extra plumbing.
  ThreadPool* exec_pool() const { return exec_pool_; }
  void set_exec_pool(ThreadPool* pool) { exec_pool_ = pool; }

  // Execution-strategy knobs; see ExecConfig. Reached through the catalog
  // (like exec_pool) so the planner, rewriter call sites, and expression
  // evaluator need no extra plumbing.
  const ExecConfig& exec_config() const { return exec_config_; }
  void set_exec_config(ExecConfig config) {
    exec_config_ = config;
    BumpVersion();
  }

  // Schema version: moves on every successful CREATE/DROP of a table, index
  // or view and on every set_exec_config. A compiled plan records the
  // version it was built at and is recompiled once it has moved (compiled
  // plans hold table, index and column-slot bindings that DDL invalidates).
  // Changes outside the catalog that also invalidate plans (the XNF
  // evaluator options) call BumpVersion() themselves.
  uint64_t version() const { return version_; }
  void BumpVersion() { ++version_; }

  // The undo log of the currently active transaction, or nullptr. Set by
  // the Database facade on BEGIN; consulted by the DML layer so that every
  // write path (SQL DML, XNF cache propagation, CO-level statements)
  // records its inverse.
  UndoLog* undo_log() const { return undo_log_; }
  void set_undo_log(UndoLog* log) { undo_log_ = log; }

  // The MVCC transaction manager. Set once by the Database facade, after
  // WAL replay; read paths ask it for snapshot-visible scans, write paths
  // for conflict checks. Null means only WAL replay (recovery applies the
  // log physically, below any notion of visibility) or a bare Catalog with
  // no Database around it — every read then sees physical state.
  TransactionManager* txn_manager() const { return txn_manager_; }
  void set_txn_manager(TransactionManager* mgr) { txn_manager_ = mgr; }

  // The write-ahead log of a durable database, or nullptr (in-memory).
  // Set by the Database facade after recovery; consulted by the DML layer
  // so every write path logs its redo record before the statement commits.
  Wal* wal() const { return wal_; }
  void set_wal(Wal* wal) { wal_ = wal; }

  // File-id high-water mark, checkpointed in the manifest so tables
  // created by WAL replay get the same ids they got originally.
  uint32_t next_file_id() const { return next_file_id_; }
  void set_next_file_id(uint32_t id) { next_file_id_ = id; }

 private:
  Status CreateTableWithFileId(const std::string& name, Schema schema,
                               StorageKind kind, const std::string& cluster_by,
                               uint32_t file_id);

  struct SystemView {
    std::unique_ptr<TableInfo> info;
    SystemViewFill fill;
    uint64_t filled_epoch = 0;  // 0 = never filled
  };

  // Refreshes (if the epoch moved) and returns the named system view, or
  // nullptr. Takes system_mu_, which guards every access to system_views_,
  // the per-epoch refresh included.
  TableInfo* GetSystemView(const std::string& lower_name) const;

  ExecConfig exec_config_;
  UndoLog* undo_log_ = nullptr;
  TransactionManager* txn_manager_ = nullptr;
  Wal* wal_ = nullptr;
  ThreadPool* exec_pool_ = nullptr;
  BufferPool* buffer_pool_;
  MetricsRegistry* metrics_ = nullptr;
  StorageLayout layout_;
  StorageKind default_storage_ = StorageKind::kRow;
  uint32_t next_file_id_ = 1;
  std::unordered_map<std::string, std::unique_ptr<TableInfo>> tables_;
  std::unordered_map<std::string, ViewInfo> views_;
  uint64_t epoch_ = 1;
  uint64_t version_ = 1;
  mutable std::mutex system_mu_;  // guards system_views_ refresh
  mutable std::map<std::string, SystemView> system_views_;
};

}  // namespace xnf

#endif  // XNF_CATALOG_CATALOG_H_
