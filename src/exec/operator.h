#ifndef XNF_EXEC_OPERATOR_H_
#define XNF_EXEC_OPERATOR_H_

#include <chrono>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "common/result_set.h"
#include "common/status.h"
#include "common/value.h"

namespace xnf::exec {

class SeqScanOp;

// Rows an operator emits per NextBatch() call. Large enough to amortize the
// per-call virtual dispatch and Status plumbing over many rows, small enough
// that a batch of slim rows stays cache-resident.
inline constexpr size_t kBatchSize = 1024;
static_assert(ColumnStore::kMaxRowsPerGroup == kBatchSize,
              "a columnar row group is at most one executor batch");

// A batch of rows flowing between operators (row-vector layout: each row owns
// its values). An empty batch returned from NextBatch() signals end of
// stream.
struct RowBatch {
  std::vector<Row> rows;

  size_t size() const { return rows.size(); }
  bool empty() const { return rows.empty(); }
  bool full() const { return rows.size() >= kBatchSize; }
  void clear() { rows.clear(); }
  void Add(Row row) { rows.push_back(std::move(row)); }
  Row& operator[](size_t i) { return rows[i]; }
  const Row& operator[](size_t i) const { return rows[i]; }
};

// Per-invocation execution context. `params` carries correlation parameter
// values when the plan being run is a subplan of an outer query.
// `collect_stats` turns on per-operator counter collection (EXPLAIN ANALYZE,
// .stats); when false the per-batch cost is a single predicted branch.
struct ExecContext {
  const Catalog* catalog = nullptr;
  const std::vector<Value>* params = nullptr;
  bool collect_stats = false;
  // Statement-level kernel-coverage accumulators: every base-table scan
  // Open adds its kernelized / total pushed filter counts here, and RunPlan
  // copies the totals into ExecStats. Subplans (correlated subqueries, XNF
  // node queries) run under their own context and are not included.
  uint64_t scan_kernel_filters = 0;
  uint64_t scan_pushed_filters = 0;
};

// Per-operator execution counters, cumulative across re-opens of the same
// plan (so `opens` > 1 identifies the inner side of a nested-loop re-open,
// and rows_out counts every row the operator ever emitted). Wall time and
// buffer-pool faults are *inclusive* of children — an operator's NextBatch
// pulls from its child inside the timed region.
struct OperatorStats {
  uint64_t rows_out = 0;
  uint64_t batches_out = 0;
  uint64_t opens = 0;
  // Close() calls. RunPlan closes the plan on error paths too, so after any
  // drain — successful or failed — opens >= closes holds per operator (an
  // open that failed mid-way is still closed exactly once).
  uint64_t closes = 0;
  uint64_t time_ns = 0;
  uint64_t buffer_pool_faults = 0;
  // Highest degree of parallelism this operator actually ran with (1 =
  // serial). Counters above are exact totals merged across all workers.
  int dop = 1;
  // Columnar late materialization (SeqScan over a column table): segments
  // decoded into values vs. segments the scan never decoded. Both stay 0
  // for row tables — a heap page always materializes whole tuples.
  uint64_t columns_decoded = 0;
  uint64_t columns_skipped = 0;
  // Filter pushdown coverage of a columnar scan: filters the SIMD kernel
  // prefix evaluated vs all filters pushed into the scan. Both stay 0 for
  // row tables (no kernel path), so EXPLAIN output for row scans is
  // unchanged.
  uint64_t kernel_filters = 0;
  uint64_t pushed_filters = 0;
  // True iff the scan handed column batches upward (late-materialization
  // path) on any open.
  bool late = false;
  // CLUSTER BY tables: row groups skipped via cluster tag vs groups the
  // scan considered, accumulated across re-opens. Both stay 0 for
  // unclustered tables.
  uint64_t cluster_pruned = 0;
  uint64_t cluster_total = 0;
};

// Batch-at-a-time (vectorized volcano) iterator. Open() must fully reset
// state so plans can be re-executed (correlated subplans are re-opened per
// outer row); it also resets the row-at-a-time adapter's carry buffer and
// latches the stats-collection flag, which is why both Open() and
// NextBatch() are non-virtual and dispatch to *Impl() hooks.
class Operator {
 public:
  virtual ~Operator() = default;

  Operator(const Operator&) = delete;
  Operator& operator=(const Operator&) = delete;

  Status Open(ExecContext* ctx) {
    carry_.clear();
    carry_pos_ = 0;
    collect_ = ctx->collect_stats;
    if (!collect_) return OpenImpl(ctx);
    pool_ = ctx->catalog != nullptr ? ctx->catalog->buffer_pool() : nullptr;
    ++stats_.opens;
    uint64_t faults_before = pool_ != nullptr ? pool_->faults() : 0;
    auto start = std::chrono::steady_clock::now();
    Status status = OpenImpl(ctx);
    stats_.time_ns += ElapsedNs(start);
    if (pool_ != nullptr) {
      stats_.buffer_pool_faults += pool_->faults() - faults_before;
    }
    return status;
  }

  // Clears `out` and fills it with up to kBatchSize rows. An empty `out` on
  // return means end of stream; subsequent calls keep returning empty.
  Status NextBatch(RowBatch* out) {
    if (!collect_) return NextBatchImpl(out);
    uint64_t faults_before = pool_ != nullptr ? pool_->faults() : 0;
    auto start = std::chrono::steady_clock::now();
    Status status = NextBatchImpl(out);
    stats_.time_ns += ElapsedNs(start);
    if (pool_ != nullptr) {
      stats_.buffer_pool_faults += pool_->faults() - faults_before;
    }
    if (status.ok() && !out->empty()) {
      stats_.rows_out += out->size();
      ++stats_.batches_out;
    }
    return status;
  }

  // Releases per-execution resources and closes children. Safe to call on
  // a plan whose Open() failed part-way (operators tolerate closing in any
  // state), which is how error drains keep stats consistent.
  void Close() {
    if (collect_) ++stats_.closes;
    CloseImpl();
  }

  // Row-at-a-time adapter over NextBatch() for consumers that genuinely need
  // single rows (operator-level tests, transition code). Plan drains —
  // including correlated subplans, which go through RunPlan — use NextBatch()
  // directly.
  Result<std::optional<Row>> Next();

  const Schema& schema() const { return schema_; }
  const OperatorStats& stats() const { return stats_; }

  // Zeroes the counters of this operator and of every operator below it:
  // a compiled plan that runs again reports that run alone, exactly as a
  // freshly planned one would.
  void ResetStats();

  // Scan-specific downcast for consumers that can accept zero-copy column
  // batches (hash join, aggregation): they call RequestLateScan() on the
  // result before Open. Null for every other operator.
  virtual SeqScanOp* AsSeqScan() { return nullptr; }

  // --- Plan introspection (EXPLAIN) ---------------------------------------

  // Operator kind, e.g. "HashJoin". Stable across runs.
  virtual std::string label() const = 0;

  // Operator-specific annotation (table name, predicates, join keys, ...).
  // Empty when there is nothing to say. Stable across runs.
  virtual std::string detail() const { return ""; }

  // Appends this operator's direct children in plan order (left first).
  virtual void AppendChildren(std::vector<const Operator*>* /*out*/) const {}

  // Crude deterministic cardinality estimate for EXPLAIN output; cached so
  // repeated rendering does not re-walk the tree.
  uint64_t EstimateRows(const Catalog* catalog) const {
    if (!estimate_.has_value()) estimate_ = EstimateRowsImpl(catalog);
    return *estimate_;
  }

 protected:
  explicit Operator(Schema schema) : schema_(std::move(schema)) {}

  virtual Status OpenImpl(ExecContext* ctx) = 0;
  virtual Status NextBatchImpl(RowBatch* out) = 0;
  virtual void CloseImpl() {}
  virtual uint64_t EstimateRowsImpl(const Catalog* catalog) const = 0;

  // Records the DOP an OpenImpl achieved (morsel-parallel scan). Latches
  // the maximum across re-opens.
  void RecordDop(int dop) {
    if (dop > stats_.dop) stats_.dop = dop;
  }

  // Accumulates columnar late-materialization counters across re-opens.
  void RecordColumns(uint64_t decoded, uint64_t skipped) {
    stats_.columns_decoded += decoded;
    stats_.columns_skipped += skipped;
  }

  // Records a columnar scan's kernel coverage (idempotent across re-opens:
  // the filter set is fixed at plan time).
  void RecordKernels(uint64_t kernelized, uint64_t pushed) {
    stats_.kernel_filters = kernelized;
    stats_.pushed_filters = pushed;
  }

  // Marks the scan as having taken the late-materialization (column batch)
  // path.
  void RecordLate() { stats_.late = true; }

  // Accumulates cluster-tag pruning counters across re-opens.
  void RecordCluster(uint64_t pruned, uint64_t total) {
    stats_.cluster_pruned += pruned;
    stats_.cluster_total += total;
  }

  static uint64_t ElapsedNs(std::chrono::steady_clock::time_point start) {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start)
            .count());
  }

  Schema schema_;

 private:
  RowBatch carry_;  // adapter state for Next()
  size_t carry_pos_ = 0;
  bool collect_ = false;
  const BufferPool* pool_ = nullptr;
  OperatorStats stats_;
  mutable std::optional<uint64_t> estimate_;
};

using OperatorPtr = std::unique_ptr<Operator>;

// Drains `root` batch-wise into a materialized result, filling
// ResultSet::stats (rows/batches produced, buffer-pool faults/evictions).
Result<ResultSet> RunPlan(Operator* root, ExecContext* ctx);

}  // namespace xnf::exec

#endif  // XNF_EXEC_OPERATOR_H_
