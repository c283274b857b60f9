#ifndef XNF_EXEC_PARALLEL_H_
#define XNF_EXEC_PARALLEL_H_

#include <cstdint>
#include <vector>

#include "catalog/catalog.h"
#include "common/status.h"
#include "exec/operator.h"
#include "qgm/expr.h"
#include "storage/column_store.h"

namespace xnf::exec {

// Smallest page range worth handing to a worker; tables below twice this
// size are scanned serially (the morsel bookkeeping would dominate).
inline constexpr uint32_t kMinMorselPages = 4;

// What a filtering scan actually did — DOP plus the columnar decode
// counters (0 for row tables: a heap page always materializes whole
// tuples).
struct ScanStats {
  int dop = 1;
  // Column segments decoded into values, and segments skipped, summed over
  // all row groups the scan visited. A skipped segment's page is never
  // touched (modulo the group header) — the fault counters agree.
  uint64_t columns_decoded = 0;
  uint64_t columns_skipped = 0;
  // True iff the columnar kernel path ran (column table whose physical
  // state the snapshot may read directly); then kernel_filters of the
  // total_filters pushed filters were evaluated by the SIMD kernel prefix.
  // Row scans leave all three at their zero defaults.
  bool columnar = false;
  uint64_t kernel_filters = 0;
  uint64_t total_filters = 0;
  // True iff the scan produced column batches (TryLateFilterScan) instead
  // of materialized rows.
  bool late = false;
  // CLUSTER BY tables only: row groups the scan skipped because their
  // cluster tag alone failed a kernelized filter, out of the groups the
  // scan considered. A pruned group's pages are never touched. Both stay 0
  // for unclustered tables.
  uint64_t groups_pruned = 0;
  uint64_t groups_total = 0;
};

// One row group as the columnar scan's filter stage sees it: a selection
// vector over the group's slots plus lazily decoded column views. The
// gathering scan reuses one GroupView across a morsel's groups; ColBatch
// adds the pin that lets the views outlive the scan.
class GroupView {
 public:
  uint32_t group() const { return group_; }
  // Rows appended to the group (selection-vector length), incl. dead rows.
  size_t rows() const { return rows_; }
  // Selected (surviving) rows.
  size_t alive() const { return alive_; }
  // Per-slot selection vector: 1 = row survives the scan's filters.
  const std::vector<char>& sel() const { return sel_; }

  // Points the view at `group`: reads the group header (fires
  // `column.read`) and seeds the selection vector from the tombstone
  // bitmap. Views of a previous group are forgotten; their decode buffers
  // are kept for reuse.
  Status Open(const ColumnStore* store, uint32_t group);

  // The view of column `c`, decoding it on first use (fires `column.read`
  // and touches the column's page). `need_values` == false fills only
  // type/nulls/rows (enough for IS NULL tests); a later need_values call
  // upgrades the view in place.
  Status View(size_t c, bool need_values, const ColumnStore::ColumnView** out);

  // Materializes slot `i` as a full-width row: `materialize` columns decode
  // through the views, the rest stay NULL placeholders — exactly the row
  // the gathering scan would have produced.
  Status MaterializeRow(const std::vector<char>& materialize, size_t i,
                        Row* out);

  // Scan-side hooks: the filter stage intersects filters into the
  // selection vector and records the new alive count.
  std::vector<char>* mutable_sel() { return &sel_; }
  void set_alive(size_t n) { alive_ = n; }

  // Distinct columns viewed since Open (the scan's columns_decoded unit).
  uint64_t decoded_columns() const;

  // Metrics: view counts accumulate locally until flushed into the filter
  // stage's per-morsel tally; once a ColBatch attaches the store's
  // segment-views counter, consumer-time decodes count directly.
  uint64_t FlushPendingViews();
  void AttachViewsCounter(Counter* counter) { views_counter_ = counter; }

 private:
  const ColumnStore* store_ = nullptr;
  uint32_t group_ = 0;
  size_t rows_ = 0;
  size_t alive_ = 0;
  std::vector<char> sel_;
  std::vector<ColumnStore::ViewScratch> scratch_;   // per column
  std::vector<ColumnStore::ColumnView> views_;      // per column
  std::vector<char> viewed_;  // 0 = not viewed, 1 = nulls only, 2 = values
  uint64_t pending_views_ = 0;
  Counter* views_counter_ = nullptr;
};

// One row group's filter survivors kept in columnar form. This is the
// executor's zero-copy batch currency — the scan hands ColBatches upward
// and the consumer (hash join, aggregation, or the generic
// row-materializing fallback in SeqScanOp) decodes only the columns and
// rows it actually touches, only when it touches them.
//
// Lifetime: the batch pins its group's pages for its whole life (pins nest
// with the scan's morsel pins) and holds a debug view lease, so a
// ColumnView obtained from it can never be invalidated by buffer-pool
// eviction while the batch is alive. Move-only; moving keeps all views
// valid (decode buffers live on the heap).
class ColBatch : public GroupView {
 public:
  ColBatch() = default;
  // Pins `group` of `store`; the filter stage then Opens the view on it.
  ColBatch(const ColumnStore* store, uint32_t group);
  ~ColBatch() { Release(); }
  ColBatch(ColBatch&& other) noexcept { *this = std::move(other); }
  ColBatch& operator=(ColBatch&& other) noexcept;
  ColBatch(const ColBatch&) = delete;
  ColBatch& operator=(const ColBatch&) = delete;

 private:
  void Release();

  const ColumnStore* pinned_ = nullptr;  // null = holds no pin
  uint32_t pinned_group_ = 0;
};

// A batch scan's result: the surviving batches in row-group order.
// Concatenating each batch's selected rows in slot order reproduces the
// gathering scan's output row-for-row; `materialize` is the per-column
// bitmap a consumer must decode to honour the planner's projection
// contract (other columns are NULL placeholders downstream).
struct LateScan {
  const ColumnStore* store = nullptr;  // null = batch path not taken
  std::vector<char> materialize;
  std::vector<ColBatch> batches;
  size_t total_rows = 0;  // sum of batch alive counts
};

// Morsel-driven parallel filtering scan of a base table: storage is split
// into page-range morsels (row-store pages or columnar row groups), each
// worker filters its morsels, and the per-morsel outputs are concatenated
// in morsel (= page) order. The output is therefore row-for-row identical
// to a serial scan at any degree of parallelism and for either layout.
//
// For columnar tables (unless the MVCC snapshot needs the row-wise overlay
// merge) a kernelizable prefix of `filters` — `col cmp literal`,
// `(col arith literal) cmp literal`, `col IS [NOT] NULL` — runs on the
// column segments through the SIMD kernel registry before any row is
// materialized; survivors are gathered with only the `referenced` columns
// decoded, remaining filters running batch-wise on the gathered rows.
// `referenced` is a per-table-column bitmap from the planner's projection
// walk (nullptr = all columns; ignored for row tables); unreferenced
// columns come back as NULL placeholders the rest of the plan has been
// proven never to read.
//
// `filters` must be subquery-free (pushed-down scan predicates are by
// construction). `rids_out` may be null when provenance is not needed.
// Runs serially — and identically to the pre-parallel code path — when the
// catalog has no ThreadPool, the pool's DOP is 1, or the table is small;
// `stats->dop` reports the DOP actually used.
Status ParallelFilterScan(const TableInfo& table,
                          const std::vector<qgm::ExprPtr>& filters,
                          const std::vector<char>* referenced,
                          ExecContext* ctx, std::vector<Row>* rows_out,
                          std::vector<Rid>* rids_out, ScanStats* stats);

// Batch variant for consumers that read column views (hash join,
// aggregation): instead of gathering rows, hand the filter survivors upward
// as ColBatches (selection vector + lazy column views). Taken only when the
// table is columnar, the snapshot may read physical state, and *every*
// pushed filter kernelized (a scalar remainder would need gathered rows
// anyway); otherwise returns Ok with out->store == nullptr and the caller
// falls back to ParallelFilterScan. Same morsel driver and per-group filter
// stage as the gathering scan, so batch rows concatenate to the identical
// scan output.
Status TryLateFilterScan(const TableInfo& table,
                         const std::vector<qgm::ExprPtr>& filters,
                         const std::vector<char>* referenced, ExecContext* ctx,
                         LateScan* out, ScanStats* stats);

}  // namespace xnf::exec

#endif  // XNF_EXEC_PARALLEL_H_
