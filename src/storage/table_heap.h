#ifndef XNF_STORAGE_TABLE_HEAP_H_
#define XNF_STORAGE_TABLE_HEAP_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <set>
#include <vector>

#include "common/schema.h"
#include "common/status.h"
#include "common/value.h"
#include "storage/buffer_pool.h"
#include "storage/table_storage.h"

namespace xnf {

class Counter;
class MetricsRegistry;

// A slotted-page heap of rows for one table: the row-store implementation
// of TableStorage. Pages hold a fixed number of tuple slots (a
// simplification of byte-budgeted pages that keeps the paging behaviour,
// which is what the experiments need). All page accesses are reported to
// the optional BufferPool for fault accounting.
//
// Every accessor can fail under fault injection: the `heap.append`,
// `heap.read`, and `heap.write` failpoints fire before any mutation, and
// pool Touch errors (`bufferpool.*` sites) propagate, so a failed call
// never leaves a partial page change behind.
class TableHeap : public TableStorage {
 public:
  struct Options {
    uint32_t tuples_per_page = 64;
    BufferPool* buffer_pool = nullptr;  // not owned; may be null
    uint32_t file_id = 0;               // identifies this heap in the pool
    // Engine metrics (storage.heap.* counters, shared across all heaps);
    // null = metrics off.
    MetricsRegistry* metrics = nullptr;
  };

  explicit TableHeap(Options options);
  TableHeap() : TableHeap(Options{}) {}

  TableHeap(const TableHeap&) = delete;
  TableHeap& operator=(const TableHeap&) = delete;
  TableHeap(TableHeap&&) = default;
  TableHeap& operator=(TableHeap&&) = default;

  StorageKind kind() const override { return StorageKind::kRow; }

  // Appends a row; returns its Rid.
  Result<Rid> Insert(Row row) override;

  // Reads the row at `rid`. Fails with kNotFound for deleted/invalid rids.
  Result<Row> Read(Rid rid) const override;

  // Per-rid Read semantics (the `heap.read` failpoint and the reads
  // counter per row), but the buffer pool is touched once per run of
  // consecutive rids on the same page, and `fn` sees the stored row
  // without a copy.
  Status ReadRids(const std::vector<Rid>& rids,
                  const std::function<bool(Rid, const Row&)>& fn)
      const override;

  // True iff `rid` refers to a live tuple.
  bool IsLive(Rid rid) const override;

  // Replaces the row at `rid` in place.
  Status Update(Rid rid, Row row) override;

  // Tombstones the row at `rid`.
  Status Delete(Rid rid) override;

  // Revives a tombstoned slot with `row` (transaction rollback of a delete).
  // Fails if the slot never existed or is currently live.
  Status Restore(Rid rid, Row row) override;

  // Calls `fn(rid, row)` for every live tuple in page/slot order; stops early
  // if `fn` returns false. Fails only if a page read fails (fault
  // injection); rows visited before the failure have been delivered.
  Status Scan(const std::function<bool(Rid, const Row&)>& fn) const override;

  // Scan restricted to pages [page_begin, page_end) — the unit of a
  // morsel-driven parallel scan. ScanRange calls on disjoint ranges are safe
  // to run concurrently (pages are only read; the buffer pool synchronizes
  // its own accounting).
  Status ScanRange(uint32_t page_begin, uint32_t page_end,
                   const std::function<bool(Rid, const Row&)>& fn)
      const override;

  // Pins/unpins pages [page_begin, page_end) in the buffer pool (no-ops
  // without a pool). Morsel workers pin their range for the duration of the
  // morsel so concurrent scans cannot evict pages under them; the unpin
  // must run on every exit path, including errors.
  void PinRange(uint32_t page_begin, uint32_t page_end) const override;
  void UnpinRange(uint32_t page_begin, uint32_t page_end) const override;

  size_t live_count() const override { return live_count_; }
  size_t page_count() const override { return pages_.size(); }
  uint32_t file_id() const override { return options_.file_id; }
  size_t tombstone_count() const override { return tombstones_; }

  // Durability: one unit = one heap page (slot count + per-slot presence
  // flag + row).
  Status SerializeUnit(uint32_t unit, std::string* out) const override;
  Status RestoreUnit(uint32_t unit, serde::Reader* in) override;
  std::vector<uint32_t> DirtyUnits() const override;
  void ClearDirtyUnits() override;

 private:
  struct Page {
    std::vector<std::optional<Row>> slots;
  };

  Status TouchPage(uint32_t page) const {
    if (options_.buffer_pool != nullptr) {
      return options_.buffer_pool->Touch(PageId{options_.file_id, page},
                                         PageKind::kHeap);
    }
    return Status::Ok();
  }

  // Records a successful mutation of `page` for the next checkpoint (and
  // mirrors it into the buffer pool's dirty-page gauge).
  void MarkUnitDirty(uint32_t page) {
    dirty_units_.insert(page);
    if (options_.buffer_pool != nullptr) {
      options_.buffer_pool->MarkDirty(PageId{options_.file_id, page},
                                      PageKind::kHeap);
    }
  }

  Options options_;
  std::vector<Page> pages_;
  size_t live_count_ = 0;
  size_t tombstones_ = 0;
  std::set<uint32_t> dirty_units_;
  // Resolved once at construction; null when metrics are off. Counters are
  // shared across all heaps (per-table detail lives in sqlxnf_storage).
  Counter* appends_ = nullptr;
  Counter* reads_ = nullptr;
  Counter* scan_pages_ = nullptr;
};

}  // namespace xnf

#endif  // XNF_STORAGE_TABLE_HEAP_H_
