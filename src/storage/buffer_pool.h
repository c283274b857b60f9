#ifndef XNF_STORAGE_BUFFER_POOL_H_
#define XNF_STORAGE_BUFFER_POOL_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <list>
#include <mutex>
#include <unordered_map>

#include "common/status.h"

namespace xnf {

// Identifies a page within the whole database: (file id, page number).
struct PageId {
  uint32_t file = 0;
  uint32_t page = 0;

  bool operator==(const PageId& other) const {
    return file == other.file && page == other.page;
  }
};

struct PageIdHash {
  size_t operator()(const PageId& id) const {
    return (static_cast<size_t>(id.file) << 32) ^ id.page;
  }
};

// What a page stores. Accounting is split by kind so experiments can
// attribute faults: a CO-clustering run wants heap faults, a columnar scan
// wants column faults, and mixing them would blur both numbers. kIndex is
// reserved for paged indexes (the current in-memory indexes touch no
// pages, so its counters stay zero).
enum class PageKind { kHeap = 0, kIndex = 1, kColumn = 2 };
inline constexpr int kPageKindCount = 3;

// "heap" / "index" / "column".
const char* PageKindName(PageKind kind);

// Simulated buffer pool. The data itself always lives in memory; the pool
// only models which pages would be resident, so that page-fault counts
// faithfully reflect the I/O behaviour the paper's clustering discussion is
// about (see DESIGN.md, experiment C4). LRU replacement.
//
// Thread safety: Touch() is called concurrently by morsel workers during
// parallel scans. The counters are atomics and the LRU structures are
// mutex-guarded, so accesses/faults stay exact totals under any DOP. (For a
// *bounded* pool the fault count can depend on worker interleaving, because
// the LRU recency order does; the unbounded default — faults == distinct
// pages — is interleaving-independent.)
class BufferPool {
 public:
  // `capacity_pages` == 0 means unbounded (every page resident after first
  // touch; faults then equal the number of distinct pages).
  explicit BufferPool(size_t capacity_pages) : capacity_(capacity_pages) {}

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  // Records an access to `id`; counts a fault if it was not resident, under
  // both the total and the per-`kind` counters. Fails only under fault
  // injection: the `bufferpool.read` failpoint models a failed page read
  // (fires before any state change), and `bufferpool.evict` models a failed
  // write-back of the LRU victim (the new page is already resident and its
  // fault counted; the victim stays resident, leaving the pool transiently
  // over capacity — the invariant faults == resident + evictions holds on
  // both paths).
  Status Touch(PageId id, PageKind kind = PageKind::kHeap);

  // Pins exempt a page from eviction; they do not count an access or make
  // the page resident (the next Touch faults it in as usual). Morsel
  // workers pin their page range for the duration of the morsel. Unpin of
  // an unpinned page is a no-op. Pins nest (count per page). A bounded
  // pool that pins held over capacity shrinks back at unpin, evicting
  // unpinned pages least recently used first.
  void Pin(PageId id);
  void Unpin(PageId id);
  // Range forms take the pool lock once for the whole range — morsel
  // workers pin dozens of pages at a time, and per-page locking is
  // measurable next to an in-memory scan.
  void PinRange(uint32_t file, uint32_t page_begin, uint32_t page_end);
  void UnpinRange(uint32_t file, uint32_t page_begin, uint32_t page_end);
  // Distinct pages currently pinned; 0 when the engine is quiescent.
  size_t pinned_pages() const {
    std::lock_guard<std::mutex> lock(mu_);
    return pins_.size();
  }
  // True while `id` holds at least one pin (debug pin-lifetime assertions).
  bool IsPinned(PageId id) const {
    std::lock_guard<std::mutex> lock(mu_);
    return pins_.count(id) > 0;
  }

  uint64_t accesses() const {
    return accesses_.load(std::memory_order_relaxed);
  }
  uint64_t faults() const { return faults_.load(std::memory_order_relaxed); }
  // Pages pushed out by LRU replacement. Always 0 for an unbounded pool;
  // for a bounded pool faults = cold misses + re-faults on evicted pages,
  // so evictions tell the two apart.
  uint64_t evictions() const {
    return evictions_.load(std::memory_order_relaxed);
  }

  // Per-kind breakdowns. Each total above equals the sum over kinds (the
  // pair is incremented together under the same access).
  uint64_t accesses(PageKind kind) const {
    return by_kind_[static_cast<int>(kind)].accesses.load(
        std::memory_order_relaxed);
  }
  uint64_t faults(PageKind kind) const {
    return by_kind_[static_cast<int>(kind)].faults.load(
        std::memory_order_relaxed);
  }
  // Evictions are attributed to the *victim's* kind (the page written
  // back), not the kind of the access that forced it out.
  uint64_t evictions(PageKind kind) const {
    return by_kind_[static_cast<int>(kind)].evictions.load(
        std::memory_order_relaxed);
  }

  size_t resident_pages() const {
    std::lock_guard<std::mutex> lock(mu_);
    return lru_map_.size();
  }
  // Resident pages holding `kind` data (walks the residency map; meant for
  // the sqlxnf_bufferpool system view, not hot paths).
  size_t resident_pages(PageKind kind) const {
    std::lock_guard<std::mutex> lock(mu_);
    size_t n = 0;
    for (const auto& [id, r] : lru_map_) {
      if (r.kind == kind) ++n;
    }
    return n;
  }
  size_t capacity() const { return capacity_; }

  // Dirty-page tracking (observability: the bufferpool.dirty gauge and the
  // sqlxnf_bufferpool view). Storages mark their mutated units here; the
  // authoritative checkpoint flush list is each storage's DirtyUnits(),
  // which survives eviction — this set only mirrors it at page granularity.
  void MarkDirty(PageId id, PageKind kind) {
    std::lock_guard<std::mutex> lock(mu_);
    dirty_[id] = kind;
  }
  size_t dirty_pages() const {
    std::lock_guard<std::mutex> lock(mu_);
    return dirty_.size();
  }
  void ClearDirty() {
    std::lock_guard<std::mutex> lock(mu_);
    dirty_.clear();
  }

  void ResetCounters() {
    accesses_.store(0, std::memory_order_relaxed);
    faults_.store(0, std::memory_order_relaxed);
    evictions_.store(0, std::memory_order_relaxed);
    for (KindCounters& k : by_kind_) {
      k.accesses.store(0, std::memory_order_relaxed);
      k.faults.store(0, std::memory_order_relaxed);
      k.evictions.store(0, std::memory_order_relaxed);
    }
  }

  // Drops all resident pages (cold cache) and keeps counters.
  void Clear();

 private:
  struct KindCounters {
    std::atomic<uint64_t> accesses{0};
    std::atomic<uint64_t> faults{0};
    std::atomic<uint64_t> evictions{0};
  };
  // A resident page remembers its kind so an eviction can be attributed to
  // the victim even though only the evicting access is in scope.
  struct Resident {
    std::list<PageId>::iterator it;
    PageKind kind = PageKind::kHeap;
  };

  // Removes resident page `victim` and counts the eviction. Caller holds
  // mu_.
  void EvictLocked(std::list<PageId>::iterator victim);
  // Evicts unpinned pages, LRU first, while the pool is over capacity.
  // Caller holds mu_.
  void ShrinkLocked();

  size_t capacity_;
  std::atomic<uint64_t> accesses_{0};
  std::atomic<uint64_t> faults_{0};
  std::atomic<uint64_t> evictions_{0};
  KindCounters by_kind_[kPageKindCount];
  mutable std::mutex mu_;  // guards lru_list_ / lru_map_ / pins_
  // Front = most recently used.
  std::list<PageId> lru_list_;
  std::unordered_map<PageId, Resident, PageIdHash> lru_map_;
  std::unordered_map<PageId, int, PageIdHash> pins_;  // page -> pin count
  std::unordered_map<PageId, PageKind, PageIdHash> dirty_;
};

}  // namespace xnf

#endif  // XNF_STORAGE_BUFFER_POOL_H_
