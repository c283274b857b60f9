#include "storage/buffer_pool.h"

#include <iterator>

#include "common/failpoint.h"

namespace xnf {

const char* PageKindName(PageKind kind) {
  switch (kind) {
    case PageKind::kHeap:
      return "heap";
    case PageKind::kIndex:
      return "index";
    case PageKind::kColumn:
      return "column";
  }
  return "?";
}

Status BufferPool::Touch(PageId id, PageKind kind) {
  XNF_FAILPOINT("bufferpool.read");
  KindCounters& kc = by_kind_[static_cast<int>(kind)];
  accesses_.fetch_add(1, std::memory_order_relaxed);
  kc.accesses.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = lru_map_.find(id);
  if (it != lru_map_.end()) {
    // Hit: move to front.
    lru_list_.splice(lru_list_.begin(), lru_list_, it->second.it);
    return Status::Ok();
  }
  faults_.fetch_add(1, std::memory_order_relaxed);
  kc.faults.fetch_add(1, std::memory_order_relaxed);
  lru_list_.push_front(id);
  lru_map_[id] = Resident{lru_list_.begin(), kind};
  if (capacity_ != 0 && lru_map_.size() > capacity_) {
    // Pick the least-recently-used unpinned victim. If every page is
    // pinned the pool runs over capacity until pins drain.
    auto victim = lru_list_.end();
    for (auto rit = lru_list_.rbegin(); rit != lru_list_.rend(); ++rit) {
      if (pins_.find(*rit) == pins_.end()) {
        victim = std::next(rit).base();
        break;
      }
    }
    if (victim != lru_list_.end()) {
      XNF_FAILPOINT("bufferpool.evict");
      EvictLocked(victim);
    }
  }
  return Status::Ok();
}

void BufferPool::EvictLocked(std::list<PageId>::iterator victim) {
  auto vit = lru_map_.find(*victim);
  PageKind victim_kind = vit->second.kind;
  lru_map_.erase(vit);
  lru_list_.erase(victim);
  evictions_.fetch_add(1, std::memory_order_relaxed);
  by_kind_[static_cast<int>(victim_kind)].evictions.fetch_add(
      1, std::memory_order_relaxed);
}

void BufferPool::ShrinkLocked() {
  if (capacity_ == 0) return;
  // Walk from the LRU end; erasing a list node leaves `next` valid.
  auto next = lru_list_.end();
  while (lru_map_.size() > capacity_ && next != lru_list_.begin()) {
    auto victim = std::prev(next);
    if (pins_.find(*victim) != pins_.end()) {
      next = victim;
    } else {
      EvictLocked(victim);
    }
  }
}

void BufferPool::Pin(PageId id) {
  std::lock_guard<std::mutex> lock(mu_);
  ++pins_[id];
}

void BufferPool::Unpin(PageId id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = pins_.find(id);
  if (it == pins_.end()) return;
  if (--it->second == 0) pins_.erase(it);
  ShrinkLocked();
}

void BufferPool::PinRange(uint32_t file, uint32_t page_begin,
                          uint32_t page_end) {
  std::lock_guard<std::mutex> lock(mu_);
  for (uint32_t p = page_begin; p < page_end; ++p) {
    ++pins_[PageId{file, p}];
  }
}

void BufferPool::UnpinRange(uint32_t file, uint32_t page_begin,
                            uint32_t page_end) {
  std::lock_guard<std::mutex> lock(mu_);
  for (uint32_t p = page_begin; p < page_end; ++p) {
    auto it = pins_.find(PageId{file, p});
    if (it == pins_.end()) continue;
    if (--it->second == 0) pins_.erase(it);
  }
  ShrinkLocked();
}

void BufferPool::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  lru_list_.clear();
  lru_map_.clear();
}

}  // namespace xnf
