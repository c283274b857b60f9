#include "storage/table_heap.h"

#include <algorithm>

#include "common/failpoint.h"
#include "common/metrics.h"
#include "common/serde.h"

namespace xnf {

TableHeap::TableHeap(Options options) : options_(options) {
  if (options_.metrics != nullptr) {
    appends_ = options_.metrics->counter("storage.heap.appends");
    reads_ = options_.metrics->counter("storage.heap.reads");
    scan_pages_ = options_.metrics->counter("storage.heap.scan_pages");
  }
}

Result<Rid> TableHeap::Insert(Row row) {
  XNF_FAILPOINT("heap.append");
  // Touch the target page before mutating so a pool error (injected read
  // failure, failed victim write-back) leaves the heap unchanged.
  bool need_page = pages_.empty() ||
                   pages_.back().slots.size() >= options_.tuples_per_page;
  uint32_t page = static_cast<uint32_t>(need_page ? pages_.size()
                                                  : pages_.size() - 1);
  XNF_RETURN_IF_ERROR(TouchPage(page));
  if (need_page) pages_.emplace_back();
  Page& p = pages_.back();
  p.slots.push_back(std::move(row));
  ++live_count_;
  MarkUnitDirty(page);
  CounterAdd(appends_);
  return Rid{page, static_cast<uint32_t>(p.slots.size() - 1)};
}

Result<Row> TableHeap::Read(Rid rid) const {
  XNF_FAILPOINT("heap.read");
  if (rid.page >= pages_.size() ||
      rid.slot >= pages_[rid.page].slots.size() ||
      !pages_[rid.page].slots[rid.slot].has_value()) {
    return Status::NotFound("no live tuple at rid (" +
                            std::to_string(rid.page) + ", " +
                            std::to_string(rid.slot) + ")");
  }
  XNF_RETURN_IF_ERROR(TouchPage(rid.page));
  CounterAdd(reads_);
  return *pages_[rid.page].slots[rid.slot];
}

Status TableHeap::ReadRids(
    const std::vector<Rid>& rids,
    const std::function<bool(Rid, const Row&)>& fn) const {
  uint32_t touched_page = 0;
  bool touched = false;
  for (Rid rid : rids) {
    XNF_FAILPOINT("heap.read");
    if (!IsLive(rid)) {
      return Status::NotFound("no live tuple at rid (" +
                              std::to_string(rid.page) + ", " +
                              std::to_string(rid.slot) + ")");
    }
    if (!touched || rid.page != touched_page) {
      XNF_RETURN_IF_ERROR(TouchPage(rid.page));
      touched_page = rid.page;
      touched = true;
    }
    CounterAdd(reads_);
    if (!fn(rid, *pages_[rid.page].slots[rid.slot])) break;
  }
  return Status::Ok();
}

bool TableHeap::IsLive(Rid rid) const {
  return rid.page < pages_.size() &&
         rid.slot < pages_[rid.page].slots.size() &&
         pages_[rid.page].slots[rid.slot].has_value();
}

Status TableHeap::Update(Rid rid, Row row) {
  XNF_FAILPOINT("heap.write");
  if (!IsLive(rid)) {
    return Status::NotFound("update of dead rid (" + std::to_string(rid.page) +
                            ", " + std::to_string(rid.slot) + ")");
  }
  XNF_RETURN_IF_ERROR(TouchPage(rid.page));
  pages_[rid.page].slots[rid.slot] = std::move(row);
  MarkUnitDirty(rid.page);
  return Status::Ok();
}

Status TableHeap::Delete(Rid rid) {
  XNF_FAILPOINT("heap.write");
  if (!IsLive(rid)) {
    return Status::NotFound("delete of dead rid (" + std::to_string(rid.page) +
                            ", " + std::to_string(rid.slot) + ")");
  }
  XNF_RETURN_IF_ERROR(TouchPage(rid.page));
  pages_[rid.page].slots[rid.slot].reset();
  --live_count_;
  ++tombstones_;
  MarkUnitDirty(rid.page);
  return Status::Ok();
}

Status TableHeap::Restore(Rid rid, Row row) {
  XNF_FAILPOINT("heap.write");
  if (rid.page >= pages_.size() ||
      rid.slot >= pages_[rid.page].slots.size()) {
    return Status::NotFound("restore of unknown rid (" +
                            std::to_string(rid.page) + ", " +
                            std::to_string(rid.slot) + ")");
  }
  if (pages_[rid.page].slots[rid.slot].has_value()) {
    return Status::InvalidArgument("restore of a live slot");
  }
  XNF_RETURN_IF_ERROR(TouchPage(rid.page));
  pages_[rid.page].slots[rid.slot] = std::move(row);
  ++live_count_;
  if (tombstones_ > 0) --tombstones_;
  MarkUnitDirty(rid.page);
  return Status::Ok();
}

Status TableHeap::SerializeUnit(uint32_t unit, std::string* out) const {
  if (unit >= pages_.size()) {
    return Status::Internal("heap: serialize of unknown page " +
                            std::to_string(unit));
  }
  const Page& p = pages_[unit];
  serde::PutU32(out, static_cast<uint32_t>(p.slots.size()));
  for (const auto& slot : p.slots) {
    serde::PutU8(out, slot.has_value() ? 1 : 0);
    if (slot.has_value()) serde::PutRow(out, *slot);
  }
  return Status::Ok();
}

Status TableHeap::RestoreUnit(uint32_t unit, serde::Reader* in) {
  if (unit != pages_.size()) {
    return Status::Internal("heap: non-contiguous page restore (got " +
                            std::to_string(unit) + ", expected " +
                            std::to_string(pages_.size()) + ")");
  }
  Page page;
  uint32_t nslots = 0;
  XNF_RETURN_IF_ERROR(in->GetU32(&nslots));
  page.slots.reserve(nslots);
  for (uint32_t s = 0; s < nslots; ++s) {
    uint8_t present = 0;
    XNF_RETURN_IF_ERROR(in->GetU8(&present));
    if (present != 0) {
      Row row;
      XNF_RETURN_IF_ERROR(in->GetRow(&row));
      page.slots.emplace_back(std::move(row));
      ++live_count_;
    } else {
      page.slots.emplace_back(std::nullopt);
      ++tombstones_;
    }
  }
  pages_.push_back(std::move(page));
  return Status::Ok();
}

std::vector<uint32_t> TableHeap::DirtyUnits() const {
  return {dirty_units_.begin(), dirty_units_.end()};
}

void TableHeap::ClearDirtyUnits() { dirty_units_.clear(); }

Status TableHeap::Scan(const std::function<bool(Rid, const Row&)>& fn) const {
  return ScanRange(0, static_cast<uint32_t>(pages_.size()), fn);
}

Status TableHeap::ScanRange(
    uint32_t page_begin, uint32_t page_end,
    const std::function<bool(Rid, const Row&)>& fn) const {
  page_end = std::min(page_end, static_cast<uint32_t>(pages_.size()));
  // Accumulate the page count locally and flush one atomic add at the end:
  // a per-page add is measurable on full-table scans over small pages.
  uint64_t pages_scanned = 0;
  for (uint32_t p = page_begin; p < page_end; ++p) {
    XNF_RETURN_IF_ERROR(TouchPage(p));
    ++pages_scanned;
    const Page& page = pages_[p];
    for (uint32_t s = 0; s < page.slots.size(); ++s) {
      if (!page.slots[s].has_value()) continue;
      if (!fn(Rid{p, s}, *page.slots[s])) {
        CounterAdd(scan_pages_, pages_scanned);
        return Status::Ok();
      }
    }
  }
  CounterAdd(scan_pages_, pages_scanned);
  return Status::Ok();
}

void TableHeap::PinRange(uint32_t page_begin, uint32_t page_end) const {
  if (options_.buffer_pool == nullptr) return;
  page_end = std::min(page_end, static_cast<uint32_t>(pages_.size()));
  options_.buffer_pool->PinRange(options_.file_id, page_begin, page_end);
}

void TableHeap::UnpinRange(uint32_t page_begin, uint32_t page_end) const {
  if (options_.buffer_pool == nullptr) return;
  page_end = std::min(page_end, static_cast<uint32_t>(pages_.size()));
  options_.buffer_pool->UnpinRange(options_.file_id, page_begin, page_end);
}

}  // namespace xnf
