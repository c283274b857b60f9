#include "storage/column_store.h"

#include <algorithm>
#include <bit>

#include "common/failpoint.h"
#include "common/metrics.h"
#include "common/serde.h"

namespace xnf {

const char* StorageKindName(StorageKind kind) {
  switch (kind) {
    case StorageKind::kRow:
      return "row";
    case StorageKind::kColumn:
      return "column";
  }
  return "?";
}

namespace {

// RLE runs are stored as (value, end) pairs: `ends` holds each run's
// exclusive end slot (prefix sums of the run lengths), so a point read is a
// binary search. Point reads serve Read(rid) — index probes and DML target
// re-reads on columnar tables; scans expand whole segments instead.
template <typename T>
T RleAt(const std::vector<T>& values, const std::vector<uint32_t>& ends,
        uint32_t slot) {
  assert(!ends.empty() && slot < ends.back());
  return values[std::upper_bound(ends.begin(), ends.end(), slot) -
                ends.begin()];
}

template <typename T>
void RleExpand(const std::vector<T>& values, const std::vector<uint32_t>& ends,
               std::vector<T>* out) {
  out->clear();
  uint32_t begin = 0;
  for (size_t r = 0; r < values.size(); ++r) {
    out->insert(out->end(), ends[r] - begin, values[r]);
    begin = ends[r];
  }
}

// Compresses `plain` into (values, ends) runs. Returns the run count.
template <typename T>
size_t RleBuild(const std::vector<T>& plain, std::vector<T>* values,
                std::vector<uint32_t>* ends) {
  values->clear();
  ends->clear();
  for (uint32_t i = 0; i < plain.size(); ++i) {
    if (values->empty() || values->back() != plain[i]) {
      values->push_back(plain[i]);
      ends->push_back(i + 1);
    } else {
      ends->back() = i + 1;
    }
  }
  return values->size();
}

// Set bits of a live group's tombstone bitmap: its dead-row count, since
// SetBit never sets a bit past the group's row count.
size_t CountBits(const std::vector<uint64_t>& bits) {
  size_t n = 0;
  for (uint64_t w : bits) n += static_cast<size_t>(std::popcount(w));
  return n;
}

std::string RidStr(Rid rid) {
  return "(" + std::to_string(rid.page) + ", " + std::to_string(rid.slot) +
         ")";
}

}  // namespace

ColumnStore::ColumnStore(Schema schema, Options options)
    : schema_(std::move(schema)), options_(options) {
  if (options_.rows_per_group == 0) options_.rows_per_group = 1;
  if (options_.max_dict_entries == 0) options_.max_dict_entries = 1;
  if (options_.cluster_column >= 0 &&
      static_cast<size_t>(options_.cluster_column) >= schema_.size()) {
    options_.cluster_column = -1;  // catalog validates; belt and braces
  }
  dicts_.resize(schema_.size());
  if (options_.metrics != nullptr) {
    appends_ = options_.metrics->counter("storage.column.appends");
    group_reads_ = options_.metrics->counter("storage.column.group_reads");
    segment_views_ = options_.metrics->counter("storage.column.segment_views");
    rle_seals_ = options_.metrics->counter("storage.column.rle_seals");
    rle_unseals_ = options_.metrics->counter("storage.column.rle_unseals");
    dict_overflows_ =
        options_.metrics->counter("storage.column.dict_overflows");
  }
}

Status ColumnStore::TouchPage(uint32_t group, size_t column) const {
  if (options_.buffer_pool == nullptr) return Status::Ok();
  return options_.buffer_pool->Touch(
      PageId{options_.file_id, PageFor(group, column)}, PageKind::kColumn);
}

Status ColumnStore::TouchGroupPages(uint32_t group) const {
  for (size_t c = 0; c < schema_.size(); ++c) {
    XNF_RETURN_IF_ERROR(TouchPage(group, c));
  }
  return Status::Ok();
}

Status ColumnStore::CheckRowTypes(const Row& row) const {
  // Rows reaching storage already passed Schema::CheckAndCoerceRow, which
  // guarantees NULL-or-declared-type; anything else is an engine bug, not
  // a user error.
  if (row.size() != schema_.size()) {
    return Status::Internal("columnar insert arity " +
                            std::to_string(row.size()) + " vs schema " +
                            std::to_string(schema_.size()));
  }
  for (size_t c = 0; c < row.size(); ++c) {
    const Value& v = row[c];
    if (v.is_null()) continue;
    bool ok = false;
    switch (schema_.column(c).type) {
      case Type::kBool:
        ok = v.is_bool();
        break;
      case Type::kInt:
        ok = v.is_int();
        break;
      case Type::kDouble:
        ok = v.is_double();
        break;
      case Type::kString:
        ok = v.is_string();
        break;
      case Type::kNull:
        ok = false;
        break;
    }
    if (!ok) {
      return Status::Internal(
          std::string("uncoerced value of type ") + TypeName(v.type()) +
          " for " + TypeName(schema_.column(c).type) + " column '" +
          schema_.column(c).name + "'");
    }
  }
  return Status::Ok();
}

void ColumnStore::SetBit(std::vector<uint64_t>* bits, size_t i,
                         bool value) const {
  if (!value) {
    if (i >> 6 < bits->size()) (*bits)[i >> 6] &= ~(uint64_t{1} << (i & 63));
    return;
  }
  // Size for the whole group on first use (see header comment on GetBit).
  size_t group_words = (static_cast<size_t>(options_.rows_per_group) + 63) / 64;
  if (bits->size() < group_words) bits->resize(group_words, 0);
  (*bits)[i >> 6] |= uint64_t{1} << (i & 63);
}

uint32_t ColumnStore::EncodeString(size_t column, const std::string& s,
                                   Segment* seg) {
  Dict& dict = dicts_[column];
  auto it = dict.index.find(s);
  if (it != dict.index.end()) return it->second;
  if (dict.values.size() < options_.max_dict_entries) {
    uint32_t code = static_cast<uint32_t>(dict.values.size());
    dict.values.push_back(s);
    dict.index.emplace(s, code);
    return code;
  }
  // Dictionary is full: fall back to segment-local storage. Exactness is
  // preserved; only the code-comparison kernel fast path gives up on this
  // column (see DictOverflowed).
  dict.overflowed = true;
  CounterAdd(dict_overflows_);
  uint32_t code = kOverflowBit | static_cast<uint32_t>(seg->overflow.size());
  seg->overflow.push_back(s);
  return code;
}

void ColumnStore::AppendToGroup(Group* g, const Row& row) {
  uint32_t slot = g->rows;
  for (size_t c = 0; c < row.size(); ++c) {
    Segment& seg = g->cols[c];
    const Value& v = row[c];
    if (v.is_null()) {
      SetBit(&seg.nulls, slot, true);
      // Keep the value lane dense with a placeholder so slot == index.
      switch (schema_.column(c).type) {
        case Type::kDouble:
          seg.doubles.push_back(0.0);
          break;
        case Type::kString:
          seg.codes.push_back(0);
          break;
        default:
          seg.ints.push_back(0);
          break;
      }
      continue;
    }
    switch (schema_.column(c).type) {
      case Type::kBool:
        seg.ints.push_back(v.AsBool() ? 1 : 0);
        break;
      case Type::kInt:
        seg.ints.push_back(v.AsInt());
        break;
      case Type::kDouble:
        seg.doubles.push_back(v.AsDouble());
        break;
      case Type::kString:
        seg.codes.push_back(EncodeString(c, v.AsString(), &seg));
        break;
      case Type::kNull:
        seg.ints.push_back(0);
        break;
    }
  }
  ++g->rows;
}

void ColumnStore::WriteInPlace(Group* g, uint32_t slot, const Row& row) {
  for (size_t c = 0; c < row.size(); ++c) {
    Segment& seg = g->cols[c];
    const Value& v = row[c];
    SetBit(&seg.nulls, slot, v.is_null());
    if (v.is_null()) continue;
    switch (schema_.column(c).type) {
      case Type::kBool:
        seg.ints[slot] = v.AsBool() ? 1 : 0;
        break;
      case Type::kInt:
        seg.ints[slot] = v.AsInt();
        break;
      case Type::kDouble:
        seg.doubles[slot] = v.AsDouble();
        break;
      case Type::kString:
        seg.codes[slot] = EncodeString(c, v.AsString(), &seg);
        break;
      case Type::kNull:
        break;
    }
  }
}

void ColumnStore::SealGroup(Group* g) {
  for (size_t c = 0; c < g->cols.size(); ++c) {
    Segment& seg = g->cols[c];
    if (seg.enc != Segment::Enc::kPlain) continue;
    if (!seg.nulls.empty()) continue;  // placeholder values would pollute runs
    Type t = schema_.column(c).type;
    if (t == Type::kInt || t == Type::kBool) {
      std::vector<int64_t> values;
      std::vector<uint32_t> ends;
      size_t runs = RleBuild(seg.ints, &values, &ends);
      // Only compress when it actually shrinks the segment (value + end per
      // run vs one value per row); the rule is independent of group size.
      if (runs != 0 && runs * 2 <= seg.ints.size()) {
        seg.rle_ints = std::move(values);
        seg.rle_ends = std::move(ends);
        seg.ints.clear();
        seg.ints.shrink_to_fit();
        seg.enc = Segment::Enc::kRle;
        CounterAdd(rle_seals_);
      }
    } else if (t == Type::kDouble) {
      std::vector<double> values;
      std::vector<uint32_t> ends;
      size_t runs = RleBuild(seg.doubles, &values, &ends);
      if (runs != 0 && runs * 2 <= seg.doubles.size()) {
        seg.rle_doubles = std::move(values);
        seg.rle_ends = std::move(ends);
        seg.doubles.clear();
        seg.doubles.shrink_to_fit();
        seg.enc = Segment::Enc::kRle;
        CounterAdd(rle_seals_);
      }
    }
  }
}

void ColumnStore::UnsealGroup(Group* g) {
  for (Segment& seg : g->cols) {
    if (seg.enc != Segment::Enc::kRle) continue;
    CounterAdd(rle_unseals_);
    if (!seg.rle_ints.empty()) {
      RleExpand(seg.rle_ints, seg.rle_ends, &seg.ints);
      seg.rle_ints.clear();
    } else {
      RleExpand(seg.rle_doubles, seg.rle_ends, &seg.doubles);
      seg.rle_doubles.clear();
    }
    seg.rle_ends.clear();
    seg.enc = Segment::Enc::kPlain;
  }
}

Value ColumnStore::ValueAt(const Group& g, size_t column,
                           uint32_t slot) const {
  const Segment& seg = g.cols[column];
  if (GetBit(seg.nulls, slot)) return Value::Null();
  switch (schema_.column(column).type) {
    case Type::kBool: {
      int64_t v = seg.enc == Segment::Enc::kRle
                      ? RleAt(seg.rle_ints, seg.rle_ends, slot)
                      : seg.ints[slot];
      return Value::Bool(v != 0);
    }
    case Type::kInt:
      return Value::Int(seg.enc == Segment::Enc::kRle
                            ? RleAt(seg.rle_ints, seg.rle_ends, slot)
                            : seg.ints[slot]);
    case Type::kDouble:
      return Value::Double(seg.enc == Segment::Enc::kRle
                               ? RleAt(seg.rle_doubles, seg.rle_ends, slot)
                               : seg.doubles[slot]);
    case Type::kString: {
      uint32_t code = seg.codes[slot];
      if ((code & kOverflowBit) != 0) {
        return Value::String(seg.overflow[code & ~kOverflowBit]);
      }
      return Value::String(dicts_[column].values[code]);
    }
    case Type::kNull:
      break;
  }
  return Value::Null();
}

Result<Rid> ColumnStore::Insert(Row row) {
  XNF_FAILPOINT("column.append");
  XNF_RETURN_IF_ERROR(CheckRowTypes(row));
  // Pick the target group. Unclustered tables append to the last group;
  // clustered tables route each row to the open group of its cluster-key
  // value (creating one if none is open), so a group only ever holds rows
  // of a single key and carries that key as its prunable tag.
  bool need_group;
  uint32_t group;
  const bool clustered = options_.cluster_column >= 0;
  if (clustered) {
    const Value& key = row[static_cast<size_t>(options_.cluster_column)];
    auto it = open_groups_.find(key);
    need_group = it == open_groups_.end();
    group = need_group ? static_cast<uint32_t>(groups_.size()) : it->second;
  } else {
    need_group =
        groups_.empty() || groups_.back().rows >= options_.rows_per_group;
    group = static_cast<uint32_t>(need_group ? groups_.size()
                                             : groups_.size() - 1);
  }
  // Buffer-pool page ids are group * num_columns + column in 32 bits
  // (PageFor, and the range arithmetic in Pin/UnpinRange): refuse to grow
  // past that space rather than letting ids wrap and collide across groups.
  if (need_group &&
      (static_cast<uint64_t>(groups_.size()) + 1) * schema_.size() >
          std::numeric_limits<uint32_t>::max()) {
    return Status::NotSupported("columnar table exceeds the 32-bit page-id space");
  }
  // Touch every column page of the target group before mutating so a pool
  // error (injected read failure, failed victim write-back) leaves the
  // store unchanged.
  XNF_RETURN_IF_ERROR(TouchGroupPages(group));
  if (need_group) {
    groups_.emplace_back();
    Group& fresh = groups_.back();
    fresh.cols.resize(schema_.size());
    if (clustered) {
      fresh.has_tag = true;
      fresh.tag = row[static_cast<size_t>(options_.cluster_column)];
      open_groups_.emplace(fresh.tag, group);
    }
  }
  Group& g = groups_[group];
  AppendToGroup(&g, row);
  ++live_count_;
  MarkUnitDirty(group);
  CounterAdd(appends_);
  if (g.rows >= options_.rows_per_group) {
    SealGroup(&g);
    if (clustered) {
      open_groups_.erase(row[static_cast<size_t>(options_.cluster_column)]);
    }
  }
  return Rid{group, g.rows - 1};
}

Result<Row> ColumnStore::Read(Rid rid) const {
  XNF_FAILPOINT("column.read");
  if (!IsLive(rid)) {
    return Status::NotFound("no live tuple at rid " + RidStr(rid));
  }
  XNF_RETURN_IF_ERROR(TouchGroupPages(rid.page));
  const Group& g = groups_[rid.page];
  Row row;
  row.reserve(schema_.size());
  for (size_t c = 0; c < schema_.size(); ++c) {
    row.push_back(ValueAt(g, c, rid.slot));
  }
  return row;
}

bool ColumnStore::IsLive(Rid rid) const {
  return rid.page < groups_.size() && rid.slot < groups_[rid.page].rows &&
         !GetBit(groups_[rid.page].tombstones, rid.slot);
}

Status ColumnStore::Update(Rid rid, Row row) {
  XNF_FAILPOINT("column.write");
  if (!IsLive(rid)) {
    return Status::NotFound("update of dead rid " + RidStr(rid));
  }
  XNF_RETURN_IF_ERROR(CheckRowTypes(row));
  XNF_RETURN_IF_ERROR(TouchGroupPages(rid.page));
  Group& g = groups_[rid.page];
  UnsealGroup(&g);
  WriteInPlace(&g, rid.slot, row);
  InvalidateTagOnWrite(&g, row);
  MarkUnitDirty(rid.page);
  return Status::Ok();
}

Status ColumnStore::Delete(Rid rid) {
  XNF_FAILPOINT("column.write");
  if (!IsLive(rid)) {
    return Status::NotFound("delete of dead rid " + RidStr(rid));
  }
  // A delete only flips a tombstone bit in the group header, which lives
  // with the first column page — the value segments are untouched.
  XNF_RETURN_IF_ERROR(TouchPage(rid.page, 0));
  SetBit(&groups_[rid.page].tombstones, rid.slot, true);
  --live_count_;
  ++tombstones_;
  MarkUnitDirty(rid.page);
  return Status::Ok();
}

Status ColumnStore::Restore(Rid rid, Row row) {
  XNF_FAILPOINT("column.write");
  if (rid.page >= groups_.size() || rid.slot >= groups_[rid.page].rows) {
    return Status::NotFound("restore of unknown rid " + RidStr(rid));
  }
  if (!GetBit(groups_[rid.page].tombstones, rid.slot)) {
    return Status::InvalidArgument("restore of a live slot");
  }
  XNF_RETURN_IF_ERROR(CheckRowTypes(row));
  XNF_RETURN_IF_ERROR(TouchGroupPages(rid.page));
  Group& g = groups_[rid.page];
  UnsealGroup(&g);
  WriteInPlace(&g, rid.slot, row);
  InvalidateTagOnWrite(&g, row);
  SetBit(&g.tombstones, rid.slot, false);
  ++live_count_;
  if (tombstones_ > 0) --tombstones_;
  MarkUnitDirty(rid.page);
  return Status::Ok();
}

Status ColumnStore::SerializeUnit(uint32_t unit, std::string* out) const {
  if (unit >= groups_.size()) {
    return Status::Internal("column: serialize of unknown group " +
                            std::to_string(unit));
  }
  const Group& g = groups_[unit];
  serde::PutU32(out, g.rows);
  serde::PutU8(out, g.has_tag ? 1 : 0);
  if (g.has_tag) serde::PutValue(out, g.tag);
  // The open-group routing key is serialized separately from the tag: a
  // group whose tag an in-place write invalidated stays routable under the
  // key it was created for.
  bool has_routing = false;
  Value routing;
  for (const auto& [key, gi] : open_groups_) {
    if (gi == unit) {
      has_routing = true;
      routing = key;
      break;
    }
  }
  serde::PutU8(out, has_routing ? 1 : 0);
  if (has_routing) serde::PutValue(out, routing);
  serde::PutU32(out, static_cast<uint32_t>(g.tombstones.size()));
  for (uint64_t w : g.tombstones) serde::PutU64(out, w);
  for (uint32_t r = 0; r < g.rows; ++r) {
    for (size_t c = 0; c < schema_.size(); ++c) {
      serde::PutValue(out, ValueAt(g, c, r));
    }
  }
  return Status::Ok();
}

Status ColumnStore::RestoreUnit(uint32_t unit, serde::Reader* in) {
  if (unit != groups_.size()) {
    return Status::Internal("column: non-contiguous group restore (got " +
                            std::to_string(unit) + ", expected " +
                            std::to_string(groups_.size()) + ")");
  }
  uint32_t rows = 0;
  uint8_t has_tag = 0, has_routing = 0;
  Value tag, routing;
  XNF_RETURN_IF_ERROR(in->GetU32(&rows));
  XNF_RETURN_IF_ERROR(in->GetU8(&has_tag));
  if (has_tag != 0) XNF_RETURN_IF_ERROR(in->GetValue(&tag));
  XNF_RETURN_IF_ERROR(in->GetU8(&has_routing));
  if (has_routing != 0) XNF_RETURN_IF_ERROR(in->GetValue(&routing));
  uint32_t tomb_words = 0;
  XNF_RETURN_IF_ERROR(in->GetU32(&tomb_words));
  const size_t group_words =
      (static_cast<size_t>(options_.rows_per_group) + 63) / 64;
  if (rows > options_.rows_per_group || tomb_words > group_words) {
    return Status::Internal(
        "column: group " + std::to_string(unit) + " of " +
        std::to_string(rows) + " rows does not fit " +
        std::to_string(options_.rows_per_group) + "-row groups");
  }
  std::vector<uint64_t> tombstones(tomb_words);
  for (uint32_t w = 0; w < tomb_words; ++w) {
    XNF_RETURN_IF_ERROR(in->GetU64(&tombstones[w]));
  }

  Group g;
  g.cols.resize(schema_.size());
  Row row(schema_.size());
  for (uint32_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < schema_.size(); ++c) {
      XNF_RETURN_IF_ERROR(in->GetValue(&row[c]));
    }
    // Re-encoding through the normal append path rebuilds segments, null
    // bitmaps, and dictionaries; codes may differ from the original (they
    // are internal), the decoded values cannot.
    AppendToGroup(&g, row);
  }
  g.tombstones = std::move(tombstones);
  // A bitmap is empty or sized for a full group (see SetBit); one written
  // by a smaller group must not be read past its end once the group grows.
  if (!g.tombstones.empty()) g.tombstones.resize(group_words, 0);
  g.has_tag = has_tag != 0;
  g.tag = std::move(tag);
  if (rows >= options_.rows_per_group) SealGroup(&g);

  const size_t dead = CountBits(g.tombstones);
  live_count_ += rows - dead;
  tombstones_ += dead;
  groups_.push_back(std::move(g));
  if (has_routing != 0) open_groups_[routing] = unit;
  return Status::Ok();
}

std::vector<uint32_t> ColumnStore::DirtyUnits() const {
  return {dirty_units_.begin(), dirty_units_.end()};
}

void ColumnStore::ClearDirtyUnits() { dirty_units_.clear(); }

Status ColumnStore::Scan(
    const std::function<bool(Rid, const Row&)>& fn) const {
  return ScanRange(0, static_cast<uint32_t>(groups_.size()), fn);
}

Status ColumnStore::ScanRange(
    uint32_t page_begin, uint32_t page_end,
    const std::function<bool(Rid, const Row&)>& fn) const {
  page_end = std::min(page_end, static_cast<uint32_t>(groups_.size()));
  Row row(schema_.size());
  for (uint32_t gi = page_begin; gi < page_end; ++gi) {
    XNF_FAILPOINT("column.read");
    XNF_RETURN_IF_ERROR(TouchGroupPages(gi));
    const Group& g = groups_[gi];
    for (uint32_t s = 0; s < g.rows; ++s) {
      if (GetBit(g.tombstones, s)) continue;
      for (size_t c = 0; c < schema_.size(); ++c) {
        row[c] = ValueAt(g, c, s);
      }
      if (!fn(Rid{gi, s}, row)) return Status::Ok();
    }
  }
  return Status::Ok();
}

void ColumnStore::PinRange(uint32_t page_begin, uint32_t page_end) const {
  if (options_.buffer_pool == nullptr) return;
  page_end = std::min(page_end, static_cast<uint32_t>(groups_.size()));
  if (page_begin >= page_end) return;
  uint32_t ncols = static_cast<uint32_t>(schema_.size());
  options_.buffer_pool->PinRange(options_.file_id, page_begin * ncols,
                                 page_end * ncols);
}

void ColumnStore::UnpinRange(uint32_t page_begin, uint32_t page_end) const {
  if (options_.buffer_pool == nullptr) return;
  page_end = std::min(page_end, static_cast<uint32_t>(groups_.size()));
  if (page_begin >= page_end) return;
  uint32_t ncols = static_cast<uint32_t>(schema_.size());
  options_.buffer_pool->UnpinRange(options_.file_id, page_begin * ncols,
                                   page_end * ncols);
#ifndef NDEBUG
  // Pin-lifetime check: no ColumnView may outlive the pin protecting its
  // pages. Any group in the unpinned range still holding a view lease must
  // still be pinned through some other guard (pins nest).
  std::lock_guard<std::mutex> lock(lease_mu_);
  for (uint32_t g = page_begin; g < page_end; ++g) {
    auto it = view_leases_.find(g);
    if (it == view_leases_.end() || it->second == 0) continue;
    assert(options_.buffer_pool->IsPinned(
               PageId{options_.file_id, PageFor(g, 0)}) &&
           "live column view left unpinned (view outlives its morsel pin)");
  }
#endif
}

Status ColumnStore::ReadGroupInfo(uint32_t group, GroupInfo* out) const {
  XNF_FAILPOINT("column.read");
  if (group >= groups_.size()) {
    return Status::NotFound("no row group " + std::to_string(group));
  }
  XNF_RETURN_IF_ERROR(TouchPage(group, 0));
  const Group& g = groups_[group];
  out->rows = g.rows;
  out->tombstones = g.tombstones.empty() ? nullptr : g.tombstones.data();
  out->live = g.rows - CountBits(g.tombstones);
  return Status::Ok();
}

Status ColumnStore::ViewColumn(uint32_t group, size_t column,
                               ViewScratch* scratch, ColumnView* out,
                               bool decode_values) const {
  XNF_FAILPOINT("column.read");
  if (group >= groups_.size() || column >= schema_.size()) {
    return Status::NotFound("no column segment (" + std::to_string(group) +
                            ", " + std::to_string(column) + ")");
  }
  XNF_RETURN_IF_ERROR(TouchPage(group, column));
  const Group& g = groups_[group];
  const Segment& seg = g.cols[column];
  *out = ColumnView{};
  out->type = schema_.column(column).type;
  out->rows = g.rows;
  out->nulls = seg.nulls.empty() ? nullptr : seg.nulls.data();
  if (!decode_values) return Status::Ok();
  switch (out->type) {
    case Type::kBool:
    case Type::kInt:
      if (seg.enc == Segment::Enc::kRle) {
        RleExpand(seg.rle_ints, seg.rle_ends, &scratch->ints);
        out->ints = scratch->ints.data();
      } else {
        out->ints = seg.ints.data();
      }
      break;
    case Type::kDouble:
      if (seg.enc == Segment::Enc::kRle) {
        RleExpand(seg.rle_doubles, seg.rle_ends, &scratch->doubles);
        out->doubles = scratch->doubles.data();
      } else {
        out->doubles = seg.doubles.data();
      }
      break;
    case Type::kString:
      out->codes = seg.codes.data();
      out->dict = &dicts_[column].values;
      out->overflow = &seg.overflow;
      break;
    case Type::kNull:
      break;
  }
  return Status::Ok();
}

Value ColumnStore::ViewValue(const ColumnView& view, size_t i) {
  if (view.IsNull(i)) return Value::Null();
  switch (view.type) {
    case Type::kBool:
      return Value::Bool(view.ints[i] != 0);
    case Type::kInt:
      return Value::Int(view.ints[i]);
    case Type::kDouble:
      return Value::Double(view.doubles[i]);
    case Type::kString: {
      uint32_t code = view.codes[i];
      if ((code & kOverflowBit) != 0) {
        return Value::String((*view.overflow)[code & ~kOverflowBit]);
      }
      return Value::String((*view.dict)[code]);
    }
    case Type::kNull:
      break;
  }
  return Value::Null();
}

std::optional<uint32_t> ColumnStore::DictCode(size_t column,
                                              const std::string& s) const {
  if (column >= dicts_.size()) return std::nullopt;
  auto it = dicts_[column].index.find(s);
  if (it == dicts_[column].index.end()) return std::nullopt;
  return it->second;
}

const std::vector<std::string>& ColumnStore::Dictionary(size_t column) const {
  return dicts_[column].values;
}

bool ColumnStore::DictOverflowed(size_t column) const {
  return column < dicts_.size() && dicts_[column].overflowed;
}

void ColumnStore::InvalidateTagOnWrite(Group* g, const Row& row) const {
  if (options_.cluster_column < 0 || !g->has_tag) return;
  const Value& v = row[static_cast<size_t>(options_.cluster_column)];
  if (v.TotalOrderCompare(g->tag) != 0) g->has_tag = false;
}

bool ColumnStore::ClusterTag(uint32_t group, Value* out) const {
  if (options_.cluster_column < 0 || group >= groups_.size()) return false;
  const Group& g = groups_[group];
  if (!g.has_tag) return false;
  *out = g.tag;
  return true;
}

#ifndef NDEBUG
void ColumnStore::AcquireViewLease(uint32_t group) const {
  std::lock_guard<std::mutex> lock(lease_mu_);
  ++view_leases_[group];
}

void ColumnStore::ReleaseViewLease(uint32_t group) const {
  std::lock_guard<std::mutex> lock(lease_mu_);
  auto it = view_leases_.find(group);
  assert(it != view_leases_.end() && it->second > 0 &&
         "view lease released without a matching acquire");
  if (--it->second == 0) view_leases_.erase(it);
}
#endif

ColumnStore::Compression ColumnStore::CompressionStats() const {
  Compression c;
  for (const Group& g : groups_) {
    for (const Segment& seg : g.cols) {
      if (seg.enc == Segment::Enc::kRle) {
        ++c.rle_segments;
      } else {
        ++c.plain_segments;
      }
      c.overflow_values += seg.overflow.size();
    }
  }
  for (const Dict& d : dicts_) c.dict_entries += d.values.size();
  return c;
}

}  // namespace xnf
