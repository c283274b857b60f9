#include "storage/index.h"

#include <algorithm>

#include "common/failpoint.h"

namespace xnf {

namespace {

bool KeyHasNull(const Row& key) {
  for (const Value& v : key) {
    if (v.is_null()) return true;
  }
  return false;
}

}  // namespace

Status HashIndex::Insert(const Row& row, Rid rid) {
  XNF_FAILPOINT("index.insert");
  Row key = ExtractKey(row);
  if (KeyHasNull(key)) return Status::Ok();  // NULL keys are not indexed
  const bool single = key.size() == 1;
  if (unique() && (single ? single_.contains(key[0]) : map_.contains(key))) {
    return Status::AlreadyExists("duplicate key " + RowToString(key) +
                                 " in unique index '" + name() + "'");
  }
  if (single) {
    single_.emplace(std::move(key[0]), rid);
  } else {
    map_.emplace(std::move(key), rid);
  }
  return Status::Ok();
}

Status HashIndex::Erase(const Row& row, Rid rid) {
  XNF_FAILPOINT("index.erase");
  Row key = ExtractKey(row);
  auto erase = [rid](auto* map, const auto& k) {
    auto range = map->equal_range(k);
    for (auto it = range.first; it != range.second; ++it) {
      if (it->second == rid) {
        map->erase(it);
        return;
      }
    }
  };
  if (key.size() == 1) {
    erase(&single_, key[0]);
  } else {
    erase(&map_, key);
  }
  return Status::Ok();
}

std::vector<Rid> HashIndex::Lookup(const Row& key) const {
  std::vector<Rid> out;
  if (KeyHasNull(key)) return out;
  auto collect = [&out](const auto& map, const auto& k) {
    auto range = map.equal_range(k);
    for (auto it = range.first; it != range.second; ++it) {
      out.push_back(it->second);
    }
  };
  if (key.size() == 1) {
    collect(single_, key[0]);
  } else {
    collect(map_, key);
  }
  // The multimap keeps equal keys in an insert/erase-history order.
  std::sort(out.begin(), out.end());
  return out;
}

Status OrderedIndex::Insert(const Row& row, Rid rid) {
  XNF_FAILPOINT("index.insert");
  Row key = ExtractKey(row);
  if (KeyHasNull(key)) return Status::Ok();
  if (unique() && entries_.find(key) != entries_.end()) {
    return Status::AlreadyExists("duplicate key " + RowToString(key) +
                                 " in unique index '" + name() + "'");
  }
  entries_.emplace(std::move(key), rid);
  return Status::Ok();
}

Status OrderedIndex::Erase(const Row& row, Rid rid) {
  XNF_FAILPOINT("index.erase");
  entries_.erase(Entry(ExtractKey(row), rid));
  return Status::Ok();
}

std::vector<Rid> OrderedIndex::Lookup(const Row& key) const {
  std::vector<Rid> out;
  if (KeyHasNull(key)) return out;
  auto range = entries_.equal_range(key);
  for (auto it = range.first; it != range.second; ++it) {
    out.push_back(it->second);
  }
  return out;
}

std::vector<Rid> OrderedIndex::RangeLookup(const Row& lo, bool lo_inclusive,
                                           const Row& hi,
                                           bool hi_inclusive) const {
  std::vector<Rid> out;
  auto it = lo.empty() ? entries_.begin()
                       : (lo_inclusive ? entries_.lower_bound(lo)
                                       : entries_.upper_bound(lo));
  auto end = hi.empty() ? entries_.end()
                        : (hi_inclusive ? entries_.upper_bound(hi)
                                        : entries_.lower_bound(hi));
  for (; it != end; ++it) out.push_back(it->second);
  return out;
}

}  // namespace xnf
