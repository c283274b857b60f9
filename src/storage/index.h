#ifndef XNF_STORAGE_INDEX_H_
#define XNF_STORAGE_INDEX_H_

#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/value.h"
#include "storage/table_heap.h"

namespace xnf {

// Abstract secondary index over one or more columns of a table. Keys are the
// projected column values; entries map keys to Rids. Duplicates allowed
// (multi-map semantics) unless `unique` was requested at creation.
class Index {
 public:
  enum class Kind { kHash, kOrdered };

  Index(std::string name, std::vector<size_t> key_columns, bool unique)
      : name_(std::move(name)),
        key_columns_(std::move(key_columns)),
        unique_(unique) {}
  virtual ~Index() = default;

  Index(const Index&) = delete;
  Index& operator=(const Index&) = delete;

  const std::string& name() const { return name_; }
  const std::vector<size_t>& key_columns() const { return key_columns_; }
  bool unique() const { return unique_; }
  virtual Kind kind() const = 0;

  // Extracts this index's key from a full table row.
  Row ExtractKey(const Row& row) const {
    Row key;
    key.reserve(key_columns_.size());
    for (size_t c : key_columns_) key.push_back(row[c]);
    return key;
  }

  // Inserts (key of `row`) -> rid. Fails on duplicate key if unique, or
  // when the `index.insert` failpoint fires (no entry is added).
  virtual Status Insert(const Row& row, Rid rid) = 0;
  // Removes the entry for (key of `row`, rid). Missing entries are ignored.
  // Fails only when the `index.erase` failpoint fires (entry retained).
  virtual Status Erase(const Row& row, Rid rid) = 0;

  // All rids whose key equals `key` exactly, in rid order (NULL keys are
  // never indexed for lookup purposes: SQL equality with NULL is unknown).
  // Rid order makes duplicates come back in table-scan order whatever the
  // insert/erase history, so an index rebuilt by recovery answers exactly
  // like the one it replaces.
  virtual std::vector<Rid> Lookup(const Row& key) const = 0;

  virtual size_t entry_count() const = 0;

 private:
  std::string name_;
  std::vector<size_t> key_columns_;
  bool unique_;
};

// Hash index: O(1) point lookups. A single-column key, the kind every
// index probe uses, is stored as a bare Value: a Row key costs one more
// heap block per entry.
class HashIndex : public Index {
 public:
  using Index::Index;

  Kind kind() const override { return Kind::kHash; }
  Status Insert(const Row& row, Rid rid) override;
  Status Erase(const Row& row, Rid rid) override;
  std::vector<Rid> Lookup(const Row& key) const override;
  size_t entry_count() const override { return single_.size() + map_.size(); }

 private:
  // Value equality and hash as RowEq / RowHash see one column (1 = 1.0).
  struct ValueHash {
    size_t operator()(const Value& v) const { return v.Hash(); }
  };
  struct ValueEq {
    bool operator()(const Value& a, const Value& b) const {
      return a.TotalOrderCompare(b) == 0;
    }
  };

  std::unordered_multimap<Value, Rid, ValueHash, ValueEq> single_;
  std::unordered_multimap<Row, Rid, RowHash, RowEq> map_;  // wider keys
};

// Ordered index: point lookups plus range scans, backed by a balanced tree.
class OrderedIndex : public Index {
 public:
  using Index::Index;

  Kind kind() const override { return Kind::kOrdered; }
  Status Insert(const Row& row, Rid rid) override;
  Status Erase(const Row& row, Rid rid) override;
  std::vector<Rid> Lookup(const Row& key) const override;
  size_t entry_count() const override { return entries_.size(); }

  // Rids with lo <= key <= hi (either bound may be empty = unbounded), in
  // (key, rid) order.
  std::vector<Rid> RangeLookup(const Row& lo, bool lo_inclusive, const Row& hi,
                               bool hi_inclusive) const;

 private:
  // Entries ordered by key, then rid; a bare key compares equal to all of
  // its entries (heterogeneous lookup).
  using Entry = std::pair<Row, Rid>;
  struct EntryLess {
    using is_transparent = void;
    bool operator()(const Entry& a, const Entry& b) const {
      int c = CompareRows(a.first, b.first);
      return c != 0 ? c < 0 : a.second < b.second;
    }
    bool operator()(const Entry& a, const Row& key) const {
      return CompareRows(a.first, key) < 0;
    }
    bool operator()(const Row& key, const Entry& a) const {
      return CompareRows(key, a.first) < 0;
    }
  };
  std::set<Entry, EntryLess> entries_;
};

}  // namespace xnf

#endif  // XNF_STORAGE_INDEX_H_
