#include "api/statement_cache.h"

#include "api/database.h"

namespace xnf {

CachedStatement::CachedStatement() = default;
CachedStatement::~CachedStatement() = default;

namespace {

// Baked literals must match exactly: same type (the shape key already pins
// it) and the same value.
bool BakedLiteralsEqual(const CachedStatement& entry,
                        const std::vector<Value>& literals) {
  if (literals.size() != entry.literals.size()) return false;
  for (size_t i = 0; i < literals.size(); ++i) {
    if (entry.is_param[i]) continue;
    if (literals[i].type() != entry.literals[i].type() ||
        literals[i].TotalOrderCompare(entry.literals[i]) != 0) {
      return false;
    }
  }
  return true;
}

}  // namespace

CachedStatement* StatementCache::Find(const std::string& key,
                                      const std::vector<Value>& literals,
                                      uint64_t version, Outcome* outcome) {
  auto it = index_.find(key);
  if (it == index_.end()) {
    *outcome = Outcome::kMiss;
    return nullptr;
  }
  CachedStatement* entry = it->second->second.get();
  if (entry->version == version && BakedLiteralsEqual(*entry, literals)) {
    lru_.splice(lru_.begin(), lru_, it->second);
    *outcome = Outcome::kHit;
    return entry;
  }
  *outcome = entry->version != version ? Outcome::kStale : Outcome::kMiss;
  lru_.erase(it->second);
  index_.erase(it);
  return nullptr;
}

CachedStatement* StatementCache::Insert(const std::string& key,
                                        std::unique_ptr<CachedStatement> entry,
                                        bool* evicted) {
  *evicted = false;
  if (auto it = index_.find(key); it != index_.end()) {
    lru_.erase(it->second);
    index_.erase(it);
  }
  if (lru_.size() >= kCapacity) {
    index_.erase(lru_.back().first);
    lru_.pop_back();
    *evicted = true;
  }
  lru_.emplace_front(key, std::move(entry));
  index_.emplace(key, lru_.begin());
  return lru_.front().second.get();
}

}  // namespace xnf
