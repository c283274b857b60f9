#ifndef XNF_API_STATEMENT_CACHE_H_
#define XNF_API_STATEMENT_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/value.h"
#include "exec/operator.h"
#include "xnf/ast.h"
#include "xnf/evaluator.h"

namespace xnf {

class PreparedQuery;

// One compiled statement shape (see sql/shape.h): a SELECT's operator tree,
// an OUT OF ... TAKE query's CoPlan, or a QueryPrepared text's plan.
struct CachedStatement {
  CachedStatement();
  ~CachedStatement();

  // Catalog version the statement was compiled at.
  uint64_t version = 0;
  // Per literal ordinal of the compiled text: 1 = a parameter, bound from
  // the text's own literal on every run; 0 = baked into the plan, so a hit
  // requires the text's literal to equal the compiled one.
  std::vector<char> is_param;
  std::vector<Value> literals;
  // Exactly one of the three is set.
  exec::OperatorPtr select;
  std::unique_ptr<co::XnfQuery> xnf_query;  // the CoPlan points into it
  std::unique_ptr<co::CoPlan> co;
  std::unique_ptr<PreparedQuery> prepared;
};

// A session's compiled statements keyed by shape, bounded to kCapacity
// entries with least-recently-used eviction. Not thread-safe: a session
// runs one statement at a time, under the database's statement latch.
class StatementCache {
 public:
  static constexpr size_t kCapacity = 64;

  StatementCache() = default;
  // The index holds iterators into lru_.
  StatementCache(const StatementCache&) = delete;
  StatementCache& operator=(const StatementCache&) = delete;

  enum class Outcome {
    kHit,
    kMiss,   // no entry, or an entry whose baked literals differ
    kStale,  // an entry compiled at an older catalog version (dropped)
  };

  // The entry for `key` if it was compiled at `version` and its baked
  // literals equal `literals`; null otherwise, after dropping any entry for
  // `key` that cannot serve it.
  CachedStatement* Find(const std::string& key,
                        const std::vector<Value>& literals, uint64_t version,
                        Outcome* outcome);

  // Stores `entry` under `key` as the most recently used one; when the cache
  // is full, the least recently used entry is evicted and `*evicted` set.
  CachedStatement* Insert(const std::string& key,
                          std::unique_ptr<CachedStatement> entry,
                          bool* evicted);

  size_t size() const { return lru_.size(); }

 private:
  using Entry = std::pair<std::string, std::unique_ptr<CachedStatement>>;
  std::list<Entry> lru_;  // most recently used first
  std::unordered_map<std::string, std::list<Entry>::iterator> index_;
};

}  // namespace xnf

#endif  // XNF_API_STATEMENT_CACHE_H_
