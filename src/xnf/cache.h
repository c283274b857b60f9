#ifndef XNF_XNF_CACHE_H_
#define XNF_XNF_CACHE_H_

#include <deque>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "qgm/expr.h"
#include "sql/ast.h"
#include "xnf/instance.h"

namespace xnf::co {

// The XNF application cache (§4.2): an in-memory, pointer-linked
// representation of a materialized CO. Tuples of an XNF structure are linked
// by virtual-memory pointers, so crossing a relationship from a cursor is a
// pointer dereference — no query, no inter-process communication. This is
// the mechanism behind the paper's orders-of-magnitude navigation speedup
// (benchmark C1).
class CoCache {
 public:
  struct Tuple;

  CoCache() = default;
  // Tuples point back at their cache (Buckets), so a cache never moves.
  CoCache(const CoCache&) = delete;
  CoCache& operator=(const CoCache&) = delete;

  struct Connection {
    int rel = -1;  // relationship index
    Tuple* parent = nullptr;
    Tuple* child = nullptr;
    Row attrs;
    bool alive = true;
  };

  // One tuple's buckets in one direction (kOut: connections in which the
  // tuple is the parent; otherwise the child), one bucket per relationship
  // of the CO. A bucket is a span into the relationship's slot array, so
  // `t.out[r]` allocates nothing. A span dangles after the next connect on
  // relationship r (the slot array may move) and is stale after a
  // disconnect in its bucket (the rest of the bucket shifts down).
  template <bool kOut>
  class Buckets {
   public:
    std::span<Connection* const> operator[](int rel) const {
      return cache_->Bucket(rel, kOut, node_, pos_);
    }
    // One bucket per relationship of the CO.
    size_t size() const { return cache_->rel_count(); }
    bool empty() const { return size() == 0; }

   private:
    friend class CoCache;
    const CoCache* cache_ = nullptr;
    int node_ = -1;
    uint32_t pos_ = 0;  // the tuple's position in its node
  };

  struct Tuple {
    Row values;
    Rid rid;
    bool has_rid = false;
    bool alive = true;
    int node = -1;
    Buckets<true> out;
    Buckets<false> in;
  };

  struct Node {
    std::string name;
    Schema schema;
    std::deque<Tuple> tuples;  // deque: stable addresses under growth
    std::string base_table;
    std::vector<int> base_column_map;

    bool updatable() const { return !base_table.empty(); }
    size_t live_count() const;
  };

  struct Rel {
    std::string name;
    int parent_node = -1;
    int child_node = -1;
    Schema attr_schema;
    std::deque<Connection> connections;  // stable addresses

    CoRelInstance::WriteKind write_kind = CoRelInstance::WriteKind::kNone;
    int fk_parent_column = -1;
    int fk_child_column = -1;
    std::string link_table;
    int link_parent_column = -1;
    int link_child_column = -1;
    int parent_key_column = -1;
    int child_key_column = -1;
    std::vector<int> attr_link_columns;

    size_t live_count() const;
  };

  // Cache observability: fill cost and navigation traffic. Navigation
  // counters are single mutable increments on the hot path (~ns-scale next
  // to the pointer dereference they count; see benchmark C1).
  struct Stats {
    uint64_t fill_ns = 0;             // Build(): wiring the pointer structure
    uint64_t tuples_linked = 0;       // tuples wired at Build()
    uint64_t connections_linked = 0;  // connections wired at Build()
    uint64_t pointer_navigations = 0; // Children()/Parents() calls
    uint64_t hash_navigations = 0;    // ChildrenByHash() calls (ablation A2)
  };

  // Consumes a materialized instance and wires the pointer structure.
  // Fails only under fault injection (`cocache.fill`, checked per node and
  // per relationship); a failed fill discards the partially-wired cache —
  // a partial CO must never be handed to cursors or write-through.
  static Result<std::unique_ptr<CoCache>> Build(CoInstance instance);

  int NodeIndex(const std::string& name) const;
  int RelIndex(const std::string& name) const;
  Node& node(int i) { return nodes_[i]; }
  const Node& node(int i) const { return nodes_[i]; }
  Rel& rel(int i) { return rels_[i]; }
  const Rel& rel(int i) const { return rels_[i]; }
  size_t node_count() const { return nodes_.size(); }
  size_t rel_count() const { return rels_.size(); }

  // Appends a tuple with no connections to `node`.
  Tuple* AddTuple(int node, Row values, Rid rid);
  // Appends a connection to the relationship and to both endpoint buckets.
  Connection* AddConnection(int rel, Tuple* parent, Tuple* child, Row attrs);
  // Unlinks `conn` from its endpoint buckets (keeping their order) and
  // marks it dead.
  void RemoveConnection(Connection* conn);

  // Navigation used by dependent cursors and benchmarks:
  // pointer-based children/parents of `t` across relationship `rel`.
  std::span<Connection* const> Children(int rel, const Tuple& t) const {
    ++stats_.pointer_navigations;
    CounterAdd(ptr_nav_);
    return t.out[rel];
  }
  std::span<Connection* const> Parents(int rel, const Tuple& t) const {
    ++stats_.pointer_navigations;
    CounterAdd(ptr_nav_);
    return t.in[rel];
  }

  const Stats& stats() const { return stats_; }
  void ResetStats() { stats_ = Stats(); }

  // Engine metrics (cocache.pointer_navigations / cocache.hash_navigations),
  // shared across all caches of one database; null (the default) = off.
  // Wired by Database::OpenCo — caches built directly keep metrics off.
  void set_nav_counters(Counter* ptr_nav, Counter* hash_nav) {
    ptr_nav_ = ptr_nav;
    hash_nav_ctr_ = hash_nav;
  }

  // Ablation A2: the same navigation answered through a per-relationship
  // hash index keyed by the parent tuple identity, simulating OID-table
  // lookups instead of direct pointers. Built lazily, invalidated on
  // connect/disconnect.
  std::vector<Connection*> ChildrenByHash(int rel, const Tuple& t);

  // Exports the current live content back into a CoInstance snapshot.
  CoInstance Snapshot() const;

  // Re-enforces the reachability constraint on the cache contents: tuples no
  // longer reachable from a root tuple (e.g. after disconnects) are marked
  // dead *in the cache only* — the base data is untouched, the tuples merely
  // fall out of the composite object, exactly as a re-evaluation of the view
  // would show. Returns the number of tuples dropped.
  size_t EnforceReachability();

 private:
  // One direction of one relationship in CSR form: the bucket of the
  // partner tuple at position p is the segment segs[p] of `slots`. Build
  // packs the segments in tuple order at their exact degree; a segment
  // that outgrows its capacity moves to the end of `slots` at double
  // capacity, leaving a dead gap behind.
  struct Slots {
    int node = -1;  // the partner node whose tuples the segments index
    std::vector<Connection*> slots;
    std::vector<CsrSegment> segs;
  };

  Slots& slots(int rel, bool out) { return slots_[2 * rel + (out ? 0 : 1)]; }
  const Slots& slots(int rel, bool out) const {
    return slots_[2 * rel + (out ? 0 : 1)];
  }
  std::span<Connection* const> Bucket(int rel, bool out, int node,
                                      uint32_t pos) const {
    const Slots& s = slots(rel, out);
    if (s.node != node) return {};
    const CsrSegment& seg = s.segs[pos];
    return {s.slots.data() + seg.off, seg.len};
  }
  // Appends `conn` to the bucket at `pos`, moving a full segment.
  static void Append(Slots* s, uint32_t pos, Connection* conn);
  // Erases `conn` from the bucket at `pos`, keeping the order of the rest.
  static void Erase(Slots* s, uint32_t pos, const Connection* conn);

  // Appends a tuple to `node` with an empty bucket in every direction whose
  // partner node it belongs to.
  Tuple& EmplaceTuple(int node);

  std::vector<Node> nodes_;
  std::vector<Rel> rels_;
  std::vector<Slots> slots_;  // [2 * rel]: out buckets, [2 * rel + 1]: in
  // Mutable: navigation is conceptually const (read-only traversal).
  mutable Stats stats_;
  Counter* ptr_nav_ = nullptr;
  Counter* hash_nav_ctr_ = nullptr;
  // Lazy hash navigation indexes (ablation A2).
  std::vector<std::unordered_map<const Tuple*, std::vector<Connection*>>>
      hash_nav_;
  std::vector<bool> hash_nav_valid_;
};

// Independent cursor (§3.7): browses all live tuples of one node.
class Cursor {
 public:
  Cursor(CoCache* cache, int node) : cache_(cache), node_(node) {}

  // Advances to the next live tuple; false at end.
  bool Next();
  void Reset() { pos_ = -1; }
  CoCache::Tuple* tuple() const { return current_; }
  const Row& values() const { return current_->values; }

  CoCache* cache() const { return cache_; }
  int node_index() const { return node_; }

 private:
  CoCache* cache_;
  int node_;
  int64_t pos_ = -1;
  CoCache::Tuple* current_ = nullptr;
};

// Dependent cursor (§3.7): bound to another cursor through a path
// expression; gives access only to tuples reachable from the tuple the
// parent cursor currently points to. Rebind() re-evaluates after the parent
// moves. Supports the full path syntax of §3.5, including qualified node
// steps: "employment->(Xemp e WHERE e.sal < 2000)".
class DependentCursor {
 public:
  // Reduced form: a chain of relationship names, each crossed forward or
  // backward from the current position.
  static Result<std::unique_ptr<DependentCursor>> Open(
      Cursor* parent, const std::vector<std::string>& path);

  // Full path-expression syntax; `path_text` is everything after the parent
  // binding, e.g. "employment->(Xemp e WHERE e.sal < 2000)->projmanagement".
  static Result<std::unique_ptr<DependentCursor>> OpenPath(
      Cursor* parent, const std::string& path_text);

  // Re-evaluates the reachable set from the parent's current tuple: linear
  // in the connections crossed. A tuple reached through several partners
  // is kept once, at its first-seen position.
  Status Rebind();
  bool Next();
  CoCache::Tuple* tuple() const { return current_; }
  const Row& values() const { return current_->values; }
  int node_index() const { return target_node_; }

 private:
  // One path step, resolved against the cache once at Open/OpenPath.
  struct Step {
    int rel = -1;         // relationship crossed; -1 for a node step
    bool forward = true;  // relationship steps: parent -> child
    // Node steps: the predicate compiled over the node's tuple; null = no
    // filter.
    qgm::ExprPtr predicate;
  };

  DependentCursor(Cursor* parent, sql::PathExpr path)
      : parent_(parent), path_(std::move(path)) {}

  // Resolves every path step to a relationship (and direction) or node
  // index, and compiles the step predicates: kNotFound for an unknown name,
  // kInvalidArgument for a step that does not start at the current
  // position, or the predicate's compile error.
  Status Resolve();

  Cursor* parent_;
  sql::PathExpr path_;  // owns the step predicates
  std::vector<Step> steps_;
  int target_node_ = -1;
  std::vector<CoCache::Tuple*> reachable_;
  // First-seen filter for a relationship step: an insert-only
  // open-addressing set of tuple pointers. Slots carry the epoch they were
  // filled in, so starting a step is O(1), and a set reused across
  // rebinds stops allocating once it has grown to the largest step.
  class SeenSet {
   public:
    // Empties the set and makes room for up to `n` inserts.
    void Reset(size_t n);
    // True iff `t` was not in the set (and is now).
    bool Insert(const CoCache::Tuple* t);

   private:
    struct Slot {
      const CoCache::Tuple* tuple = nullptr;
      uint32_t epoch = 0;
    };
    std::vector<Slot> slots_;
    uint32_t epoch_ = 0;
  };

  // Rebind scratch, kept to reuse its storage across rebinds.
  std::vector<CoCache::Tuple*> next_;
  std::vector<const Row*> rows_;  // a qualified step's candidate values
  std::vector<char> keep_;
  SeenSet seen_;
  size_t pos_ = 0;
  CoCache::Tuple* current_ = nullptr;
};

}  // namespace xnf::co

#endif  // XNF_XNF_CACHE_H_
