#include "xnf/cache.h"

#include <algorithm>
#include <chrono>

#include "common/failpoint.h"
#include "common/str_util.h"
#include "exec/eval.h"
#include "plan/planner.h"
#include "sql/parser.h"

namespace xnf::co {

size_t CoCache::Node::live_count() const {
  size_t n = 0;
  for (const Tuple& t : tuples) {
    if (t.alive) ++n;
  }
  return n;
}

size_t CoCache::Rel::live_count() const {
  size_t n = 0;
  for (const Connection& c : connections) {
    if (c.alive) ++n;
  }
  return n;
}

Result<std::unique_ptr<CoCache>> CoCache::Build(CoInstance instance) {
  auto cache = std::make_unique<CoCache>();
  auto fill_start = std::chrono::steady_clock::now();
  size_t n_rels = instance.rels.size();

  cache->nodes_.resize(instance.nodes.size());
  for (size_t n = 0; n < instance.nodes.size(); ++n) {
    // A fill failure mid-way destroys `cache` on return — the partially
    // wired structure never escapes.
    XNF_FAILPOINT("cocache.fill");
    CoNodeInstance& src = instance.nodes[n];
    Node& node = cache->nodes_[n];
    node.name = std::move(src.name);
    node.schema = std::move(src.schema);
    node.base_table = std::move(src.base_table);
    node.base_column_map = std::move(src.base_column_map);
    for (size_t t = 0; t < src.tuples.size(); ++t) {
      Tuple& tuple = cache->EmplaceTuple(static_cast<int>(n));
      tuple.values = std::move(src.tuples[t]);
      if (!src.rids.empty()) {
        tuple.rid = src.rids[t];
        tuple.has_rid = true;
      }
    }
  }

  cache->rels_.resize(n_rels);
  cache->slots_.resize(2 * n_rels);
  cache->hash_nav_.resize(n_rels);
  cache->hash_nav_valid_.assign(n_rels, false);
  for (size_t r = 0; r < n_rels; ++r) {
    XNF_FAILPOINT("cocache.fill");
    CoRelInstance& src = instance.rels[r];
    Rel& rel = cache->rels_[r];
    rel.name = std::move(src.name);
    rel.parent_node = src.parent_node;
    rel.child_node = src.child_node;
    rel.attr_schema = std::move(src.attr_schema);
    rel.write_kind = src.write_kind;
    rel.fk_parent_column = src.fk_parent_column;
    rel.fk_child_column = src.fk_child_column;
    rel.link_table = std::move(src.link_table);
    rel.link_parent_column = src.link_parent_column;
    rel.link_child_column = src.link_child_column;
    rel.parent_key_column = src.parent_key_column;
    rel.child_key_column = src.child_key_column;
    rel.attr_link_columns = std::move(src.attr_link_columns);
    std::deque<Tuple>& parents = cache->nodes_[rel.parent_node].tuples;
    std::deque<Tuple>& children = cache->nodes_[rel.child_node].tuples;
    for (CoConnection& c : src.connections) {
      rel.connections.push_back(Connection{static_cast<int>(r),
                                           &parents[c.parent],
                                           &children[c.child],
                                           std::move(c.attrs), true});
    }
    // One counting pass per direction packs every bucket at its exact
    // degree; placing in connection order keeps each bucket in the order
    // AddConnection would have appended it.
    Slots& out = cache->slots(static_cast<int>(r), true);
    Slots& in = cache->slots(static_cast<int>(r), false);
    out.node = rel.parent_node;
    out.segs.resize(parents.size());
    in.node = rel.child_node;
    in.segs.resize(children.size());
    for (const Connection& c : rel.connections) {
      ++out.segs[c.parent->out.pos_].cap;
      ++in.segs[c.child->in.pos_].cap;
    }
    out.slots.resize(LayOutSegments(&out.segs));
    in.slots.resize(LayOutSegments(&in.segs));
    for (Connection& c : rel.connections) {
      CsrSegment& o = out.segs[c.parent->out.pos_];
      out.slots[o.off + o.len++] = &c;
      CsrSegment& i = in.segs[c.child->in.pos_];
      in.slots[i.off + i.len++] = &c;
    }
    cache->stats_.connections_linked += rel.connections.size();
  }
  for (const Node& node : cache->nodes_) {
    cache->stats_.tuples_linked += node.tuples.size();
  }
  cache->stats_.fill_ns = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - fill_start)
          .count());
  return cache;
}

int CoCache::NodeIndex(const std::string& name) const {
  std::string key = ToLower(name);
  for (size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].name == key) return static_cast<int>(i);
  }
  return -1;
}

int CoCache::RelIndex(const std::string& name) const {
  std::string key = ToLower(name);
  for (size_t i = 0; i < rels_.size(); ++i) {
    if (rels_[i].name == key) return static_cast<int>(i);
  }
  return -1;
}

CoCache::Tuple& CoCache::EmplaceTuple(int node) {
  std::deque<Tuple>& tuples = nodes_[node].tuples;
  const auto pos = static_cast<uint32_t>(tuples.size());
  Tuple& t = tuples.emplace_back();
  t.node = node;
  t.out.cache_ = t.in.cache_ = this;
  t.out.node_ = t.in.node_ = node;
  t.out.pos_ = t.in.pos_ = pos;
  // Build lays the slots out after all tuples exist; later tuples get an
  // empty segment in every direction whose partner node they belong to.
  for (Slots& s : slots_) {
    if (s.node == node) s.segs.emplace_back();
  }
  return t;
}

CoCache::Tuple* CoCache::AddTuple(int node, Row values, Rid rid) {
  Tuple& t = EmplaceTuple(node);
  t.values = std::move(values);
  t.rid = rid;
  t.has_rid = true;
  return &t;
}

void CoCache::Append(Slots* s, uint32_t pos, Connection* conn) {
  CsrSegment& seg = s->segs[pos];
  if (seg.len == seg.cap) {
    const uint32_t cap = std::max<uint32_t>(2 * seg.cap, 1);
    const auto end = static_cast<uint32_t>(s->slots.size());
    if (seg.off + seg.cap == end) {  // the last segment grows in place
      s->slots.resize(seg.off + cap);
    } else {
      s->slots.resize(end + cap);
      std::copy_n(s->slots.begin() + seg.off, seg.len,
                  s->slots.begin() + end);
      seg.off = end;
    }
    seg.cap = cap;
  }
  s->slots[seg.off + seg.len++] = conn;
}

void CoCache::Erase(Slots* s, uint32_t pos, const Connection* conn) {
  CsrSegment& seg = s->segs[pos];
  auto begin = s->slots.begin() + seg.off;
  auto end = begin + seg.len;
  auto it = std::find(begin, end, conn);
  if (it == end) return;
  std::copy(it + 1, end, it);
  --seg.len;
}

CoCache::Connection* CoCache::AddConnection(int rel, Tuple* parent,
                                            Tuple* child, Row attrs) {
  Rel& r = rels_[rel];
  r.connections.push_back(Connection{rel, parent, child, std::move(attrs),
                                     true});
  Connection* conn = &r.connections.back();
  Append(&slots(rel, true), parent->out.pos_, conn);
  Append(&slots(rel, false), child->in.pos_, conn);
  hash_nav_valid_[rel] = false;
  return conn;
}

void CoCache::RemoveConnection(Connection* conn) {
  if (!conn->alive) return;
  conn->alive = false;
  Erase(&slots(conn->rel, true), conn->parent->out.pos_, conn);
  Erase(&slots(conn->rel, false), conn->child->in.pos_, conn);
  hash_nav_valid_[conn->rel] = false;
}

std::vector<CoCache::Connection*> CoCache::ChildrenByHash(int rel,
                                                          const Tuple& t) {
  ++stats_.hash_navigations;
  CounterAdd(hash_nav_ctr_);
  if (!hash_nav_valid_[rel]) {
    hash_nav_[rel].clear();
    for (Connection& c : rels_[rel].connections) {
      if (!c.alive) continue;
      hash_nav_[rel][c.parent].push_back(&c);
    }
    hash_nav_valid_[rel] = true;
  }
  auto it = hash_nav_[rel].find(&t);
  if (it == hash_nav_[rel].end()) return {};
  return it->second;
}

CoInstance CoCache::Snapshot() const {
  CoInstance out;
  // Per node: tuple position -> compacted index.
  std::vector<std::vector<int>> index(nodes_.size());
  for (size_t n = 0; n < nodes_.size(); ++n) {
    const Node& node = nodes_[n];
    CoNodeInstance ni;
    ni.name = node.name;
    ni.schema = node.schema;
    ni.base_table = node.base_table;
    ni.base_column_map = node.base_column_map;
    bool any_rid = false;
    for (const Tuple& t : node.tuples) {
      if (t.alive && t.has_rid) any_rid = true;
    }
    index[n].assign(node.tuples.size(), -1);
    for (size_t pos = 0; pos < node.tuples.size(); ++pos) {
      const Tuple& t = node.tuples[pos];
      if (!t.alive) continue;
      index[n][pos] = static_cast<int>(ni.tuples.size());
      ni.tuples.push_back(t.values);
      if (any_rid) ni.rids.push_back(t.rid);
    }
    out.nodes.push_back(std::move(ni));
  }
  for (const Rel& rel : rels_) {
    CoRelInstance ri;
    ri.name = rel.name;
    ri.parent_node = rel.parent_node;
    ri.child_node = rel.child_node;
    ri.attr_schema = rel.attr_schema;
    ri.write_kind = rel.write_kind;
    ri.fk_parent_column = rel.fk_parent_column;
    ri.fk_child_column = rel.fk_child_column;
    ri.link_table = rel.link_table;
    ri.link_parent_column = rel.link_parent_column;
    ri.link_child_column = rel.link_child_column;
    ri.parent_key_column = rel.parent_key_column;
    ri.child_key_column = rel.child_key_column;
    ri.attr_link_columns = rel.attr_link_columns;
    for (const Connection& c : rel.connections) {
      if (!c.alive || !c.parent->alive || !c.child->alive) continue;
      CoConnection conn;
      conn.parent = index[rel.parent_node][c.parent->out.pos_];
      conn.child = index[rel.child_node][c.child->in.pos_];
      conn.attrs = c.attrs;
      ri.connections.push_back(std::move(conn));
    }
    out.rels.push_back(std::move(ri));
  }
  return out;
}

size_t CoCache::EnforceReachability() {
  // Tuples are numbered globally: node n's tuple at position p is
  // base[n] + p.
  std::vector<size_t> base(nodes_.size() + 1, 0);
  for (size_t n = 0; n < nodes_.size(); ++n) {
    base[n + 1] = base[n] + nodes_[n].tuples.size();
  }
  auto index = [&](const Tuple& t) { return base[t.node] + t.out.pos_; };
  // Roots: nodes without incoming relationships in the schema graph.
  std::vector<char> has_incoming(nodes_.size(), 0);
  for (const Rel& rel : rels_) {
    if (rel.child_node >= 0) has_incoming[rel.child_node] = 1;
  }
  std::vector<char> marked(base.back(), 0);
  std::vector<Tuple*> frontier;
  for (size_t n = 0; n < nodes_.size(); ++n) {
    if (has_incoming[n]) continue;
    for (Tuple& t : nodes_[n].tuples) {
      if (!t.alive) continue;
      marked[index(t)] = 1;
      frontier.push_back(&t);
    }
  }
  while (!frontier.empty()) {
    Tuple* t = frontier.back();
    frontier.pop_back();
    for (size_t r = 0; r < rels_.size(); ++r) {
      for (Connection* c : t->out[static_cast<int>(r)]) {
        if (!c->alive || !c->child->alive) continue;
        char& mark = marked[index(*c->child)];
        if (mark) continue;
        mark = 1;
        frontier.push_back(c->child);
      }
    }
  }
  size_t dropped = 0;
  for (Node& node : nodes_) {
    for (Tuple& t : node.tuples) {
      if (!t.alive || marked[index(t)]) continue;
      // Drop from the cache: kill incident connections, then the tuple.
      for (size_t r = 0; r < rels_.size(); ++r) {
        const int rel = static_cast<int>(r);
        while (!t.out[rel].empty()) RemoveConnection(t.out[rel].front());
        while (!t.in[rel].empty()) RemoveConnection(t.in[rel].front());
      }
      t.alive = false;
      ++dropped;
    }
  }
  return dropped;
}

bool Cursor::Next() {
  CoCache::Node& node = cache_->node(node_);
  while (true) {
    ++pos_;
    if (pos_ >= static_cast<int64_t>(node.tuples.size())) {
      current_ = nullptr;
      return false;
    }
    if (node.tuples[pos_].alive) {
      current_ = &node.tuples[pos_];
      return true;
    }
  }
}

namespace {

Status NotPositioned() {
  return Status::InvalidArgument("parent cursor is not positioned on a tuple");
}

}  // namespace

Result<std::unique_ptr<DependentCursor>> DependentCursor::Open(
    Cursor* parent, const std::vector<std::string>& path) {
  if (path.empty()) {
    return Status::InvalidArgument("dependent cursor path is empty");
  }
  sql::PathExpr expr;
  expr.start = "self";
  for (const std::string& step : path) {
    sql::PathStep s;
    s.name = step;
    expr.steps.push_back(std::move(s));
  }
  auto cursor = std::unique_ptr<DependentCursor>(
      new DependentCursor(parent, std::move(expr)));
  XNF_RETURN_IF_ERROR(cursor->Resolve());
  XNF_RETURN_IF_ERROR(cursor->Rebind());
  return cursor;
}

Result<std::unique_ptr<DependentCursor>> DependentCursor::OpenPath(
    Cursor* parent, const std::string& path_text) {
  // Parse "<steps>" by prefixing a synthetic start binding.
  sql::Parser parser("self->" + path_text);
  XNF_ASSIGN_OR_RETURN(sql::ExprPtr expr, parser.ParseExpr());
  if (!parser.AtEnd()) {
    return parser.MakeError("unexpected trailing input in path expression");
  }
  if (expr->kind != sql::Expr::Kind::kPath) {
    return Status::InvalidArgument("not a path expression: " + path_text);
  }
  auto cursor = std::unique_ptr<DependentCursor>(
      new DependentCursor(parent, std::move(*expr->path)));
  XNF_RETURN_IF_ERROR(cursor->Resolve());
  XNF_RETURN_IF_ERROR(cursor->Rebind());
  return cursor;
}

Status DependentCursor::Resolve() {
  // An unpositioned parent is reported first, as Rebind reports it.
  if (parent_->tuple() == nullptr) return NotPositioned();
  const CoCache* cache = parent_->cache();
  int current_node = parent_->node_index();
  for (const sql::PathStep& path_step : path_.steps) {
    Step step;
    int r = cache->RelIndex(path_step.name);
    if (r >= 0) {
      const CoCache::Rel& rel = cache->rel(r);
      bool forward = rel.parent_node == current_node;
      bool backward = rel.child_node == current_node;
      if (!forward && !backward) {
        return Status::InvalidArgument(
            "relationship '" + path_step.name + "' does not connect to '" +
            cache->node(current_node).name + "'");
      }
      step.rel = r;
      step.forward = forward;
      current_node = forward ? rel.child_node : rel.parent_node;
    } else {
      int n = cache->NodeIndex(path_step.name);
      if (n < 0) {
        return Status::NotFound("path step '" + path_step.name +
                                "' is neither a relationship nor a component "
                                "table of this CO");
      }
      if (n != current_node) {
        return Status::InvalidArgument(
            "path step '" + path_step.name +
            "' does not match current position '" +
            cache->node(current_node).name + "'");
      }
      if (path_step.predicate != nullptr) {
        qgm::ScalarScope scope;
        scope.sources.push_back(
            {path_step.corr.empty() ? cache->node(n).name : path_step.corr,
             &cache->node(n).schema});
        XNF_ASSIGN_OR_RETURN(step.predicate,
                             plan::CompileScalar(*path_step.predicate, scope));
      }
    }
    steps_.push_back(std::move(step));
  }
  target_node_ = current_node;
  return Status::Ok();
}

Status DependentCursor::Rebind() {
  reachable_.clear();
  pos_ = 0;
  current_ = nullptr;
  CoCache::Tuple* start = parent_->tuple();
  if (start == nullptr) return NotPositioned();
  reachable_.push_back(start);

  for (const Step& step : steps_) {
    if (step.rel >= 0) {
      size_t crossed = 0;
      for (const CoCache::Tuple* t : reachable_) {
        crossed += (step.forward ? t->out[step.rel] : t->in[step.rel]).size();
      }
      next_.clear();
      seen_.Reset(crossed);
      for (CoCache::Tuple* t : reachable_) {
        const auto& conns = step.forward ? t->out[step.rel] : t->in[step.rel];
        for (CoCache::Connection* c : conns) {
          if (!c->alive) continue;
          CoCache::Tuple* partner = step.forward ? c->child : c->parent;
          if (!partner->alive || !seen_.Insert(partner)) continue;
          next_.push_back(partner);
        }
      }
      reachable_.swap(next_);
      continue;
    }
    if (step.predicate == nullptr) continue;
    rows_.clear();
    rows_.reserve(reachable_.size());
    for (const CoCache::Tuple* t : reachable_) rows_.push_back(&t->values);
    keep_.assign(rows_.size(), 1);
    exec::ExecContext exec_ctx;
    exec::EvalContext ctx;
    ctx.exec = &exec_ctx;
    Status filtered =
        exec::EvalPredicateBatch(*step.predicate, rows_, &ctx, &keep_);
    if (!filtered.ok()) {
      reachable_.clear();
      return filtered;
    }
    size_t kept = 0;
    for (size_t i = 0; i < reachable_.size(); ++i) {
      if (keep_[i]) reachable_[kept++] = reachable_[i];
    }
    reachable_.resize(kept);
  }
  return Status::Ok();
}

void DependentCursor::SeenSet::Reset(size_t n) {
  if (slots_.size() < 2 * n) {
    size_t size = 16;
    while (size < 2 * n) size *= 2;
    slots_.assign(size, Slot{});
    epoch_ = 0;
  }
  if (++epoch_ == 0) {  // wrapped: stale slots could match again
    slots_.assign(slots_.size(), Slot{});
    epoch_ = 1;
  }
}

bool DependentCursor::SeenSet::Insert(const CoCache::Tuple* t) {
  const size_t mask = slots_.size() - 1;
  // Fibonacci hashing of the pointer (low bits are alignment zeros).
  size_t i =
      ((reinterpret_cast<uintptr_t>(t) >> 4) * 0x9E3779B97F4A7C15ull >> 32) &
      mask;
  while (true) {
    Slot& slot = slots_[i];
    if (slot.epoch != epoch_) {
      slot = Slot{t, epoch_};
      return true;
    }
    if (slot.tuple == t) return false;
    i = (i + 1) & mask;
  }
}

bool DependentCursor::Next() {
  while (pos_ < reachable_.size()) {
    CoCache::Tuple* t = reachable_[pos_++];
    if (t->alive) {
      current_ = t;
      return true;
    }
  }
  current_ = nullptr;
  return false;
}

}  // namespace xnf::co
