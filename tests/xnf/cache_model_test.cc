// Seeded op sequences against the XNF cache (§4.2) and its write operations
// (§3.7), checked after every op against a reference model kept here: one
// vector of connections per tuple, relationship and direction; connect
// appends, disconnect erases in place keeping order. After each op the
// model must agree with the cache on every bucket (tuple.out / tuple.in,
// Children / Parents), dependent-cursor output order (plain, two-step and
// qualified paths), live counts and Snapshot().

#include <algorithm>
#include <functional>
#include <map>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "test_util.h"
#include "xnf/cache.h"
#include "xnf/manipulate.h"

namespace xnf::testing {
namespace {

using Tuple = co::CoCache::Tuple;
using Connection = co::CoCache::Connection;
using Bucket = std::vector<Connection*>;

// A dependent-cursor path checked after every op: relationship steps plus
// an optional qualified node step at the end, mirrored by `keep`.
struct PathCheck {
  std::string text;         // OpenPath syntax; empty = use `rels`
  std::vector<std::string> rels;
  std::function<bool(const Row&)> keep;  // null = no filter
};

struct CoCase {
  std::string name;
  std::function<void(Database*)> setup;
  std::string co;
  std::vector<PathCheck> paths;
};

class Model {
 public:
  explicit Model(co::CoCache* cache) : cache_(cache) {
    const size_t n_rels = cache->rel_count();
    out_.resize(n_rels);
    in_.resize(n_rels);
    conns_.resize(n_rels);
    tuples_.resize(cache->node_count());
    for (size_t n = 0; n < cache->node_count(); ++n) {
      for (Tuple& t : cache->node(static_cast<int>(n)).tuples) {
        tuples_[n].push_back(&t);
        if (t.alive) alive_.insert(&t);
      }
    }
    // Build wires each bucket in connection order.
    for (size_t r = 0; r < n_rels; ++r) {
      for (Connection& c : cache->rel(static_cast<int>(r)).connections) {
        if (c.alive) Append(&c);
      }
    }
  }

  void Append(Connection* c) {
    conns_[c->rel].push_back(c);
    live_.insert(c);
    out_[c->rel][c->parent].push_back(c);
    in_[c->rel][c->child].push_back(c);
  }

  void Remove(Connection* c) {
    if (live_.erase(c) == 0) return;
    Bucket& out = out_[c->rel][c->parent];
    out.erase(std::find(out.begin(), out.end(), c));
    Bucket& in = in_[c->rel][c->child];
    in.erase(std::find(in.begin(), in.end(), c));
  }

  // Connect on a foreign-key relationship first drops the child's parent.
  void ConnectFk(Connection* c) {
    Bucket old = in_[c->rel][c->child];
    for (Connection* e : old) Remove(e);
    Append(c);
  }

  void AddTuple(Tuple* t) {
    tuples_[t->node].push_back(t);
    alive_.insert(t);
  }

  void DropTuple(Tuple* t) {
    for (size_t r = 0; r < out_.size(); ++r) {
      Bucket out = out_[r][t];
      for (Connection* c : out) Remove(c);
      Bucket in = in_[r][t];
      for (Connection* c : in) Remove(c);
    }
    alive_.erase(t);
  }

  size_t EnforceReachability() {
    std::vector<char> has_incoming(tuples_.size(), 0);
    for (size_t r = 0; r < out_.size(); ++r) {
      has_incoming[cache_->rel(static_cast<int>(r)).child_node] = 1;
    }
    std::set<const Tuple*> marked;
    std::vector<const Tuple*> frontier;
    for (size_t n = 0; n < tuples_.size(); ++n) {
      if (has_incoming[n]) continue;
      for (Tuple* t : tuples_[n]) {
        if (alive_.count(t) && marked.insert(t).second) frontier.push_back(t);
      }
    }
    while (!frontier.empty()) {
      const Tuple* t = frontier.back();
      frontier.pop_back();
      for (size_t r = 0; r < out_.size(); ++r) {
        auto it = out_[r].find(t);
        if (it == out_[r].end()) continue;
        for (Connection* c : it->second) {
          if (marked.insert(c->child).second) frontier.push_back(c->child);
        }
      }
    }
    size_t dropped = 0;
    for (const auto& node : tuples_) {
      for (Tuple* t : node) {
        if (!alive_.count(t) || marked.count(t)) continue;
        DropTuple(t);
        ++dropped;
      }
    }
    return dropped;
  }

  const Bucket& Out(size_t r, const Tuple* t) { return out_[r][t]; }
  const Bucket& In(size_t r, const Tuple* t) { return in_[r][t]; }
  bool Alive(const Tuple* t) const { return alive_.count(t) != 0; }
  bool Live(const Connection* c) const { return live_.count(c) != 0; }
  const std::vector<Tuple*>& Tuples(size_t n) const { return tuples_[n]; }
  const std::vector<Connection*>& Connections(size_t r) const {
    return conns_[r];
  }
  std::vector<Connection*> LiveConnections() const {
    std::vector<Connection*> out;
    for (const auto& rel : conns_) {
      for (Connection* c : rel) {
        if (live_.count(c)) out.push_back(c);
      }
    }
    return out;
  }
  std::vector<Tuple*> AliveTuples(size_t n) const {
    std::vector<Tuple*> out;
    for (Tuple* t : tuples_[n]) {
      if (alive_.count(t)) out.push_back(t);
    }
    return out;
  }

 private:
  co::CoCache* cache_;
  std::vector<std::map<const Tuple*, Bucket>> out_;
  std::vector<std::map<const Tuple*, Bucket>> in_;
  std::vector<std::vector<Connection*>> conns_;  // creation order
  std::vector<std::vector<Tuple*>> tuples_;      // deque order
  std::set<const Connection*> live_;
  std::set<const Tuple*> alive_;
};

// The tuples a dependent cursor over relationship steps `steps` (rel,
// forward) must produce from `start`, in order: each step visits the
// current tuples in order and their buckets in bucket order, keeping a
// partner once at its first-seen position.
std::vector<const Tuple*> ExpectedPath(
    Model* model, const Tuple* start,
    const std::vector<std::pair<int, bool>>& steps) {
  std::vector<const Tuple*> current = {start};
  for (const auto& [rel, forward] : steps) {
    std::vector<const Tuple*> next;
    std::set<const Tuple*> seen;
    for (const Tuple* t : current) {
      const Bucket& b = forward ? model->Out(rel, t) : model->In(rel, t);
      for (Connection* c : b) {
        const Tuple* partner = forward ? c->child : c->parent;
        if (model->Alive(partner) && seen.insert(partner).second) {
          next.push_back(partner);
        }
      }
    }
    current = std::move(next);
  }
  return current;
}

void CheckCache(co::CoCache* cache, Model* model,
                const std::vector<PathCheck>& paths) {
  const size_t n_rels = cache->rel_count();
  // Buckets through the tuple and through Children / Parents, for every
  // tuple (dead ones included: their buckets must be empty).
  for (size_t n = 0; n < cache->node_count(); ++n) {
    co::CoCache::Node& node = cache->node(static_cast<int>(n));
    ASSERT_EQ(node.tuples.size(), model->Tuples(n).size()) << node.name;
    size_t alive = 0;
    for (size_t i = 0; i < node.tuples.size(); ++i) {
      Tuple& t = node.tuples[i];
      ASSERT_EQ(&t, model->Tuples(n)[i]);
      ASSERT_EQ(t.alive, model->Alive(&t)) << node.name << " #" << i;
      alive += t.alive;
      for (size_t r = 0; r < n_rels; ++r) {
        const int rel = static_cast<int>(r);
        const Bucket& want_out = model->Out(r, &t);
        const Bucket& want_in = model->In(r, &t);
        const auto& out = t.out[rel];
        const auto& in = t.in[rel];
        ASSERT_EQ(out.size(), want_out.size()) << node.name << " #" << i;
        for (size_t k = 0; k < out.size(); ++k) {
          ASSERT_EQ(out[k], want_out[k]) << node.name << " #" << i;
        }
        ASSERT_EQ(in.size(), want_in.size()) << node.name << " #" << i;
        for (size_t k = 0; k < in.size(); ++k) {
          ASSERT_EQ(in[k], want_in[k]) << node.name << " #" << i;
        }
        const auto& children = cache->Children(rel, t);
        ASSERT_EQ(children.size(), want_out.size());
        for (size_t k = 0; k < children.size(); ++k) {
          ASSERT_EQ(children[k], want_out[k]);
        }
        const auto& parents = cache->Parents(rel, t);
        ASSERT_EQ(parents.size(), want_in.size());
        for (size_t k = 0; k < parents.size(); ++k) {
          ASSERT_EQ(parents[k], want_in[k]);
        }
      }
    }
    ASSERT_EQ(node.live_count(), alive) << node.name;
  }

  // Connection liveness and live counts.
  for (size_t r = 0; r < n_rels; ++r) {
    const co::CoCache::Rel& rel = cache->rel(static_cast<int>(r));
    ASSERT_EQ(rel.connections.size(), model->Connections(r).size());
    size_t live = 0;
    size_t i = 0;
    for (const Connection& c : rel.connections) {
      ASSERT_EQ(&c, model->Connections(r)[i++]);
      ASSERT_EQ(c.alive, model->Live(&c)) << rel.name;
      live += c.alive;
    }
    ASSERT_EQ(rel.live_count(), live) << rel.name;
  }

  // Snapshot: live tuples in deque order, live connections in creation
  // order between live partners.
  co::CoInstance snap = cache->Snapshot();
  ASSERT_EQ(snap.nodes.size(), cache->node_count());
  std::vector<std::map<const Tuple*, int>> index(cache->node_count());
  for (size_t n = 0; n < cache->node_count(); ++n) {
    std::vector<Tuple*> alive = model->AliveTuples(n);
    ASSERT_EQ(snap.nodes[n].tuples.size(), alive.size());
    for (size_t i = 0; i < alive.size(); ++i) {
      index[n][alive[i]] = static_cast<int>(i);
      ASSERT_TRUE(RowsEqual(snap.nodes[n].tuples[i], alive[i]->values));
      if (!snap.nodes[n].rids.empty()) {
        ASSERT_EQ(snap.nodes[n].rids[i], alive[i]->rid);
      }
    }
  }
  ASSERT_EQ(snap.rels.size(), n_rels);
  for (size_t r = 0; r < n_rels; ++r) {
    const co::CoCache::Rel& rel = cache->rel(static_cast<int>(r));
    std::vector<co::CoConnection> want;
    for (Connection* c : model->Connections(r)) {
      if (!model->Live(c)) continue;
      want.push_back({index[rel.parent_node].at(c->parent),
                      index[rel.child_node].at(c->child), c->attrs});
    }
    const auto& got = snap.rels[r].connections;
    ASSERT_EQ(got.size(), want.size()) << rel.name;
    for (size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i].parent, want[i].parent) << rel.name;
      ASSERT_EQ(got[i].child, want[i].child) << rel.name;
      ASSERT_TRUE(RowsEqual(got[i].attrs, want[i].attrs)) << rel.name;
    }
  }

  // Dependent cursors from every live tuple of each path's start node.
  for (const PathCheck& path : paths) {
    // Resolve the relationship steps (and the start node) by name.
    std::vector<std::pair<int, bool>> steps;
    int start_node = -1;
    int node = -1;
    for (const std::string& name : path.rels) {
      const int r = cache->RelIndex(name);
      ASSERT_GE(r, 0) << name;
      const co::CoCache::Rel& rel = cache->rel(r);
      if (node < 0) node = start_node = rel.parent_node;
      const bool forward = rel.parent_node == node;
      steps.push_back({r, forward});
      node = forward ? rel.child_node : rel.parent_node;
    }
    co::Cursor cursor(cache, start_node);
    while (cursor.Next()) {
      std::vector<const Tuple*> want =
          ExpectedPath(model, cursor.tuple(), steps);
      if (path.keep) {
        std::vector<const Tuple*> kept;
        for (const Tuple* t : want) {
          if (path.keep(t->values)) kept.push_back(t);
        }
        want = std::move(kept);
      }
      auto dep = path.text.empty()
                     ? co::DependentCursor::Open(&cursor, path.rels)
                     : co::DependentCursor::OpenPath(&cursor, path.text);
      ASSERT_TRUE(dep.ok()) << dep.status().ToString();
      std::vector<const Tuple*> got;
      while ((*dep)->Next()) got.push_back((*dep)->tuple());
      ASSERT_EQ(got, want) << (path.text.empty() ? path.rels[0] : path.text);
    }
  }
}

// A new row for `node`: a fresh key in column 0, small INTs elsewhere.
Row NewRow(const co::CoCache::Node& node, int64_t key, std::mt19937* rng) {
  Row row;
  for (size_t c = 0; c < node.schema.size(); ++c) {
    const Type type = node.schema.column(c).type;
    if (c == 0) {
      row.push_back(Value::Int(key));
    } else if (type == Type::kString) {
      row.push_back(Value::String("n" + std::to_string(key)));
    } else if ((*rng)() % 4 == 0) {
      row.push_back(Value::Null());
    } else {
      row.push_back(Value::Int(static_cast<int64_t>((*rng)() % 5)));
    }
  }
  return row;
}

template <typename T>
T* Pick(const std::vector<T*>& from, std::mt19937* rng) {
  if (from.empty()) return nullptr;
  return from[(*rng)() % from.size()];
}

void RunSequence(const CoCase& c, uint32_t seed, int ops) {
  SCOPED_TRACE(c.name + " seed=" + std::to_string(seed));
  Database db;
  c.setup(&db);
  auto opened = db.OpenCo(c.co);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  std::unique_ptr<co::CoCache> cache = std::move(opened).value();
  co::Manipulator m(cache.get(), db.catalog());
  Model model(cache.get());
  std::mt19937 rng(seed);
  int64_t next_key = 1000;
  ASSERT_NO_FATAL_FAILURE(CheckCache(cache.get(), &model, c.paths));

  for (int op = 0; op < ops; ++op) {
    SCOPED_TRACE("op " + std::to_string(op));
    const int r = static_cast<int>(rng() % cache->rel_count());
    const co::CoCache::Rel& rel = cache->rel(r);
    const bool writable = rel.write_kind != co::CoRelInstance::WriteKind::kNone;
    const int kind = static_cast<int>(rng() % 100);
    if (kind < 25) {  // Connect
      Tuple* parent = Pick(model.AliveTuples(rel.parent_node), &rng);
      Tuple* child = Pick(model.AliveTuples(rel.child_node), &rng);
      if (!writable || parent == nullptr || child == nullptr) continue;
      Row attrs;
      if (rel.attr_schema.size() > 0 && rng() % 2 == 0) {
        attrs.push_back(Value::Int(static_cast<int64_t>(rng() % 100)));
      }
      auto conn = m.Connect(r, parent, child, std::move(attrs));
      ASSERT_TRUE(conn.ok()) << conn.status().ToString();
      if (rel.write_kind == co::CoRelInstance::WriteKind::kForeignKey) {
        model.ConnectFk(*conn);
      } else {
        model.Append(*conn);
      }
    } else if (kind < 45) {  // Disconnect, propagated to the base data
      std::vector<Connection*> live;
      for (Connection* conn : model.LiveConnections()) {
        if (cache->rel(conn->rel).write_kind !=
            co::CoRelInstance::WriteKind::kNone) {
          live.push_back(conn);
        }
      }
      Connection* victim = Pick(live, &rng);
      if (victim == nullptr) continue;
      ASSERT_OK(m.Disconnect(victim));
      model.Remove(victim);
    } else if (kind < 60) {  // RemoveConnection: the cache only
      Connection* victim = Pick(model.LiveConnections(), &rng);
      if (victim == nullptr) continue;
      cache->RemoveConnection(victim);
      model.Remove(victim);
    } else if (kind < 75) {  // InsertTuple
      const int n = static_cast<int>(rng() % cache->node_count());
      auto t = m.InsertTuple(n, NewRow(cache->node(n), next_key++, &rng));
      ASSERT_TRUE(t.ok()) << t.status().ToString();
      ASSERT_EQ(*t, &cache->node(n).tuples.back());
      model.AddTuple(*t);
    } else if (kind < 85) {  // DeleteTuple
      const int n = static_cast<int>(rng() % cache->node_count());
      Tuple* t = Pick(model.AliveTuples(n), &rng);
      if (t == nullptr) continue;
      ASSERT_OK(m.DeleteTuple(t));
      model.DropTuple(t);
    } else {  // EnforceReachability
      const size_t want = model.EnforceReachability();
      ASSERT_EQ(cache->EnforceReachability(), want);
    }
    ASSERT_NO_FATAL_FAILURE(CheckCache(cache.get(), &model, c.paths));
  }
}

CoCase CompanyCase() {
  CoCase c;
  c.name = "company";
  c.setup = [](Database* db) { CreateCompanyDb(db); };
  c.co = R"(
    OUT OF Xdept AS DEPT, Xemp AS EMP, Xproj AS PROJ,
      employment AS (RELATE Xdept, Xemp WHERE Xdept.dno = Xemp.edno),
      ownership AS (RELATE Xdept, Xproj WHERE Xdept.dno = Xproj.pdno),
      membership AS (RELATE Xproj, Xemp WITH ATTRIBUTES ep.percentage
                     USING EMPPROJ ep
                     WHERE Xproj.pno = ep.eppno AND Xemp.eno = ep.epeno)
    TAKE *
  )";
  c.paths = {
      {"", {"employment"}, nullptr},
      {"", {"ownership", "membership"}, nullptr},
      {"", {"employment", "employment"}, nullptr},
      {"ownership->membership->(Xemp e WHERE e.sal < 2000)",
       {"ownership", "membership"},
       [](const Row& row) {
         return !row[2].is_null() && row[2].AsInt() < 2000;
       }},
  };
  return c;
}

// A self-relationship over one table whose boss chains contain cycles;
// every staff tuple is reachable through its team's top.
CoCase HierarchyCase() {
  CoCase c;
  c.name = "hierarchy";
  c.setup = [](Database* db) {
    MustExecute(db, R"(
      CREATE TABLE worker (id INT PRIMARY KEY, root INT, team INT, boss INT);
      INSERT INTO worker VALUES (1, 1, NULL, NULL), (2, 1, NULL, NULL),
        (10, 0, 1, 11), (11, 0, 1, 12), (12, 0, 1, 10),
        (13, 0, 2, 13), (14, 0, 2, 10), (15, 0, 2, 14),
        (16, 0, 1, NULL), (17, 0, 2, 16), (18, 0, 1, 17);
    )");
  };
  c.co = R"(
    OUT OF Top AS (SELECT * FROM worker WHERE root = 1),
           Staff AS (SELECT * FROM worker WHERE root = 0),
      seed AS (RELATE Top, Staff WHERE Top.id = Staff.team),
      manages AS (RELATE Staff mgr, Staff rpt WHERE mgr.id = rpt.boss)
    TAKE *
  )";
  c.paths = {
      {"", {"seed"}, nullptr},
      {"", {"seed", "manages"}, nullptr},
      {"", {"manages", "manages"}, nullptr},
      {"", {"seed", "manages", "manages"}, nullptr},
      {"seed->manages->(Staff s WHERE s.team = 1)",
       {"seed", "manages"},
       [](const Row& row) {
         return !row[2].is_null() && row[2].AsInt() == 1;
       }},
  };
  return c;
}

// A link-table relationship with duplicate link rows: one pair of partners
// has several connections.
CoCase LinkTableCase() {
  CoCase c;
  c.name = "link-table";
  c.setup = [](Database* db) {
    CreateCompanyDb(db);
    MustExecute(db, R"(
      INSERT INTO EMPPROJ VALUES (1, 1, 50), (1, 1, 10), (4, 2, 80),
                                 (6, 1, 5), (6, 1, 5);
    )");
  };
  c.co = R"(
    OUT OF Xproj AS PROJ, Xemp AS EMP,
      membership AS (RELATE Xproj, Xemp WITH ATTRIBUTES ep.percentage
                     USING EMPPROJ ep
                     WHERE Xproj.pno = ep.eppno AND Xemp.eno = ep.epeno)
    TAKE *
  )";
  c.paths = {
      {"", {"membership"}, nullptr},
      {"", {"membership", "membership"}, nullptr},
      {"membership->(Xemp e WHERE e.sal > 1600)",
       {"membership"},
       [](const Row& row) {
         return !row[2].is_null() && row[2].AsInt() > 1600;
       }},
  };
  return c;
}

TEST(CacheModel, CompanyCo) {
  for (uint32_t seed = 1; seed <= 8; ++seed) {
    RunSequence(CompanyCase(), seed, 60);
    if (HasFatalFailure()) return;
  }
}

TEST(CacheModel, SelfRelationshipWithCycles) {
  for (uint32_t seed = 1; seed <= 8; ++seed) {
    RunSequence(HierarchyCase(), seed, 60);
    if (HasFatalFailure()) return;
  }
}

TEST(CacheModel, LinkTableWithDuplicateLinks) {
  for (uint32_t seed = 1; seed <= 8; ++seed) {
    RunSequence(LinkTableCase(), seed, 60);
    if (HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace xnf::testing
