#include "xnf/instance.h"

#include <deque>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "test_util.h"
#include "testing/reference.h"

namespace xnf::co {
namespace {

// The nested-vector, deque-frontier reachability pass that the CSR pass
// replaced, kept as the oracle the linear version must match exactly.
void LegacyApplyReachability(CoInstance* instance) {
  size_t n_nodes = instance->nodes.size();
  std::vector<char> has_incoming(n_nodes, 0);
  for (const CoRelInstance& rel : instance->rels) {
    if (rel.child_node >= 0) has_incoming[rel.child_node] = 1;
  }
  std::vector<std::vector<char>> marked(n_nodes);
  for (size_t n = 0; n < n_nodes; ++n) {
    marked[n].assign(instance->nodes[n].tuples.size(), 0);
  }
  std::deque<std::pair<int, int>> frontier;
  for (size_t n = 0; n < n_nodes; ++n) {
    if (has_incoming[n]) continue;
    for (size_t t = 0; t < instance->nodes[n].tuples.size(); ++t) {
      marked[n][t] = 1;
      frontier.emplace_back(static_cast<int>(n), static_cast<int>(t));
    }
  }
  std::vector<std::vector<std::vector<std::pair<int, int>>>> out_edges(
      n_nodes);
  for (size_t n = 0; n < n_nodes; ++n) {
    out_edges[n].resize(instance->nodes[n].tuples.size());
  }
  for (const CoRelInstance& rel : instance->rels) {
    for (const CoConnection& c : rel.connections) {
      out_edges[rel.parent_node][c.parent].emplace_back(rel.child_node,
                                                        c.child);
    }
  }
  while (!frontier.empty()) {
    auto [n, t] = frontier.front();
    frontier.pop_front();
    for (const auto& [cn, ct] : out_edges[n][t]) {
      if (!marked[cn][ct]) {
        marked[cn][ct] = 1;
        frontier.emplace_back(cn, ct);
      }
    }
  }
  PruneInstance(instance, marked);
}

// Type-tagged rendering, so equal strings mean identical values.
std::vector<std::string> Render(const std::vector<Row>& rows) {
  std::vector<std::string> out;
  for (const Row& row : rows) {
    std::string line;
    for (const Value& v : row) {
      line += std::to_string(static_cast<int>(v.type())) + ":" +
              v.ToString() + "|";
    }
    out.push_back(std::move(line));
  }
  return out;
}

// Exact equality: tuple order, rids, connection order and attributes.
void ExpectSameInstance(const CoInstance& got, const CoInstance& want) {
  ASSERT_EQ(got.nodes.size(), want.nodes.size());
  for (size_t n = 0; n < got.nodes.size(); ++n) {
    SCOPED_TRACE("node " + want.nodes[n].name);
    EXPECT_EQ(Render(got.nodes[n].tuples), Render(want.nodes[n].tuples));
    EXPECT_EQ(got.nodes[n].rids, want.nodes[n].rids);
  }
  ASSERT_EQ(got.rels.size(), want.rels.size());
  for (size_t r = 0; r < got.rels.size(); ++r) {
    SCOPED_TRACE("rel " + want.rels[r].name);
    const auto& a = got.rels[r].connections;
    const auto& b = want.rels[r].connections;
    ASSERT_EQ(a.size(), b.size());
    for (size_t c = 0; c < a.size(); ++c) {
      EXPECT_EQ(a[c].parent, b[c].parent) << c;
      EXPECT_EQ(a[c].child, b[c].child) << c;
      EXPECT_EQ(Render({a[c].attrs}), Render({b[c].attrs})) << c;
    }
  }
}

// Builds a two-node instance root -> leaf with the given connections.
CoInstance TwoLevel(int roots, int leaves,
                    std::vector<std::pair<int, int>> edges) {
  CoInstance instance;
  CoNodeInstance root;
  root.name = "root";
  root.schema.AddColumn(Column("id", Type::kInt));
  for (int i = 0; i < roots; ++i) root.tuples.push_back({Value::Int(i)});
  CoNodeInstance leaf;
  leaf.name = "leaf";
  leaf.schema.AddColumn(Column("id", Type::kInt));
  for (int i = 0; i < leaves; ++i) leaf.tuples.push_back({Value::Int(i)});
  instance.nodes.push_back(std::move(root));
  instance.nodes.push_back(std::move(leaf));
  CoRelInstance rel;
  rel.name = "r";
  rel.parent_node = 0;
  rel.child_node = 1;
  for (auto [p, c] : edges) rel.connections.push_back({p, c, {}});
  instance.rels.push_back(std::move(rel));
  return instance;
}

TEST(Reachability, DropsUnconnectedLeaves) {
  CoInstance co = TwoLevel(2, 3, {{0, 0}, {1, 2}});
  ApplyReachability(&co);
  EXPECT_EQ(co.nodes[0].tuples.size(), 2u);  // roots always stay
  EXPECT_EQ(co.nodes[1].tuples.size(), 2u);  // leaf 1 dropped
  // Connection indices remapped: leaf 2 became index 1.
  ASSERT_EQ(co.rels[0].connections.size(), 2u);
  EXPECT_EQ(co.rels[0].connections[1].child, 1);
}

TEST(Reachability, EmptyRootEmptiesEverything) {
  CoInstance co = TwoLevel(0, 3, {});
  ApplyReachability(&co);
  EXPECT_EQ(co.TotalTuples(), 0u);
}

TEST(Reachability, DiamondSharingVisitsOnce) {
  // root0 and root1 both point at leaf0 (instance sharing); leaf kept once.
  CoInstance co = TwoLevel(2, 1, {{0, 0}, {1, 0}});
  ApplyReachability(&co);
  EXPECT_EQ(co.nodes[1].tuples.size(), 1u);
  EXPECT_EQ(co.rels[0].connections.size(), 2u);
}

TEST(Reachability, CycleIslandIsPruned) {
  // Self-relationship on one node plus a root feeding part of it: tuples in
  // a cycle not fed from the root must vanish.
  CoInstance instance;
  CoNodeInstance seed;
  seed.name = "seed";
  seed.schema.AddColumn(Column("id", Type::kInt));
  seed.tuples.push_back({Value::Int(0)});
  CoNodeInstance n;
  n.name = "n";
  n.schema.AddColumn(Column("id", Type::kInt));
  for (int i = 0; i < 4; ++i) n.tuples.push_back({Value::Int(i)});
  instance.nodes.push_back(std::move(seed));
  instance.nodes.push_back(std::move(n));
  CoRelInstance feed;
  feed.name = "feed";
  feed.parent_node = 0;
  feed.child_node = 1;
  feed.connections.push_back({0, 0, {}});
  CoRelInstance loop;
  loop.name = "loop";
  loop.parent_node = 1;
  loop.child_node = 1;
  loop.connections.push_back({0, 1, {}});  // 0 -> 1 (reachable chain)
  loop.connections.push_back({2, 3, {}});  // island cycle 2 <-> 3
  loop.connections.push_back({3, 2, {}});
  instance.rels.push_back(std::move(feed));
  instance.rels.push_back(std::move(loop));

  ApplyReachability(&instance);
  EXPECT_EQ(instance.nodes[1].tuples.size(), 2u);  // 0 and 1 only
  EXPECT_EQ(instance.rels[1].connections.size(), 1u);
}

TEST(Reachability, RidsStayParallelAfterPrune) {
  CoInstance co = TwoLevel(1, 3, {{0, 1}});
  co.nodes[1].base_table = "leaf";
  co.nodes[1].rids = {Rid{0, 0}, Rid{0, 1}, Rid{0, 2}};
  ApplyReachability(&co);
  ASSERT_EQ(co.nodes[1].tuples.size(), 1u);
  ASSERT_EQ(co.nodes[1].rids.size(), 1u);
  EXPECT_EQ(co.nodes[1].rids[0], (Rid{0, 1}));
  EXPECT_EQ(co.nodes[1].tuples[0][0].AsInt(), 1);
}

TEST(Reachability, AllReachableLeavesInstanceUntouched) {
  CoInstance co = TwoLevel(3, 4, {{0, 1}, {2, 0}, {0, 3}, {1, 2}, {2, 2}});
  co.nodes[1].base_table = "leaf";
  co.nodes[1].rids = {Rid{0, 3}, Rid{0, 1}, Rid{1, 0}, Rid{0, 2}};
  for (size_t c = 0; c < co.rels[0].connections.size(); ++c) {
    co.rels[0].connections[c].attrs = {Value::Int(static_cast<int>(c))};
  }
  const CoInstance before = co;
  const Row* tuples = co.nodes[1].tuples.data();
  const Rid* rids = co.nodes[1].rids.data();
  const CoConnection* connections = co.rels[0].connections.data();
  ApplyReachability(&co);
  ExpectSameInstance(co, before);
  // Nothing was rebuilt: the same buffers are still in place.
  EXPECT_EQ(co.nodes[1].tuples.data(), tuples);
  EXPECT_EQ(co.nodes[1].rids.data(), rids);
  EXPECT_EQ(co.rels[0].connections.data(), connections);
}

TEST(Reachability, MatchesLegacyPassOnRandomGraphs) {
  // Random multi-node instances with self-relationships (cycles), parallel
  // relationships, duplicate connections and unconnected tuples.
  std::mt19937 rng(20261017);
  auto pick = [&](int n) {
    return std::uniform_int_distribution<int>(0, n - 1)(rng);
  };
  int pruned = 0, untouched = 0;
  for (int trial = 0; trial < 300; ++trial) {
    CoInstance co;
    const int n_nodes = 1 + pick(5);
    for (int n = 0; n < n_nodes; ++n) {
      CoNodeInstance node;
      node.name = "n" + std::to_string(n);
      node.schema.AddColumn(Column("id", Type::kInt));
      const int n_tuples = pick(9);
      const bool with_rids = pick(2) == 0;
      for (int t = 0; t < n_tuples; ++t) {
        node.tuples.push_back({Value::Int(100 * n + t)});
        if (with_rids) {
          node.rids.push_back(Rid{static_cast<uint32_t>(t / 3),
                                  static_cast<uint32_t>(t % 3)});
        }
      }
      co.nodes.push_back(std::move(node));
    }
    const int n_rels = pick(6);
    for (int r = 0; r < n_rels; ++r) {
      CoRelInstance rel;
      rel.name = "r" + std::to_string(r);
      rel.parent_node = pick(n_nodes);
      rel.child_node = pick(n_nodes);
      const int parents =
          static_cast<int>(co.nodes[rel.parent_node].tuples.size());
      const int children =
          static_cast<int>(co.nodes[rel.child_node].tuples.size());
      if (parents > 0 && children > 0) {
        const int n_conns = pick(12);
        for (int c = 0; c < n_conns; ++c) {
          rel.connections.push_back(
              {pick(parents), pick(children), {Value::Int(c)}});
        }
      }
      co.rels.push_back(std::move(rel));
    }
    const size_t total = co.TotalTuples();
    CoInstance want = co;
    LegacyApplyReachability(&want);
    ApplyReachability(&co);
    SCOPED_TRACE("trial " + std::to_string(trial));
    ExpectSameInstance(co, want);
    ++(want.TotalTuples() < total ? pruned : untouched);
  }
  // Both outcomes were exercised.
  EXPECT_GT(pruned, 30);
  EXPECT_GT(untouched, 30);
}

TEST(Reachability, AgreesWithReferenceOnCyclesAndOrphans) {
  // A root feeds one chain of a self-relationship; an island cycle (4 <-> 5)
  // and an orphan (6) hang off no root and must drop out of the CO.
  const std::vector<std::string> setup = {
      "CREATE TABLE s (id INT PRIMARY KEY)",
      "CREATE TABLE n (id INT PRIMARY KEY, nxt INT, sid INT)",
      "INSERT INTO s VALUES (1), (2)",
      "INSERT INTO n VALUES (1, 2, 1), (2, 3, NULL), (3, 1, NULL), "
      "(4, 5, NULL), (5, 4, NULL), (6, NULL, NULL), (7, 7, 2)"};
  const std::string query =
      "OUT OF xs AS s, xn AS n, "
      "feed AS (RELATE xs, xn WHERE xs.id = xn.sid), "
      "nxt AS (RELATE xn a, xn b WHERE a.nxt = b.id) TAKE *";

  testing::ReferenceEngine ref;
  for (const std::string& s : setup) ASSERT_TRUE(ref.Execute(s).ok) << s;
  testing::RefOutcome expected = ref.Execute(query);
  ASSERT_TRUE(expected.ok) << expected.error;

  Database db;
  for (const std::string& s : setup) testing::MustExecute(&db, s);
  ASSERT_OK_AND_ASSIGN(CoInstance co, db.QueryCo(query));
  EXPECT_EQ(testing::ReferenceEngine::Canonicalize(co),
            expected.co_canonical);
  const CoNodeInstance& xn = co.nodes[co.NodeIndex("xn")];
  std::vector<int64_t> ids;
  for (const Row& t : xn.tuples) ids.push_back(t[0].AsInt());
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(ids, (std::vector<int64_t>{1, 2, 3, 7}));
}

TEST(PruneInstance, RemovesDanglingConnections) {
  CoInstance co = TwoLevel(2, 2, {{0, 0}, {1, 1}});
  std::vector<std::vector<char>> keep = {{1, 0}, {1, 1}};  // drop root 1
  PruneInstance(&co, keep);
  EXPECT_EQ(co.nodes[0].tuples.size(), 1u);
  ASSERT_EQ(co.rels[0].connections.size(), 1u);
  EXPECT_EQ(co.rels[0].connections[0].parent, 0);
}

TEST(InstanceBasics, IndexLookupsAndCounts) {
  CoInstance co = TwoLevel(2, 2, {{0, 0}});
  EXPECT_EQ(co.NodeIndex("ROOT"), 0);
  EXPECT_EQ(co.NodeIndex("nope"), -1);
  EXPECT_EQ(co.RelIndex("r"), 0);
  EXPECT_EQ(co.TotalTuples(), 4u);
  EXPECT_EQ(co.TotalConnections(), 1u);
  EXPECT_FALSE(co.ToString().empty());
}

TEST(InstanceBasics, ResultSetConversion) {
  CoInstance co = TwoLevel(2, 0, {});
  ResultSet rs = co.nodes[0].ToResultSet();
  EXPECT_EQ(rs.rows.size(), 2u);
  EXPECT_EQ(rs.schema.size(), 1u);
}

}  // namespace
}  // namespace xnf::co
