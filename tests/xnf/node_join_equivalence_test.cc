// The node join (§4.3: foreign-key connections hashed straight out of the
// node results) against an oracle kept here: a hash map from each child key
// to its child tids, probed by the parents in tid order. Random instances
// cover unique and duplicate parent keys, NULL key parts, INT against
// DOUBLE keys, two-column keys and empty sides; the connection lists must
// be identical, order included.

#include <random>
#include <string>
#include <unordered_map>
#include <vector>

#include "gtest/gtest.h"
#include "test_util.h"

namespace xnf::testing {
namespace {

// The oracle: children hashed by key, probed by each parent in tid order,
// so connections come out parent-major with children in tid order. A NULL
// key part never matches; HashRow / RowsEqual make 1 equal to 1.0.
std::vector<co::CoConnection> OracleJoin(const std::vector<Row>& parents,
                                         const std::vector<int>& parent_cols,
                                         const std::vector<Row>& children,
                                         const std::vector<int>& child_cols) {
  auto extract = [](const Row& tuple, const std::vector<int>& cols,
                    Row* key) {
    key->clear();
    for (int c : cols) {
      if (tuple[c].is_null()) return false;
      key->push_back(tuple[c]);
    }
    return true;
  };
  std::unordered_map<Row, std::vector<int>, RowHash, RowEq> by_key;
  Row key;
  for (size_t t = 0; t < children.size(); ++t) {
    if (extract(children[t], child_cols, &key)) {
      by_key[key].push_back(static_cast<int>(t));
    }
  }
  std::vector<co::CoConnection> out;
  for (size_t t = 0; t < parents.size(); ++t) {
    if (!extract(parents[t], parent_cols, &key)) continue;
    auto it = by_key.find(key);
    if (it == by_key.end()) continue;
    for (int c : it->second) out.push_back({static_cast<int>(t), c, Row()});
  }
  return out;
}

// A key value of `type` from a small domain so keys repeat; DOUBLE keys
// are mostly integral (to meet INT keys) and sometimes fractional.
std::string KeyLiteral(const std::string& type, std::mt19937* rng,
                       int null_percent) {
  if (static_cast<int>((*rng)() % 100) < null_percent) return "NULL";
  const int v = static_cast<int>((*rng)() % 6);
  if (type == "DOUBLE") {
    return (*rng)() % 4 == 0 ? std::to_string(v) + ".5"
                             : std::to_string(v) + ".0";
  }
  return std::to_string(v);
}

std::string Insert(const std::string& table, int rows,
                   const std::string& k1_type, int null_percent,
                   std::mt19937* rng) {
  if (rows == 0) return "";
  std::string sql = "INSERT INTO " + table + " VALUES ";
  for (int i = 0; i < rows; ++i) {
    if (i > 0) sql += ", ";
    sql += "(" + std::to_string(i + 1) + ", " +
           KeyLiteral(k1_type, rng, null_percent) + ", " +
           KeyLiteral("INT", rng, null_percent) + ")";
  }
  return sql;
}

void CheckRandomInstance(uint32_t seed) {
  SCOPED_TRACE("seed=" + std::to_string(seed));
  std::mt19937 rng(seed);
  static const char* kTypes[] = {"INT", "DOUBLE"};
  const std::string parent_type = kTypes[rng() % 2];
  const std::string child_type = kTypes[rng() % 2];
  // Sizes: either side may be empty; unique parent keys when the domain
  // is wide relative to the parents, duplicates otherwise.
  const int n_parents = static_cast<int>(rng() % 4 == 0 ? 0 : rng() % 12);
  const int n_children = static_cast<int>(rng() % 4 == 0 ? 0 : rng() % 30);
  const int null_percent = static_cast<int>(rng() % 3) * 10;
  const bool two_keys = rng() % 2 == 0;
  const bool reversed = rng() % 2 == 0;  // child column on the left

  Database db;
  co::Evaluator::Options xnf;
  xnf.enforce_reachability = false;  // keep every node tuple
  db.set_xnf_options(xnf);
  MustExecute(&db, "CREATE TABLE p (id INT PRIMARY KEY, k1 " + parent_type +
                       ", k2 INT)");
  MustExecute(&db, "CREATE TABLE c (id INT PRIMARY KEY, k1 " + child_type +
                       ", k2 INT)");
  const std::string ins_p = Insert("p", n_parents, parent_type,
                                   null_percent, &rng);
  const std::string ins_c = Insert("c", n_children, child_type,
                                   null_percent, &rng);
  if (!ins_p.empty()) MustExecute(&db, ins_p);
  if (!ins_c.empty()) MustExecute(&db, ins_c);

  std::string pred = reversed ? "xc.k1 = xp.k1" : "xp.k1 = xc.k1";
  std::vector<int> parent_cols = {1};
  std::vector<int> child_cols = {1};
  if (two_keys) {
    pred += reversed ? " AND xc.k2 = xp.k2" : " AND xp.k2 = xc.k2";
    parent_cols.push_back(2);
    child_cols.push_back(2);
  }
  const std::string query = "OUT OF xp AS p, xc AS c, r AS (RELATE xp, xc "
                            "WHERE " + pred + ") TAKE *";
  SCOPED_TRACE(query);
  ASSERT_OK_AND_ASSIGN(co::CoInstance co, db.QueryCo(query));

  bool node_join = false;
  for (const co::Evaluator::QueryProfile& p : db.last_xnf_stats().profiles) {
    if (p.kind == co::Evaluator::QueryProfile::Kind::kEdge) {
      node_join = p.access == "node-join";
    }
  }
  ASSERT_TRUE(node_join);

  const co::CoNodeInstance& parent = co.nodes[co.NodeIndex("xp")];
  const co::CoNodeInstance& child = co.nodes[co.NodeIndex("xc")];
  ASSERT_EQ(parent.tuples.size(), static_cast<size_t>(n_parents));
  ASSERT_EQ(child.tuples.size(), static_cast<size_t>(n_children));
  const std::vector<co::CoConnection> want =
      OracleJoin(parent.tuples, parent_cols, child.tuples, child_cols);
  const auto& got = co.rels[co.RelIndex("r")].connections;
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].parent, want[i].parent) << "connection " << i;
    ASSERT_EQ(got[i].child, want[i].child) << "connection " << i;
    ASSERT_TRUE(got[i].attrs.empty());
  }
}

TEST(NodeJoinEquivalence, RandomInstancesMatchOracle) {
  for (uint32_t seed = 1; seed <= 80; ++seed) {
    CheckRandomInstance(seed);
    if (HasFatalFailure()) return;
  }
}

// Every key shape at once, fixed: duplicate parent keys, NULL parts in
// either key column, 1 = 1.0 across INT and DOUBLE, and a fractional key
// that meets no INT.
TEST(NodeJoinEquivalence, DuplicateParentsNullPartsMixedTypes) {
  Database db;
  co::Evaluator::Options xnf;
  xnf.enforce_reachability = false;
  db.set_xnf_options(xnf);
  MustExecute(&db, R"(
    CREATE TABLE p (id INT PRIMARY KEY, k1 INT, k2 INT);
    CREATE TABLE c (id INT PRIMARY KEY, k1 DOUBLE, k2 INT);
    INSERT INTO p VALUES (1, 1, 7), (2, 2, NULL), (3, 1, 7), (4, NULL, 7),
                         (5, 3, 8);
    INSERT INTO c VALUES (1, 1.0, 7), (2, 2.0, 9), (3, 1.5, 7),
                         (4, 1.0, NULL), (5, 3.0, 8), (6, 1.0, 7),
                         (7, NULL, 8);
  )");
  ASSERT_OK_AND_ASSIGN(
      co::CoInstance co,
      db.QueryCo("OUT OF xp AS p, xc AS c, r AS (RELATE xp, xc WHERE "
                 "xp.k1 = xc.k1 AND xp.k2 = xc.k2) TAKE *"));
  const auto& got = co.rels[co.RelIndex("r")].connections;
  const std::vector<co::CoConnection> want =
      OracleJoin(co.nodes[co.NodeIndex("xp")].tuples, {1, 2},
                 co.nodes[co.NodeIndex("xc")].tuples, {1, 2});
  ASSERT_EQ(want.size(), 5u);  // p1 -> c1, c6; p3 -> c1, c6; p5 -> c5
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].parent, want[i].parent) << i;
    EXPECT_EQ(got[i].child, want[i].child) << i;
  }
}

}  // namespace
}  // namespace xnf::testing
