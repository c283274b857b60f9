// Foreign-key relationships derived straight from the node results (the
// "node join", §4.3) against the same CO forced onto the edge query over
// the CSE temps by a residual `AND 1 = 1` conjunct, and against the
// reference interpreter. Connection order must match the temp join's
// exactly (parent-major, children in tid order), at DOP 1 and 4.

#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "test_util.h"
#include "testing/reference.h"

namespace xnf::testing {
namespace {

// Replaces every "$X" in `text` with `with`.
std::string Fill(std::string text, const std::string& with) {
  for (size_t pos = text.find("$X"); pos != std::string::npos;
       pos = text.find("$X", pos + with.size())) {
    text.replace(pos, 2, with);
  }
  return text;
}

std::vector<std::string> EdgeAccess(const co::Evaluator::Stats& stats) {
  std::vector<std::string> out;
  for (const co::Evaluator::QueryProfile& p : stats.profiles) {
    if (p.kind == co::Evaluator::QueryProfile::Kind::kEdge) {
      out.push_back(p.name + ":" + p.access);
    }
  }
  return out;
}

// Nodes and connections in instance order, so equal renderings mean equal
// tuple and connection order.
std::string Ordered(const co::CoInstance& co) {
  std::string out;
  for (const co::CoNodeInstance& n : co.nodes) {
    out += n.name + ":";
    for (const Row& t : n.tuples) out += " " + RowToString(t);
    out += "\n";
  }
  for (const co::CoRelInstance& r : co.rels) {
    out += r.name + ":";
    for (const co::CoConnection& c : r.connections) {
      out += " " + std::to_string(c.parent) + ">" + std::to_string(c.child);
    }
    out += "\n";
  }
  return out;
}

// `query` marks each relationship predicate's end with "$X". Evaluates it
// as is (every relationship must take the node join) and with "$X" ->
// " AND 1 = 1" (every relationship must take the temp join), with and
// without reachability, at DOP 1 and 4, and expects identical instances in
// identical order; the node-join CO must also match the reference
// interpreter.
void ExpectNodeJoinMatchesTempJoin(const std::vector<std::string>& setup,
                                   const std::string& query) {
  const std::string native_text = Fill(query, "");
  const std::string forced_text = Fill(query, " AND 1 = 1");

  ReferenceEngine ref;
  for (const std::string& s : setup) {
    ASSERT_TRUE(ref.Execute(s).ok) << s;
  }
  RefOutcome expected = ref.Execute(native_text);
  ASSERT_TRUE(expected.ok) << expected.error;

  std::string first;  // DOP 1 rendering, compared against DOP 4
  for (int dop : {1, 4}) {
    Database::Options options;
    options.threads = dop;
    Database db(options);
    for (const std::string& s : setup) MustExecute(&db, s);
    for (bool reachability : {true, false}) {
      co::Evaluator::Options xnf;
      xnf.enforce_reachability = reachability;
      db.set_xnf_options(xnf);
      SCOPED_TRACE("dop=" + std::to_string(dop) +
                   " reachability=" + std::to_string(reachability));

      ASSERT_OK_AND_ASSIGN(co::CoInstance native, db.QueryCo(native_text));
      const co::Evaluator::Stats native_stats = db.last_xnf_stats();
      ASSERT_OK_AND_ASSIGN(co::CoInstance forced, db.QueryCo(forced_text));
      const co::Evaluator::Stats forced_stats = db.last_xnf_stats();

      for (const std::string& e : EdgeAccess(native_stats)) {
        EXPECT_NE(e.find(":node-join"), std::string::npos) << e;
      }
      for (const std::string& e : EdgeAccess(forced_stats)) {
        EXPECT_NE(e.find(":temp-join"), std::string::npos) << e;
      }
      EXPECT_EQ(Ordered(native), Ordered(forced));
      // Same counter meaning on both paths: one edge query per edge, both
      // node results reused.
      EXPECT_EQ(native_stats.edge_queries, forced_stats.edge_queries);
      EXPECT_EQ(native_stats.cse_hits, forced_stats.cse_hits);
      EXPECT_EQ(native_stats.temp_reuses, forced_stats.temp_reuses);

      if (reachability) {
        EXPECT_EQ(ReferenceEngine::Canonicalize(native),
                  expected.co_canonical);
        if (dop == 1) {
          first = Ordered(native);
        } else {
          EXPECT_EQ(Ordered(native), first);
        }
      }
    }
  }
}

TEST(NodeJoin, NullKeysNeverConnect) {
  ExpectNodeJoinMatchesTempJoin(
      {"CREATE TABLE d (id INT PRIMARY KEY, k INT)",
       "CREATE TABLE e (id INT PRIMARY KEY, dk INT)",
       "INSERT INTO d VALUES (1, 10), (2, NULL), (3, 30), (4, 10)",
       "INSERT INTO e VALUES (1, 10), (2, NULL), (3, 30), (4, NULL), "
       "(5, 10), (6, 99)"},
      "OUT OF xd AS d, xe AS e, "
      "emp AS (RELATE xd, xe WHERE xd.k = xe.dk$X) TAKE *");
}

TEST(NodeJoin, IntAndDoubleKeysCompareNumerically) {
  ExpectNodeJoinMatchesTempJoin(
      {"CREATE TABLE p (id INT PRIMARY KEY, k INT)",
       "CREATE TABLE c (id INT PRIMARY KEY, k DOUBLE)",
       "INSERT INTO p VALUES (1, 1), (2, 2), (3, 3)",
       "INSERT INTO c VALUES (1, 1.0), (2, 1.5), (3, 2.0), (4, NULL), "
       "(5, 3.0), (6, 1.0)"},
      "OUT OF xp AS p, xc AS c, "
      "r AS (RELATE xp, xc WHERE xc.k = xp.k$X) TAKE *");
}

TEST(NodeJoin, TwoColumnKeys) {
  ExpectNodeJoinMatchesTempJoin(
      {"CREATE TABLE p (id INT PRIMARY KEY, x INT, y VARCHAR)",
       "CREATE TABLE c (id INT PRIMARY KEY, x INT, y VARCHAR)",
       "INSERT INTO p VALUES (1, 1, 'a'), (2, 1, 'b'), (3, 2, 'a'), "
       "(4, 2, NULL)",
       "INSERT INTO c VALUES (1, 1, 'a'), (2, 1, 'b'), (3, 1, 'a'), "
       "(4, 2, 'b'), (5, 2, NULL), (6, NULL, 'a'), (7, 2, 'a')"},
      "OUT OF xp AS p, xc AS c, "
      "r AS (RELATE xp a, xc b WHERE a.x = b.x AND b.y = a.y$X) TAKE *");
}

TEST(NodeJoin, DuplicateKeysFanOutManyToMany) {
  ExpectNodeJoinMatchesTempJoin(
      {"CREATE TABLE p (id INT PRIMARY KEY, k INT)",
       "CREATE TABLE c (id INT PRIMARY KEY, k INT)",
       "INSERT INTO p VALUES (1, 7), (2, 8), (3, 7), (4, 9), (5, 7)",
       "INSERT INTO c VALUES (1, 8), (2, 7), (3, 7), (4, 8), (5, 6), "
       "(6, 7)"},
      "OUT OF xp AS p, xc AS c, "
      "r AS (RELATE xp, xc WHERE xp.k = xc.k$X) TAKE *");
}

TEST(NodeJoin, CyclicSelfRelationshipWithRoles) {
  // Ids 7 and 8 manage each other and hang off no root: reachability
  // prunes them; 1 -> 2 -> {3, 4} -> 5 survives.
  ExpectNodeJoinMatchesTempJoin(
      {"CREATE TABLE emp (id INT PRIMARY KEY, boss INT)",
       "INSERT INTO emp VALUES (1, NULL), (2, 1), (3, 2), (4, 2), (5, 4), "
       "(7, 8), (8, 7), (6, 99)"},
      "OUT OF top AS (SELECT * FROM emp WHERE boss IS NULL), staff AS emp, "
      "seed AS (RELATE top, staff WHERE top.id = staff.boss$X), "
      "manages AS (RELATE staff mgr, staff rpt WHERE mgr.id = rpt.boss$X) "
      "TAKE *");
}

TEST(NodeJoin, TakePrunedPartners) {
  // Only the key columns and the TAKE list are decoded; the node join must
  // read the real key values, not the pruned placeholders.
  for (const char* storage : {" USING row", " USING column"}) {
    ExpectNodeJoinMatchesTempJoin(
        {std::string("CREATE TABLE p (id INT PRIMARY KEY, k INT, s VARCHAR, "
                     "w INT)") + storage,
         std::string("CREATE TABLE c (id INT PRIMARY KEY, pk INT, "
                     "t VARCHAR)") + storage,
         "INSERT INTO p VALUES (1, 10, 'a', 5), (2, 20, 'b', 6), "
         "(3, 30, 'c', 7)",
         "INSERT INTO c VALUES (1, 10, 'x'), (2, 30, 'y'), (3, 10, 'z'), "
         "(4, 40, 'w')"},
        "OUT OF xp AS p, xc AS c, "
        "r AS (RELATE xp, xc WHERE xp.k = xc.pk$X) TAKE xp(id), r, xc(t)");
  }
}

TEST(NodeJoin, EmptyPartners) {
  const std::vector<std::string> setup = {
      "CREATE TABLE p (id INT PRIMARY KEY, k INT)",
      "CREATE TABLE c (id INT PRIMARY KEY, k INT)",
      "INSERT INTO p VALUES (1, 1), (2, 2)",
      "INSERT INTO c VALUES (1, 1), (2, 2)"};
  ExpectNodeJoinMatchesTempJoin(
      setup,
      "OUT OF xp AS (SELECT * FROM p WHERE id < 0), xc AS c, "
      "r AS (RELATE xp, xc WHERE xp.k = xc.k$X) TAKE *");
  ExpectNodeJoinMatchesTempJoin(
      setup,
      "OUT OF xp AS p, xc AS (SELECT * FROM c WHERE id < 0), "
      "r AS (RELATE xp, xc WHERE xp.k = xc.k$X) TAKE *");
}

TEST(NodeJoin, IneligibleShapesKeepTheTempJoin) {
  Database db;
  MustExecute(&db, R"sql(
    CREATE TABLE p (id INT PRIMARY KEY, k INT, s VARCHAR);
    CREATE TABLE c (id INT PRIMARY KEY, k INT, s VARCHAR);
    CREATE TABLE l (pid INT, cid INT);
    INSERT INTO p VALUES (1, 1, 'a'), (2, 2, 'b');
    INSERT INTO c VALUES (1, 1, '1'), (2, 2, 'b');
    INSERT INTO l VALUES (1, 2), (2, 1);
  )sql");
  const std::string nodes = "OUT OF xp AS p, xc AS c, ";
  int evaluated = 0;
  for (const std::string& rel : {
           // Link table.
           std::string("r AS (RELATE xp, xc USING l u "
                       "WHERE xp.id = u.pid AND xc.id = u.cid)"),
           // Theta predicate.
           std::string("r AS (RELATE xp, xc WHERE xp.k < xc.k)"),
           // Equality plus a residual conjunct.
           std::string("r AS (RELATE xp, xc WHERE xp.k = xc.k AND "
                       "xp.id <= xc.id)"),
           // Key expression instead of a column.
           std::string("r AS (RELATE xp, xc WHERE xp.k + 0 = xc.k)"),
           // Attributes.
           std::string("r AS (RELATE xp, xc WITH ATTRIBUTES xp.s AS ps "
                       "WHERE xp.k = xc.k)"),
           // Keys of different, non-numeric types.
           std::string("r AS (RELATE xp, xc WHERE xp.k = xc.s)"),
       }) {
    auto co = db.QueryCo(nodes + rel + " TAKE *");
    if (!co.ok()) continue;  // a type error is also not a node join
    ++evaluated;
    std::vector<std::string> access = EdgeAccess(db.last_xnf_stats());
    EXPECT_EQ(access, (std::vector<std::string>{"r:temp-join"})) << rel;
  }
  EXPECT_GE(evaluated, 5);
}

TEST(NodeJoin, ForeignKeyWriteProvenanceNeedsASingleKey) {
  Database db;
  MustExecute(&db, R"sql(
    CREATE TABLE p (id INT PRIMARY KEY, x INT);
    CREATE TABLE c (id INT PRIMARY KEY, pid INT, x INT);
    INSERT INTO p VALUES (1, 5);
    INSERT INTO c VALUES (1, 1, 5);
  )sql");
  ASSERT_OK_AND_ASSIGN(
      co::CoInstance one,
      db.QueryCo("OUT OF xp AS p, xc AS c, "
                 "r AS (RELATE xp, xc WHERE xc.pid = xp.id) TAKE *"));
  const co::CoRelInstance& fk = one.rels[0];
  EXPECT_EQ(fk.write_kind, co::CoRelInstance::WriteKind::kForeignKey);
  EXPECT_EQ(fk.fk_parent_column, 0);
  EXPECT_EQ(fk.fk_child_column, 1);

  ASSERT_OK_AND_ASSIGN(
      co::CoInstance two,
      db.QueryCo("OUT OF xp AS p, xc AS c, "
                 "r AS (RELATE xp, xc WHERE xc.pid = xp.id AND "
                 "xp.x = xc.x) TAKE *"));
  EXPECT_EQ(two.rels[0].connections.size(), 1u);
  EXPECT_EQ(two.rels[0].write_kind, co::CoRelInstance::WriteKind::kNone);
}

}  // namespace
}  // namespace xnf::testing
