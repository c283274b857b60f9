// SUCH THAT restrictions (§3.3), qualified path steps (§3.5) and CO-level
// SET (§3.7) are SQL expressions over component tuples: they have the
// function set, static typing and errors of a subquery-free SQL WHERE /
// UPDATE ... SET, and may read every correlation in scope.

#include <set>
#include <string>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "test_util.h"
#include "xnf/cache.h"

namespace xnf::testing {
namespace {

class SuchThatSqlTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // A small hypertext: documents linked by references. Document 8 is an
    // index without links; 7 has NULL attributes; 6 links to itself.
    MustExecute(&db_, R"(
      CREATE TABLE doc (did INT PRIMARY KEY, title VARCHAR, kind VARCHAR,
                        words INT);
      CREATE TABLE link (src INT, dst INT);
      INSERT INTO doc VALUES
        (1, 'Home', 'index', 120), (2, 'XNF Tutorial', 'article', 2400),
        (3, 'CO Semantics', 'article', 3100), (4, 'API Reference', 'manual',
        8000), (6, 'Glossary', 'manual', 700), (7, NULL, NULL, NULL),
        (8, 'Orphans', 'index', 10);
      INSERT INTO link VALUES (1, 2), (1, 4), (2, 3), (2, 4), (3, 2), (3, 6),
        (4, 6), (6, 6);
      CREATE VIEW WEB AS
        OUT OF
          Root AS (SELECT * FROM doc WHERE kind = 'index'),
          Page AS (SELECT * FROM doc WHERE kind <> 'index'),
          entry AS (RELATE Root, Page USING link l
                    WHERE Root.did = l.src AND Page.did = l.dst),
          refs AS (RELATE Page a, Page b USING link l2
                   WHERE a.did = l2.src AND b.did = l2.dst)
        TAKE *;
    )");
  }

  // Sorted first-column values of node `name` in `co`.
  static std::vector<int64_t> Dids(const co::CoInstance& co,
                                   const std::string& name) {
    std::vector<int64_t> out;
    for (const Row& t : co.nodes[co.NodeIndex(name)].tuples) {
      out.push_back(t[0].AsInt());
    }
    return Sorted(out);
  }

  // Sorted (parent did, child did) pairs of relationship `name` in `co`.
  static std::vector<std::pair<int64_t, int64_t>> Pairs(
      const co::CoInstance& co, const std::string& name) {
    const co::CoRelInstance& rel = co.rels[co.RelIndex(name)];
    std::vector<std::pair<int64_t, int64_t>> out;
    for (const co::CoConnection& c : rel.connections) {
      out.emplace_back(co.nodes[rel.parent_node].tuples[c.parent][0].AsInt(),
                       co.nodes[rel.child_node].tuples[c.child][0].AsInt());
    }
    return Sorted(out);
  }

  Database db_;
};

TEST_F(SuchThatSqlTest, FunctionsMatchSqlWhere) {
  // COALESCE and SUBSTR were outside the old restriction dialect.
  for (const std::string pred :
       {"SUBSTR(d.title, 1, 3) = 'XNF'", "COALESCE(d.kind, 'none') = 'none'",
        "COALESCE(d.words, 0) < 1000 AND UPPER(d.kind) <> 'INDEX'",
        "ROUND(d.words / 1000) >= 3 OR TRIM(d.title) LIKE 'G%'"}) {
    SCOPED_TRACE(pred);
    ASSERT_OK_AND_ASSIGN(
        co::CoInstance co,
        db_.QueryCo("OUT OF Xdoc AS (SELECT * FROM doc) WHERE Xdoc d SUCH "
                    "THAT " + pred + " TAKE *"));
    ASSERT_OK_AND_ASSIGN(ResultSet rs,
                         db_.Query("SELECT did FROM doc d WHERE " + pred));
    EXPECT_EQ(Dids(co, "xdoc"), Sorted(IntColumn(rs, 0)));
  }
}

TEST_F(SuchThatSqlTest, CoSetFunctionsMatchSqlUpdate) {
  MustExecute(&db_, "CREATE TABLE twin (did INT PRIMARY KEY, title VARCHAR, "
                    "kind VARCHAR, words INT); "
                    "INSERT INTO twin SELECT * FROM doc;");
  const std::string set =
      "title = SUBSTR(COALESCE(title, 'untitled'), 1, 4), "
      "words = COALESCE(words, -1) + LENGTH(COALESCE(kind, ''))";
  ASSERT_OK(db_.Execute("OUT OF Xdoc AS doc UPDATE Xdoc SET " + set).status());
  ASSERT_OK(db_.Execute("UPDATE twin SET " + set).status());
  ASSERT_OK_AND_ASSIGN(ResultSet got, db_.Query("SELECT * FROM doc"));
  ASSERT_OK_AND_ASSIGN(ResultSet want, db_.Query("SELECT * FROM twin"));
  EXPECT_EQ(NormalizedRows(got), NormalizedRows(want));
  ASSERT_OK_AND_ASSIGN(ResultSet title,
                       db_.Query("SELECT title FROM doc WHERE did = 7"));
  EXPECT_EQ(StringColumn(title, 0), (std::vector<std::string>{"unti"}));
}

TEST_F(SuchThatSqlTest, CoSetPathsAreWalkedPerTuple) {
  // Out-degrees over refs: 2 -> {3, 4}, 3 -> {2, 6}, 4 -> {6}, 6 -> {6}; the
  // step predicate reads the assigned tuple's own correlation.
  ASSERT_OK(db_.Execute(R"(
    OUT OF WEB UPDATE Page SET words =
      CASE WHEN EXISTS page->refs->(Page q WHERE q.did = page.did) THEN -1
           ELSE COUNT(page->refs) END
  )").status());
  ASSERT_OK_AND_ASSIGN(
      ResultSet rs,
      db_.Query("SELECT did, words FROM doc WHERE did IN (2, 3, 4, 6)"));
  EXPECT_EQ(NormalizedRows(rs),
            (std::vector<std::string>{"(2, 2)", "(3, 2)", "(4, 1)",
                                      "(6, -1)"}));
}

TEST_F(SuchThatSqlTest, IllTypedPredicateFailsOverEmptyComponent) {
  // No tuple is ever evaluated: the error is the static one SQL reports.
  auto sql =
      db_.Query("SELECT did FROM doc d WHERE did < 0 AND d.title + 1 > 0");
  ASSERT_FALSE(sql.ok());
  auto co = db_.QueryCo(
      "OUT OF Xdoc AS (SELECT * FROM doc WHERE did < 0) "
      "WHERE Xdoc d SUCH THAT d.title + 1 > 0 TAKE *");
  ASSERT_FALSE(co.ok());
  EXPECT_EQ(co.status().code(), sql.status().code());
  EXPECT_EQ(co.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(SuchThatSqlTest, IllTypedAssignmentFailsOverEmptyComponent) {
  auto sql = db_.Execute("UPDATE doc SET words = title + 1 WHERE did < 0");
  ASSERT_FALSE(sql.ok());
  auto co = db_.Execute(
      "OUT OF Xdoc AS (SELECT * FROM doc WHERE did < 0) "
      "UPDATE Xdoc SET words = title + 1");
  ASSERT_FALSE(co.ok());
  EXPECT_EQ(co.status().code(), sql.status().code());
  EXPECT_EQ(co.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(SuchThatSqlTest, RelationshipRestrictionReadsBothCorrelations) {
  // refs connections (2,3), (2,4), (3,2), (3,6), (4,6), (6,6): only the two
  // leading to a longer document survive, and Glossary (6) then hangs off
  // nothing reachable.
  for (const std::string pred :
       {"a.words < b.words", "COALESCE(a.words, 0) * 1.0 < b.words"}) {
    SCOPED_TRACE(pred);
    ASSERT_OK_AND_ASSIGN(
        co::CoInstance co,
        db_.QueryCo("OUT OF WEB WHERE refs (a, b) SUCH THAT " + pred +
                    " TAKE *"));
    EXPECT_EQ(Pairs(co, "refs"),
              (std::vector<std::pair<int64_t, int64_t>>{{2, 3}, {2, 4}}));
    EXPECT_EQ(Dids(co, "page"), (std::vector<int64_t>{2, 3, 4}));
  }
}

TEST_F(SuchThatSqlTest, StepPredicateReadsOuterBinding) {
  // Every page refers to some page, but Glossary (6) only to itself. As in a
  // correlated SQL subquery, an unqualified name resolves in the step's own
  // tuple first, so `did` is q's.
  for (const std::string step : {"Page q WHERE q.did <> p.did",
                                 "Page q WHERE did <> p.did"}) {
    SCOPED_TRACE(step);
    ASSERT_OK_AND_ASSIGN(
        co::CoInstance co,
        db_.QueryCo("OUT OF WEB WHERE Page p SUCH THAT EXISTS p->refs->(" +
                    step + ") TAKE *"));
    EXPECT_EQ(Dids(co, "page"), (std::vector<int64_t>{2, 3, 4}));
  }
  // The outer reference resolves per tuple: a COUNT over the same step.
  ASSERT_OK_AND_ASSIGN(co::CoInstance counted, db_.QueryCo(R"(
    OUT OF WEB
    WHERE Page p SUCH THAT
      COUNT(p->refs->(Page q WHERE q.words > p.words)) >= 2
    TAKE *
  )"));
  EXPECT_EQ(Dids(counted, "page"), (std::vector<int64_t>{2}));
}

TEST_F(SuchThatSqlTest, UnknownStepColumnFailsAtOpenPathWithoutTuples) {
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<co::CoCache> cache,
                       db_.OpenCo("OUT OF WEB TAKE *"));
  co::Cursor roots(cache.get(), cache->NodeIndex("root"));
  bool positioned = false;
  while (!positioned && roots.Next()) {
    positioned = roots.values()[0].AsInt() == 8;  // the index without links
  }
  ASSERT_TRUE(positioned);
  ASSERT_OK_AND_ASSIGN(
      std::unique_ptr<co::DependentCursor> none,
      co::DependentCursor::OpenPath(&roots,
                                    "entry->(Page q WHERE q.words > 0)"));
  EXPECT_FALSE(none->Next());
  EXPECT_EQ(co::DependentCursor::OpenPath(
                &roots, "entry->(Page q WHERE q.nosuch > 0)")
                .status()
                .code(),
            StatusCode::kNotFound);
}

}  // namespace
}  // namespace xnf::testing
