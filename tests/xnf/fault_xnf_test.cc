// Fault injection across the XNF layer: a failed derived query must not
// poison the evaluator's CSE temp table, and a failed cache fill must never
// hand out a partially-wired CO.

#include "common/failpoint.h"
#include "gtest/gtest.h"
#include "test_util.h"
#include "xnf/cache.h"
#include "xnf/evaluator.h"

namespace xnf::testing {
namespace {

constexpr char kCoQuery[] =
    "OUT OF Xdept AS (SELECT * FROM DEPT WHERE loc = 'NY'), "
    "Xemp AS (SELECT * FROM EMP), "
    "employment AS (RELATE Xdept, Xemp WHERE Xdept.dno = Xemp.edno) "
    "TAKE *";

class XnfFault : public ::testing::Test {
 protected:
  void SetUp() override { CreateCompanyDb(&db_); }
  void TearDown() override { Failpoints::DisableAll(); }

  Database db_;
};

TEST_F(XnfFault, NodeQueryFaultPropagates) {
  ASSERT_OK(Failpoints::Enable("xnf.node.query", "nth(1)"));
  auto r = db_.QueryCo(kCoQuery);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kFaultInjected);
}

TEST_F(XnfFault, EdgeQueryFaultPropagates) {
  ASSERT_OK(Failpoints::Enable("xnf.edge.query", "nth(1)"));
  auto r = db_.QueryCo(kCoQuery);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kFaultInjected);
}

TEST_F(XnfFault, ReusedEvaluatorIsCleanAfterFailedEvaluation) {
  // Reference run on a fresh evaluator.
  co::Evaluator fresh(db_.catalog());
  ASSERT_OK_AND_ASSIGN(co::CoInstance expected, fresh.EvaluateText(kCoQuery));

  // Fail an evaluation mid-way (the second node query), then reuse the SAME
  // evaluator. The failed phase's CSE temps were discarded, so the retry
  // must produce the same instance and the same stats as the fresh run — a
  // stale temp would surface as a bogus temp_reuse or a wrong tuple set.
  co::Evaluator reused(db_.catalog());
  ASSERT_OK(Failpoints::Enable("xnf.node.query", "nth(2)"));
  auto failed = reused.EvaluateText(kCoQuery);
  ASSERT_FALSE(failed.ok());
  Failpoints::DisableAll();

  ASSERT_OK_AND_ASSIGN(co::CoInstance retry, reused.EvaluateText(kCoQuery));
  ASSERT_EQ(retry.nodes.size(), expected.nodes.size());
  for (size_t i = 0; i < retry.nodes.size(); ++i) {
    EXPECT_EQ(retry.nodes[i].tuples.size(), expected.nodes[i].tuples.size())
        << retry.nodes[i].name;
  }
  ASSERT_EQ(retry.rels.size(), expected.rels.size());
  for (size_t i = 0; i < retry.rels.size(); ++i) {
    EXPECT_EQ(retry.rels[i].connections.size(),
              expected.rels[i].connections.size())
        << retry.rels[i].name;
  }
  // The failed run died before the edge phase, so only the retry's temp
  // reuses are on the books — same count as one clean run.
  EXPECT_EQ(reused.stats().temp_reuses, fresh.stats().temp_reuses);
}

TEST_F(XnfFault, FailedEvaluationDoesNotPolluteStats) {
  // Serial evaluation merges per-query counters only for queries that
  // completed; a failed evaluation must not leave half-counted queries
  // behind that the *same* evaluator would then double-report.
  co::Evaluator fresh(db_.catalog());
  ASSERT_OK_AND_ASSIGN(co::CoInstance baseline, fresh.EvaluateText(kCoQuery));
  const int clean_nodes = fresh.stats().node_queries;
  const int clean_edges = fresh.stats().edge_queries;

  co::Evaluator reused(db_.catalog());
  ASSERT_OK(Failpoints::Enable("xnf.edge.query", "nth(1)"));
  auto failed = reused.EvaluateText(kCoQuery);
  ASSERT_FALSE(failed.ok());
  Failpoints::DisableAll();
  // The failed run completed its node queries but no edge query.
  EXPECT_EQ(reused.stats().node_queries, clean_nodes);
  EXPECT_EQ(reused.stats().edge_queries, 0);

  ASSERT_OK_AND_ASSIGN(co::CoInstance retry, reused.EvaluateText(kCoQuery));
  EXPECT_EQ(reused.stats().node_queries, 2 * clean_nodes);
  EXPECT_EQ(reused.stats().edge_queries, clean_edges);
}

TEST_F(XnfFault, FailedCacheFillDiscardsPartialCo) {
  // The first fill attempt dies after wiring one node; no cache object may
  // escape. The retry fills completely and navigation works.
  ASSERT_OK(Failpoints::Enable("cocache.fill", "nth(2)"));
  auto r = db_.OpenCo(kCoQuery);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kFaultInjected);
  Failpoints::DisableAll();

  ASSERT_OK_AND_ASSIGN(std::unique_ptr<co::CoCache> cache,
                       db_.OpenCo(kCoQuery));
  int xdept = cache->NodeIndex("xdept");
  int employment = cache->RelIndex("employment");
  ASSERT_GE(xdept, 0);
  ASSERT_GE(employment, 0);
  // Fully wired: every connection is reachable from its parent's bucket.
  size_t navigated = 0;
  for (const co::CoCache::Tuple& t : cache->node(xdept).tuples) {
    navigated += cache->Children(employment, t).size();
  }
  EXPECT_EQ(navigated, cache->rel(employment).connections.size());
  EXPECT_GT(navigated, 0u);
}

TEST_F(XnfFault, IndexFedNodeReadFaultDiscardsPartialCo) {
  // Both nodes are index-fed: d reads one row, e three, all through the
  // rid-list fetch, which still checks the layout's read failpoint once
  // per row (row tables override it, columnar ones loop Read). A fault at
  // any of the four rows fails OpenCo with no cache; the fifth hit never
  // comes, so that schedule opens the full CO. Tables pin their layout so
  // the default-storage lanes run both.
  for (const auto& [layout, site] :
       {std::pair<std::string, std::string>{"row", "heap.read"},
        {"column", "column.read"}}) {
    SCOPED_TRACE(layout);
    Database db;
    MustExecute(&db,
                "CREATE TABLE D (dno INT PRIMARY KEY, loc VARCHAR) USING " +
                    layout + ";" +
                    "CREATE TABLE E (eno INT PRIMARY KEY, edno INT) USING " +
                    layout + ";" +
                    "CREATE INDEX e_edno ON E (edno);"
                    "INSERT INTO D VALUES (1, 'NY'), (2, 'SF');"
                    "INSERT INTO E VALUES (1, 1), (2, 2), (3, 2), (4, 1), "
                    "(5, 2);");
    const std::string query =
        "OUT OF d AS (SELECT * FROM D WHERE dno = 2), "
        "e AS (SELECT * FROM E WHERE edno = 2), "
        "works AS (RELATE d, e WHERE d.dno = e.edno) TAKE *";
    for (int k = 1; k <= 4; ++k) {
      SCOPED_TRACE(site + " nth(" + std::to_string(k) + ")");
      ASSERT_OK(Failpoints::Enable(site, "nth(" + std::to_string(k) + ")"));
      auto r = db.OpenCo(query);
      Failpoints::DisableAll();
      ASSERT_FALSE(r.ok());
      EXPECT_EQ(r.status().code(), StatusCode::kFaultInjected);
    }
    ASSERT_OK(Failpoints::Enable(site, "nth(5)"));
    auto opened = db.OpenCo(query);
    Failpoints::DisableAll();
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    const co::CoCache& cache = **opened;
    EXPECT_EQ(cache.node(cache.NodeIndex("d")).live_count(), 1u);
    EXPECT_EQ(cache.node(cache.NodeIndex("e")).live_count(), 3u);
    EXPECT_EQ(cache.rel(cache.RelIndex("works")).live_count(), 3u);
  }
}

TEST_F(XnfFault, CoUpdateWriteThroughRollsBackOnFault) {
  // CO-level UPDATE writes through to EMP row by row; a fault on the third
  // row's apply must roll back the first two.
  ASSERT_OK(Failpoints::Enable("dml.apply.update", "nth(3)"));
  auto r = db_.Execute(
      "OUT OF Xemp AS (SELECT * FROM EMP) UPDATE Xemp SET sal = sal + 1");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kFaultInjected);
  Failpoints::DisableAll();
  ASSERT_OK_AND_ASSIGN(ResultSet rs,
                       db_.Query("SELECT sal FROM EMP ORDER BY eno"));
  EXPECT_EQ(IntColumn(rs, 0),
            (std::vector<int64_t>{1500, 2500, 1000, 1800, 2200, 900}));
}

TEST_F(XnfFault, CoDeleteRollsBackOnFault) {
  // CO DELETE removes link rows then component rows; fail part-way and
  // nothing may be missing afterwards.
  ASSERT_OK_AND_ASSIGN(ResultSet before,
                       db_.Query("SELECT COUNT(*) FROM EMP"));
  ASSERT_OK(Failpoints::Enable("dml.apply.delete", "nth(3)"));
  auto r = db_.Execute(
      "OUT OF Xdept AS (SELECT * FROM DEPT WHERE loc = 'NY'), "
      "Xemp AS (SELECT * FROM EMP), "
      "employment AS (RELATE Xdept, Xemp WHERE Xdept.dno = Xemp.edno) "
      "DELETE *");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kFaultInjected);
  Failpoints::DisableAll();
  ASSERT_OK_AND_ASSIGN(ResultSet after, db_.Query("SELECT COUNT(*) FROM EMP"));
  EXPECT_EQ(after.rows[0][0].AsInt(), before.rows[0][0].AsInt());
  ASSERT_OK_AND_ASSIGN(ResultSet depts, db_.Query("SELECT COUNT(*) FROM DEPT"));
  EXPECT_EQ(depts.rows[0][0].AsInt(), 3);
}

}  // namespace
}  // namespace xnf::testing
