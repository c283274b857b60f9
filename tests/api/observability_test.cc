// Observability: EXPLAIN / EXPLAIN ANALYZE rendering, per-operator
// counters, the XNF evaluation profile, the trace-sink pipeline spans, and
// buffer-pool fault/eviction accounting.

#include <map>
#include <string>
#include <vector>

#include "api/session.h"
#include "common/trace.h"
#include "gtest/gtest.h"
#include "test_util.h"
#include "xnf/cache.h"

namespace xnf::testing {
namespace {

std::string PlanText(Database* db, const std::string& stmt) {
  auto r = db->Query(stmt);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  if (!r.ok()) return "";
  std::string all;
  for (const Row& row : r->rows) all += row[0].AsString() + "\n";
  return all;
}

int FindSpan(const std::vector<CollectingTraceSink::Span>& spans,
             const std::string& name) {
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].name == name) return static_cast<int>(i);
  }
  return -1;
}

class Observability : public ::testing::Test {
 protected:
  void SetUp() override { CreateCompanyDb(&db_); }

  // The golden counter strings below (faults=0, no cols= marker) assume the
  // row layout; pin it so the SQLXNF_STORAGE=column CI lane doesn't reshape
  // the rendered plans.
  static Database::Options RowLayout() {
    Database::Options o;
    o.default_storage = StorageKind::kRow;
    return o;
  }
  Database db_{RowLayout()};
};

constexpr char kThreeWayJoin[] =
    "SELECT e.ename, d.dname, p.pname FROM EMP e, DEPT d, PROJ p "
    "WHERE e.edno = d.dno AND p.pdno = d.dno";

TEST_F(Observability, ExplainRendersOperatorTree) {
  // Golden rendering: labels, details, estimates, and indentation are all
  // deterministic (rule-based planner, crude deterministic estimates).
  std::string all = PlanText(&db_, std::string("EXPLAIN ") + kThreeWayJoin);
  EXPECT_NE(all.find("Project(q0.c1, q1.c1, q2.c1) ~6 rows\n"
                     "  HashJoin(keys=[q1.c0 = q2.c3]) ~6 rows\n"
                     "    IndexNLJoin(dept via dept_pk key=[q0.c4]) ~6 rows\n"
                     "      SeqScan(emp) ~6 rows\n"
                     "    SeqScan(proj) ~2 rows\n"),
            std::string::npos)
      << all;
  // The QGM dump and rewrite summary stay in front of the tree.
  EXPECT_NE(all.find("box 0 (root)"), std::string::npos);
  EXPECT_NE(all.find("view(s) merged"), std::string::npos);
  // Plain EXPLAIN carries no actual counters.
  EXPECT_EQ(all.find("[rows="), std::string::npos);
}

TEST_F(Observability, ExplainAnalyzeCountsJoinRows) {
  // Hand-computed per-operator cardinalities over CreateCompanyDb:
  //  - SeqScan(emp): all 6 employees;
  //  - IndexNLJoin(dept): e3 has NULL edno -> 5 matches;
  //  - SeqScan(proj): both projects;
  //  - HashJoin: each matched department owns exactly one project -> 5;
  //  - Project: 5 output rows.
  std::string all =
      PlanText(&db_, std::string("EXPLAIN ANALYZE ") + kThreeWayJoin);
  EXPECT_NE(all.find("SeqScan(emp) ~6 rows  "
                     "[rows=6 batches=1 opens=1 closes=1 faults=0 time="),
            std::string::npos)
      << all;
  EXPECT_NE(all.find("SeqScan(proj) ~2 rows  "
                     "[rows=2 batches=1 opens=1 closes=1 faults=0 time="),
            std::string::npos)
      << all;
  EXPECT_NE(all.find("IndexNLJoin(dept via dept_pk key=[q0.c4]) ~6 rows  "
                     "[rows=5 batches=1 opens=1 closes=1 faults=0 time="),
            std::string::npos)
      << all;
  EXPECT_NE(all.find("HashJoin(keys=[q1.c0 = q2.c3]) ~6 rows  "
                     "[rows=5 batches=1 opens=1 closes=1 faults=0 time="),
            std::string::npos)
      << all;
  EXPECT_NE(all.find("Project(q0.c1, q1.c1, q2.c1) ~6 rows  "
                     "[rows=5 batches=1 opens=1 closes=1 faults=0 time="),
            std::string::npos)
      << all;
  // ANALYZE actually ran the statement: the counters land on the database.
  EXPECT_EQ(db_.last_exec_stats().rows_produced, 5u);
}

constexpr char kXnfQuery[] =
    "OUT OF Xdept AS (SELECT * FROM DEPT WHERE loc = 'NY'), "
    "Xemp AS (SELECT * FROM EMP), "
    "employment AS (RELATE Xdept, Xemp WHERE Xdept.dno = Xemp.edno) "
    "TAKE *";

TEST_F(Observability, ExplainXnfShowsSchemaGraph) {
  std::string all = PlanText(&db_, std::string("EXPLAIN ") + kXnfQuery);
  EXPECT_NE(all.find("composite object:"), std::string::npos);
  EXPECT_NE(all.find("node xdept (query)"), std::string::npos);
  EXPECT_NE(all.find("node xemp (query)"), std::string::npos);
  EXPECT_NE(all.find("edge employment: xdept -> xemp"), std::string::npos);
}

TEST_F(Observability, ExplainAnalyzeXnfProfilesDerivedQueries) {
  // Hand-computed: 2 NY departments (d1, d3); 6 employee candidates; the
  // edge query yields 2 connections (e1, e2 in d1; d3 is empty), and
  // reachability then prunes Xemp down to those 2 employees.
  std::string all =
      PlanText(&db_, std::string("EXPLAIN ANALYZE ") + kXnfQuery);
  EXPECT_NE(all.find("node xdept access=scan rows=2 time="),
            std::string::npos)
      << all;
  EXPECT_NE(all.find("node xemp access=scan rows=6 time="), std::string::npos)
      << all;
  EXPECT_NE(all.find("edge employment access=node-join rows=2 time="),
            std::string::npos)
      << all;
  EXPECT_NE(all.find("queries: 2 node, 1 edge"), std::string::npos) << all;
  EXPECT_NE(all.find("cse: 2 hit(s), 0 miss(es), 2 temp reuse(s)"),
            std::string::npos)
      << all;
  EXPECT_NE(all.find("reachability passes: 1"), std::string::npos) << all;
  EXPECT_NE(all.find("xdept: 2 tuple(s)"), std::string::npos) << all;
  EXPECT_NE(all.find("xemp: 2 tuple(s)"), std::string::npos) << all;
  EXPECT_NE(all.find("employment: 2 connection(s)"), std::string::npos)
      << all;
}

TEST_F(Observability, CseCountersSplitHitAndMiss) {
  ASSERT_OK_AND_ASSIGN(co::CoInstance with_cse, db_.QueryCo(kXnfQuery));
  (void)with_cse;
  EXPECT_EQ(db_.last_xnf_stats().cse_hits, 2);
  EXPECT_EQ(db_.last_xnf_stats().cse_misses, 0);

  co::Evaluator::Options no_cse;
  no_cse.use_cse = false;
  db_.set_xnf_options(no_cse);
  ASSERT_OK_AND_ASSIGN(co::CoInstance without, db_.QueryCo(kXnfQuery));
  (void)without;
  EXPECT_EQ(db_.last_xnf_stats().cse_hits, 0);
  EXPECT_EQ(db_.last_xnf_stats().cse_misses, 2);
}

TEST_F(Observability, TraceSinkCapturesSqlPipeline) {
  CollectingTraceSink sink;
  db_.set_trace_sink(&sink);
  ASSERT_OK_AND_ASSIGN(ResultSet rs, db_.Query(kThreeWayJoin));
  EXPECT_EQ(rs.rows.size(), 5u);
  db_.set_trace_sink(nullptr);

  const auto& spans = sink.spans();
  int statement = FindSpan(spans, "statement");
  ASSERT_GE(statement, 0);
  EXPECT_EQ(spans[statement].depth, 0);
  for (const char* name :
       {"parse", "qgm-build", "rewrite", "plan", "execute"}) {
    int i = FindSpan(spans, name);
    ASSERT_GE(i, 0) << "missing span " << name << "\n" << sink.ToString();
    EXPECT_EQ(spans[i].depth, 1) << name;
    EXPECT_EQ(spans[i].parent, statement) << name;
    EXPECT_TRUE(spans[i].closed) << name;
  }
  // Pipeline order: parse before build before rewrite before plan before
  // execute.
  EXPECT_LT(FindSpan(spans, "parse"), FindSpan(spans, "qgm-build"));
  EXPECT_LT(FindSpan(spans, "qgm-build"), FindSpan(spans, "rewrite"));
  EXPECT_LT(FindSpan(spans, "rewrite"), FindSpan(spans, "plan"));
  EXPECT_LT(FindSpan(spans, "plan"), FindSpan(spans, "execute"));
  // The timeline renderer indents children under the statement span.
  EXPECT_NE(sink.ToString().find("\n  execute"), std::string::npos);
}

// INSERT / UPDATE / DELETE run under an `execute` span after their parse,
// so their work is attributed instead of falling between spans.
TEST_F(Observability, TraceSinkCapturesDmlExecute) {
  for (const char* stmt :
       {"INSERT INTO dept VALUES (9, 'ops', 'LA', 1, NULL)",
        "UPDATE emp SET sal = sal + 1 WHERE eno = 1",
        "DELETE FROM dept WHERE dno = 9"}) {
    CollectingTraceSink sink;
    db_.set_trace_sink(&sink);
    ASSERT_OK_AND_ASSIGN(ExecResult r, db_.Execute(stmt));
    db_.set_trace_sink(nullptr);
    EXPECT_EQ(r.affected, 1) << stmt;
    const auto& spans = sink.spans();
    int statement = FindSpan(spans, "statement");
    int execute = FindSpan(spans, "execute");
    ASSERT_GE(statement, 0) << stmt;
    ASSERT_GE(execute, 0) << stmt << "\n" << sink.ToString();
    EXPECT_EQ(spans[execute].parent, statement) << stmt;
    EXPECT_EQ(spans[execute].depth, 1) << stmt;
    EXPECT_TRUE(spans[execute].closed) << stmt;
    EXPECT_LT(FindSpan(spans, "parse"), execute) << stmt;
  }
}

TEST_F(Observability, TraceSinkCapturesXnfPhases) {
  CollectingTraceSink sink;
  db_.set_trace_sink(&sink);
  auto r = db_.Execute(kXnfQuery);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  db_.set_trace_sink(nullptr);

  const auto& spans = sink.spans();
  int statement = FindSpan(spans, "statement");
  ASSERT_GE(statement, 0);
  for (const char* name : {"parse", "resolve", "materialize-nodes",
                           "cse-temps", "materialize-edges", "reachability"}) {
    int i = FindSpan(spans, name);
    ASSERT_GE(i, 0) << "missing span " << name << "\n" << sink.ToString();
    EXPECT_TRUE(spans[i].closed) << name;
    EXPECT_GT(spans[i].depth, 0) << name;
  }
}

TEST_F(Observability, TraceSinkCapturesXnfPhasesUnderOpenCo) {
  CollectingTraceSink sink;
  db_.set_trace_sink(&sink);
  auto cache = db_.OpenCo(kXnfQuery);
  db_.set_trace_sink(nullptr);
  ASSERT_TRUE(cache.ok()) << cache.status().ToString();

  const auto& spans = sink.spans();
  for (const char* name : {"resolve", "materialize-nodes", "materialize-edges",
                           "reachability"}) {
    int i = FindSpan(spans, name);
    ASSERT_GE(i, 0) << "missing span " << name << "\n" << sink.ToString();
    EXPECT_TRUE(spans[i].closed) << name;
  }
}

TEST_F(Observability, PerOperatorStatsOffByDefault) {
  ASSERT_OK_AND_ASSIGN(ResultSet rs, db_.Query("SELECT * FROM EMP"));
  EXPECT_EQ(rs.rows.size(), 6u);
  EXPECT_TRUE(db_.last_plan_profile().empty());

  db_.set_collect_exec_stats(true);
  ASSERT_OK_AND_ASSIGN(ResultSet again, db_.Query("SELECT * FROM EMP"));
  EXPECT_EQ(again.rows.size(), 6u);
  EXPECT_NE(db_.last_plan_profile().find("SeqScan(emp)"), std::string::npos);
  EXPECT_NE(db_.last_plan_profile().find("[rows=6"), std::string::npos);
}

TEST_F(Observability, PreparedQueryUpdatesDatabaseStats) {
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<PreparedQuery> q,
                       db_.Prepare("SELECT ename FROM EMP WHERE edno = ?"));
  ASSERT_OK_AND_ASSIGN(ResultSet rs, q->Execute({Value::Int(2)}));
  EXPECT_EQ(rs.rows.size(), 3u);
  // The database-level counters reflect the prepared execution, same as
  // statements run through Execute().
  EXPECT_EQ(db_.last_exec_stats().rows_produced, 3u);
  EXPECT_EQ(db_.last_exec_stats().batches_produced, 1u);

  // And per-operator collection applies to prepared queries too.
  db_.set_collect_exec_stats(true);
  ASSERT_OK_AND_ASSIGN(ResultSet rs2, q->Execute({Value::Int(1)}));
  EXPECT_EQ(rs2.rows.size(), 2u);
  EXPECT_NE(db_.last_plan_profile().find("[rows="), std::string::npos);
}

// Statement cache: a compile (a miss) emits the parse / qgm-build /
// rewrite / plan spans; a hit runs the cached plan, so only execute shows.
TEST_F(Observability, CompileSpansOnMissOnly) {
  const std::string miss_text = "SELECT ename FROM EMP WHERE edno = 1";
  const std::string hit_text = "SELECT ename FROM EMP WHERE edno = 2";
  CollectingTraceSink sink;
  db_.set_trace_sink(&sink);
  ASSERT_OK(db_.Query(miss_text).status());
  for (const char* name : {"parse", "qgm-build", "rewrite", "plan"}) {
    EXPECT_GE(FindSpan(sink.spans(), name), 0) << name << "\n"
                                               << sink.ToString();
  }
  sink.Clear();
  ASSERT_OK(db_.Query(hit_text).status());
  for (const char* name : {"parse", "qgm-build", "rewrite", "plan"}) {
    EXPECT_LT(FindSpan(sink.spans(), name), 0) << name << "\n"
                                               << sink.ToString();
  }
  EXPECT_GE(FindSpan(sink.spans(), "execute"), 0) << sink.ToString();

  // XNF: the miss parses, resolves and compiles; the hit only runs.
  sink.Clear();
  ASSERT_OK(db_.Execute(kXnfQuery).status());
  for (const char* name : {"parse", "resolve", "qgm-build"}) {
    EXPECT_GE(FindSpan(sink.spans(), name), 0) << name << "\n"
                                               << sink.ToString();
  }
  sink.Clear();
  ASSERT_OK(db_.Execute(kXnfQuery).status());
  for (const char* name : {"parse", "resolve", "qgm-build"}) {
    EXPECT_LT(FindSpan(sink.spans(), name), 0) << name << "\n"
                                               << sink.ToString();
  }
  EXPECT_GE(FindSpan(sink.spans(), "materialize-nodes"), 0);
  db_.set_trace_sink(nullptr);
}

// Explicit compiles trace too: Database::Prepare, the first QueryPrepared
// of a text, and PrepareCo.
TEST_F(Observability, PrepareEmitsCompileSpans) {
  CollectingTraceSink sink;
  db_.set_trace_sink(&sink);
  ASSERT_OK(db_.Prepare("SELECT ename FROM EMP WHERE edno = ?").status());
  for (const char* name : {"parse", "qgm-build", "rewrite", "plan"}) {
    EXPECT_GE(FindSpan(sink.spans(), name), 0) << name << "\n"
                                               << sink.ToString();
  }
  sink.Clear();
  auto session = db_.OpenSession();
  ASSERT_OK(session->QueryPrepared("SELECT eno FROM EMP WHERE edno = ?",
                                   {Value::Int(1)})
                .status());
  EXPECT_GE(FindSpan(sink.spans(), "plan"), 0) << sink.ToString();
  sink.Clear();
  ASSERT_OK(session->QueryPrepared("SELECT eno FROM EMP WHERE edno = ?",
                                   {Value::Int(2)})
                .status());
  EXPECT_LT(FindSpan(sink.spans(), "plan"), 0) << sink.ToString();
  EXPECT_GE(FindSpan(sink.spans(), "execute"), 0) << sink.ToString();
  sink.Clear();
  ASSERT_OK(db_.PrepareCo(
                   "OUT OF d AS (SELECT * FROM DEPT WHERE dno = ?), "
                   "e AS EMP, emp AS (RELATE d, e WHERE d.dno = e.edno) "
                   "TAKE *")
                .status());
  for (const char* name : {"parse", "resolve", "qgm-build"}) {
    EXPECT_GE(FindSpan(sink.spans(), name), 0) << name << "\n"
                                               << sink.ToString();
  }
  db_.set_trace_sink(nullptr);
}

// The plan_cache.* counters are visible in sqlxnf_metrics from the start and
// count hits, misses, invalidations (DDL) and evictions.
TEST_F(Observability, PlanCacheCountersInSqlxnfMetrics) {
  auto counters = [&]() {
    std::map<std::string, int64_t> out;
    auto rs = db_.Query(
        "SELECT name, value FROM sqlxnf_metrics WHERE kind = 'counter'");
    EXPECT_TRUE(rs.ok()) << rs.status().ToString();
    if (!rs.ok()) return out;
    for (const Row& row : rs->rows) {
      const std::string name = row[0].AsString();
      if (name.rfind("plan_cache.", 0) == 0) out[name] = row[1].AsInt();
    }
    return out;
  };
  std::map<std::string, int64_t> before = counters();
  ASSERT_EQ(before.size(), 4u);
  for (const char* name : {"plan_cache.hits", "plan_cache.misses",
                           "plan_cache.invalidations",
                           "plan_cache.evictions"}) {
    EXPECT_EQ(before.count(name), 1u) << name;
  }
  ASSERT_OK(db_.Query("SELECT ename FROM EMP WHERE edno = 1").status());
  ASSERT_OK(db_.Query("SELECT ename FROM EMP WHERE edno = 2").status());
  MustExecute(&db_, "CREATE INDEX emp_edno ON EMP (edno)");
  ASSERT_OK(db_.Query("SELECT ename FROM EMP WHERE edno = 3").status());
  std::map<std::string, int64_t> after = counters();
  // edno = 1 misses, edno = 2 hits; after the CREATE INDEX both edno = 3
  // and the counter query itself (its lookup precedes its read) find
  // entries of the old catalog version: two invalidations, each a miss.
  EXPECT_EQ(after["plan_cache.hits"] - before["plan_cache.hits"], 1);
  EXPECT_EQ(after["plan_cache.misses"] - before["plan_cache.misses"], 3);
  EXPECT_EQ(after["plan_cache.invalidations"] -
                before["plan_cache.invalidations"],
            2);
  EXPECT_EQ(after["plan_cache.evictions"], 0);
}

TEST(ObservabilityBufferPool, EvictionsCountedSeparatelyFromFaults) {
  // A 2-page pool over a 40-page heap (or three 16-row column groups under
  // a columnar default): scanning must evict.
  Database::Options opts;
  opts.buffer_pool_pages = 2;
  opts.tuples_per_page = 1;
  Database db(opts);
  MustExecute(&db, "CREATE TABLE t (a INT)");
  for (int i = 0; i < 40; ++i) {
    MustExecute(&db, "INSERT INTO t VALUES (" + std::to_string(i) + ")");
  }
  EXPECT_GT(db.catalog()->GetTable("t")->storage->page_count(),
            opts.buffer_pool_pages);
  ASSERT_OK_AND_ASSIGN(ResultSet rs, db.Query("SELECT * FROM t"));
  EXPECT_EQ(rs.rows.size(), 40u);
  EXPECT_GT(rs.stats.buffer_pool_evictions, 0u);
  EXPECT_GE(rs.stats.buffer_pool_faults, rs.stats.buffer_pool_evictions);
  EXPECT_EQ(db.last_exec_stats().buffer_pool_evictions,
            rs.stats.buffer_pool_evictions);

  // An unbounded pool never evicts, however often it faults.
  Database unbounded;
  MustExecute(&unbounded, "CREATE TABLE t (a INT)");
  for (int i = 0; i < 40; ++i) {
    MustExecute(&unbounded,
                "INSERT INTO t VALUES (" + std::to_string(i) + ")");
  }
  ASSERT_OK_AND_ASSIGN(ResultSet rs2, unbounded.Query("SELECT * FROM t"));
  EXPECT_EQ(rs2.stats.buffer_pool_evictions, 0u);
  EXPECT_EQ(unbounded.buffer_pool()->evictions(), 0u);
}

}  // namespace
}  // namespace xnf::testing
