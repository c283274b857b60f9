// The per-session statement cache: SELECT and OUT OF ... TAKE compile once
// per shape and rerun the plan with the text's literals bound. A hit must be
// indistinguishable from a miss (rows, CO instance, XNF stats, per-operator
// profile), DDL and evaluator options must invalidate, the cache stays
// within its bound, and prepared plans survive DROP + CREATE correctly.

#include "api/statement_cache.h"

#include <regex>
#include <string>
#include <vector>

#include "api/session.h"
#include "gtest/gtest.h"
#include "test_util.h"
#include "xnf/cache.h"

namespace xnf::testing {
namespace {

uint64_t CounterValue(Database* db, const std::string& name) {
  for (const auto& s : db->metrics()->Snapshot()) {
    if (s.name == name) return static_cast<uint64_t>(s.value);
  }
  return 0;
}

// The rendered per-operator profile of the last SELECT, times stripped.
std::string Profile(Database* db) {
  return std::regex_replace(db->last_plan_profile(),
                            std::regex(" time=[0-9.]+us"), "");
}

std::vector<std::string> Rendered(const ResultSet& rs) {
  std::vector<std::string> out;
  for (const Row& row : rs.rows) out.push_back(RowToString(row));
  return out;
}

std::vector<std::string> Accesses(const Database& db) {
  std::vector<std::string> out;
  for (const auto& p : db.last_xnf_stats().profiles) {
    out.push_back(p.name + ":" + p.access + ":" + std::to_string(p.rows));
  }
  return out;
}

class StatementCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    MustExecute(&db_,
                "CREATE TABLE t (a INT, b INT);"
                "INSERT INTO t VALUES (1, 10), (2, 20), (3, 30);");
  }
  uint64_t Hits() { return CounterValue(&db_, "plan_cache.hits"); }
  uint64_t Misses() { return CounterValue(&db_, "plan_cache.misses"); }
  uint64_t Invalidations() {
    return CounterValue(&db_, "plan_cache.invalidations");
  }

  Database db_;
};

TEST_F(StatementCacheTest, LiteralsInSafePositionsShareOnePlan) {
  const uint64_t h0 = Hits(), m0 = Misses();
  for (int a = 1; a <= 3; ++a) {
    ASSERT_OK_AND_ASSIGN(ResultSet rs,
                         db_.Query("SELECT b FROM t WHERE a = " +
                                   std::to_string(a)));
    EXPECT_EQ(IntColumn(rs, 0), std::vector<int64_t>{10 * a});
  }
  EXPECT_EQ(Misses() - m0, 1u);
  EXPECT_EQ(Hits() - h0, 2u);
  // 2.0 is another shape: a DOUBLE literal.
  ASSERT_OK_AND_ASSIGN(ResultSet rs,
                       db_.Query("SELECT b FROM t WHERE a = 2.0"));
  EXPECT_EQ(IntColumn(rs, 0), std::vector<int64_t>{20});
  EXPECT_EQ(Misses() - m0, 2u);
}

TEST_F(StatementCacheTest, BakedLiteralsMissWhenTheyChange) {
  // Select-list literals (and the column name they give), ORDER BY
  // ordinals, LIMIT, IN lists and arithmetic operands are baked into the
  // plan.
  ASSERT_OK_AND_ASSIGN(ResultSet one, db_.Query("SELECT 1 FROM t WHERE a = 1"));
  ASSERT_OK_AND_ASSIGN(ResultSet two, db_.Query("SELECT 2 FROM t WHERE a = 1"));
  EXPECT_EQ(IntColumn(one, 0), std::vector<int64_t>{1});
  EXPECT_EQ(IntColumn(two, 0), std::vector<int64_t>{2});
  EXPECT_EQ(one.schema.column(0).name, two.schema.column(0).name);

  ASSERT_OK_AND_ASSIGN(ResultSet by1,
                       db_.Query("SELECT a, b FROM t ORDER BY 1 DESC"));
  ASSERT_OK_AND_ASSIGN(ResultSet by2,
                       db_.Query("SELECT b, a FROM t ORDER BY 2 DESC"));
  EXPECT_EQ(IntColumn(by1, 0), (std::vector<int64_t>{3, 2, 1}));
  EXPECT_EQ(IntColumn(by2, 1), (std::vector<int64_t>{3, 2, 1}));
  ASSERT_OK_AND_ASSIGN(ResultSet desc1,
                       db_.Query("SELECT a FROM t ORDER BY 1 DESC"));
  auto bad = db_.Query("SELECT a FROM t ORDER BY 2 DESC");
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(IntColumn(desc1, 0), (std::vector<int64_t>{3, 2, 1}));

  ASSERT_OK_AND_ASSIGN(ResultSet l1, db_.Query("SELECT a FROM t LIMIT 1"));
  ASSERT_OK_AND_ASSIGN(ResultSet l2, db_.Query("SELECT a FROM t LIMIT 2"));
  EXPECT_EQ(l1.rows.size(), 1u);
  EXPECT_EQ(l2.rows.size(), 2u);

  ASSERT_OK_AND_ASSIGN(ResultSet in1,
                       db_.Query("SELECT a FROM t WHERE a IN (1, 2)"));
  ASSERT_OK_AND_ASSIGN(ResultSet in2,
                       db_.Query("SELECT a FROM t WHERE a IN (1, 3)"));
  EXPECT_EQ(IntColumn(in1, 0), (std::vector<int64_t>{1, 2}));
  EXPECT_EQ(IntColumn(in2, 0), (std::vector<int64_t>{1, 3}));
  ASSERT_OK_AND_ASSIGN(ResultSet arith1,
                       db_.Query("SELECT a FROM t WHERE b + 1 = 21"));
  EXPECT_EQ(IntColumn(arith1, 0), std::vector<int64_t>{2});
  ASSERT_OK_AND_ASSIGN(ResultSet arith2,
                       db_.Query("SELECT a FROM t WHERE b + 1 = 31"));
  EXPECT_EQ(IntColumn(arith2, 0), std::vector<int64_t>{3});
}

TEST_F(StatementCacheTest, CreateIndexInvalidatesAndFlipsToIndexLookup) {
  db_.set_collect_exec_stats(true);
  ASSERT_OK(db_.Query("SELECT b FROM t WHERE a = 1").status());
  ASSERT_OK(db_.Query("SELECT b FROM t WHERE a = 2").status());  // hit
  EXPECT_NE(Profile(&db_).find("SeqScan(t"), std::string::npos)
      << Profile(&db_);
  const uint64_t inv0 = Invalidations();
  MustExecute(&db_, "CREATE INDEX t_a ON t (a)");
  ASSERT_OK_AND_ASSIGN(ResultSet rs, db_.Query("SELECT b FROM t WHERE a = 3"));
  EXPECT_EQ(IntColumn(rs, 0), std::vector<int64_t>{30});
  EXPECT_EQ(Invalidations() - inv0, 1u);
  EXPECT_NE(Profile(&db_).find("IndexLookup"), std::string::npos)
      << Profile(&db_);
  ASSERT_OK(db_.Query("SELECT b FROM t WHERE a = 1").status());  // hit
  EXPECT_NE(Profile(&db_).find("IndexLookup"), std::string::npos);
}

TEST_F(StatementCacheTest, QueryPreparedGrowsTheCacheOncePerText) {
  auto session = db_.OpenSession();
  const size_t base = session->prepared_cache_size();
  for (int i = 0; i < 3; ++i) {
    ASSERT_OK(session
                  ->QueryPrepared("SELECT b FROM t WHERE a = ?",
                                  {Value::Int(i)})
                  .status());
    EXPECT_EQ(session->prepared_cache_size(), base + 1);
  }
}

TEST_F(StatementCacheTest, BoundedByCapacity) {
  auto session = db_.OpenSession();
  const size_t shapes = StatementCache::kCapacity + 10;
  const uint64_t ev0 = CounterValue(&db_, "plan_cache.evictions");
  for (size_t i = 0; i < shapes; ++i) {
    // A distinct alias per statement: a distinct shape.
    ASSERT_OK_AND_ASSIGN(ResultSet rs,
                         session->Query("SELECT b AS c" + std::to_string(i) +
                                        " FROM t WHERE a = 2"));
    EXPECT_EQ(IntColumn(rs, 0), std::vector<int64_t>{20});
    EXPECT_LE(session->prepared_cache_size(), StatementCache::kCapacity);
  }
  EXPECT_EQ(session->prepared_cache_size(), StatementCache::kCapacity);
  EXPECT_EQ(CounterValue(&db_, "plan_cache.evictions") - ev0, 10u);
  // The oldest shape was evicted: it recompiles and still answers right.
  const uint64_t m0 = Misses();
  ASSERT_OK_AND_ASSIGN(ResultSet again,
                       session->Query("SELECT b AS c0 FROM t WHERE a = 3"));
  EXPECT_EQ(IntColumn(again, 0), std::vector<int64_t>{30});
  EXPECT_EQ(Misses() - m0, 1u);
}

// Columnar and CLUSTER BY scans: a hit binds its parameters before the
// kernels compile, so it kernelizes and prunes exactly like a miss.
TEST(StatementCacheHitEqualsMiss, ColumnarKernelsAndClusterPruning) {
  Database db;
  MustExecute(&db,
              "CREATE TABLE c (a INT, g INT, s VARCHAR) USING column "
              "CLUSTER BY g");
  std::string insert = "INSERT INTO c VALUES ";
  for (int i = 0; i < 1024; ++i) {
    if (i > 0) insert += ", ";
    insert += "(" + std::to_string(i) + ", " + std::to_string(i % 8) + ", 's" +
              std::to_string(i % 5) + "')";
  }
  MustExecute(&db, insert);
  db.set_collect_exec_stats(true);
  for (const char* shape :
       {"SELECT a FROM c WHERE g = %d", "SELECT a FROM c WHERE s = 's%d'",
        "SELECT COUNT(*) FROM c WHERE g = %d AND a > 100"}) {
    char miss_text[128], hit_text[128];
    std::snprintf(miss_text, sizeof(miss_text), shape, 3);
    std::snprintf(hit_text, sizeof(hit_text), shape, 3);
    // Miss on a fresh session, then a hit of the same text.
    auto session = db.OpenSession();
    ASSERT_OK_AND_ASSIGN(ResultSet miss, session->Query(miss_text));
    const std::string miss_profile = Profile(&db);
    ASSERT_OK_AND_ASSIGN(ResultSet hit, session->Query(hit_text));
    EXPECT_EQ(Profile(&db), miss_profile) << shape;
    EXPECT_EQ(Rendered(hit), Rendered(miss));
    // Every pushed filter kernelized, parameters included.
    int kernels = 0, pushed = 0;
    auto kpos = miss_profile.find("kernel=");
    ASSERT_NE(kpos, std::string::npos) << miss_profile;
    ASSERT_EQ(std::sscanf(miss_profile.c_str() + kpos, "kernel=%d/%d",
                          &kernels, &pushed),
              2);
    EXPECT_GT(kernels, 0) << miss_profile;
    EXPECT_EQ(kernels, pushed) << miss_profile;
    // A hit with other values matches a fresh compile of its text.
    std::snprintf(hit_text, sizeof(hit_text), shape, 4);
    ASSERT_OK_AND_ASSIGN(ResultSet other_hit, session->Query(hit_text));
    const std::string hit_profile = Profile(&db);
    auto fresh = db.OpenSession();
    ASSERT_OK_AND_ASSIGN(ResultSet other_miss, fresh->Query(hit_text));
    EXPECT_EQ(Profile(&db), hit_profile) << shape;
    EXPECT_EQ(Rendered(other_hit), Rendered(other_miss));
  }
  // The clustered scan pruned on the hit too.
  auto session = db.OpenSession();
  ASSERT_OK(session->Query("SELECT a FROM c WHERE g = 1").status());
  ASSERT_OK(session->Query("SELECT a FROM c WHERE g = 2").status());
  std::string profile = Profile(&db);
  int pruned = 0, total = 0;
  auto pos = profile.rfind("cluster=");
  ASSERT_NE(pos, std::string::npos) << profile;
  ASSERT_EQ(
      std::sscanf(profile.c_str() + pos, "cluster=%d/%d", &pruned, &total), 2);
  EXPECT_GT(pruned, 0) << profile;
}

constexpr char kCoShape[] =
    "OUT OF d AS (SELECT * FROM DEPT WHERE dno = %d), "
    "e AS (SELECT * FROM EMP WHERE sal > %d), "
    "employs AS (RELATE d, e WHERE d.dno = e.edno) TAKE *";

std::string CoText(int dno, int sal) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), kCoShape, dno, sal);
  return buf;
}

TEST(StatementCacheXnf, HitEqualsMissForCos) {
  Database db;
  CreateCompanyDb(&db);
  auto warm = db.OpenSession();
  for (const auto& [dno, sal] : std::vector<std::pair<int, int>>{
           {1, 0}, {1, 0}, {2, 1500}, {3, 100}}) {
    const std::string text = CoText(dno, sal);
    ASSERT_OK_AND_ASSIGN(ExecResult hit, warm->Execute(text));
    const std::vector<std::string> hit_access = Accesses(db);
    const co::Evaluator::Stats hit_stats = db.last_xnf_stats();
    auto cold = db.OpenSession();
    ASSERT_OK_AND_ASSIGN(ExecResult miss, cold->Execute(text));
    EXPECT_EQ(hit.co.ToString(), miss.co.ToString()) << text;
    EXPECT_EQ(Accesses(db), hit_access) << text;
    EXPECT_EQ(db.last_xnf_stats().node_queries, hit_stats.node_queries);
    EXPECT_EQ(db.last_xnf_stats().edge_queries, hit_stats.edge_queries);
    EXPECT_EQ(db.last_xnf_stats().rows_produced, hit_stats.rows_produced);
  }
  // The dept node answered through the index on every run.
  EXPECT_EQ(Accesses(db)[0].rfind("d:index:", 0), 0u) << Accesses(db)[0];
  EXPECT_GE(CounterValue(&db, "plan_cache.hits"), 3u);
  // The statement history records hits under the XNF kind.
  std::deque<Database::StatementProfile> history = db.statement_history();
  ASSERT_FALSE(history.empty());
  EXPECT_EQ(history.back().kind, "xnf_take");
}

// A CO node over a USING column table filtered by a parameterized literal
// keeps its filter kernel on a hit (parameters are bound before the kernel
// compile), so a hit decodes and kernelizes exactly like a miss.
TEST(StatementCacheXnf, ColumnarNodeKeepsItsKernelOnAHit) {
  Database db;
  MustExecute(&db,
              "CREATE TABLE h (hid INT PRIMARY KEY, region INT) USING row;"
              "CREATE TABLE w (wid INT, hid INT, region INT, n0 INT, n1 INT) "
              "USING column;");
  std::string hdr = "INSERT INTO h VALUES ", wide = "INSERT INTO w VALUES ";
  for (int i = 0; i < 40; ++i) {
    hdr += std::string(i ? ", " : "") + "(" + std::to_string(i) + ", " +
           std::to_string(i % 4) + ")";
  }
  for (int i = 0; i < 800; ++i) {
    wide += std::string(i ? ", " : "") + "(" + std::to_string(i) + ", " +
            std::to_string(i % 40) + ", " + std::to_string(i % 4) + ", " +
            std::to_string(i) + ", 0)";
  }
  MustExecute(&db, hdr);
  MustExecute(&db, wide);
  auto kernel_invocations = [&]() {
    uint64_t total = 0;
    for (const auto& s : db.metrics()->Snapshot()) {
      if (s.name.rfind("kernel.", 0) == 0 &&
          s.name.size() > 12 &&
          s.name.compare(s.name.size() - 12, 12, ".invocations") == 0) {
        total += static_cast<uint64_t>(s.value);
      }
    }
    return total;
  };
  auto text = [](int region) {
    const std::string r = std::to_string(region);
    return "OUT OF h AS (SELECT * FROM h WHERE region = " + r +
           "), w AS (SELECT * FROM w WHERE region = " + r +
           "), lines AS (RELATE h, w WHERE h.hid = w.hid) "
           "TAKE h(hid), w(wid, hid, n0), lines";
  };
  for (int region : {1, 2}) {
    auto cold = db.OpenSession();
    const uint64_t k0 = kernel_invocations();
    ASSERT_OK_AND_ASSIGN(ExecResult miss, cold->Execute(text(region)));
    const uint64_t miss_kernels = kernel_invocations() - k0;
    const co::Evaluator::Stats miss_stats = db.last_xnf_stats();
    ASSERT_OK_AND_ASSIGN(ExecResult hit, cold->Execute(text(region)));
    EXPECT_GT(miss_kernels, 0u);
    EXPECT_EQ(kernel_invocations() - k0 - miss_kernels, miss_kernels);
    EXPECT_EQ(hit.co.ToString(), miss.co.ToString());
    EXPECT_EQ(db.last_xnf_stats().scan_columns_decoded,
              miss_stats.scan_columns_decoded);
    EXPECT_EQ(db.last_xnf_stats().scan_columns_skipped,
              miss_stats.scan_columns_skipped);
    EXPECT_GT(miss_stats.scan_columns_skipped, 0u);
  }
}

// A cached CO over a system view reads the view's snapshot of the running
// statement, not the one it was compiled in.
TEST(StatementCacheXnf, SystemViewNodesSeeTheirStatementsSnapshot) {
  Database db;
  MustExecute(&db, "CREATE TABLE t (a INT); INSERT INTO t VALUES (1)");
  const std::string text =
      "OUT OF s AS (SELECT name, rows FROM sqlxnf_storage WHERE name = 't') "
      "TAKE *";
  for (int64_t rows = 1; rows <= 3; ++rows) {
    ASSERT_OK_AND_ASSIGN(ExecResult r, db.Execute(text));
    ASSERT_EQ(r.co.nodes[0].tuples.size(), 1u);
    EXPECT_EQ(r.co.nodes[0].tuples[0][1].AsInt(), rows);
    MustExecute(&db, "INSERT INTO t VALUES (1)");
  }
}

TEST(StatementCacheXnf, EvaluatorOptionsInvalidate) {
  Database db;
  CreateCompanyDb(&db);
  const std::string text = CoText(1, 0);
  ASSERT_OK(db.Execute(text).status());
  ASSERT_OK(db.Execute(text).status());
  EXPECT_EQ(Accesses(db).back().rfind("employs:node-join:", 0), 0u)
      << Accesses(db).back();
  const uint64_t inv0 = CounterValue(&db, "plan_cache.invalidations");
  co::Evaluator::Options options;
  options.use_cse = false;
  db.set_xnf_options(options);
  ASSERT_OK(db.Execute(text).status());
  EXPECT_EQ(CounterValue(&db, "plan_cache.invalidations") - inv0, 1u);
  EXPECT_EQ(Accesses(db).back().rfind("employs:inline:", 0), 0u)
      << Accesses(db).back();
}

TEST(StatementCacheXnf, PrepareCoMatchesOpenCoWithLiterals) {
  Database db;
  CreateCompanyDb(&db);
  const std::string prepared_text =
      "OUT OF d AS (SELECT * FROM DEPT WHERE dno = ?), "
      "e AS (SELECT * FROM EMP WHERE sal > ?), "
      "employs AS (RELATE d, e WHERE d.dno = e.edno) TAKE *";
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<PreparedCo> prepared,
                       db.PrepareCo(prepared_text));
  for (const auto& [dno, sal] : std::vector<std::pair<int, int>>{
           {1, 0}, {2, 1500}, {9, 0}}) {
    ASSERT_OK_AND_ASSIGN(co::CoInstance bound,
                         prepared->Query({Value::Int(dno), Value::Int(sal)}));
    ASSERT_OK_AND_ASSIGN(co::CoInstance literal, db.QueryCo(CoText(dno, sal)));
    EXPECT_EQ(bound.ToString(), literal.ToString()) << dno;
    ASSERT_OK_AND_ASSIGN(auto cache,
                         prepared->Open({Value::Int(dno), Value::Int(sal)}));
    EXPECT_EQ(cache->node(0).live_count(), literal.nodes[0].tuples.size());
  }
  // DROP makes the next call recompile and fail cleanly.
  MustExecute(&db, "DROP TABLE EMPSKILL; DROP TABLE EMPPROJ; DROP TABLE EMP");
  auto dropped = prepared->Query({Value::Int(1), Value::Int(0)});
  ASSERT_FALSE(dropped.ok());
  EXPECT_EQ(dropped.status().code(), StatusCode::kNotFound)
      << dropped.status().ToString();
  EXPECT_FALSE(db.PrepareCo("OUT OF d AS DEPT DELETE *").ok());
}

}  // namespace
}  // namespace xnf::testing
