#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/failpoint.h"
#include "exec/operator.h"
#include "exec/parallel.h"
#include "gtest/gtest.h"
#include "test_util.h"

namespace xnf::testing {
namespace {

// Deterministic synthetic data large enough to cross the parallel-scan
// threshold (2 * kMinMorselPages pages) in either layout: 16-tuple heap
// pages, or the 256-row column groups that page size gives.
constexpr uint32_t kTuplesPerPage = 16;
constexpr int kBigRows = 4096;
constexpr int kDimRows = 3000;

int ValOf(int id) { return (id * 37) % 101; }
int GrpOf(int id) { return id % 50; }

std::unique_ptr<Database> MakeDb(int threads) {
  Database::Options options;
  options.threads = threads;
  options.tuples_per_page = kTuplesPerPage;
  auto db = std::make_unique<Database>(options);
  MustExecute(db.get(), "CREATE TABLE big (id INT, grp INT, val INT)");
  MustExecute(db.get(), "CREATE TABLE dim (grp INT, val INT)");
  auto insert_chunked = [&](const std::string& table, int rows,
                            const std::function<std::string(int)>& tuple) {
    for (int base = 0; base < rows; base += 500) {
      std::string stmt = "INSERT INTO " + table + " VALUES ";
      for (int i = base; i < std::min(rows, base + 500); ++i) {
        if (i != base) stmt += ",";
        stmt += tuple(i);
      }
      MustExecute(db.get(), stmt);
    }
  };
  insert_chunked("big", kBigRows, [](int i) {
    return "(" + std::to_string(i) + "," + std::to_string(GrpOf(i)) + "," +
           std::to_string(ValOf(i)) + ")";
  });
  insert_chunked("dim", kDimRows, [](int i) {
    return "(" + std::to_string(i % 50) + "," + std::to_string(ValOf(i)) +
           ")";
  });
  for (const char* table : {"big", "dim"}) {
    EXPECT_GE(db->catalog()->GetTable(table)->storage->page_count(),
              2 * exec::kMinMorselPages)
        << table;
  }
  return db;
}

std::string QueryText(Database* db, const std::string& sql) {
  auto rs = db->Query(sql);
  EXPECT_TRUE(rs.ok()) << rs.status().ToString();
  return rs.ok() ? rs->ToString() : std::string();
}

// Flattens an EXPLAIN [ANALYZE] result (one row per plan line) to a string.
std::string ExplainText(Database* db, const std::string& stmt) {
  auto result = db->Execute(stmt);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  std::string out;
  if (!result.ok()) return out;
  for (const Row& row : result->rows.rows) {
    out += row[0].AsString() + "\n";
  }
  return out;
}

TEST(ParallelExec, FilteredScanIdenticalAtAnyDop) {
  // No ORDER BY: the morsel-order merge must reproduce the serial scan
  // order exactly, so results are compared row-for-row, unsorted.
  auto serial = MakeDb(1);
  std::string expected =
      QueryText(serial.get(), "SELECT id, val FROM big WHERE val > 50");
  int expected_rows = 0;
  for (int i = 0; i < kBigRows; ++i) {
    if (ValOf(i) > 50) ++expected_rows;
  }
  ASSERT_GT(expected_rows, 0);
  for (int dop : {2, 8}) {
    auto db = MakeDb(dop);
    EXPECT_EQ(QueryText(db.get(), "SELECT id, val FROM big WHERE val > 50"),
              expected)
        << "dop=" << dop;
  }
}

TEST(ParallelExec, HashJoinIdenticalAtAnyDop) {
  const std::string sql =
      "SELECT b.id, b.val, d.val FROM big b, dim d "
      "WHERE b.grp = d.grp AND b.val > 90 AND d.val > 95";
  auto serial = MakeDb(1);
  std::string expected = QueryText(serial.get(), sql);
  ASSERT_FALSE(expected.empty());
  for (int dop : {2, 8}) {
    auto db = MakeDb(dop);
    EXPECT_EQ(QueryText(db.get(), sql), expected) << "dop=" << dop;
  }
}

TEST(ParallelExec, AggregationOverParallelScanIdenticalAtAnyDop) {
  const std::string sql =
      "SELECT grp, COUNT(*), SUM(val) FROM big GROUP BY grp ORDER BY grp";
  auto serial = MakeDb(1);
  std::string expected = QueryText(serial.get(), sql);
  for (int dop : {2, 8}) {
    auto db = MakeDb(dop);
    EXPECT_EQ(QueryText(db.get(), sql), expected) << "dop=" << dop;
  }
}

TEST(ParallelExec, PreparedQueryIdenticalAcrossThreadSettings) {
  const std::string sql = "SELECT id, val FROM big WHERE val > ? AND grp = ?";
  auto serial = MakeDb(1);
  auto parallel = MakeDb(8);
  ASSERT_OK_AND_ASSIGN(auto p1, serial->Prepare(sql));
  ASSERT_OK_AND_ASSIGN(auto p8, parallel->Prepare(sql));
  for (int64_t grp : {0, 7, 49}) {
    std::vector<Value> params = {Value::Int(40), Value::Int(grp)};
    ASSERT_OK_AND_ASSIGN(ResultSet r1, p1->Execute(params));
    ASSERT_OK_AND_ASSIGN(ResultSet r8, p8->Execute(params));
    EXPECT_EQ(r1.ToString(), r8.ToString()) << "grp=" << grp;
  }
}

TEST(ParallelExec, SetThreadsSwapsThePoolBetweenQueries) {
  auto db = MakeDb(1);
  EXPECT_EQ(db->threads(), 1);
  std::string expected =
      QueryText(db.get(), "SELECT id FROM big WHERE val > 50");
  db->set_threads(8);
  EXPECT_EQ(db->threads(), 8);
  EXPECT_EQ(QueryText(db.get(), "SELECT id FROM big WHERE val > 50"),
            expected);
}

TEST(ParallelExec, XnfEvaluationIdenticalAtAnyDop) {
  // The instance (tuple order, connection order, profile order) and the
  // counter totals must not depend on the pool's DOP.
  const std::string xnf = R"(
      OUT OF Xdept AS DEPT, Xemp AS EMP, Xproj AS PROJ,
        employment AS (RELATE Xdept, Xemp WHERE Xdept.dno = Xemp.edno),
        ownership AS (RELATE Xdept, Xproj WHERE Xdept.dno = Xproj.pdno)
      TAKE *
    )";
  std::string expected;
  {
    Database::Options options;
    options.threads = 1;
    Database db(options);
    CreateCompanyDb(&db);
    ASSERT_OK_AND_ASSIGN(co::CoInstance instance, db.QueryCo(xnf));
    expected = instance.ToString();
    ASSERT_FALSE(expected.empty());
  }
  for (int dop : {2, 8}) {
    Database::Options options;
    options.threads = dop;
    Database db(options);
    CreateCompanyDb(&db);
    ASSERT_OK_AND_ASSIGN(co::CoInstance instance, db.QueryCo(xnf));
    EXPECT_EQ(instance.ToString(), expected) << "dop=" << dop;
    // Counter totals merge deterministically too.
    EXPECT_EQ(db.last_xnf_stats().node_queries, 3);
    EXPECT_EQ(db.last_xnf_stats().edge_queries, 2);
  }
}

// The same determinism over tables well past the morsel threshold: the
// company tables above fit in one page each, so there DOP 2 and 8 run the
// DOP-1 code. Here both nodes' candidate scans split into pool morsels
// (checked through the pool's dispatch counter), and the instance must
// still be byte-identical to DOP 1.
TEST(ParallelExec, XnfMorselScansIdenticalAtAnyDop) {
  const std::string xnf = R"(
      OUT OF xg AS (SELECT id, grp, val FROM big WHERE val > 50),
        xd AS (SELECT grp, val FROM dim WHERE val < 60),
        r AS (RELATE xg, xd WHERE xg.grp = xd.grp)
      TAKE *
    )";
  auto make_db = [](int threads) {
    Database::Options options;
    options.threads = threads;
    // Small pages put both tables past 2 * kMinMorselPages; the row layout
    // keeps the scans on the row morsel path under any SQLXNF_STORAGE.
    options.tuples_per_page = 16;
    options.default_storage = StorageKind::kRow;
    auto db = std::make_unique<Database>(options);
    MustExecute(db.get(), "CREATE TABLE big (id INT, grp INT, val INT)");
    MustExecute(db.get(), "CREATE TABLE dim (grp INT, val INT)");
    for (int base = 0; base < 1024; base += 512) {
      std::string big = "INSERT INTO big VALUES ";
      std::string dim = "INSERT INTO dim VALUES ";
      for (int i = base; i < base + 512; ++i) {
        if (i != base) big += ",";
        if (i != base) dim += ",";
        big += "(" + std::to_string(i) + "," + std::to_string(GrpOf(i)) +
               "," + std::to_string(ValOf(i)) + ")";
        dim += "(" + std::to_string(i % 50) + "," + std::to_string(ValOf(i)) +
               ")";
      }
      MustExecute(db.get(), big);
      MustExecute(db.get(), dim);
    }
    for (const char* table : {"big", "dim"}) {
      EXPECT_GE(db->catalog()->GetTable(table)->storage->page_count(),
                2 * exec::kMinMorselPages);
    }
    return db;
  };
  std::string expected;
  {
    auto db = make_db(1);
    ASSERT_OK_AND_ASSIGN(co::CoInstance instance, db->QueryCo(xnf));
    expected = instance.ToString();
    ASSERT_FALSE(instance.nodes[0].tuples.empty());
    ASSERT_FALSE(instance.rels[0].connections.empty());
  }
  for (int dop : {2, 8}) {
    auto db = make_db(dop);
    const Counter* dispatched =
        db->metrics()->counter("threadpool.tasks_dispatched");
    const uint64_t before = dispatched->value();
    ASSERT_OK_AND_ASSIGN(co::CoInstance instance, db->QueryCo(xnf));
    EXPECT_GT(dispatched->value(), before) << "dop=" << dop;
    EXPECT_EQ(instance.ToString(), expected) << "dop=" << dop;
  }
}

TEST(ParallelExec, ExplainAnalyzeReportsDopAndMergedCounters) {
  auto db = MakeDb(8);
  std::string plan = ExplainText(
      db.get(), "EXPLAIN ANALYZE SELECT id, val FROM big WHERE val > 50");
  // The scan ran parallel and says so.
  EXPECT_NE(plan.find("SeqScan"), std::string::npos) << plan;
  EXPECT_NE(plan.find("dop="), std::string::npos) << plan;
  // Worker-merged rows_out is the exact filtered total.
  int expected_rows = 0;
  for (int i = 0; i < kBigRows; ++i) {
    if (ValOf(i) > 50) ++expected_rows;
  }
  EXPECT_NE(plan.find("rows=" + std::to_string(expected_rows)),
            std::string::npos)
      << plan;

  // Serial execution never prints a dop marker (keeps existing output
  // stable).
  auto serial = MakeDb(1);
  std::string serial_plan = ExplainText(
      serial.get(), "EXPLAIN ANALYZE SELECT id, val FROM big WHERE val > 50");
  EXPECT_EQ(serial_plan.find("dop="), std::string::npos) << serial_plan;
}

TEST(ParallelExec, ExplainAnalyzeHashJoinBuildDop) {
  // Morsel scans are the only parallel operators: the join's build is a
  // serial streaming loop and reports no DOP, while the scans under it
  // (both tables well past the morsel threshold) still run parallel.
  auto db = MakeDb(8);
  std::string plan = ExplainText(
      db.get(),
      "EXPLAIN ANALYZE SELECT b.id FROM big b, dim d WHERE b.grp = d.grp");
  int joins = 0;
  int scans = 0;
  size_t begin = 0;
  while (begin < plan.size()) {
    size_t end = plan.find('\n', begin);
    const std::string line = plan.substr(begin, end - begin);
    begin = end + 1;
    const bool has_dop = line.find("dop=") != std::string::npos;
    if (line.find("HashJoin") != std::string::npos) {
      ++joins;
      EXPECT_FALSE(has_dop) << line;
    } else if (line.find("SeqScan") != std::string::npos) {
      ++scans;
      EXPECT_TRUE(has_dop) << line;
    }
  }
  EXPECT_EQ(joins, 1) << plan;
  EXPECT_EQ(scans, 2) << plan;
}

// Small tables: every derived XNF query and both join inputs stay below
// the morsel threshold, so nothing may dispatch a pool task even at DOP 4.
// Tasks that do dispatch fail on the armed `threadpool.task` failpoint.
std::unique_ptr<Database> MakeSmallDb(int threads) {
  Database::Options options;
  options.threads = threads;
  // Fits each join input into few pages; row layout keeps the join on its
  // row-mode build under any SQLXNF_STORAGE setting.
  options.tuples_per_page = 1024;
  options.default_storage = StorageKind::kRow;
  auto db = std::make_unique<Database>(options);
  CreateCompanyDb(db.get());
  MustExecute(db.get(), "CREATE TABLE l (id INT, k INT)");
  MustExecute(db.get(), "CREATE TABLE r (id INT, k INT)");
  for (const std::string table : {"l", "r"}) {
    for (int base = 0; base < 3 * static_cast<int>(exec::kBatchSize);
         base += 512) {
      std::string stmt = "INSERT INTO " + table + " VALUES ";
      for (int i = base; i < base + 512; ++i) {
        if (i != base) stmt += ",";
        stmt.append("(").append(std::to_string(i)).append(",");
        stmt.append(std::to_string(i % 97)).append(")");
      }
      MustExecute(db.get(), stmt);
    }
  }
  for (const std::string table : {"l", "r"}) {
    const TableInfo* info = db->catalog()->GetTable(table);
    EXPECT_GE(info->storage->live_count(), 2 * exec::kBatchSize);
    EXPECT_LT(info->storage->page_count(), 2 * exec::kMinMorselPages);
  }
  return db;
}

TEST(ParallelExec, XnfPhasesAndJoinBuildsNeverTouchThePool) {
  const std::string xnf = R"(
      OUT OF Xdept AS DEPT, Xemp AS EMP, Xproj AS PROJ, Xskill AS SKILLS,
        employment AS (RELATE Xdept, Xemp WHERE Xdept.dno = Xemp.edno),
        ownership AS (RELATE Xdept, Xproj WHERE Xdept.dno = Xproj.pdno),
        empskill AS (RELATE Xemp, Xskill USING EMPSKILL es
                     WHERE Xemp.eno = es.eseno AND es.essno = Xskill.sno)
      TAKE *
    )";
  const std::string join =
      "SELECT l.id, r.id FROM l, r WHERE l.k = r.k AND l.id < 300";
  std::string co_serial;
  std::string join_serial;
  {
    auto db = MakeSmallDb(1);
    ASSERT_OK_AND_ASSIGN(std::unique_ptr<co::CoCache> cache, db->OpenCo(xnf));
    co_serial = cache->Snapshot().ToString();
    join_serial = QueryText(db.get(), join);
  }
  ASSERT_FALSE(co_serial.empty());
  ASSERT_FALSE(join_serial.empty());

  auto db = MakeSmallDb(4);
  ASSERT_EQ(db->threads(), 4);
  ASSERT_OK(Failpoints::Enable("threadpool.task", "always"));
  auto cache = db->OpenCo(xnf);
  auto joined = db->Query(join);
  const uint64_t hits = Failpoints::hits("threadpool.task");
  Failpoints::DisableAll();
  EXPECT_EQ(hits, 0u);
  EXPECT_TRUE(cache.ok()) << cache.status().ToString();
  if (cache.ok()) {
    EXPECT_EQ((*cache)->Snapshot().ToString(), co_serial);
  }
  EXPECT_TRUE(joined.ok()) << joined.status().ToString();
  if (joined.ok()) {
    EXPECT_EQ(joined->ToString(), join_serial);
  }
}

}  // namespace
}  // namespace xnf::testing
