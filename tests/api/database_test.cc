// The Database facade: statement dispatch, result kinds, scripts, EXPLAIN,
// and error reporting.

#include "api/session.h"
#include "gtest/gtest.h"
#include "test_util.h"

namespace xnf::testing {
namespace {

TEST(DatabaseApi, ResultKinds) {
  Database db;
  auto ddl = db.Execute("CREATE TABLE t (a INT)");
  ASSERT_TRUE(ddl.ok());
  EXPECT_EQ(ddl->kind, ExecResult::Kind::kNone);
  EXPECT_EQ(ddl->message, "table created");

  auto dml = db.Execute("INSERT INTO t VALUES (1), (2)");
  ASSERT_TRUE(dml.ok());
  EXPECT_EQ(dml->kind, ExecResult::Kind::kAffected);
  EXPECT_EQ(dml->affected, 2);

  auto rows = db.Execute("SELECT * FROM t");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->kind, ExecResult::Kind::kRows);
  EXPECT_EQ(rows->rows.rows.size(), 2u);

  auto co = db.Execute("OUT OF x AS t TAKE *");
  ASSERT_TRUE(co.ok());
  EXPECT_EQ(co->kind, ExecResult::Kind::kCo);
  EXPECT_EQ(co->co.nodes.size(), 1u);
}

TEST(DatabaseApi, ScriptReturnsLastResult) {
  Database db;
  auto r = db.ExecuteScript(R"sql(
    CREATE TABLE t (a INT);
    INSERT INTO t VALUES (1);
    INSERT INTO t VALUES (2);
    SELECT COUNT(*) FROM t;
  )sql");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->kind, ExecResult::Kind::kRows);
  EXPECT_EQ(r->rows.rows[0][0].AsInt(), 2);
}

TEST(DatabaseApi, ScriptStopsAtFirstError) {
  Database db;
  auto r = db.ExecuteScript(R"sql(
    CREATE TABLE t (a INT);
    INSERT INTO nope VALUES (1);
    INSERT INTO t VALUES (1);
  )sql");
  ASSERT_FALSE(r.ok());
  // The statement after the failure did not run.
  ASSERT_OK_AND_ASSIGN(ResultSet rs, db.Query("SELECT COUNT(*) FROM t"));
  EXPECT_EQ(rs.rows[0][0].AsInt(), 0);
}

TEST(DatabaseApi, QueryRejectsNonSelect) {
  Database db;
  MustExecute(&db, "CREATE TABLE t (a INT)");
  auto r = db.Query("INSERT INTO t VALUES (1)");
  EXPECT_FALSE(r.ok());
}

TEST(DatabaseApi, ExplainDumpsQgm) {
  Database db;
  MustExecute(&db, R"sql(
    CREATE TABLE t (a INT, b INT);
    CREATE VIEW v AS SELECT a FROM t WHERE b > 0;
  )sql");
  ASSERT_OK_AND_ASSIGN(ResultSet rs, db.Query("EXPLAIN SELECT * FROM v "
                                              "WHERE a = 1"));
  ASSERT_FALSE(rs.rows.empty());
  std::string all;
  for (const Row& row : rs.rows) all += row[0].AsString() + "\n";
  // The view was merged: the plan ranges over the base table directly.
  EXPECT_NE(all.find(":t"), std::string::npos);
  EXPECT_NE(all.find("view(s) merged"), std::string::npos);
}

TEST(DatabaseApi, TrailingInputRejected) {
  Database db;
  MustExecute(&db, "CREATE TABLE t (a INT)");
  auto r = db.Execute("SELECT * FROM t garbage trailing");
  EXPECT_FALSE(r.ok());
}

TEST(DatabaseApi, ParseErrorsNameTheLocation) {
  Database db;
  auto r = db.Execute("SELECT FROM WHERE");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kParseError);
  EXPECT_NE(r.status().message().find("line"), std::string::npos);
}

TEST(DatabaseApi, PrepareValidatesEagerly) {
  Database db;
  MustExecute(&db, "CREATE TABLE t (a INT)");
  EXPECT_FALSE(db.Prepare("SELECT zap FROM t").ok());
  EXPECT_FALSE(db.Prepare("SELECT * FROM missing WHERE a = ?").ok());
  ASSERT_OK_AND_ASSIGN(auto q, db.Prepare("SELECT * FROM t WHERE a = ?"));
  // Executing against mutated data sees fresh rows (plans re-open cleanly).
  MustExecute(&db, "INSERT INTO t VALUES (5)");
  ASSERT_OK_AND_ASSIGN(ResultSet rs, q->Execute({Value::Int(5)}));
  EXPECT_EQ(rs.rows.size(), 1u);
}

// A prepared plan kept across DROP + CREATE read the old table's column
// slots and returned no rows (the text query returned 99). Plans record the
// catalog version they were compiled at and recompile once it moves.
TEST(DatabaseApi, PreparedPlansRecompileAfterDropAndCreate) {
  Database db;
  MustExecute(&db,
              "CREATE TABLE t (a INT, b INT);"
              "INSERT INTO t VALUES (1, 10), (2, 20);");
  auto session = db.OpenSession();
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<PreparedQuery> prepared,
                       db.Prepare("SELECT b FROM t WHERE a = ?"));
  ASSERT_OK_AND_ASSIGN(ResultSet before,
                       session->QueryPrepared("SELECT b FROM t WHERE a = ?",
                                              {Value::Int(2)}));
  EXPECT_EQ(IntColumn(before, 0), std::vector<int64_t>{20});
  MustExecute(&db,
              "DROP TABLE t;"
              "CREATE TABLE t (x VARCHAR, a INT, b INT);"
              "INSERT INTO t VALUES ('z', 2, 99);");
  ASSERT_OK_AND_ASSIGN(ResultSet text, db.Query("SELECT b FROM t WHERE a = 2"));
  EXPECT_EQ(IntColumn(text, 0), std::vector<int64_t>{99});
  ASSERT_OK_AND_ASSIGN(ResultSet after,
                       session->QueryPrepared("SELECT b FROM t WHERE a = ?",
                                              {Value::Int(2)}));
  EXPECT_EQ(IntColumn(after, 0), std::vector<int64_t>{99});
  ASSERT_OK_AND_ASSIGN(ResultSet direct, prepared->Execute({Value::Int(2)}));
  EXPECT_EQ(IntColumn(direct, 0), std::vector<int64_t>{99});
  // A dropped table fails cleanly.
  MustExecute(&db, "DROP TABLE t");
  EXPECT_FALSE(prepared->Execute({Value::Int(2)}).ok());
  EXPECT_FALSE(
      session->QueryPrepared("SELECT b FROM t WHERE a = ?", {Value::Int(2)})
          .ok());
}

TEST(DatabaseApi, XnfStatsExposed) {
  Database db;
  MustExecute(&db, "CREATE TABLE t (a INT)");
  ASSERT_OK_AND_ASSIGN(co::CoInstance co, db.QueryCo("OUT OF x AS t TAKE *"));
  (void)co;
  EXPECT_EQ(db.last_xnf_stats().node_queries, 1);
}

TEST(DatabaseApi, BufferPoolOptionsRespected) {
  Database::Options options;
  options.buffer_pool_pages = 4;
  options.tuples_per_page = 2;
  // The exact fault count below assumes the heap layout; pin it so the
  // SQLXNF_STORAGE=column CI lane doesn't change the page math.
  options.default_storage = StorageKind::kRow;
  Database db(options);
  MustExecute(&db, "CREATE TABLE t (a INT)");
  for (int i = 0; i < 20; ++i) {
    MustExecute(&db, "INSERT INTO t VALUES (" + std::to_string(i) + ")");
  }
  db.buffer_pool()->ResetCounters();
  db.buffer_pool()->Clear();
  ASSERT_OK_AND_ASSIGN(ResultSet rs, db.Query("SELECT COUNT(*) FROM t"));
  (void)rs;
  // 10 pages scanned through a 4-page pool: all fault.
  EXPECT_EQ(db.buffer_pool()->faults(), 10u);
  EXPECT_LE(db.buffer_pool()->resident_pages(), 4u);
}

}  // namespace
}  // namespace xnf::testing
