#include "gtest/gtest.h"
#include "test_util.h"

namespace xnf::testing {
namespace {

class DmlTest : public ::testing::Test {
 protected:
  void SetUp() override {
    MustExecute(&db_, R"sql(
      CREATE TABLE t (id INT PRIMARY KEY, v INT, s VARCHAR NOT NULL);
      INSERT INTO t VALUES (1, 10, 'a'), (2, 20, 'b'), (3, 30, 'c');
    )sql");
  }

  int64_t Affected(const std::string& stmt) {
    auto r = db_.Execute(stmt);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->kind, ExecResult::Kind::kAffected);
    return r->affected;
  }

  Database db_;
};

TEST_F(DmlTest, InsertWithColumnList) {
  EXPECT_EQ(Affected("INSERT INTO t (s, id) VALUES ('d', 4)"), 1);
  ASSERT_OK_AND_ASSIGN(ResultSet rs,
                       db_.Query("SELECT v, s FROM t WHERE id = 4"));
  EXPECT_TRUE(rs.rows[0][0].is_null());
  EXPECT_EQ(rs.rows[0][1].AsString(), "d");
}

TEST_F(DmlTest, InsertSelect) {
  EXPECT_EQ(Affected("INSERT INTO t SELECT id + 10, v, s FROM t"), 3);
  ASSERT_OK_AND_ASSIGN(ResultSet rs, db_.Query("SELECT COUNT(*) FROM t"));
  EXPECT_EQ(rs.rows[0][0].AsInt(), 6);
}

TEST_F(DmlTest, PrimaryKeyDuplicateRejectedAndRolledBack) {
  auto r = db_.Execute("INSERT INTO t VALUES (99, 1, 'x'), (1, 2, 'dup')");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kAlreadyExists);
  // The statement rolled back entirely: 99 must not exist.
  ASSERT_OK_AND_ASSIGN(ResultSet rs,
                       db_.Query("SELECT COUNT(*) FROM t WHERE id = 99"));
  EXPECT_EQ(rs.rows[0][0].AsInt(), 0);
}

TEST_F(DmlTest, NotNullEnforced) {
  auto r = db_.Execute("INSERT INTO t (id, v) VALUES (5, 50)");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kConstraintViolation);
}

TEST_F(DmlTest, UpdateWithExpressionsAndWhere) {
  EXPECT_EQ(Affected("UPDATE t SET v = v * 2 WHERE id >= 2"), 2);
  ASSERT_OK_AND_ASSIGN(ResultSet rs, db_.Query("SELECT v FROM t ORDER BY id"));
  EXPECT_EQ(IntColumn(rs, 0), (std::vector<int64_t>{10, 40, 60}));
}

TEST_F(DmlTest, UpdateAllRows) {
  EXPECT_EQ(Affected("UPDATE t SET s = 'z'"), 3);
  ASSERT_OK_AND_ASSIGN(ResultSet rs,
                       db_.Query("SELECT COUNT(*) FROM t WHERE s = 'z'"));
  EXPECT_EQ(rs.rows[0][0].AsInt(), 3);
}

TEST_F(DmlTest, UpdatePrimaryKeyCollisionRollsBack) {
  auto r = db_.Execute("UPDATE t SET id = 1 WHERE id = 2");
  ASSERT_FALSE(r.ok());
  ASSERT_OK_AND_ASSIGN(ResultSet rs, db_.Query("SELECT id FROM t ORDER BY id"));
  EXPECT_EQ(IntColumn(rs, 0), (std::vector<int64_t>{1, 2, 3}));
}

TEST_F(DmlTest, DeleteWithWhere) {
  EXPECT_EQ(Affected("DELETE FROM t WHERE v > 15"), 2);
  ASSERT_OK_AND_ASSIGN(ResultSet rs, db_.Query("SELECT id FROM t"));
  EXPECT_EQ(IntColumn(rs, 0), (std::vector<int64_t>{1}));
}

TEST_F(DmlTest, DeleteAll) {
  EXPECT_EQ(Affected("DELETE FROM t"), 3);
  ASSERT_OK_AND_ASSIGN(ResultSet rs, db_.Query("SELECT COUNT(*) FROM t"));
  EXPECT_EQ(rs.rows[0][0].AsInt(), 0);
}

TEST_F(DmlTest, IndexMaintainedAcrossDml) {
  MustExecute(&db_, "CREATE INDEX t_v ON t (v)");
  // Index lookups reflect updates and deletes.
  EXPECT_EQ(Affected("UPDATE t SET v = 99 WHERE id = 1"), 1);
  ASSERT_OK_AND_ASSIGN(ResultSet rs,
                       db_.Query("SELECT id FROM t WHERE v = 99"));
  EXPECT_EQ(IntColumn(rs, 0), (std::vector<int64_t>{1}));
  ASSERT_OK_AND_ASSIGN(ResultSet rs2,
                       db_.Query("SELECT id FROM t WHERE v = 10"));
  EXPECT_TRUE(rs2.rows.empty());
  EXPECT_EQ(Affected("DELETE FROM t WHERE v = 99"), 1);
  ASSERT_OK_AND_ASSIGN(ResultSet rs3,
                       db_.Query("SELECT id FROM t WHERE v = 99"));
  EXPECT_TRUE(rs3.rows.empty());
}

TEST_F(DmlTest, ValueCoercionOnInsert) {
  MustExecute(&db_, "CREATE TABLE d (x DOUBLE)");
  EXPECT_EQ(Affected("INSERT INTO d VALUES (3)"), 1);
  ASSERT_OK_AND_ASSIGN(ResultSet rs, db_.Query("SELECT x FROM d"));
  EXPECT_TRUE(rs.rows[0][0].is_double());
}

// Literal cells (negated, NULL, coerced) are taken as values while
// expression cells compile; both give the values and errors they always
// gave, and a failing row rolls the whole statement back.
TEST_F(DmlTest, MultiRowInsertMixesLiteralAndExpressionCells) {
  MustExecute(&db_, "CREATE TABLE m (i INT, d DOUBLE, s VARCHAR)");
  EXPECT_EQ(Affected("INSERT INTO m VALUES (1, 2.5, 'a'), (-3, -4, NULL), "
                     "(NULL, -0.5, 'c'), (2 + 3, 1.0 * 2, 'x' || 'y'), "
                     "(-(-7), -NULL, 'z')"),
            5);
  ASSERT_OK_AND_ASSIGN(ResultSet rs, db_.Query("SELECT i, d, s FROM m"));
  EXPECT_EQ(NormalizedRows(rs),
            (std::vector<std::string>{"(-3, -4, NULL)", "(1, 2.5, 'a')",
                                      "(5, 2, 'xy')", "(7, NULL, 'z')",
                                      "(NULL, -0.5, 'c')"}));
  for (const Row& row : rs.rows) {
    EXPECT_TRUE(row[1].is_null() || row[1].is_double()) << row[1].ToString();
  }
  for (const char* bad : {"(-'abc', 1.0, 'x')", "(1, 1.0, -'s')",
                          "('str', 1.0, 'x')", "(-2.7, 1.0, 'x')",
                          "(1 / 0, 1.0, 'x')"}) {
    auto r = db_.Execute(std::string("INSERT INTO m VALUES (9, 9.0, 'ok'), ") +
                         bad);
    ASSERT_FALSE(r.ok()) << bad;
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument) << bad;
  }
  ASSERT_OK_AND_ASSIGN(ResultSet count, db_.Query("SELECT COUNT(*) FROM m"));
  EXPECT_EQ(IntColumn(count, 0), std::vector<int64_t>{5});
}

TEST_F(DmlTest, ArityMismatchRejected) {
  EXPECT_FALSE(db_.Execute("INSERT INTO t VALUES (1, 2)").ok());
  EXPECT_FALSE(db_.Execute("INSERT INTO t (id) VALUES (1, 2)").ok());
}

TEST_F(DmlTest, UnknownTargetsRejected) {
  EXPECT_FALSE(db_.Execute("INSERT INTO nope VALUES (1)").ok());
  EXPECT_FALSE(db_.Execute("UPDATE nope SET x = 1").ok());
  EXPECT_FALSE(db_.Execute("DELETE FROM nope").ok());
  EXPECT_FALSE(db_.Execute("UPDATE t SET nope = 1").ok());
}

TEST_F(DmlTest, DropTableAndView) {
  MustExecute(&db_, "CREATE VIEW tv AS SELECT * FROM t");
  ASSERT_TRUE(db_.Execute("DROP VIEW tv").ok());
  EXPECT_FALSE(db_.Query("SELECT * FROM tv").ok());
  ASSERT_TRUE(db_.Execute("DROP TABLE t").ok());
  EXPECT_FALSE(db_.Query("SELECT * FROM t").ok());
}

TEST_F(DmlTest, DuplicateObjectNamesRejected) {
  EXPECT_EQ(db_.Execute("CREATE TABLE t (x INT)").status().code(),
            StatusCode::kAlreadyExists);
  MustExecute(&db_, "CREATE VIEW v1 AS SELECT * FROM t");
  EXPECT_EQ(db_.Execute("CREATE TABLE v1 (x INT)").status().code(),
            StatusCode::kAlreadyExists);
}

// Keys of the other numeric type (`i = 2.0` on an INT column, `d = 2` on a
// DOUBLE one) find the same rows through an index probe as through a scan,
// in SELECT, OUT OF, UPDATE and DELETE alike.
TEST(DmlAccessPath, MixedTypeKeysAgreeAcrossIndexAndScan) {
  std::vector<std::string> outcomes[2];
  std::string profiles[2];
  for (bool use_indexes : {true, false}) {
    Database::Options options;
    options.use_indexes = use_indexes;
    Database db(options);
    MustExecute(&db, R"sql(
      CREATE TABLE m (id INT PRIMARY KEY, i INT, d DOUBLE);
      CREATE INDEX m_i ON m (i);
      CREATE INDEX m_d ON m (d);
      INSERT INTO m VALUES (1, 2, 2.0), (2, 3, 2.5), (3, 2, 3.0),
                           (4, NULL, 2.0), (5, 2, NULL);
    )sql");
    std::vector<std::string>& out = outcomes[use_indexes ? 0 : 1];
    for (const char* stmt : {
             "SELECT id FROM m WHERE i = 2.0",
             "SELECT id FROM m WHERE d = 2",
             "SELECT id FROM m WHERE i = 2.5",
             "SELECT id FROM m WHERE d = 2 AND id > 1",
             "OUT OF x AS (SELECT * FROM m WHERE i = 2.0) TAKE *",
             "OUT OF x AS (SELECT id, d FROM m WHERE d = 2) TAKE *",
             "UPDATE m SET d = d + 1 WHERE i = 2.0",
             "UPDATE m SET i = i * 10 WHERE d = 3",
             "DELETE FROM m WHERE d = 4",
             "SELECT id, i, d FROM m",
         }) {
      ASSERT_OK_AND_ASSIGN(ExecResult r, db.Execute(stmt));
      std::string rendered = std::to_string(r.affected) + ":";
      const std::vector<Row>& rows = r.kind == ExecResult::Kind::kCo
                                         ? r.co.nodes.at(0).tuples
                                         : r.rows.rows;
      for (const Row& row : rows) rendered += RowToString(row);
      out.push_back(stmt + std::string(" -> ") + rendered);
      if (r.kind == ExecResult::Kind::kCo) {
        profiles[use_indexes ? 0 : 1] +=
            db.last_xnf_stats().profiles.at(0).access + " ";
      }
    }
  }
  EXPECT_EQ(outcomes[0], outcomes[1]);
  EXPECT_EQ(profiles[0], "index index ");
  EXPECT_EQ(profiles[1], "scan scan ");
  // Spot checks: 1, 3 and 5 have i = 2; 1 and 4 have d = 2.0.
  EXPECT_EQ(outcomes[0][0], "SELECT id FROM m WHERE i = 2.0 -> 0:(1)(3)(5)");
  EXPECT_EQ(outcomes[0][1], "SELECT id FROM m WHERE d = 2 -> 0:(1)(4)");
  EXPECT_EQ(outcomes[0][6],
            "UPDATE m SET d = d + 1 WHERE i = 2.0 -> 3:");
}

}  // namespace
}  // namespace xnf::testing
