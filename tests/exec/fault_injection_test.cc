// Deterministic fault-injection tests: every failure a failpoint can inject
// must leave the engine in the documented post-error state — statement
// atomicity for DML, zero leaked buffer-pool pins for parallel scans, and a
// reusable connection after a failed EXPLAIN ANALYZE.

#include "common/failpoint.h"
#include "exec/parallel.h"
#include "gtest/gtest.h"
#include "test_util.h"

namespace xnf::testing {
namespace {

class FaultInjection : public ::testing::Test {
 protected:
  void SetUp() override {
    MustExecute(&db_, R"sql(
      CREATE TABLE t (id INT PRIMARY KEY, v INT, s VARCHAR);
      CREATE INDEX t_v ON t (v);
      INSERT INTO t VALUES (1, 10, 'a'), (2, 20, 'b'), (3, 30, 'c');
    )sql");
  }
  void TearDown() override { Failpoints::DisableAll(); }

  // Probes run with failpoints disarmed between statements, so plain reads
  // are safe; the heap/index state is compared field by field.
  std::vector<int64_t> Column(const std::string& q) {
    auto rs = db_.Query(q);
    EXPECT_TRUE(rs.ok()) << rs.status().ToString();
    return IntColumn(*rs, 0);
  }

  size_t IndexEntries(const std::string& table, size_t index, Value key) {
    return db_.catalog()->GetTable(table)->indexes[index]->Lookup({key}).size();
  }

  // These tests target the heap.* failpoints and rid-level heap state, so
  // the row layout is pinned: under SQLXNF_STORAGE=column the equivalent
  // seams are covered by the column.* sites (column_store_test.cc).
  static Database::Options RowLayout() {
    Database::Options o;
    o.default_storage = StorageKind::kRow;
    return o;
  }
  Database db_{RowLayout()};
};

TEST_F(FaultInjection, MultiRowInsertRollsBackAllRows) {
  // The third row's heap append fails; rows one and two must be gone from
  // the heap *and* from both indexes (pk + t_v).
  ASSERT_OK(Failpoints::Enable("heap.append", "nth(3)"));
  auto r = db_.Execute("INSERT INTO t VALUES (4, 40, 'd'), (5, 50, 'e'), "
                       "(6, 60, 'f')");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kFaultInjected);
  Failpoints::DisableAll();
  EXPECT_EQ(Column("SELECT id FROM t ORDER BY id"),
            (std::vector<int64_t>{1, 2, 3}));
  EXPECT_EQ(IndexEntries("t", 0, Value::Int(4)), 0u);
  EXPECT_EQ(IndexEntries("t", 1, Value::Int(40)), 0u);
  EXPECT_EQ(db_.catalog()->GetTable("t")->storage->live_count(), 3u);
}

TEST_F(FaultInjection, UpdateIndexInsertFailureRestoresHeapAndIndexes) {
  // UpdateRow per row hits index.insert twice (pk, t_v). nth(4) lands on
  // the second row's t_v insert: row one is already fully updated and must
  // be rolled back; row two's pk index (already moved to the new key) must
  // be restored in the compensation path.
  ASSERT_OK(Failpoints::Enable("index.insert", "nth(4)"));
  auto r = db_.Execute("UPDATE t SET v = v + 1 WHERE id <= 2");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kFaultInjected);
  Failpoints::DisableAll();
  EXPECT_EQ(Column("SELECT v FROM t ORDER BY id"),
            (std::vector<int64_t>{10, 20, 30}));
  // Secondary index: old keys present, new keys absent.
  EXPECT_EQ(IndexEntries("t", 1, Value::Int(10)), 1u);
  EXPECT_EQ(IndexEntries("t", 1, Value::Int(20)), 1u);
  EXPECT_EQ(IndexEntries("t", 1, Value::Int(11)), 0u);
  EXPECT_EQ(IndexEntries("t", 1, Value::Int(21)), 0u);
  // Primary key index intact too.
  EXPECT_EQ(IndexEntries("t", 0, Value::Int(1)), 1u);
  EXPECT_EQ(IndexEntries("t", 0, Value::Int(2)), 1u);
}

TEST_F(FaultInjection, UpdateHeapWriteFailureRestoresIndexes) {
  // The heap write is the last step of UpdateRow; when it fails the indexes
  // have already moved to the new keys and must be moved back.
  ASSERT_OK(Failpoints::Enable("heap.write", "nth(1)"));
  auto r = db_.Execute("UPDATE t SET v = 99 WHERE id = 1");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kFaultInjected);
  Failpoints::DisableAll();
  EXPECT_EQ(Column("SELECT v FROM t ORDER BY id"),
            (std::vector<int64_t>{10, 20, 30}));
  EXPECT_EQ(IndexEntries("t", 1, Value::Int(10)), 1u);
  EXPECT_EQ(IndexEntries("t", 1, Value::Int(99)), 0u);
}

TEST_F(FaultInjection, MultiRowDeleteRollsBackDeletedRows) {
  // The second row's delete fails; the first row (already deleted, with
  // index entries already erased) must come back at the same rid.
  ASSERT_OK(Failpoints::Enable("dml.apply.delete", "nth(2)"));
  auto r = db_.Execute("DELETE FROM t WHERE v >= 10");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kFaultInjected);
  Failpoints::DisableAll();
  EXPECT_EQ(Column("SELECT id FROM t ORDER BY id"),
            (std::vector<int64_t>{1, 2, 3}));
  EXPECT_EQ(IndexEntries("t", 0, Value::Int(1)), 1u);
  EXPECT_EQ(IndexEntries("t", 1, Value::Int(10)), 1u);
}

TEST_F(FaultInjection, FailedStatementInsideTransactionKeepsEarlierWrites) {
  // Statement rollback must stop at the statement's savepoint: the
  // transaction's earlier (successful) statement survives and can still be
  // committed or rolled back as a whole.
  MustExecute(&db_, "BEGIN");
  MustExecute(&db_, "INSERT INTO t VALUES (4, 40, 'd')");
  ASSERT_OK(Failpoints::Enable("heap.append", "nth(1)"));
  auto r = db_.Execute("INSERT INTO t VALUES (5, 50, 'e')");
  ASSERT_FALSE(r.ok());
  Failpoints::DisableAll();
  EXPECT_EQ(Column("SELECT id FROM t ORDER BY id"),
            (std::vector<int64_t>{1, 2, 3, 4}));
  MustExecute(&db_, "ROLLBACK");
  EXPECT_EQ(Column("SELECT id FROM t ORDER BY id"),
            (std::vector<int64_t>{1, 2, 3}));
}

TEST_F(FaultInjection, CreateIndexBackfillFailureLeavesNoIndex) {
  ASSERT_OK(Failpoints::Enable("index.insert", "nth(2)"));
  auto r = db_.Execute("CREATE INDEX t_s ON t (s)");
  ASSERT_FALSE(r.ok());
  Failpoints::DisableAll();
  // The half-built index was never published.
  EXPECT_EQ(db_.catalog()->GetTable("t")->indexes.size(), 2u);
  MustExecute(&db_, "CREATE INDEX t_s ON t (s)");
  EXPECT_EQ(db_.catalog()->GetTable("t")->indexes.size(), 3u);
}

TEST_F(FaultInjection, ExplainAnalyzeRendersProfileOfFailedRun) {
  // A mid-execution fault must not discard the EXPLAIN ANALYZE output: the
  // partial profile renders with consistent counters (the failed open is
  // still closed exactly once) and the error on the last line. Golden
  // rendering of the error line, minus the volatile time= fields.
  ASSERT_OK(Failpoints::Enable("bufferpool.read", "nth(1)"));
  auto r = db_.Execute("EXPLAIN ANALYZE SELECT id FROM t WHERE v > 10");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  std::string text;
  for (const Row& row : r->rows.rows) text += row[0].AsString() + "\n";
  EXPECT_NE(text.find("SeqScan(t"), std::string::npos) << text;
  EXPECT_NE(text.find("opens=1 closes=1"), std::string::npos) << text;
  EXPECT_NE(text.find("error: failpoint 'bufferpool.read' fired on hit 1"),
            std::string::npos)
      << text;
  Failpoints::DisableAll();
  // The connection is reusable: the same statement now runs clean.
  EXPECT_EQ(Column("SELECT id FROM t WHERE v > 10 ORDER BY id"),
            (std::vector<int64_t>{2, 3}));
}

// Pin accounting around failed parallel scans: a morsel that fails (or is
// never dispatched because its task-dispatch failpoint fired) must not leave
// its page range pinned.
class ParallelFaultInjection : public ::testing::Test {
 protected:
  void SetUp() override {
    Database::Options options;
    options.buffer_pool_pages = 4;  // small pool: evictions + pins interact
    options.threads = 4;
    // 4-tuple heap pages or 64-row column groups: `big` splits into morsels
    // in either layout.
    options.tuples_per_page = 4;
    db_ = std::make_unique<Database>(options);
    MustExecute(db_.get(), "CREATE TABLE big (id INT PRIMARY KEY, v INT)");
    std::string insert = "INSERT INTO big VALUES ";
    for (int i = 0; i < 1000; ++i) {
      if (i > 0) insert += ", ";
      insert += "(" + std::to_string(i) + ", " + std::to_string(i % 97) + ")";
    }
    MustExecute(db_.get(), insert);
    EXPECT_GE(db_->catalog()->GetTable("big")->storage->page_count(),
              2 * exec::kMinMorselPages);
  }
  void TearDown() override { Failpoints::DisableAll(); }

  std::unique_ptr<Database> db_;
};

TEST_F(ParallelFaultInjection, FailedMorselScanReleasesAllPins) {
  ASSERT_OK(Failpoints::Enable("bufferpool.read", "every(7)"));
  auto r = db_->Query("SELECT SUM(v) FROM big");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kFaultInjected);
  Failpoints::DisableAll();
  EXPECT_EQ(db_->buffer_pool()->pinned_pages(), 0u);
  // And the engine still works.
  ASSERT_OK_AND_ASSIGN(ResultSet rs, db_->Query("SELECT COUNT(*) FROM big"));
  EXPECT_EQ(rs.rows[0][0].AsInt(), 1000);
  EXPECT_EQ(db_->buffer_pool()->pinned_pages(), 0u);
}

TEST_F(ParallelFaultInjection, FailedTaskDispatchReleasesAllPins) {
  ASSERT_OK(Failpoints::Enable("threadpool.task", "every(2)"));
  auto r = db_->Query("SELECT SUM(v) FROM big");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kFaultInjected);
  Failpoints::DisableAll();
  EXPECT_EQ(db_->buffer_pool()->pinned_pages(), 0u);
}

TEST_F(ParallelFaultInjection, FailedHashJoinBuildReleasesAllPins) {
  MustExecute(db_.get(), "CREATE TABLE dim (v INT PRIMARY KEY, name VARCHAR)");
  std::string insert = "INSERT INTO dim VALUES ";
  for (int i = 0; i < 97; ++i) {
    if (i > 0) insert += ", ";
    insert += "(" + std::to_string(i) + ", 'n" + std::to_string(i) + "')";
  }
  MustExecute(db_.get(), insert);
  ASSERT_OK(Failpoints::Enable("bufferpool.read", "every(5)"));
  auto r = db_->Query(
      "SELECT COUNT(*) FROM big b, dim d WHERE b.v = d.v AND d.name <> 'x'");
  ASSERT_FALSE(r.ok());
  Failpoints::DisableAll();
  EXPECT_EQ(db_->buffer_pool()->pinned_pages(), 0u);
}

TEST_F(ParallelFaultInjection, BufferPoolInvariantHoldsAfterFailures) {
  // faults == resident + evictions must survive injected read/evict faults:
  // a failed Touch makes no state change at all.
  ASSERT_OK(Failpoints::Enable("bufferpool.read", "every(11)"));
  for (int i = 0; i < 5; ++i) {
    (void)db_->Query("SELECT SUM(v) FROM big");
  }
  Failpoints::DisableAll();
  BufferPool* pool = db_->buffer_pool();
  EXPECT_EQ(pool->faults(), pool->resident_pages() + pool->evictions());
}

}  // namespace
}  // namespace xnf::testing
