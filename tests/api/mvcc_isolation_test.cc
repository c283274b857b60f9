// MVCC snapshot-isolation anomaly tests, run against both storage layouts:
// repeatable reads, read-your-own-writes, no dirty reads, first-committer-
// wins lost-update prevention, CoCache::Build snapshot consistency, indexed
// reads (SQL and XNF) under an open writer, and crash recovery of the
// visibility horizon (uncommitted work never survives a reopen; the commit
// epoch floor is restored from checkpoint meta and WAL commit markers).

#include <unistd.h>

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "api/session.h"
#include "gtest/gtest.h"
#include "test_util.h"
#include "testing/reference.h"

namespace xnf::testing {
namespace {

class ScopedDir {
 public:
  ScopedDir() {
    std::string tmpl =
        (std::filesystem::temp_directory_path() / "sqlxnf-mvcc-XXXXXX")
            .string();
    std::vector<char> buf(tmpl.begin(), tmpl.end());
    buf.push_back('\0');
    if (::mkdtemp(buf.data()) != nullptr) path_ = buf.data();
  }
  ~ScopedDir() {
    if (!path_.empty()) {
      std::error_code ec;
      std::filesystem::remove_all(path_, ec);
    }
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

int64_t QueryInt(Database* db, const std::string& sql) {
  auto r = db->Query(sql);
  EXPECT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
  if (!r.ok() || r->rows.empty()) return -1;
  return r->rows[0][0].AsInt();
}

int64_t SessionInt(Session* s, const std::string& sql) {
  auto r = s->Query(sql);
  EXPECT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
  if (!r.ok() || r->rows.empty()) return -1;
  return r->rows[0][0].AsInt();
}

class MvccIsolationTest : public ::testing::TestWithParam<StorageKind> {
 protected:
  MvccIsolationTest() {
    Database::Options opt;
    opt.default_storage = GetParam();
    db_ = std::make_unique<Database>(opt);
    MustExecute(db_.get(), R"sql(
      CREATE TABLE acct (a INT PRIMARY KEY, b INT, c INT);
      INSERT INTO acct VALUES (1, 100, 0), (2, 200, 0), (3, 300, 0);
    )sql");
  }

  std::unique_ptr<Database> db_;
};

TEST_P(MvccIsolationTest, RepeatableReads) {
  auto s1 = db_->OpenSession();
  ASSERT_OK(s1->Execute("BEGIN").status());
  EXPECT_EQ(SessionInt(s1.get(), "SELECT b FROM acct WHERE a = 1"), 100);
  EXPECT_EQ(SessionInt(s1.get(), "SELECT COUNT(*) FROM acct"), 3);

  // Another session commits an update and an insert mid-transaction.
  MustExecute(db_.get(), "UPDATE acct SET b = 999 WHERE a = 1");
  MustExecute(db_.get(), "INSERT INTO acct VALUES (4, 400, 0)");

  // s1's snapshot must not move.
  EXPECT_EQ(SessionInt(s1.get(), "SELECT b FROM acct WHERE a = 1"), 100);
  EXPECT_EQ(SessionInt(s1.get(), "SELECT COUNT(*) FROM acct"), 3);
  ASSERT_OK(s1->Execute("COMMIT").status());

  // A fresh statement sees the latest committed state.
  EXPECT_EQ(SessionInt(s1.get(), "SELECT b FROM acct WHERE a = 1"), 999);
  EXPECT_EQ(SessionInt(s1.get(), "SELECT COUNT(*) FROM acct"), 4);
}

TEST_P(MvccIsolationTest, ReadYourOwnWrites) {
  auto s1 = db_->OpenSession();
  ASSERT_OK(s1->Execute("BEGIN").status());
  ASSERT_OK(s1->Execute("UPDATE acct SET b = 150 WHERE a = 1").status());
  ASSERT_OK(s1->Execute("INSERT INTO acct VALUES (10, 1000, 0)").status());
  ASSERT_OK(s1->Execute("DELETE FROM acct WHERE a = 3").status());

  // The transaction sees its own writes...
  EXPECT_EQ(SessionInt(s1.get(), "SELECT b FROM acct WHERE a = 1"), 150);
  EXPECT_EQ(SessionInt(s1.get(), "SELECT COUNT(*) FROM acct"), 3);
  EXPECT_EQ(SessionInt(s1.get(),
                       "SELECT COUNT(*) FROM acct WHERE a = 10"), 1);
  ASSERT_OK(s1->Execute("ROLLBACK").status());
  EXPECT_EQ(QueryInt(db_.get(), "SELECT b FROM acct WHERE a = 1"), 100);
  EXPECT_EQ(QueryInt(db_.get(), "SELECT COUNT(*) FROM acct"), 3);
}

TEST_P(MvccIsolationTest, NoDirtyReads) {
  auto s1 = db_->OpenSession();
  auto s2 = db_->OpenSession();
  ASSERT_OK(s1->Execute("BEGIN").status());
  ASSERT_OK(s1->Execute("UPDATE acct SET b = 111 WHERE a = 1").status());
  ASSERT_OK(s1->Execute("INSERT INTO acct VALUES (20, 2000, 0)").status());
  ASSERT_OK(s1->Execute("DELETE FROM acct WHERE a = 2").status());

  // ...which stay invisible to everyone else until COMMIT, whether they
  // read autocommit or from their own transaction.
  EXPECT_EQ(SessionInt(s2.get(), "SELECT b FROM acct WHERE a = 1"), 100);
  EXPECT_EQ(SessionInt(s2.get(), "SELECT COUNT(*) FROM acct"), 3);
  EXPECT_EQ(QueryInt(db_.get(), "SELECT COUNT(*) FROM acct WHERE a = 2"), 1);

  ASSERT_OK(s1->Execute("COMMIT").status());
  EXPECT_EQ(SessionInt(s2.get(), "SELECT b FROM acct WHERE a = 1"), 111);
  EXPECT_EQ(SessionInt(s2.get(), "SELECT COUNT(*) FROM acct"), 3);
}

TEST_P(MvccIsolationTest, LostUpdatePrevented) {
  auto s1 = db_->OpenSession();
  auto s2 = db_->OpenSession();
  ASSERT_OK(s1->Execute("BEGIN").status());
  ASSERT_OK(s2->Execute("BEGIN").status());
  // Classic read-modify-write race on the same row.
  EXPECT_EQ(SessionInt(s1.get(), "SELECT b FROM acct WHERE a = 1"), 100);
  EXPECT_EQ(SessionInt(s2.get(), "SELECT b FROM acct WHERE a = 1"), 100);
  ASSERT_OK(s1->Execute("UPDATE acct SET b = 101 WHERE a = 1").status());

  // The concurrent writer fails immediately (first-committer-wins detects
  // the in-flight write at write time, not at COMMIT).
  auto blocked = s2->Execute("UPDATE acct SET b = 102 WHERE a = 1");
  ASSERT_FALSE(blocked.ok());
  EXPECT_EQ(blocked.status().code(), StatusCode::kSerialization);

  ASSERT_OK(s1->Execute("COMMIT").status());
  // Still blocked after the commit: the commit is newer than s2's snapshot.
  blocked = s2->Execute("UPDATE acct SET b = 103 WHERE a = 1");
  ASSERT_FALSE(blocked.ok());
  EXPECT_EQ(blocked.status().code(), StatusCode::kSerialization);
  ASSERT_OK(s2->Execute("ROLLBACK").status());

  // Neither update was lost silently: s1's write is the final state.
  EXPECT_EQ(QueryInt(db_.get(), "SELECT b FROM acct WHERE a = 1"), 101);
}

TEST_P(MvccIsolationTest, AutocommitWriterConflictsWithOpenTransaction) {
  auto s1 = db_->OpenSession();
  ASSERT_OK(s1->Execute("BEGIN").status());
  ASSERT_OK(s1->Execute("DELETE FROM acct WHERE a = 2").status());
  // An autocommit statement from another caller hits the uncommitted write.
  auto blocked = db_->Execute("UPDATE acct SET b = 0 WHERE a = 2");
  ASSERT_FALSE(blocked.ok());
  EXPECT_EQ(blocked.status().code(), StatusCode::kSerialization);
  ASSERT_OK(s1->Execute("ROLLBACK").status());
  // After the rollback the row is writable again.
  MustExecute(db_.get(), "UPDATE acct SET b = 0 WHERE a = 2");
  EXPECT_EQ(QueryInt(db_.get(), "SELECT b FROM acct WHERE a = 2"), 0);
}

TEST_P(MvccIsolationTest, CoCacheBuildsFromConsistentSnapshot) {
  auto s1 = db_->OpenSession();
  ASSERT_OK(s1->Execute("BEGIN").status());
  ASSERT_OK(s1->Execute("UPDATE acct SET b = 777 WHERE a = 1").status());
  ASSERT_OK(s1->Execute("INSERT INTO acct VALUES (30, 3000, 0)").status());

  // A CO materialized while the transaction is in flight must be filled
  // from committed state only.
  auto cache = db_->OpenCo("OUT OF x AS acct TAKE *");
  ASSERT_TRUE(cache.ok()) << cache.status().ToString();
  EXPECT_EQ((*cache)->node(0).live_count(), 3u);
  bool saw_dirty = false;
  for (const auto& t : (*cache)->node(0).tuples) {
    if (!t.alive) continue;
    if (t.values[0].AsInt() == 30) saw_dirty = true;
    if (t.values[0].AsInt() == 1) EXPECT_EQ(t.values[1].AsInt(), 100);
  }
  EXPECT_FALSE(saw_dirty);

  ASSERT_OK(s1->Execute("COMMIT").status());
  auto after = db_->OpenCo("OUT OF x AS acct TAKE *");
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ((*after)->node(0).live_count(), 4u);
}

TEST_P(MvccIsolationTest, TransactionsViewReflectsActivity) {
  auto s1 = db_->OpenSession();
  ASSERT_OK(s1->Execute("BEGIN").status());
  // Pin a snapshot older than the upcoming commit.
  EXPECT_EQ(SessionInt(s1.get(), "SELECT COUNT(*) FROM acct"), 3);
  EXPECT_EQ(QueryInt(db_.get(),
                     "SELECT active_txns FROM sqlxnf_transactions"), 1);

  // An autocommit update commits past s1's snapshot: its pre-image must be
  // retained for s1 until the transaction ends.
  MustExecute(db_.get(), "UPDATE acct SET b = 1 WHERE a = 1");
  EXPECT_GE(QueryInt(db_.get(),
                     "SELECT versions_retained FROM sqlxnf_transactions"), 1);
  EXPECT_EQ(SessionInt(s1.get(), "SELECT b FROM acct WHERE a = 1"), 100);

  ASSERT_OK(s1->Execute("COMMIT").status());
  // No live snapshot needs the version any more: GC reclaims it.
  EXPECT_EQ(QueryInt(db_.get(),
                     "SELECT active_txns FROM sqlxnf_transactions"), 0);
  EXPECT_EQ(QueryInt(db_.get(),
                     "SELECT versions_retained FROM sqlxnf_transactions"), 0);
  EXPECT_GE(QueryInt(db_.get(),
                     "SELECT versions_gced FROM sqlxnf_transactions"), 1);
  EXPECT_GE(QueryInt(db_.get(),
                     "SELECT txns_committed FROM sqlxnf_transactions"), 2);
}

// Indexed reads while another session holds an open writer on the table.
// The writer has moved row 5's indexed key b from 5 to 5000, changed a
// non-key column of row 3005, deleted row 1005 and inserted row 100000, all
// on b = 5 rows of a 4 000-row table. The reader's snapshot predates all of
// it, so each indexed read path (point lookup, index nested-loop join,
// index-fed CO node) must return the original four b = 5 rows in rid order,
// nothing for b = 5000, and the same rows as an index-free scan — while
// touching O(hits + overlay) pages, not the table.
class IndexedReadsUnderWriterTest : public MvccIsolationTest {
 protected:
  static constexpr int kRows = 4000;

  void SetUp() override {
    MustExecute(db_.get(), R"sql(
      CREATE TABLE big (a INT PRIMARY KEY, b INT, c INT);
      CREATE INDEX big_b ON big (b);
      CREATE TABLE probe (k INT);
      INSERT INTO probe VALUES (5), (5000);
    )sql");
    for (int base = 0; base < kRows; base += 500) {
      std::string insert = "INSERT INTO big VALUES ";
      for (int i = base; i < base + 500; ++i) {
        if (i > base) insert += ", ";
        insert += "(" + std::to_string(i) + ", " + std::to_string(i % 1000) +
                  ", " + std::to_string(i) + ")";
      }
      MustExecute(db_.get(), insert);
    }
    writer_ = db_->OpenSession();
    reader_ = db_->OpenSession();
    ASSERT_OK(reader_->Execute("BEGIN").status());
    ASSERT_OK(writer_->Execute("BEGIN").status());
    for (const char* sql : {"UPDATE big SET b = 5000 WHERE a = 5",
                            "UPDATE big SET c = -1 WHERE a = 3005",
                            "DELETE FROM big WHERE a = 1005",
                            "INSERT INTO big VALUES (100000, 5, -2)"}) {
      ASSERT_OK(writer_->Execute(sql).status());
    }
  }

  void TearDown() override {
    reader_.reset();
    writer_.reset();
  }

  // The reader's rows for `sql`, in result order, one rendered row a line.
  std::string Read(const std::string& sql) {
    auto r = reader_->Execute(sql);
    EXPECT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
    if (!r.ok()) return "";
    const std::vector<Row>& rows =
        r->kind == ExecResult::Kind::kCo ? r->co.nodes.at(0).tuples
                                         : r->rows.rows;
    std::string out;
    for (const Row& row : rows) out += RowToString(row) + "\n";
    return out;
  }

  // Pages the last statement read: heap pages, or column pages for a
  // columnar table.
  int64_t LastStatementPages() const {
    const Database::StatementProfile p = db_->statement_history().back();
    return p.heap_pages + p.column_pages;
  }

  size_t TablePages() const {
    return db_->catalog()->GetTable("big")->storage->page_count();
  }

  std::unique_ptr<Session> writer_;
  std::unique_ptr<Session> reader_;
};

// The four b = 5 rows as of the reader's snapshot, in rid order.
constexpr const char* kSnapshotRows =
    "(5, 5)\n(1005, 1005)\n(2005, 2005)\n(3005, 3005)\n";

TEST_P(IndexedReadsUnderWriterTest, IndexLookupReadsTheSnapshot) {
  EXPECT_NE(
      Read("EXPLAIN SELECT a, c FROM big WHERE b = 5").find("IndexLookup"),
      std::string::npos);
  EXPECT_EQ(Read("SELECT a, c FROM big WHERE b = 5"), kSnapshotRows);
  // 4 hits + 4 overlay entries; the table has 63 pages.
  EXPECT_LE(LastStatementPages(), 8) << "of " << TablePages();
  EXPECT_EQ(Read("SELECT a, c FROM big WHERE b = 5000"), "");
  EXPECT_EQ(Read("SELECT a, c FROM big WHERE b + 0 = 5"), kSnapshotRows);
  EXPECT_GE(LastStatementPages(), static_cast<int64_t>(TablePages()));

  // Once the writer commits, its pre-images come from the retained
  // versions instead; the reader's snapshot still does not move.
  ASSERT_OK(writer_->Execute("COMMIT").status());
  EXPECT_EQ(Read("SELECT a, c FROM big WHERE b = 5"), kSnapshotRows);
  EXPECT_LE(LastStatementPages(), 8);
  EXPECT_EQ(Read("SELECT a, c FROM big WHERE b = 5000"), "");
}

TEST_P(IndexedReadsUnderWriterTest, IndexNestedLoopJoinReadsTheSnapshot) {
  const std::string join =
      "SELECT big.a, big.c FROM probe JOIN big ON big.b = probe.k";
  EXPECT_NE(Read("EXPLAIN " + join).find("IndexNLJoin"), std::string::npos)
      << Read("EXPLAIN " + join);
  EXPECT_EQ(Read(join), kSnapshotRows);
  EXPECT_LE(LastStatementPages(), 8) << "of " << TablePages();
  EXPECT_EQ(Read("SELECT big.a, big.c FROM probe JOIN big "
                 "ON big.b + 0 = probe.k"),
            kSnapshotRows);
}

TEST_P(IndexedReadsUnderWriterTest, IndexFedCoNodeReadsTheSnapshot) {
  EXPECT_EQ(Read("OUT OF x AS (SELECT a, c FROM big WHERE b = 5) TAKE *"),
            kSnapshotRows);
  EXPECT_LE(LastStatementPages(), 8) << "of " << TablePages();
  const auto& profiles = db_->last_xnf_stats().profiles;
  ASSERT_EQ(profiles.size(), 1u);
  EXPECT_EQ(profiles[0].access, "index");
  EXPECT_EQ(Read("OUT OF x AS (SELECT a, c FROM big WHERE b = 5000) TAKE *"),
            "");
  EXPECT_EQ(Read("OUT OF x AS (SELECT a, c FROM big WHERE b + 0 = 5) TAKE *"),
            kSnapshotRows);
}

// UPDATE and DELETE find their targets through the same snapshot-exact
// index probe: a key whose row the writer holds uncommitted fails with
// kSerialization, and an untouched key is written after reading a handful
// of pages, not the table.
TEST_P(IndexedReadsUnderWriterTest, IndexedDmlTargetsConflictWithOpenWriter) {
  for (const char* sql : {"UPDATE big SET c = 0 WHERE a = 5",
                          "DELETE FROM big WHERE a = 1005",
                          "UPDATE big SET c = 0 WHERE a = 3005"}) {
    auto blocked = reader_->Execute(sql);
    ASSERT_FALSE(blocked.ok()) << sql;
    EXPECT_EQ(blocked.status().code(), StatusCode::kSerialization) << sql;
  }
  ASSERT_OK_AND_ASSIGN(ExecResult r,
                       reader_->Execute("UPDATE big SET c = 0 WHERE a = 7"));
  EXPECT_EQ(r.affected, 1);
  EXPECT_LE(LastStatementPages(), 16) << "of " << TablePages();
  ASSERT_OK_AND_ASSIGN(r, reader_->Execute("DELETE FROM big WHERE a = 8"));
  EXPECT_EQ(r.affected, 1);
  EXPECT_LE(LastStatementPages(), 16) << "of " << TablePages();
}

// A commit after the reader's snapshot moved row 5 from b = 5 to b = 5000
// on the indexed column b. The reader's UPDATE ... WHERE b = 5 matches the
// snapshot image and then conflicts on it; WHERE b = 5000 matches nothing,
// although the physical row and its index entry now say 5000. The scan
// (b + 0) agrees.
TEST_P(IndexedReadsUnderWriterTest, IndexedDmlTargetsMatchTheSnapshotImage) {
  ASSERT_OK(writer_->Execute("COMMIT").status());
  for (const char* where : {"b = 5", "b + 0 = 5"}) {
    auto blocked =
        reader_->Execute(std::string("UPDATE big SET c = 0 WHERE ") + where);
    ASSERT_FALSE(blocked.ok()) << where;
    EXPECT_EQ(blocked.status().code(), StatusCode::kSerialization) << where;
  }
  for (const char* where : {"b = 5000", "b + 0 = 5000"}) {
    ASSERT_OK_AND_ASSIGN(
        ExecResult r,
        reader_->Execute(std::string("UPDATE big SET c = 0 WHERE ") + where));
    EXPECT_EQ(r.affected, 0) << where;
  }
  EXPECT_EQ(Read("SELECT a, c FROM big WHERE b = 5"), kSnapshotRows);
}

// The use_indexes ablation flips XNF simple nodes between the index probe
// and the candidate scan — under an open writer too — with identical
// instances.
TEST_P(MvccIsolationTest, XnfNodeAccessFollowsUseIndexes) {
  const std::string query = R"(
    OUT OF x AS (SELECT * FROM acct WHERE b = 200 AND c = 0),
           y AS (SELECT a, c FROM acct WHERE c >= 0 AND b = 300),
           r AS (RELATE x, y WHERE x.a < y.a)
    TAKE *)";
  std::string canonical[2];
  std::string access[2];
  for (int side = 0; side < 2; ++side) {
    Database::Options opt;
    opt.default_storage = GetParam();
    opt.use_indexes = side == 0;
    Database db(opt);
    MustExecute(&db, R"sql(
      CREATE TABLE acct (a INT PRIMARY KEY, b INT, c INT);
      CREATE INDEX acct_b ON acct (b);
      INSERT INTO acct VALUES (1, 100, 0), (2, 200, 0), (3, 300, 0),
                              (4, 200, 1), (5, 200, 0);
    )sql");
    auto writer = db.OpenSession();
    auto reader = db.OpenSession();
    ASSERT_OK(reader->Execute("BEGIN").status());
    ASSERT_OK(writer->Execute("BEGIN").status());
    ASSERT_OK(writer->Execute("UPDATE acct SET b = 200 WHERE a = 1").status());
    ASSERT_OK(writer->Execute("DELETE FROM acct WHERE a = 5").status());
    ASSERT_OK_AND_ASSIGN(ExecResult r, reader->Execute(query));
    canonical[side] = ReferenceEngine::Canonicalize(r.co);
    for (const co::Evaluator::QueryProfile& p :
         db.last_xnf_stats().profiles) {
      if (p.kind == co::Evaluator::QueryProfile::Kind::kNode) {
        access[side] += p.access + " ";
      }
    }
  }
  EXPECT_EQ(canonical[0], canonical[1]);
  EXPECT_NE(canonical[0].find("(5, 200, 0)"), std::string::npos)
      << canonical[0];
  EXPECT_EQ(access[0], "index index ");
  EXPECT_EQ(access[1], "scan scan ");
}

// Crash recovery of the visibility horizon: committed work survives a
// reopen, an open transaction at "crash" never does, and the recovered
// commit-epoch floor keeps advancing instead of resetting.
TEST_P(MvccIsolationTest, CrashRecoveryDropsUncommittedWork) {
  ScopedDir dir;
  ASSERT_FALSE(dir.path().empty());
  Database::Options opt;
  opt.default_storage = GetParam();
  opt.data_dir = dir.path();
  opt.wal_fsync = false;
  opt.checkpoint_on_close = false;  // model a crash, not a clean shutdown

  uint64_t epoch_before = 0;
  {
    auto db = std::make_unique<Database>(opt);
    ASSERT_OK(db->open_error());
    MustExecute(db.get(), R"sql(
      CREATE TABLE w (a INT PRIMARY KEY, b INT);
      INSERT INTO w VALUES (1, 10), (2, 20);
    )sql");
    MustExecute(db.get(), "BEGIN");
    MustExecute(db.get(), "UPDATE w SET b = 999 WHERE a = 1");
    MustExecute(db.get(), "INSERT INTO w VALUES (3, 30)");
    epoch_before = static_cast<uint64_t>(
        QueryInt(db.get(), "SELECT epoch FROM sqlxnf_transactions"));
    // Destroyed with the transaction open: the WAL ends in an unterminated
    // transaction, exactly like a crash.
  }
  {
    auto db = std::make_unique<Database>(opt);
    ASSERT_OK(db->open_error());
    EXPECT_EQ(QueryInt(db.get(), "SELECT b FROM w WHERE a = 1"), 10);
    EXPECT_EQ(QueryInt(db.get(), "SELECT COUNT(*) FROM w"), 2);
    // The recovered epoch floor is at least the pre-crash committed horizon.
    EXPECT_GE(QueryInt(db.get(), "SELECT epoch FROM sqlxnf_transactions"),
              static_cast<int64_t>(epoch_before));
    // And the engine is fully transactional again after recovery.
    auto s = db->OpenSession();
    ASSERT_OK(s->Execute("BEGIN").status());
    ASSERT_OK(s->Execute("UPDATE w SET b = 11 WHERE a = 1").status());
    ASSERT_OK(s->Execute("COMMIT").status());
    EXPECT_EQ(QueryInt(db.get(), "SELECT b FROM w WHERE a = 1"), 11);
  }
}

TEST_P(MvccIsolationTest, CheckpointCarriesEpochFloorAcrossReopen) {
  ScopedDir dir;
  ASSERT_FALSE(dir.path().empty());
  Database::Options opt;
  opt.default_storage = GetParam();
  opt.data_dir = dir.path();
  opt.wal_fsync = false;
  opt.checkpoint_on_close = true;

  int64_t epoch_before = 0;
  {
    auto db = std::make_unique<Database>(opt);
    ASSERT_OK(db->open_error());
    MustExecute(db.get(), R"sql(
      CREATE TABLE w (a INT PRIMARY KEY, b INT);
      INSERT INTO w VALUES (1, 10);
    )sql");
    MustExecute(db.get(), "BEGIN; UPDATE w SET b = 20 WHERE a = 1; COMMIT");
    epoch_before =
        QueryInt(db.get(), "SELECT epoch FROM sqlxnf_transactions");
    EXPECT_GT(epoch_before, 0);
    // Clean close checkpoints: the epoch floor must travel through the
    // checkpoint meta, not just WAL commit markers (the WAL is now empty).
  }
  {
    auto db = std::make_unique<Database>(opt);
    ASSERT_OK(db->open_error());
    EXPECT_EQ(QueryInt(db.get(), "SELECT b FROM w WHERE a = 1"), 20);
    EXPECT_GE(QueryInt(db.get(), "SELECT epoch FROM sqlxnf_transactions"),
              epoch_before);
  }
}

INSTANTIATE_TEST_SUITE_P(Layouts, MvccIsolationTest,
                         ::testing::Values(StorageKind::kRow,
                                           StorageKind::kColumn),
                         [](const ::testing::TestParamInfo<StorageKind>& i) {
                           return i.param == StorageKind::kRow ? "Row"
                                                               : "Column";
                         });

INSTANTIATE_TEST_SUITE_P(Layouts, IndexedReadsUnderWriterTest,
                         ::testing::Values(StorageKind::kRow,
                                           StorageKind::kColumn),
                         [](const ::testing::TestParamInfo<StorageKind>& i) {
                           return i.param == StorageKind::kRow ? "Row"
                                                               : "Column";
                         });

}  // namespace
}  // namespace xnf::testing
