// Crash-recovery tests for the durable database (Options::data_dir): WAL
// replay over the checkpoint snapshot, checkpoint failure atomicity, and
// the pinned corpus scenarios from the durability issue — a torn final WAL
// record, a crash between page flush and manifest, and recovery of
// columnar row groups.

#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "catalog/durability.h"
#include "common/failpoint.h"
#include "gtest/gtest.h"
#include "test_util.h"

namespace xnf::testing {
namespace {

namespace fs = std::filesystem;

// Fresh directory per test case; removed on scope exit.
class TempDir {
 public:
  explicit TempDir(const std::string& tag) {
    path_ = ::testing::TempDir() + "sqlxnf_recovery_" + tag + "_" +
            std::to_string(::getpid());
    fs::remove_all(path_);
  }
  ~TempDir() { fs::remove_all(path_); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

Database::Options DurableOptions(const std::string& dir,
                                 bool checkpoint_on_close = true) {
  Database::Options opt;
  opt.data_dir = dir;
  opt.wal_fsync = false;  // in-process tests need no physical flushes
  opt.checkpoint_on_close = checkpoint_on_close;
  return opt;
}

std::vector<std::string> TableDump(Database* db, const std::string& table) {
  auto rows = db->Query("SELECT * FROM " + table);
  EXPECT_TRUE(rows.ok()) << rows.status().ToString();
  if (!rows.ok()) return {};
  return NormalizedRows(*rows);
}

class RecoveryTest : public ::testing::Test {
 protected:
  void TearDown() override { Failpoints::DisableAll(); }
};

TEST_F(RecoveryTest, InMemoryDatabaseRefusesCheckpoint) {
  Database db;
  EXPECT_FALSE(db.durable());
  EXPECT_FALSE(db.Checkpoint().ok());
}

TEST_F(RecoveryTest, CleanShutdownRestoresTablesIndexesAndViews) {
  TempDir dir("clean");
  std::vector<std::string> want_emp;
  {
    Database db(DurableOptions(dir.path()));
    ASSERT_OK(db.open_error());
    EXPECT_TRUE(db.durable());
    MustExecute(&db, R"sql(
      CREATE TABLE dept (dno INT PRIMARY KEY, loc VARCHAR);
      CREATE TABLE emp (eno INT PRIMARY KEY, ename VARCHAR, sal INT, edno INT);
      CREATE INDEX emp_sal ON emp (sal);
      CREATE VIEW ny AS SELECT * FROM dept WHERE loc = 'NY';
      INSERT INTO dept VALUES (1, 'NY'), (2, 'SF');
      INSERT INTO emp VALUES (1, 'a', 1000, 1), (2, 'b', 2000, 1),
                             (3, 'c', 1500, 2);
      UPDATE emp SET sal = sal + 10 WHERE eno = 2;
      DELETE FROM emp WHERE eno = 3;
    )sql");
    want_emp = TableDump(&db, "emp");
  }  // destructor checkpoints
  {
    Database db(DurableOptions(dir.path()));
    ASSERT_OK(db.open_error());
    EXPECT_EQ(TableDump(&db, "emp"), want_emp);
    // The secondary index survived and serves queries.
    ASSERT_OK_AND_ASSIGN(auto rs, db.Query("SELECT eno FROM emp WHERE sal = 2010"));
    EXPECT_EQ(IntColumn(rs, 0), std::vector<int64_t>{2});
    // Views replay too.
    ASSERT_OK_AND_ASSIGN(auto ny, db.Query("SELECT dno FROM ny"));
    EXPECT_EQ(IntColumn(ny, 0), std::vector<int64_t>{1});
    // And the database stays writable with correct unique enforcement.
    EXPECT_FALSE(db.Execute("INSERT INTO emp VALUES (1, 'dup', 1, 1)").ok());
    MustExecute(&db, "INSERT INTO emp VALUES (9, 'z', 5, 2)");
  }
}

TEST_F(RecoveryTest, WalReplayWithoutCheckpoint) {
  TempDir dir("walonly");
  std::vector<std::string> want;
  {
    Database db(DurableOptions(dir.path(), /*checkpoint_on_close=*/false));
    ASSERT_OK(db.open_error());
    MustExecute(&db, R"sql(
      CREATE TABLE t (a INT PRIMARY KEY, b VARCHAR);
      INSERT INTO t VALUES (1, 'x'), (2, 'y'), (3, 'z');
      DELETE FROM t WHERE a = 2;
      INSERT INTO t VALUES (4, 'w');
      UPDATE t SET b = 'q' WHERE a = 1;
    )sql");
    want = TableDump(&db, "t");
  }  // no checkpoint: everything must come back from the WAL alone
  Database db(DurableOptions(dir.path()));
  ASSERT_OK(db.open_error());
  EXPECT_EQ(TableDump(&db, "t"), want);
}

TEST_F(RecoveryTest, AbortedStatementReplaysItsRidSideEffects) {
  TempDir dir("abort");
  std::vector<std::string> want;
  {
    Database db(DurableOptions(dir.path(), /*checkpoint_on_close=*/false));
    MustExecute(&db,
                "CREATE TABLE t (a INT PRIMARY KEY);"
                "INSERT INTO t VALUES (1), (2)");
    // Multi-row insert that fails part-way (duplicate key on the third
    // row): the first two applied, then rolled back, tombstoning two slots.
    EXPECT_FALSE(db.Execute("INSERT INTO t VALUES (3), (4), (1)").ok());
    // Later statements allocate rids *after* the tombstoned slots; replay
    // must reproduce that exact rid layout for their WAL records to land.
    MustExecute(&db, "INSERT INTO t VALUES (5), (6)");
    MustExecute(&db, "UPDATE t SET a = 7 WHERE a = 5");
    MustExecute(&db, "DELETE FROM t WHERE a = 2");
    want = TableDump(&db, "t");
  }
  Database db(DurableOptions(dir.path()));
  ASSERT_OK(db.open_error());
  EXPECT_EQ(TableDump(&db, "t"), want);
}

TEST_F(RecoveryTest, UnterminatedTransactionRollsBackOnRecovery) {
  TempDir dir("txn");
  std::vector<std::string> want;
  {
    Database db(DurableOptions(dir.path(), /*checkpoint_on_close=*/false));
    MustExecute(&db,
                "CREATE TABLE t (a INT PRIMARY KEY);"
                "INSERT INTO t VALUES (1)");
    // A committed transaction survives...
    MustExecute(&db, "BEGIN");
    MustExecute(&db, "INSERT INTO t VALUES (2)");
    MustExecute(&db, "COMMIT");
    // ...an explicitly rolled-back one doesn't...
    MustExecute(&db, "BEGIN");
    MustExecute(&db, "INSERT INTO t VALUES (3)");
    MustExecute(&db, "ROLLBACK");
    want = TableDump(&db, "t");
    // ...and one still open at the crash rolls back during recovery.
    MustExecute(&db, "BEGIN");
    MustExecute(&db, "INSERT INTO t VALUES (4)");
    MustExecute(&db, "UPDATE t SET a = 9 WHERE a = 1");
  }  // "crash" with the transaction open
  Database db(DurableOptions(dir.path()));
  ASSERT_OK(db.open_error());
  EXPECT_EQ(TableDump(&db, "t"), want);
  EXPECT_FALSE(db.in_transaction());
}

// Pinned corpus scenario 1: the last WAL record is torn (partial final
// write). The committed prefix must recover; the torn statement vanishes.
TEST_F(RecoveryTest, TornFinalWalRecordDropsOnlyTheTornStatement) {
  TempDir dir("torn");
  std::vector<std::string> want_prefix;
  std::string wal_path;
  {
    Database db(DurableOptions(dir.path(), /*checkpoint_on_close=*/false));
    MustExecute(&db,
                "CREATE TABLE t (a INT PRIMARY KEY);"
                "INSERT INTO t VALUES (1), (2)");
    want_prefix = TableDump(&db, "t");
    MustExecute(&db, "INSERT INTO t VALUES (3)");
    wal_path = db.durable_store()->wal()->path();
  }
  // Tear into the last statement's commit marker.
  ASSERT_FALSE(wal_path.empty());
  uint64_t size = static_cast<uint64_t>(fs::file_size(wal_path));
  ASSERT_EQ(::truncate(wal_path.c_str(), static_cast<off_t>(size - 5)), 0);

  std::vector<std::string> recovered;
  {
    Database db(DurableOptions(dir.path()));
    ASSERT_OK(db.open_error());
    recovered = TableDump(&db, "t");
    EXPECT_EQ(recovered, want_prefix);
    // The truncated garbage was cut away; appending keeps working.
    MustExecute(&db, "INSERT INTO t VALUES (30)");
  }
  Database again(DurableOptions(dir.path()));
  ASSERT_OK(again.open_error());
  ASSERT_OK_AND_ASSIGN(auto rs, again.Query("SELECT COUNT(*) FROM t"));
  EXPECT_EQ(IntColumn(rs, 0), std::vector<int64_t>{3});
}

// A torn statement can leave intact record frames behind: recovery
// truncates only the garbage suffix, so the stray records (whose commit
// marker was cut off) stay in the file ahead of anything appended after
// recovery. They carry a stale sequence and must never merge into a later
// statement's commit — the bug here applied a torn UPDATE as a side effect
// of the first post-recovery statement's replay.
TEST_F(RecoveryTest, StrayRecordsOfATornStatementNeverMergeForward) {
  TempDir dir("stray");
  std::string wal_path;
  uint64_t before_torn = 0;
  {
    Database db(DurableOptions(dir.path(), /*checkpoint_on_close=*/false));
    MustExecute(&db,
                "CREATE TABLE t (a INT PRIMARY KEY, b INT);"
                "INSERT INTO t VALUES (1, 10), (2, 20)");
    wal_path = db.durable_store()->wal()->path();
    before_torn = db.durable_store()->wal()->bytes_written();
    MustExecute(&db, "UPDATE t SET b = b + 100");
  }
  // Cut inside the update's commit-marker frame (8 header + 9 payload
  // bytes): both row-update records stay intact but unmarked.
  uint64_t size = static_cast<uint64_t>(fs::file_size(wal_path));
  ASSERT_GT(size - 10, before_torn);
  ASSERT_EQ(::truncate(wal_path.c_str(), static_cast<off_t>(size - 10)), 0);

  std::vector<std::string> want;
  {
    Database db(DurableOptions(dir.path(), /*checkpoint_on_close=*/false));
    ASSERT_OK(db.open_error());
    // The torn update is gone; new work lands on top of the stray records.
    MustExecute(&db, "INSERT INTO t VALUES (3, 30)");
    want = TableDump(&db, "t");
  }
  Database again(DurableOptions(dir.path()));
  ASSERT_OK(again.open_error());
  EXPECT_EQ(TableDump(&again, "t"), want);
}

// A statement whose commit-marker *sync* fails is rolled back in memory,
// but rolling back an applied insert tombstones the slot it allocated.
// The erased marker must leave the statement's records + an abort marker
// behind so replay burns the same slot; otherwise every later rid in the
// log shifts and committed updates/deletes land on the wrong rows.
TEST_F(RecoveryTest, FailedCommitSyncStillBurnsItsRidsOnReplay) {
  TempDir dir("commit_sync");
  std::vector<std::string> want;
  {
    Database db(DurableOptions(dir.path(), /*checkpoint_on_close=*/false));
    ASSERT_OK(db.open_error());
    MustExecute(&db,
                "CREATE TABLE t (a INT PRIMARY KEY, b INT);"
                "INSERT INTO t VALUES (1, 10), (2, 20)");
    // Applies fully, then the commit sync fails: the engine rolls the
    // statement back, leaving a tombstone where the insert landed.
    ASSERT_OK(Failpoints::EnableSpec("wal.fsync=nth(1)"));
    auto failed = db.Execute("INSERT INTO t VALUES (3, 30)");
    ASSERT_FALSE(failed.ok());
    EXPECT_EQ(failed.status().code(), StatusCode::kFaultInjected);
    Failpoints::DisableAll();
    // Committed records whose rids sit after the burned slot.
    MustExecute(&db,
                "INSERT INTO t VALUES (4, 40);"
                "UPDATE t SET b = 99 WHERE a = 4;"
                "DELETE FROM t WHERE a = 1;"
                "INSERT INTO t VALUES (5, 50)");
    want = TableDump(&db, "t");
  }
  Database db(DurableOptions(dir.path(), /*checkpoint_on_close=*/false));
  ASSERT_TRUE(db.open_error().ok()) << db.open_error().ToString();
  EXPECT_EQ(TableDump(&db, "t"), want);
}

// Pinned corpus scenario 2: crash between flushing pages and publishing
// the manifest. The old manifest stays authoritative, so the pre-checkpoint
// state (snapshot + full WAL) must recover unharmed.
TEST_F(RecoveryTest, CrashBetweenPageFlushAndManifestKeepsOldCheckpoint) {
  for (const char* site : {"checkpoint.sync", "checkpoint.manifest"}) {
    SCOPED_TRACE(site);
    Failpoints::DisableAll();
    TempDir dir(std::string("chkcrash_") + site[11]);
    std::vector<std::string> want;
    {
      Database db(DurableOptions(dir.path(), /*checkpoint_on_close=*/false));
      MustExecute(&db,
                  "CREATE TABLE t (a INT PRIMARY KEY, b VARCHAR);"
                  "INSERT INTO t VALUES (1, 'x'), (2, 'y')");
      ASSERT_OK(db.Checkpoint());  // a real first checkpoint
      MustExecute(&db, "INSERT INTO t VALUES (3, 'z')");
      MustExecute(&db, "UPDATE t SET b = 'q' WHERE a = 1");
      want = TableDump(&db, "t");
      // Second checkpoint dies mid-protocol after writing page data.
      ASSERT_OK(Failpoints::EnableSpec(std::string(site) + "=nth(1)"));
      Status failed = db.Checkpoint();
      EXPECT_FALSE(failed.ok());
      EXPECT_EQ(failed.code(), StatusCode::kFaultInjected);
      Failpoints::DisableAll();
      // The live database keeps serving reads and writes after the failure.
      EXPECT_EQ(TableDump(&db, "t"), want);
      MustExecute(&db, "INSERT INTO t VALUES (4, 'post')");
      want = TableDump(&db, "t");
    }
    Database db(DurableOptions(dir.path()));
    ASSERT_OK(db.open_error());
    EXPECT_EQ(TableDump(&db, "t"), want);
  }
}

// Pinned corpus scenario 3: columnar tables with several sealed row groups,
// cluster tags, and tombstones round-trip through checkpoint + WAL replay.
TEST_F(RecoveryTest, ColumnarRowGroupsRecover) {
  TempDir dir("columnar");
  std::vector<std::string> want;
  std::vector<std::string> want_cluster;
  {
    Database::Options opt = DurableOptions(dir.path());
    opt.tuples_per_page = 1;  // 16-row groups: 24 rows per key seal one each
    Database db(opt);
    ASSERT_OK(db.open_error());
    MustExecute(&db,
                "CREATE TABLE m (k INT PRIMARY KEY, grp INT, v VARCHAR) "
                "USING COLUMN CLUSTER BY grp");
    for (int i = 0; i < 120; ++i) {
      MustExecute(&db, "INSERT INTO m VALUES (" + std::to_string(i) + ", " +
                           std::to_string(i % 5) + ", 'v" +
                           std::to_string(i % 7) + "')");
    }
    const ColumnStore* store =
        db.catalog()->GetTable("m")->storage->AsColumnStore();
    ASSERT_NE(store, nullptr);
    EXPECT_GT(store->page_count(), 5u);  // a sealed and an open group per key
    EXPECT_GT(store->CompressionStats().rle_segments, 0u);
    MustExecute(&db, "DELETE FROM m WHERE k % 9 = 3");
    MustExecute(&db, "UPDATE m SET v = 'upd' WHERE k % 11 = 0");
    ASSERT_OK(db.Checkpoint());
    // Post-checkpoint writes ride the WAL into open row groups.
    MustExecute(&db, "INSERT INTO m VALUES (200, 2, 'tail'), (201, 4, 'tail')");
    want = TableDump(&db, "m");
    ASSERT_OK_AND_ASSIGN(auto rs,
                         db.Query("SELECT k FROM m WHERE grp = 2"));
    want_cluster = NormalizedRows(rs);
  }
  Database::Options opt = DurableOptions(dir.path());
  opt.tuples_per_page = 1;
  Database db(opt);
  ASSERT_OK(db.open_error());
  EXPECT_EQ(TableDump(&db, "m"), want);
  // Full restored groups are sealed again.
  const ColumnStore* store =
      db.catalog()->GetTable("m")->storage->AsColumnStore();
  ASSERT_NE(store, nullptr);
  EXPECT_GT(store->page_count(), 5u);
  EXPECT_GT(store->CompressionStats().rle_segments, 0u);
  // Cluster-tag pruning still answers correctly on the restored groups.
  ASSERT_OK_AND_ASSIGN(auto rs, db.Query("SELECT k FROM m WHERE grp = 2"));
  EXPECT_EQ(NormalizedRows(rs), want_cluster);
  // Restored open groups keep accepting clustered inserts.
  MustExecute(&db, "INSERT INTO m VALUES (202, 2, 'more')");
  ASSERT_OK_AND_ASSIGN(auto after,
                       db.Query("SELECT COUNT(*) FROM m WHERE grp = 2"));
  EXPECT_EQ(IntColumn(after, 0),
            std::vector<int64_t>{static_cast<int64_t>(want_cluster.size()) + 1});
}

// A data dir records its storage layout in the MANIFEST and keeps it
// whatever tuples_per_page a later open asks for: checkpointed groups are
// restored at their own size, and replayed inserts get the rids that the
// logged updates and deletes name.
TEST_F(RecoveryTest, DataDirKeepsTheLayoutItWasCreatedWith) {
  TempDir dir("layout");
  std::vector<std::string> want;
  {
    Database::Options opt =
        DurableOptions(dir.path(), /*checkpoint_on_close=*/false);
    opt.tuples_per_page = 1;  // 16-row groups
    Database db(opt);
    ASSERT_OK(db.open_error());
    MustExecute(&db, "CREATE TABLE c (k INT PRIMARY KEY, v INT) USING COLUMN");
    for (int i = 0; i < 70; ++i) {
      MustExecute(&db, "INSERT INTO c VALUES (" + std::to_string(i) + ", " +
                           std::to_string(i) + ")");
      if (i == 39) {
        // A tombstone in the open tail group, then a checkpoint.
        MustExecute(&db, "DELETE FROM c WHERE k = 37");
        ASSERT_OK(db.Checkpoint());
      }
    }
    // Logged after the checkpoint, by rid, in groups that replay refills.
    MustExecute(&db, "UPDATE c SET v = -1 WHERE k = 50");
    MustExecute(&db, "DELETE FROM c WHERE k = 65");
    EXPECT_EQ(db.catalog()->GetTable("c")->storage->page_count(), 5u);
    want = TableDump(&db, "c");
  }
  Database db(DurableOptions(dir.path()));  // default tuples_per_page
  ASSERT_OK(db.open_error());
  EXPECT_EQ(db.catalog()->layout(), StorageLayout::ForPageSize(1));
  EXPECT_EQ(TableDump(&db, "c"), want);
  // The restored tail group grows past 64 rows.
  for (int i = 100; i < 200; ++i) {
    MustExecute(&db, "INSERT INTO c VALUES (" + std::to_string(i) + ", " +
                         std::to_string(i) + ")");
  }
  ASSERT_OK_AND_ASSIGN(auto rs, db.Query("SELECT COUNT(*), SUM(v) FROM c"));
  EXPECT_EQ(IntColumn(rs, 0), std::vector<int64_t>{168});
  // 0..69 without 37, 50 and 65, plus -1 for 50, plus 100..199.
  EXPECT_EQ(IntColumn(rs, 1),
            std::vector<int64_t>{2415 - 37 - 50 - 65 - 1 + 14950});
  EXPECT_EQ(db.catalog()->GetTable("c")->storage->page_count(), 11u);
  // Tables created after the reopen share the recorded layout.
  MustExecute(&db, "CREATE TABLE d (k INT) USING COLUMN");
  for (int i = 0; i < 20; ++i) {
    MustExecute(&db, "INSERT INTO d VALUES (" + std::to_string(i) + ")");
  }
  EXPECT_EQ(db.catalog()->GetTable("d")->storage->page_count(), 2u);
}

// A MANIFEST without a recorded layout was written when a row group held
// one heap page's rows: it opens with that layout, and its WAL replays onto
// the same rids.
TEST_F(RecoveryTest, ManifestWithoutLayoutKeepsPageSizedRowGroups) {
  TempDir dir("legacy");
  std::vector<std::string> want;
  {
    Database::Options opt =
        DurableOptions(dir.path(), /*checkpoint_on_close=*/false);
    opt.tuples_per_page = 4;  // 64-row groups, as at 64-tuple pages before
    Database db(opt);
    ASSERT_OK(db.open_error());
    ASSERT_EQ(db.catalog()->layout().rows_per_group, 64u);
    MustExecute(&db, "CREATE TABLE c (k INT PRIMARY KEY, v INT) USING COLUMN");
    for (int i = 0; i < 100; ++i) {
      MustExecute(&db, "INSERT INTO c VALUES (" + std::to_string(i) + ", " +
                           std::to_string(i) + ")");
    }
    MustExecute(&db, "DELETE FROM c WHERE k = 70");
    ASSERT_OK(db.Checkpoint());
    for (int i = 100; i < 200; ++i) {
      MustExecute(&db, "INSERT INTO c VALUES (" + std::to_string(i) + ", " +
                           std::to_string(i) + ")");
    }
    MustExecute(&db, "UPDATE c SET v = -1 WHERE k = 130");
    MustExecute(&db, "DELETE FROM c WHERE k = 190");
    want = TableDump(&db, "c");
  }
  {
    // Strip the layout lines, as a MANIFEST written before they existed.
    const std::string path = dir.path() + "/MANIFEST";
    std::ifstream in(path);
    std::string line, kept;
    while (std::getline(in, line)) {
      if (line.rfind("tuples_per_page ", 0) == 0 ||
          line.rfind("rows_per_group ", 0) == 0) {
        continue;
      }
      kept += line + "\n";
    }
    in.close();
    std::ofstream out(path, std::ios::trunc);
    out << kept;
  }
  {
    Database db(DurableOptions(dir.path()));  // 64-tuple pages
    ASSERT_OK(db.open_error());
    EXPECT_EQ(db.catalog()->layout(), (StorageLayout{64, 64}));
    EXPECT_EQ(TableDump(&db, "c"), want);
    EXPECT_EQ(db.catalog()->GetTable("c")->storage->page_count(), 4u);
  }
  // The close checkpoint recorded the adopted layout.
  Database db(DurableOptions(dir.path()));
  ASSERT_OK(db.open_error());
  EXPECT_EQ(db.catalog()->layout(), (StorageLayout{64, 64}));
  EXPECT_EQ(TableDump(&db, "c"), want);
}

TEST_F(RecoveryTest, DroppedAndRecreatedTablesRecover) {
  TempDir dir("drop");
  std::vector<std::string> want;
  {
    Database db(DurableOptions(dir.path()));
    MustExecute(&db,
                "CREATE TABLE t (a INT PRIMARY KEY);"
                "INSERT INTO t VALUES (1), (2)");
    ASSERT_OK(db.Checkpoint());  // t's pages reach the page file
    MustExecute(&db, "DROP TABLE t");
    MustExecute(&db,
                "CREATE TABLE t (a INT PRIMARY KEY, b INT);"
                "INSERT INTO t VALUES (7, 8)");
    want = TableDump(&db, "t");
  }
  // The stale checkpointed pages of the dropped incarnation must not bleed
  // into the new table (distinct file ids).
  Database db(DurableOptions(dir.path()));
  ASSERT_OK(db.open_error());
  EXPECT_EQ(TableDump(&db, "t"), want);
}

TEST_F(RecoveryTest, CheckpointRefusedInsideTransaction) {
  TempDir dir("intxn");
  Database db(DurableOptions(dir.path()));
  MustExecute(&db, "CREATE TABLE t (a INT PRIMARY KEY)");
  MustExecute(&db, "BEGIN");
  MustExecute(&db, "INSERT INTO t VALUES (1)");
  EXPECT_FALSE(db.Checkpoint().ok());
  MustExecute(&db, "COMMIT");
  ASSERT_OK(db.Checkpoint());
}

TEST_F(RecoveryTest, AutoCheckpointRotatesTheWal) {
  TempDir dir("auto");
  Database::Options opt = DurableOptions(dir.path());
  opt.checkpoint_wal_bytes = 256;
  Database db(opt);
  ASSERT_OK(db.open_error());
  MustExecute(&db, "CREATE TABLE t (a INT PRIMARY KEY, pad VARCHAR)");
  std::string first_wal = db.durable_store()->wal()->path();
  for (int i = 0; i < 32; ++i) {
    MustExecute(&db, "INSERT INTO t VALUES (" + std::to_string(i) +
                         ", 'padding-padding-padding')");
  }
  EXPECT_NE(db.durable_store()->wal()->path(), first_wal);
  ASSERT_OK_AND_ASSIGN(auto rs, db.Query("SELECT COUNT(*) FROM t"));
  EXPECT_EQ(IntColumn(rs, 0), std::vector<int64_t>{32});
}

TEST_F(RecoveryTest, InjectedWalFaultsKeepLogAndMemoryAgreed) {
  TempDir dir("walfault");
  std::vector<std::string> want;
  {
    Database db(DurableOptions(dir.path(), /*checkpoint_on_close=*/false));
    MustExecute(&db,
                "CREATE TABLE t (a INT PRIMARY KEY);"
                "INSERT INTO t VALUES (1), (2), (3)");
    // Every 3rd WAL append fails: some statements are rejected, and each
    // rejection must be invisible both in memory and after replay.
    ASSERT_OK(Failpoints::EnableSpec("wal.append=every(3)"));
    for (int i = 10; i < 30; ++i) {
      (void)db.Execute("INSERT INTO t VALUES (" + std::to_string(i) + ")");
      (void)db.Execute("UPDATE t SET a = a WHERE a = " + std::to_string(i));
    }
    Failpoints::DisableAll();
    want = TableDump(&db, "t");
  }
  Database db(DurableOptions(dir.path()));
  ASSERT_OK(db.open_error());
  EXPECT_EQ(TableDump(&db, "t"), want);
}

TEST_F(RecoveryTest, CorruptManifestSurfacesAsOpenError) {
  TempDir dir("badmanifest");
  {
    Database db(DurableOptions(dir.path()));
    MustExecute(&db, "CREATE TABLE t (a INT PRIMARY KEY)");
  }
  {
    std::ofstream out(dir.path() + "/MANIFEST", std::ios::trunc);
    out << "not a manifest\n";
  }
  Database db(DurableOptions(dir.path()));
  EXPECT_FALSE(db.open_error().ok());
  EXPECT_FALSE(db.durable());
  EXPECT_FALSE(db.Execute("SELECT 1").ok());
  EXPECT_FALSE(db.Checkpoint().ok());
}

TEST_F(RecoveryTest, RecoveryMetricsAreReported) {
  TempDir dir("metrics");
  {
    Database db(DurableOptions(dir.path(), /*checkpoint_on_close=*/false));
    MustExecute(&db,
                "CREATE TABLE t (a INT PRIMARY KEY);"
                "INSERT INTO t VALUES (1), (2)");
  }
  Database db(DurableOptions(dir.path()));
  ASSERT_OK(db.open_error());
  ASSERT_OK_AND_ASSIGN(
      auto rs, db.Query("SELECT name, value FROM sqlxnf_metrics "
                        "WHERE name = 'recovery.wal_records' AND value > 0"));
  EXPECT_EQ(rs.rows.size(), 1u);
}

}  // namespace
}  // namespace xnf::testing
