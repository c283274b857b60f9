// End-to-end tests for the column-batch execution path: dictionary-code
// join keys (shared / per-table / overflowed dictionaries, NULLs, empty
// build sides), pin lifetime of zero-copy column views under buffer-pool
// pressure, CLUSTER BY placement and pruning, bit-identity of columnar plans
// against row plans at every DOP, the scan's automatic choice between
// column batches and gathered rows, and the XNF TAKE-pruning decode
// counters.
//
// The cross-engine comparisons are deliberately *unsorted*: row and
// columnar storage belong to the same plan group, so their results must be
// bit-identical, not merely equal as multisets. Row tables never take the
// column-batch path, which makes the row engine the reference.

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/failpoint.h"
#include "exec/dml.h"
#include "exec/parallel.h"
#include "gtest/gtest.h"
#include "test_util.h"

namespace xnf::testing {
namespace {

std::string QueryText(Database* db, const std::string& sql) {
  auto rs = db->Query(sql);
  EXPECT_TRUE(rs.ok()) << sql << ": " << rs.status().ToString();
  return rs.ok() ? rs->ToString() : std::string();
}

// Flattens an EXPLAIN [ANALYZE] result (one row per plan line) to a string.
std::string ExplainText(Database* db, const std::string& stmt) {
  auto result = db->Execute(stmt);
  EXPECT_TRUE(result.ok()) << stmt << ": " << result.status().ToString();
  std::string out;
  if (!result.ok()) return out;
  for (const Row& row : result->rows.rows) {
    out += row[0].AsString() + "\n";
  }
  return out;
}

// Bulk insert bypassing the parser — the overflow test needs enough rows to
// blow past max_dict_entries, which would be slow as SQL text.
void InsertRows(Database* db, const std::string& table,
                std::vector<Row> rows) {
  TableInfo* info = db->catalog()->GetTable(table);
  ASSERT_NE(info, nullptr) << table;
  exec::DmlExecutor dml(db->catalog());
  for (Row& row : rows) {
    ASSERT_OK(dml.InsertRow(info, std::move(row)).status());
  }
}

// One database per storage clause; the schema/data builder is shared so
// every engine sees the same logical contents.
std::unique_ptr<Database> MakeDb(
    bool columnar,
    const std::function<void(Database*, const std::string&)>& build,
    int threads = 1, size_t pool_pages = 0,
    uint32_t tuples_per_page = Database::Options{}.tuples_per_page) {
  Database::Options options;
  options.threads = threads;
  options.buffer_pool_pages = pool_pages;
  options.tuples_per_page = tuples_per_page;
  auto db = std::make_unique<Database>(options);
  build(db.get(), columnar ? " USING column" : " USING row");
  return db;
}

// Runs `sql` on a row-storage reference and on a columnar engine, and
// expects both texts to match byte-for-byte.
void ExpectAllEnginesAgree(
    const std::function<void(Database*, const std::string&)>& build,
    const std::vector<std::string>& queries) {
  auto row = MakeDb(/*columnar=*/false, build);
  auto col = MakeDb(/*columnar=*/true, build);
  for (const std::string& sql : queries) {
    EXPECT_EQ(QueryText(col.get(), sql), QueryText(row.get(), sql)) << sql;
  }
}

// --- Dictionary-code join keys ---------------------------------------------

TEST(DictCodeJoin, SharedDictionarySelfJoin) {
  // Both join sides scan the same table, so build and probe codes come from
  // one dictionary and compare without translation. NULL keys and dangling
  // keys are mixed in.
  auto build = [](Database* db, const std::string& storage) {
    MustExecute(db, "CREATE TABLE t (s VARCHAR, v INT)" + storage);
    std::string insert = "INSERT INTO t VALUES ";
    for (int i = 0; i < 300; ++i) {
      if (i > 0) insert += ", ";
      if (i % 11 == 0) {
        insert += "(NULL, " + std::to_string(i) + ")";
      } else {
        insert += "('k" + std::to_string(i % 40) + "', " +
                  std::to_string(i) + ")";
      }
    }
    MustExecute(db, insert);
  };
  ExpectAllEnginesAgree(
      build,
      {"SELECT a.v, b.v FROM t a, t b WHERE a.s = b.s AND b.v < 30",
       "SELECT a.s, COUNT(*) FROM t a, t b WHERE a.s = b.s GROUP BY a.s",
       "SELECT a.v FROM t a, t b WHERE a.s = b.s AND b.v = 23"});
}

TEST(DictCodeJoin, PerTableDictionariesTranslate) {
  // The same strings enter the two dictionaries in different orders, so the
  // same key has *different* codes on each side: the probe-side code map
  // must translate, never compare raw codes across tables.
  auto build = [](Database* db, const std::string& storage) {
    MustExecute(db, "CREATE TABLE lhs (s VARCHAR, v INT)" + storage);
    MustExecute(db, "CREATE TABLE rhs (s VARCHAR, w INT)" + storage);
    std::string l = "INSERT INTO lhs VALUES ";
    std::string r = "INSERT INTO rhs VALUES ";
    for (int i = 0; i < 200; ++i) {
      if (i > 0) {
        l += ", ";
        r += ", ";
      }
      // lhs sees keys ascending, rhs descending plus keys lhs never has.
      l += "('k" + std::to_string(i % 50) + "', " + std::to_string(i) + ")";
      r += "('k" + std::to_string((199 - i) % 61) + "', " +
           std::to_string(i) + ")";
    }
    MustExecute(db, l);
    MustExecute(db, r);
  };
  ExpectAllEnginesAgree(
      build,
      {"SELECT lhs.v, rhs.w FROM lhs, rhs WHERE lhs.s = rhs.s AND rhs.w < 40",
       "SELECT lhs.s, SUM(rhs.w) FROM lhs, rhs WHERE lhs.s = rhs.s "
       "GROUP BY lhs.s"});
}

TEST(DictCodeJoin, OverflowedDictionaryKeysStayExact) {
  // Push one side's dictionary past max_dict_entries (2^16): overflow codes
  // are segment-local and not comparable across segments, so the code-keyed
  // build must turn itself off — results still match the row engine.
  constexpr int kDistinct = 70000;
  auto build = [](Database* db, const std::string& storage) {
    MustExecute(db, "CREATE TABLE big (s VARCHAR, v INT)" + storage);
    MustExecute(db, "CREATE TABLE probe (s VARCHAR, w INT)" + storage);
    std::vector<Row> rows;
    rows.reserve(kDistinct);
    for (int i = 0; i < kDistinct; ++i) {
      rows.push_back(Row{Value::String("key" + std::to_string(i)),
                         Value::Int(i)});
    }
    InsertRows(db, "big", std::move(rows));
    // Probe keys straddle the overflow boundary: some resolve to plain
    // dictionary codes, some only exist as overflow entries.
    std::vector<Row> probe;
    for (int i = 0; i < 40; ++i) {
      int key = (i % 2 == 0) ? i * 100 : 65000 + i * 100;
      probe.push_back(Row{Value::String("key" + std::to_string(key)),
                          Value::Int(i)});
    }
    probe.push_back(Row{Value::String("nomatch"), Value::Int(999)});
    InsertRows(db, "probe", std::move(probe));
  };

  auto row = MakeDb(/*columnar=*/false, build);
  auto col = MakeDb(/*columnar=*/true, build);
  // The columnar big table really did overflow its dictionary.
  ASSERT_OK_AND_ASSIGN(
      ResultSet ov,
      col->Query(
          "SELECT dict_overflow FROM sqlxnf_storage WHERE name = 'big'"));
  ASSERT_EQ(ov.rows.size(), 1u);
  EXPECT_GT(ov.rows[0][0].AsInt(), 0);

  for (const char* sql :
       {"SELECT big.v, probe.w FROM big, probe WHERE big.s = probe.s",
        "SELECT probe.w FROM probe, big WHERE probe.s = big.s AND big.v > "
        "100"}) {
    EXPECT_EQ(QueryText(col.get(), sql), QueryText(row.get(), sql)) << sql;
  }
}

TEST(DictCodeJoin, NullKeysNeverMatch) {
  auto build = [](Database* db, const std::string& storage) {
    MustExecute(db, "CREATE TABLE l (s VARCHAR, v INT)" + storage);
    MustExecute(db, "CREATE TABLE r (s VARCHAR, w INT)" + storage);
    MustExecute(db,
                "INSERT INTO l VALUES ('a', 1), (NULL, 2), ('b', 3), "
                "(NULL, 4)");
    MustExecute(db,
                "INSERT INTO r VALUES (NULL, 10), ('b', 20), (NULL, 30), "
                "('c', 40)");
  };
  ExpectAllEnginesAgree(
      build, {"SELECT l.v, r.w FROM l, r WHERE l.s = r.s",
              "SELECT l.v FROM l, r WHERE l.s = r.s AND r.w > 5",
              "SELECT COUNT(*) FROM l, r WHERE l.s = r.s"});
}

TEST(DictCodeJoin, EmptyAndAllNullBuildSides) {
  auto build = [](Database* db, const std::string& storage) {
    MustExecute(db, "CREATE TABLE probe (s VARCHAR, v INT)" + storage);
    MustExecute(db, "CREATE TABLE nothing (s VARCHAR, w INT)" + storage);
    MustExecute(db, "CREATE TABLE onlynull (s VARCHAR, w INT)" + storage);
    MustExecute(db, "INSERT INTO probe VALUES ('a', 1), ('b', 2), (NULL, 3)");
    // `nothing` stays empty (zero rows, empty dictionary); `onlynull` has
    // rows but its string column never populates the dictionary.
    MustExecute(db, "INSERT INTO onlynull VALUES (NULL, 1), (NULL, 2)");
  };
  ExpectAllEnginesAgree(
      build,
      {"SELECT probe.v FROM probe, nothing WHERE probe.s = nothing.s",
       "SELECT probe.v, onlynull.w FROM probe, onlynull "
       "WHERE probe.s = onlynull.s",
       "SELECT COUNT(*) FROM probe, nothing WHERE probe.s = nothing.s"});
}

// --- Pin lifetime of zero-copy column views --------------------------------

// Schema/data shared by the pin tests: two columnar tables spanning many
// row groups, joined on a string key — the join retains build-side batches
// (and their pins) for its whole lifetime. The pin tests run over an 8-page
// pool with tuples_per_page = 4, i.e. 64-row groups: each 2000-row table
// spans 32 groups of two column pages.
constexpr size_t kPinPoolPages = 8;
constexpr uint32_t kPinPageTuples = 4;

void BuildPinDb(Database* db, const std::string& storage) {
  MustExecute(db, "CREATE TABLE build (s VARCHAR, v INT)" + storage);
  MustExecute(db, "CREATE TABLE probe (s VARCHAR, w INT)" + storage);
  std::vector<Row> rows;
  for (int i = 0; i < 2000; ++i) {
    rows.push_back(
        Row{Value::String("k" + std::to_string(i % 97)), Value::Int(i)});
  }
  InsertRows(db, "build", std::move(rows));
  std::vector<Row> probe;
  for (int i = 0; i < 2000; ++i) {
    probe.push_back(
        Row{Value::String("k" + std::to_string(i % 113)), Value::Int(i)});
  }
  InsertRows(db, "probe", std::move(probe));
}

// Both pin tables hold more column pages than the pool, so statements over
// them must evict; a change of group size cannot silently turn that off.
void ExpectPinTablesOutgrowPool(Database* db) {
  for (const char* table : {"build", "probe"}) {
    const TableInfo* info = db->catalog()->GetTable(table);
    ASSERT_NE(info, nullptr) << table;
    EXPECT_GT(info->storage->page_count(), 1u) << table;
    EXPECT_GT(info->storage->page_count() * info->schema.size(),
              kPinPoolPages)
        << table;
  }
}

TEST(PinLifetime, BoundedPoolJoinEvictsOnlyUnpinnedGroups) {
  // A pool far smaller than the working set forces evictions mid-join while
  // the build side holds live column views. The view-lease debug assert in
  // ColumnStore fires if an eviction ever victimizes a leased group, so
  // plain success + correct results is the invariant; pins must also drain
  // to zero once the statement finishes.
  const char* kJoin =
      "SELECT build.v, probe.w FROM build, probe "
      "WHERE build.s = probe.s AND probe.w < 200";
  auto reference = MakeDb(/*columnar=*/false, BuildPinDb);
  std::string expected = QueryText(reference.get(), kJoin);
  ASSERT_FALSE(expected.empty());
  for (int threads : {1, 4}) {
    auto db = MakeDb(/*columnar=*/true, BuildPinDb, threads, kPinPoolPages,
                     kPinPageTuples);
    ExpectPinTablesOutgrowPool(db.get());
    EXPECT_EQ(QueryText(db.get(), kJoin), expected) << "dop=" << threads;
    EXPECT_GT(db->buffer_pool()->evictions(), 0u) << "dop=" << threads;
    EXPECT_EQ(db->buffer_pool()->pinned_pages(), 0u) << "dop=" << threads;
  }
}

TEST(PinLifetime, MidJoinEvictionFaultReleasesAllPins) {
  // The bufferpool.evict failpoint fires when the pool picks an (unpinned)
  // victim: injecting it mid-join proves a failed eviction surfaces as a
  // clean statement error — never as a column view over freed memory — and
  // that every morsel/batch pin is released on the error path.
  auto db = MakeDb(/*columnar=*/true, BuildPinDb,
                   /*threads=*/1, kPinPoolPages, kPinPageTuples);
  ExpectPinTablesOutgrowPool(db.get());
  const char* kJoin =
      "SELECT build.v, probe.w FROM build, probe WHERE build.s = probe.s";
  ASSERT_OK(Failpoints::Enable("bufferpool.evict", "nth(5)"));
  auto r = db->Query(kJoin);
  Failpoints::DisableAll();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kFaultInjected);
  EXPECT_EQ(db->buffer_pool()->pinned_pages(), 0u);
  // The engine recovers: the same join now runs clean and matches the row
  // reference.
  auto reference = MakeDb(/*columnar=*/false, BuildPinDb);
  EXPECT_EQ(QueryText(db.get(), kJoin), QueryText(reference.get(), kJoin));
  EXPECT_EQ(db->buffer_pool()->pinned_pages(), 0u);
}

TEST(PinLifetime, DurabilityFaultsMidStatementReleaseAllPins) {
  // Durable + columnar + tiny pool: a DML statement scans through pinned
  // column batches while appending WAL records for every matched row, and
  // evictions under the 8-page pool write dirty pages back through the page
  // file. Injecting failures at each durability seam — the WAL append
  // mid-scan, the commit-marker fsync, a page write-back — must surface as
  // a clean statement error with every pin released and the statement fully
  // rolled back; a leaked view lease would wedge the next eviction, and a
  // batch kept across the failed statement would alias freed memory.
  namespace fs = std::filesystem;
  // wal.append=nth(3) fails the statement mid-scan, with batches pinned;
  // wal.fsync=nth(1) fails its commit marker after the scan completed.
  for (const char* spec : {"wal.append=nth(3)", "wal.fsync=nth(1)"}) {
    SCOPED_TRACE(spec);
    std::string dir = ::testing::TempDir() + "sqlxnf_pinwal_" +
                      std::to_string(::getpid());
    fs::remove_all(dir);
    {
      Database::Options options;
      options.data_dir = dir;
      options.wal_fsync = false;
      options.checkpoint_on_close = false;
      options.buffer_pool_pages = kPinPoolPages;
      options.tuples_per_page = kPinPageTuples;
      Database db(options);
      ASSERT_OK(db.open_error());
      BuildPinDb(&db, " USING column");
      ExpectPinTablesOutgrowPool(&db);
      EXPECT_GT(db.buffer_pool()->evictions(), 0u);

      std::vector<std::string> before =
          NormalizedRows(*db.Query("SELECT * FROM build"));
      ASSERT_OK(Failpoints::EnableSpec(spec));
      auto r = db.Execute("UPDATE build SET v = v + 1 WHERE v < 500");
      Failpoints::DisableAll();
      ASSERT_FALSE(r.ok());
      EXPECT_EQ(r.status().code(), StatusCode::kFaultInjected);
      EXPECT_EQ(db.buffer_pool()->pinned_pages(), 0u);
      EXPECT_EQ(NormalizedRows(*db.Query("SELECT * FROM build")), before);

      // The engine recovers in-process: the same statement now commits.
      MustExecute(&db, "UPDATE build SET v = v + 1 WHERE v < 500");
    }  // killed without a close checkpoint: reopen replays the WAL, at the
       // default tuples_per_page into the data dir's recorded layout
    Database::Options options;
    options.data_dir = dir;
    options.wal_fsync = false;
    Database db(options);
    ASSERT_TRUE(db.open_error().ok()) << db.open_error().ToString();
    auto recovered = db.Query("SELECT COUNT(*) FROM build WHERE v < 501");
    ASSERT_OK(recovered.status());
    EXPECT_EQ(db.buffer_pool()->pinned_pages(), 0u);
    fs::remove_all(dir);
  }

  // page.flush fires inside the auto-checkpoint that runs at the statement
  // boundary. Its failure is benign by contract — the statement stays
  // committed, the WAL keeps growing, no pin survives — and recovery falls
  // back to the WAL the failed checkpoint never rotated.
  {
    SCOPED_TRACE("page.flush=nth(1)");
    std::string dir = ::testing::TempDir() + "sqlxnf_pinflush_" +
                      std::to_string(::getpid());
    fs::remove_all(dir);
    std::vector<std::string> want;
    {
      Database::Options options;
      options.data_dir = dir;
      options.wal_fsync = false;
      options.checkpoint_on_close = false;
      options.checkpoint_wal_bytes = 4096;  // trip on the update's records
      options.buffer_pool_pages = kPinPoolPages;
      options.tuples_per_page = kPinPageTuples;
      Database db(options);
      ASSERT_OK(db.open_error());
      BuildPinDb(&db, " USING column");
      ExpectPinTablesOutgrowPool(&db);
      ASSERT_OK(Failpoints::EnableSpec("page.flush=nth(1)"));
      MustExecute(&db, "UPDATE build SET v = v + 1 WHERE v < 500");
      Failpoints::DisableAll();
      EXPECT_EQ(db.buffer_pool()->pinned_pages(), 0u);
      want = NormalizedRows(*db.Query("SELECT * FROM build"));
    }
    Database::Options options;
    options.data_dir = dir;
    options.wal_fsync = false;
    Database db(options);
    ASSERT_TRUE(db.open_error().ok()) << db.open_error().ToString();
    EXPECT_EQ(NormalizedRows(*db.Query("SELECT * FROM build")), want);
    fs::remove_all(dir);
  }
}

// --- CLUSTER BY placement --------------------------------------------------

TEST(ClusterBy, RequiresColumnarStorage) {
  Database db;
  auto r = db.Execute(
      "CREATE TABLE t (a INT, g INT) USING row CLUSTER BY g");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().ToString().find("CLUSTER BY requires columnar"),
            std::string::npos)
      << r.status().ToString();
  auto unknown = db.Execute(
      "CREATE TABLE t (a INT, g INT) USING column CLUSTER BY nope");
  ASSERT_FALSE(unknown.ok());
  EXPECT_NE(unknown.status().ToString().find("not a column"),
            std::string::npos)
      << unknown.status().ToString();
}

TEST(ClusterBy, PlacementIsInvisibleAndPrunesGroups) {
  // Rows arrive with cluster values interleaved; clustered placement must
  // not change any query result, and an equality filter on the cluster
  // column must skip whole groups (the cluster=pruned/total marker).
  auto build = [](Database* db, bool clustered) {
    std::string ddl = "CREATE TABLE t (a INT, g INT, s VARCHAR) USING column";
    if (clustered) ddl += " CLUSTER BY g";
    MustExecute(db, ddl);
    std::string insert = "INSERT INTO t VALUES ";
    for (int i = 0; i < 1024; ++i) {
      if (i > 0) insert += ", ";
      insert += "(" + std::to_string(i) + ", " + std::to_string(i % 8) +
                ", 's" + std::to_string(i % 5) + "')";
    }
    MustExecute(db, insert);
  };
  Database plain, clustered;
  build(&plain, false);
  build(&clustered, true);
  for (const char* sql :
       {"SELECT a, s FROM t WHERE g = 3 ORDER BY a",
        "SELECT g, COUNT(*), SUM(a) FROM t GROUP BY g ORDER BY g",
        "SELECT a FROM t WHERE g = 3 AND a > 500 ORDER BY a"}) {
    EXPECT_EQ(QueryText(&clustered, sql), QueryText(&plain, sql)) << sql;
  }

  // The scan line carries both the static marker (cluster=g) and the
  // analyze counter (cluster=pruned/total); the counter comes last.
  std::string plan =
      ExplainText(&clustered, "EXPLAIN ANALYZE SELECT a FROM t WHERE g = 3");
  auto pos = plan.rfind("cluster=");
  ASSERT_NE(pos, std::string::npos) << plan;
  int pruned = 0, total = 0;
  ASSERT_EQ(std::sscanf(plan.c_str() + pos, "cluster=%d/%d", &pruned, &total),
            2)
      << plan;
  EXPECT_GT(pruned, 0) << plan;
  EXPECT_GT(total, pruned) << plan;
  // The unclustered table scans every group.
  std::string plain_plan =
      ExplainText(&plain, "EXPLAIN ANALYZE SELECT a FROM t WHERE g = 3");
  EXPECT_EQ(plain_plan.find("cluster="), std::string::npos) << plain_plan;
}

TEST(ClusterBy, UpdatesInvalidateGroupTags) {
  // Moving a row's cluster value via UPDATE must invalidate its group's tag
  // so pruning never skips the updated row.
  Database db;
  MustExecute(&db,
              "CREATE TABLE t (a INT, g INT) USING column CLUSTER BY g");
  std::string insert = "INSERT INTO t VALUES ";
  for (int i = 0; i < 512; ++i) {
    if (i > 0) insert += ", ";
    insert += "(" + std::to_string(i) + ", " + std::to_string(i % 4) + ")";
  }
  MustExecute(&db, insert);
  MustExecute(&db, "UPDATE t SET g = 9 WHERE a = 100");
  ASSERT_OK_AND_ASSIGN(ResultSet rs,
                       db.Query("SELECT a FROM t WHERE g = 9"));
  ASSERT_EQ(rs.rows.size(), 1u);
  EXPECT_EQ(rs.rows[0][0].AsInt(), 100);
  ASSERT_OK_AND_ASSIGN(ResultSet none,
                       db.Query("SELECT COUNT(*) FROM t WHERE g = 0 AND "
                                "a = 100"));
  EXPECT_EQ(none.rows[0][0].AsInt(), 0);
}

TEST(ClusterBy, CoWriteThroughUpdatesInvalidateGroupTags) {
  // The CO write-through path (OUT OF ... UPDATE X SET ...) reaches
  // ColumnStore::Update without going through the SQL UPDATE executor; a
  // stale per-group min/max tag there would let an equality scan prune the
  // group that now holds the moved row, silently dropping it from results.
  Database db;
  MustExecute(&db,
              "CREATE TABLE t (a INT, g INT) USING column CLUSTER BY g");
  std::string insert = "INSERT INTO t VALUES ";
  for (int i = 0; i < 512; ++i) {
    if (i > 0) insert += ", ";
    insert += "(" + std::to_string(i) + ", " + std::to_string(i % 4) + ")";
  }
  MustExecute(&db, insert);

  // Move one row out of its group through the CO, onto a cluster value no
  // group's tag covers yet.
  MustExecute(&db,
              "OUT OF Xt AS (SELECT * FROM t WHERE a = 100) "
              "UPDATE Xt SET g = 9");
  ASSERT_OK_AND_ASSIGN(ResultSet moved,
                       db.Query("SELECT a FROM t WHERE g = 9"));
  ASSERT_EQ(moved.rows.size(), 1u);
  EXPECT_EQ(moved.rows[0][0].AsInt(), 100);
  ASSERT_OK_AND_ASSIGN(
      ResultSet none,
      db.Query("SELECT COUNT(*) FROM t WHERE g = 0 AND a = 100"));
  EXPECT_EQ(none.rows[0][0].AsInt(), 0);

  // A non-cluster-column write-through must not disturb pruning: the row
  // stays findable under its (pruned-by-tag) cluster value.
  MustExecute(&db,
              "OUT OF Xt AS (SELECT * FROM t WHERE g = 9) "
              "UPDATE Xt SET a = a + 1000");
  ASSERT_OK_AND_ASSIGN(ResultSet renum,
                       db.Query("SELECT a FROM t WHERE g = 9"));
  ASSERT_EQ(renum.rows.size(), 1u);
  EXPECT_EQ(renum.rows[0][0].AsInt(), 1100);
}

// --- Bit-identity of columnar plans at every DOP ---------------------------

TEST(LateExec, ColumnarLatePlansBitIdenticalAtEveryDop) {
  auto build = [](Database* db, const std::string& storage) {
    MustExecute(db, "CREATE TABLE f (id INT, g INT, s VARCHAR, v INT)" +
                        storage);
    MustExecute(db, "CREATE TABLE d (s VARCHAR, tag INT)" + storage);
    std::vector<Row> f;
    for (int i = 0; i < 3000; ++i) {
      f.push_back(Row{Value::Int(i), Value::Int(i % 32),
                      i % 13 == 0 ? Value::Null()
                                  : Value::String("k" + std::to_string(i % 71)),
                      Value::Int((i * 37) % 101)});
    }
    InsertRows(db, "f", std::move(f));
    std::vector<Row> dim;
    for (int i = 0; i < 50; ++i) {
      dim.push_back(
          Row{Value::String("k" + std::to_string(i)), Value::Int(i % 5)});
    }
    InsertRows(db, "d", std::move(dim));
  };
  const std::vector<std::string> queries = {
      "SELECT id, s FROM f WHERE v > 50 AND g < 20",
      "SELECT f.id, f.v, d.tag FROM f, d WHERE f.s = d.s AND d.tag = 2",
      "SELECT g, COUNT(*), SUM(v), MIN(v), MAX(v) FROM f GROUP BY g",
      "SELECT d.s, SUM(f.v) FROM f, d WHERE f.s = d.s GROUP BY d.s"};
  // Row engine at DOP 1 is the single source of truth; the columnar engine
  // must reproduce it byte-for-byte at every DOP. 64-row groups
  // (tuples_per_page = 4) split `f` into 47 groups, enough for morsels.
  auto reference = MakeDb(/*columnar=*/false, build);
  for (int dop : {1, 2, 4, 8}) {
    auto db = MakeDb(/*columnar=*/true, build, dop, /*pool_pages=*/0,
                     /*tuples_per_page=*/4);
    EXPECT_GE(db->catalog()->GetTable("f")->storage->page_count(),
              2 * exec::kMinMorselPages);
    for (const std::string& sql : queries) {
      EXPECT_EQ(QueryText(db.get(), sql), QueryText(reference.get(), sql))
          << "dop=" << dop << " sql=" << sql;
    }
  }
}

TEST(LateExec, ScanPicksColumnBatchesOnlyWhenEveryFilterKernelizes) {
  // Nothing forces the choice any more: a columnar scan under a hash join
  // or a grouped aggregate hands up column batches (late=on in EXPLAIN
  // ANALYZE) iff every pushed filter kernelized. Division keeps its
  // divide-by-zero error path and stays scalar, so those scans gather rows.
  // Either way the results match the row engine byte-for-byte.
  auto build = [](Database* db, const std::string& storage) {
    MustExecute(db, "CREATE TABLE f (id INT, g INT, s VARCHAR, v INT)" +
                        storage);
    MustExecute(db, "CREATE TABLE d (s VARCHAR, tag INT)" + storage);
    std::vector<Row> f;
    for (int i = 0; i < 600; ++i) {
      f.push_back(Row{Value::Int(i), Value::Int(i % 16),
                      Value::String("k" + std::to_string(i % 41)),
                      Value::Int((i * 37) % 101)});
    }
    InsertRows(db, "f", std::move(f));
    std::vector<Row> dim;
    for (int i = 0; i < 30; ++i) {
      dim.push_back(
          Row{Value::String("k" + std::to_string(i)), Value::Int(i % 5)});
    }
    InsertRows(db, "d", std::move(dim));
  };
  struct Case {
    std::string sql;
    bool batches;
  };
  const std::vector<Case> cases = {
      {"SELECT g, COUNT(*), SUM(v) FROM f WHERE v > 50 GROUP BY g", true},
      {"SELECT f.id, d.tag FROM f, d WHERE f.s = d.s AND f.v > 50 "
       "AND d.tag = 2",
       true},
      {"SELECT g, COUNT(*), SUM(v) FROM f WHERE v / 2 > 25 GROUP BY g",
       false},
      {"SELECT f.id, d.tag FROM f, d WHERE f.s = d.s AND f.v / 2 > 25 "
       "AND d.tag / 2 = 1",
       false},
  };
  auto row = MakeDb(/*columnar=*/false, build);
  auto col = MakeDb(/*columnar=*/true, build);
  for (const Case& c : cases) {
    EXPECT_EQ(QueryText(col.get(), c.sql), QueryText(row.get(), c.sql))
        << c.sql;
    const std::string plan = ExplainText(col.get(), "EXPLAIN ANALYZE " + c.sql);
    EXPECT_EQ(plan.find("late=on") != std::string::npos, c.batches)
        << c.sql << "\n" << plan;
    // Row tables never take the batch path.
    const std::string row_plan =
        ExplainText(row.get(), "EXPLAIN ANALYZE " + c.sql);
    EXPECT_EQ(row_plan.find("late=on"), std::string::npos) << row_plan;
  }
}

// --- XNF TAKE pruning ------------------------------------------------------

TEST(TakePruning, SkipsUntakenColumnsAndReportsCounters) {
  auto build = [](Database* db, const std::string& storage) {
    MustExecute(db,
                "CREATE TABLE wide (a INT, b INT, s0 VARCHAR, s1 VARCHAR, "
                "s2 VARCHAR, n0 INT, n1 INT, s3 VARCHAR)" +
                    storage);
    std::string insert = "INSERT INTO wide VALUES ";
    for (int i = 0; i < 600; ++i) {
      if (i > 0) insert += ", ";
      std::string t = std::to_string(i % 37);
      insert += "(" + std::to_string(i) + ", " + std::to_string(i % 90) +
                ", 'a" + t + "', 'b" + t + "', 'c" + t + "', " +
                std::to_string(i % 7) + ", " + std::to_string(i % 11) +
                ", 'd" + t + "')";
    }
    MustExecute(db, insert);
  };
  const std::string take =
      "OUT OF w AS (SELECT * FROM wide WHERE b < 45) TAKE w(a, b)";

  // Pruned evaluation matches the row engine's instance exactly.
  auto row = MakeDb(/*columnar=*/false, build);
  auto col = MakeDb(/*columnar=*/true, build);
  ASSERT_OK_AND_ASSIGN(co::CoInstance expected, row->QueryCo(take));
  ASSERT_OK_AND_ASSIGN(co::CoInstance pruned, col->QueryCo(take));
  EXPECT_EQ(pruned.ToString(), expected.ToString());
  EXPECT_FALSE(pruned.ToString().empty());

  // The columnar engine reports skipped columns for the TAKE list...
  std::string plan = ExplainText(col.get(), "EXPLAIN ANALYZE " + take);
  auto pos = plan.find("scan columns: ");
  ASSERT_NE(pos, std::string::npos) << plan;
  uint64_t decoded = 0, skipped = 0;
  ASSERT_EQ(std::sscanf(plan.c_str() + pos,
                        "scan columns: %lu decoded, %lu skipped", &decoded,
                        &skipped),
            2)
      << plan;
  EXPECT_GT(decoded, 0u) << plan;
  EXPECT_GT(skipped, decoded) << plan;  // 6 of 8 columns are never taken

  // ...while TAKE * decodes everything and skips nothing.
  std::string star_plan = ExplainText(
      col.get(), "EXPLAIN ANALYZE OUT OF w AS (SELECT * FROM wide "
                  "WHERE b < 45) TAKE *");
  auto star_pos = star_plan.find("scan columns: ");
  ASSERT_NE(star_pos, std::string::npos) << star_plan;
  uint64_t star_decoded = 0, star_skipped = 0;
  ASSERT_EQ(std::sscanf(star_plan.c_str() + star_pos,
                        "scan columns: %lu decoded, %lu skipped",
                        &star_decoded, &star_skipped),
            2)
      << star_plan;
  EXPECT_EQ(star_skipped, 0u) << star_plan;
  EXPECT_GT(star_decoded, decoded) << star_plan;
}

TEST(TakePruning, RestrictionColumnsSurvivePruning) {
  // A restriction reads a column the TAKE list does not mention: pruning
  // must keep it materialized (NULL placeholders would silently change the
  // restriction's verdict).
  auto build = [](Database* db, const std::string& storage) {
    MustExecute(db,
                "CREATE TABLE p (a INT, b INT, s VARCHAR, w INT)" + storage);
    MustExecute(db, "CREATE TABLE c (r INT, x INT, t VARCHAR)" + storage);
    std::string pi = "INSERT INTO p VALUES ";
    std::string ci = "INSERT INTO c VALUES ";
    for (int i = 0; i < 400; ++i) {
      if (i > 0) {
        pi += ", ";
        ci += ", ";
      }
      pi += "(" + std::to_string(i) + ", " + std::to_string(i % 50) +
            ", 'p" + std::to_string(i % 9) + "', " + std::to_string(i % 17) +
            ")";
      ci += "(" + std::to_string(i % 120) + ", " + std::to_string(i) +
            ", 'c" + std::to_string(i % 6) + "')";
    }
    MustExecute(db, pi);
    MustExecute(db, ci);
  };
  const std::string take =
      "OUT OF n0 AS p, n1 AS c, "
      "e AS (RELATE n0, n1 WHERE n0.a = n1.r) "
      "WHERE n0 z SUCH THAT z.b < 25 TAKE n0(a), n1(x), e";
  auto col = MakeDb(/*columnar=*/true, build);
  auto row = MakeDb(/*columnar=*/false, build);
  ASSERT_OK_AND_ASSIGN(co::CoInstance expected, row->QueryCo(take));
  ASSERT_OK_AND_ASSIGN(co::CoInstance col_co, col->QueryCo(take));
  EXPECT_EQ(col_co.ToString(), expected.ToString());
  EXPECT_FALSE(expected.ToString().empty());
}

// Parses the "scan columns: D decoded, S skipped" line of an EXPLAIN
// ANALYZE OUT OF rendering; {0, 0} when the line is absent.
std::pair<uint64_t, uint64_t> ScanColumns(const std::string& plan) {
  uint64_t decoded = 0, skipped = 0;
  auto pos = plan.find("scan columns: ");
  if (pos != std::string::npos) {
    EXPECT_EQ(std::sscanf(plan.c_str() + pos,
                          "scan columns: %lu decoded, %lu skipped", &decoded,
                          &skipped),
              2)
        << plan;
  }
  return {decoded, skipped};
}

TEST(TakePruning, NestedViewScansReportTheirColumns) {
  // A restricted XNF view is evaluated by a nested evaluator and imported
  // premade; its candidate scans still count toward the outer statement's
  // scan-column totals.
  auto build = [](Database* db, const std::string& storage) {
    MustExecute(db, "CREATE TABLE wide (a INT, b INT, s VARCHAR, n INT)" +
                        storage);
    std::string insert = "INSERT INTO wide VALUES ";
    for (int i = 0; i < 300; ++i) {
      if (i > 0) insert += ", ";
      insert += "(" + std::to_string(i) + ", " + std::to_string(i % 60) +
                ", 's" + std::to_string(i % 13) + "', " +
                std::to_string(i % 7) + ")";
    }
    MustExecute(db, insert);
  };
  const std::string body =
      "OUT OF w AS (SELECT * FROM wide WHERE b < 30) "
      "WHERE w z SUCH THAT z.n > 2 TAKE w(a, b)";
  auto col = MakeDb(/*columnar=*/true, build);
  MustExecute(col.get(), "CREATE VIEW rv AS " + body);
  const auto direct =
      ScanColumns(ExplainText(col.get(), "EXPLAIN ANALYZE " + body));
  std::string plan =
      ExplainText(col.get(), "EXPLAIN ANALYZE OUT OF rv TAKE *");
  EXPECT_NE(plan.find("node w access=premade"), std::string::npos) << plan;
  EXPECT_GT(direct.first, 0u);
  EXPECT_GT(direct.second, 0u);  // s is never read
  EXPECT_EQ(ScanColumns(plan), direct) << plan;
}

}  // namespace
}  // namespace xnf::testing
