// The sqlxnf_* system views and the metrics/statement-history wiring behind
// them: pinned schemas, hand-verified counters, filters/joins/ORDER BY over
// the views, the reserved-name rules, and the metrics-off mode.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "gtest/gtest.h"
#include "test_util.h"

namespace xnf::testing {
namespace {

// Counter asserts below hand-verify storage.heap.* numbers; pin the row
// layout so the SQLXNF_STORAGE=column CI lane doesn't reroute the appends.
Database::Options RowLayout() {
  Database::Options o;
  o.default_storage = StorageKind::kRow;
  return o;
}

int64_t MetricValue(Database* db, const std::string& name) {
  auto r = db->Query("SELECT value FROM sqlxnf_metrics WHERE name = '" + name +
                     "'");
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  if (!r.ok() || r->rows.size() != 1) return -1;
  return r->rows[0][0].AsInt();
}

TEST(SystemViews, MetricsViewSchemaAndHandVerifiedCounters) {
  Database db{RowLayout()};
  MustExecute(&db, "CREATE TABLE t (a INT, s VARCHAR);"
                   "INSERT INTO t VALUES (1, 'x'), (2, 'y'), (3, NULL)");

  // Pinned schema: selecting every column by name must resolve.
  auto all = db.Query(
      "SELECT name, kind, bucket_lo, bucket_hi, value FROM sqlxnf_metrics");
  ASSERT_TRUE(all.ok()) << all.status().ToString();
  EXPECT_GT(all->rows.size(), 0u);

  // Hand-verified: exactly three heap appends happened (one INSERT of three
  // rows into one row-engine table).
  EXPECT_EQ(MetricValue(&db, "storage.heap.appends"), 3);
  // Exactly two statements completed before this SELECT's snapshot was
  // taken (CREATE TABLE, INSERT) plus the two SELECTs MetricValue already
  // ran above... so read the counter via the API for the exact number.
  ASSERT_NE(db.metrics(), nullptr);
  EXPECT_EQ(db.metrics()->counter("storage.heap.appends")->value(), 3u);
  EXPECT_EQ(db.metrics()->counter("stmt.errors")->value(), 0u);

  // stmt.count counts *completed* statements: the SELECT reading the view
  // is not yet in its own snapshot. After CREATE + INSERT the first SELECT
  // sees 2.
  Database db2{RowLayout()};
  MustExecute(&db2, "CREATE TABLE t (a INT)");
  MustExecute(&db2, "INSERT INTO t VALUES (1)");
  EXPECT_EQ(MetricValue(&db2, "stmt.count"), 2);
}

TEST(SystemViews, MetricsViewSupportsFilterJoinOrderBy) {
  Database db{RowLayout()};
  MustExecute(&db,
              "CREATE TABLE watched (metric VARCHAR);"
              "INSERT INTO watched VALUES ('storage.heap.appends'), "
              "('storage.heap.reads')");

  // Join a system view against a user table.
  auto joined = db.Query(
      "SELECT m.name, m.value FROM sqlxnf_metrics m, watched w "
      "WHERE m.name = w.metric ORDER BY m.name");
  ASSERT_TRUE(joined.ok()) << joined.status().ToString();
  ASSERT_EQ(joined->rows.size(), 2u);
  EXPECT_EQ(joined->rows[0][0].AsString(), "storage.heap.appends");
  EXPECT_EQ(joined->rows[0][1].AsInt(), 2);  // the two 'watched' inserts
  EXPECT_EQ(joined->rows[1][0].AsString(), "storage.heap.reads");

  // Aggregation works too.
  auto agg = db.Query(
      "SELECT COUNT(*) FROM sqlxnf_metrics WHERE kind = 'counter'");
  ASSERT_TRUE(agg.ok()) << agg.status().ToString();
  EXPECT_GT(agg->rows[0][0].AsInt(), 0);
}

TEST(SystemViews, StatementsViewRecordsHistoryInOrder) {
  Database::Options opts = RowLayout();
  opts.statement_history = 4;
  Database db{opts};
  MustExecute(&db, "CREATE TABLE t (a INT)");
  MustExecute(&db, "INSERT INTO t VALUES (1), (2)");
  ASSERT_TRUE(db.Query("SELECT a FROM t").ok());
  EXPECT_FALSE(db.Execute("SELECT nosuch FROM t").ok());

  auto r = db.Query(
      "SELECT seq, kind, text_hash, latency_us, rows, heap_pages, "
      "index_pages, column_pages, dop, kernel_filters, scan_filters, error "
      "FROM sqlxnf_statements ORDER BY seq");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 4u);
  EXPECT_EQ(r->rows[0][1].AsString(), "create_table");
  EXPECT_EQ(r->rows[1][1].AsString(), "insert");
  EXPECT_EQ(r->rows[1][4].AsInt(), 2);  // rows affected
  EXPECT_EQ(r->rows[2][1].AsString(), "select");
  EXPECT_EQ(r->rows[2][4].AsInt(), 2);  // rows returned
  EXPECT_EQ(r->rows[3][1].AsString(), "select");
  EXPECT_FALSE(r->rows[3][11].AsString().empty());  // the failed SELECT
  for (size_t i = 0; i < r->rows.size(); ++i) {
    EXPECT_EQ(r->rows[i][0].AsInt(), static_cast<int64_t>(i + 1));
    EXPECT_EQ(r->rows[i][2].AsString().size(), 16u);  // hex64 text hash
    EXPECT_GE(r->rows[i][3].AsInt(), 0);              // latency
    EXPECT_GE(r->rows[i][8].AsInt(), 1);              // dop
  }

  // The ring is bounded: after more statements the oldest entries are gone
  // but seq keeps counting.
  for (int i = 0; i < 6; ++i) ASSERT_TRUE(db.Query("SELECT a FROM t").ok());
  auto ring = db.Query("SELECT seq FROM sqlxnf_statements ORDER BY seq");
  ASSERT_TRUE(ring.ok()) << ring.status().ToString();
  ASSERT_EQ(ring->rows.size(), 4u);
  EXPECT_GT(ring->rows[0][0].AsInt(), 4);

  // stmt.errors counted the failed SELECT.
  EXPECT_EQ(db.metrics()->counter("stmt.errors")->value(), 1u);
  // Latency histograms materialized per kind.
  EXPECT_GE(db.metrics()->histogram("stmt.latency_us.select")->count(), 2u);
  EXPECT_EQ(db.metrics()->histogram("stmt.latency_us.insert")->count(), 1u);
}

TEST(SystemViews, StatementsViewRecordsXnfKinds) {
  Database db;
  CreateCompanyDb(&db);
  auto co = db.Execute(
      "OUT OF Xdept AS DEPT, Xemp AS EMP, "
      "employment AS (RELATE Xdept, Xemp WHERE Xdept.dno = Xemp.edno) "
      "TAKE *");
  ASSERT_TRUE(co.ok()) << co.status().ToString();
  auto r = db.Query(
      "SELECT kind, rows FROM sqlxnf_statements "
      "WHERE kind = 'xnf_take'");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 1u);
  // 3 reachable departments + 5 reachable employees.
  EXPECT_EQ(r->rows[0][1].AsInt(), 8);
  // The evaluation pushed xnf.* counters.
  EXPECT_EQ(db.metrics()->counter("xnf.evaluations")->value(), 1u);
  EXPECT_GT(db.metrics()->counter("xnf.node_queries")->value(), 0u);
}

TEST(SystemViews, StorageViewReportsTablesAndTombstones) {
  Database db{RowLayout()};
  MustExecute(&db,
              "CREATE TABLE r (a INT PRIMARY KEY, s VARCHAR);"
              "CREATE TABLE c (a INT, s VARCHAR) USING column;"
              "INSERT INTO r VALUES (1, 'x'), (2, 'y'), (3, 'z');"
              "INSERT INTO c VALUES (1, 'x'), (2, 'y');"
              "DELETE FROM r WHERE a = 2");

  auto r = db.Query(
      "SELECT name, engine, rows, pages, tombstones, indexes, rle_segments, "
      "plain_segments, dict_entries, dict_overflow "
      "FROM sqlxnf_storage ORDER BY name");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 2u);
  // 'c': columnar, compression columns populated.
  EXPECT_EQ(r->rows[0][0].AsString(), "c");
  EXPECT_EQ(r->rows[0][1].AsString(), "column");
  EXPECT_EQ(r->rows[0][2].AsInt(), 2);
  EXPECT_FALSE(r->rows[0][8].is_null());    // dict_entries
  EXPECT_EQ(r->rows[0][8].AsInt(), 2);      // 'x', 'y'
  EXPECT_EQ(r->rows[0][9].AsInt(), 0);      // no overflow
  // 'r': row engine, compression columns NULL.
  EXPECT_EQ(r->rows[1][0].AsString(), "r");
  EXPECT_EQ(r->rows[1][1].AsString(), "row");
  EXPECT_EQ(r->rows[1][2].AsInt(), 2);      // 3 inserted - 1 deleted
  EXPECT_EQ(r->rows[1][4].AsInt(), 1);      // the tombstone
  EXPECT_EQ(r->rows[1][5].AsInt(), 1);      // the auto-created PK index
  EXPECT_TRUE(r->rows[1][6].is_null());
  EXPECT_TRUE(r->rows[1][7].is_null());
}

TEST(SystemViews, BufferPoolViewKindsSumToTotal) {
  Database db{RowLayout()};
  CreateCompanyDb(&db);
  ASSERT_TRUE(db.Query("SELECT ename FROM EMP WHERE sal > 1000").ok());

  auto r = db.Query(
      "SELECT kind, accesses, faults, evictions, resident "
      "FROM sqlxnf_bufferpool ORDER BY kind");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 4u);
  std::map<std::string, std::vector<int64_t>> by_kind;
  for (const Row& row : r->rows) {
    by_kind[row[0].AsString()] = {row[1].AsInt(), row[2].AsInt(),
                                  row[3].AsInt(), row[4].AsInt()};
  }
  ASSERT_EQ(by_kind.count("heap"), 1u);
  ASSERT_EQ(by_kind.count("index"), 1u);
  ASSERT_EQ(by_kind.count("column"), 1u);
  ASSERT_EQ(by_kind.count("total"), 1u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(by_kind["heap"][i] + by_kind["index"][i] + by_kind["column"][i],
              by_kind["total"][i])
        << "column " << i;
  }
  EXPECT_GT(by_kind["heap"][0], 0);    // the scans touched heap pages
  EXPECT_EQ(by_kind["column"][0], 0);  // row layout: no column pages
}

TEST(SystemViews, TransactionsViewSchemaAndHandVerifiedCounters) {
  Database db{RowLayout()};
  MustExecute(&db, "CREATE TABLE t (a INT PRIMARY KEY, b INT)");
  MustExecute(&db, "INSERT INTO t VALUES (1, 10), (2, 20)");

  // Pinned schema: selecting every column by name must resolve, and the
  // view is exactly one row while MVCC is on.
  auto all = db.Query(
      "SELECT epoch, active_txns, oldest_snapshot, versions_retained, "
      "txns_started, txns_committed, txns_rolled_back, conflicts, "
      "versions_harvested, versions_gced FROM sqlxnf_transactions");
  ASSERT_TRUE(all.ok()) << all.status().ToString();
  ASSERT_EQ(all->rows.size(), 1u);

  // Hand-verified at quiescence: the INSERT ran as one autocommit
  // transaction (DDL doesn't register one, plain reads don't either), no
  // transaction is live, and nothing is retained or pinned.
  const Row& row = all->rows[0];
  EXPECT_EQ(row[1].AsInt(), 0);                  // active_txns
  EXPECT_EQ(row[2].AsInt(), row[0].AsInt());     // oldest_snapshot == epoch
  EXPECT_EQ(row[3].AsInt(), 0);                  // versions_retained
  EXPECT_EQ(row[4].AsInt(), 1);                  // txns_started: the INSERT
  EXPECT_EQ(row[5].AsInt(), 1);                  // txns_committed
  EXPECT_EQ(row[6].AsInt(), 0);                  // txns_rolled_back
  EXPECT_EQ(row[7].AsInt(), 0);                  // conflicts

  // An explicit transaction moves the counters by exactly one commit and
  // one rollback, and the commit advances the epoch.
  const int64_t epoch_before = row[0].AsInt();
  MustExecute(&db, "BEGIN");
  MustExecute(&db, "UPDATE t SET b = 11 WHERE a = 1");
  auto in_txn = db.Query(
      "SELECT active_txns FROM sqlxnf_transactions");
  ASSERT_TRUE(in_txn.ok()) << in_txn.status().ToString();
  EXPECT_EQ(in_txn->rows[0][0].AsInt(), 1);  // the open BEGIN block
  MustExecute(&db, "COMMIT");
  MustExecute(&db, "BEGIN");
  MustExecute(&db, "DELETE FROM t WHERE a = 2");
  MustExecute(&db, "ROLLBACK");

  auto after = db.Query(
      "SELECT epoch, active_txns, txns_started, txns_committed, "
      "txns_rolled_back, versions_retained FROM sqlxnf_transactions");
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  ASSERT_EQ(after->rows.size(), 1u);
  EXPECT_GT(after->rows[0][0].AsInt(), epoch_before);
  EXPECT_EQ(after->rows[0][1].AsInt(), 0);
  EXPECT_EQ(after->rows[0][2].AsInt(), 3);  // insert + 2 explicit txns
  EXPECT_EQ(after->rows[0][3].AsInt(), 2);
  EXPECT_EQ(after->rows[0][4].AsInt(), 1);
  EXPECT_EQ(after->rows[0][5].AsInt(), 0);  // rollback leaves nothing behind

  // The view filters and joins like any other table.
  auto filtered = db.Query(
      "SELECT txns_committed FROM sqlxnf_transactions WHERE active_txns = 0");
  ASSERT_TRUE(filtered.ok()) << filtered.status().ToString();
  ASSERT_EQ(filtered->rows.size(), 1u);
}

TEST(SystemViews, ReservedPrefixRejectedForUserObjects) {
  Database db;
  auto t = db.Execute("CREATE TABLE sqlxnf_mine (a INT)");
  ASSERT_FALSE(t.ok());
  EXPECT_NE(t.status().message().find("reserved"), std::string::npos)
      << t.status().ToString();
  EXPECT_FALSE(db.Execute("CREATE TABLE SQLXNF_mine (a INT)").ok());
  EXPECT_FALSE(db.Execute("DROP TABLE sqlxnf_metrics").ok());
  EXPECT_FALSE(db.Execute("DROP VIEW sqlxnf_statements").ok());
  MustExecute(&db, "CREATE TABLE t (a INT)");
  EXPECT_FALSE(
      db.Execute("CREATE VIEW sqlxnf_v AS SELECT a FROM t").ok());
  EXPECT_FALSE(db.Execute("CREATE INDEX sqlxnf_idx ON t (a)").ok());
}

TEST(SystemViews, SystemViewsAreReadOnly) {
  Database db;
  auto ins = db.Execute(
      "INSERT INTO sqlxnf_bufferpool VALUES ('x', 0, 0, 0, 0)");
  ASSERT_FALSE(ins.ok());
  EXPECT_NE(ins.status().message().find("read-only"), std::string::npos)
      << ins.status().ToString();
  EXPECT_FALSE(db.Execute("UPDATE sqlxnf_metrics SET value = 0").ok());
  EXPECT_FALSE(db.Execute("DELETE FROM sqlxnf_statements").ok());
}

TEST(SystemViews, MetricsOffModeStillServesViews) {
  Database::Options opts = RowLayout();
  opts.collect_metrics = false;
  Database db{opts};
  EXPECT_EQ(db.metrics(), nullptr);
  MustExecute(&db, "CREATE TABLE t (a INT); INSERT INTO t VALUES (1)");

  // sqlxnf_metrics / sqlxnf_statements are empty, not errors.
  auto m = db.Query("SELECT name FROM sqlxnf_metrics");
  ASSERT_TRUE(m.ok()) << m.status().ToString();
  EXPECT_EQ(m->rows.size(), 0u);
  auto s = db.Query("SELECT seq FROM sqlxnf_statements");
  ASSERT_TRUE(s.ok()) << s.status().ToString();
  EXPECT_EQ(s->rows.size(), 0u);
  // The structural views still work: they read engine state, not metrics.
  auto st = db.Query("SELECT name, rows FROM sqlxnf_storage");
  ASSERT_TRUE(st.ok()) << st.status().ToString();
  ASSERT_EQ(st->rows.size(), 1u);
  EXPECT_EQ(st->rows[0][1].AsInt(), 1);
  auto bp = db.Query("SELECT kind FROM sqlxnf_bufferpool");
  ASSERT_TRUE(bp.ok()) << bp.status().ToString();
  EXPECT_EQ(bp->rows.size(), 4u);
}

TEST(SystemViews, KernelCountersAndExecStatsOnColumnarScan) {
  Database::Options opts;
  opts.default_storage = StorageKind::kColumn;
  Database db{opts};
  MustExecute(&db, "CREATE TABLE t (a INT, b INT)");
  std::string insert = "INSERT INTO t VALUES (0, 0)";
  for (int i = 1; i < 200; ++i) {
    insert += ", (" + std::to_string(i) + ", " + std::to_string(i % 7) + ")";
  }
  MustExecute(&db, insert);

  auto r = db.Query("SELECT a FROM t WHERE a > 100");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->rows.size(), 99u);
  // The pushed comparison ran as a typed kernel and the ExecStats record it.
  EXPECT_EQ(r->stats.kernel_filters, 1u);
  EXPECT_EQ(r->stats.scan_filters, 1u);
  EXPECT_GE(db.metrics()->counter("kernel.cmp_i64.invocations")->value(), 1u);
  EXPECT_GE(db.metrics()->counter("kernel.cmp_i64.rows_in")->value(), 200u);

  // The statement profile carries the coverage too.
  auto prof = db.Query(
      "SELECT kernel_filters, scan_filters FROM sqlxnf_statements "
      "WHERE kind = 'select' AND scan_filters > 0");
  ASSERT_TRUE(prof.ok()) << prof.status().ToString();
  ASSERT_EQ(prof->rows.size(), 1u);
  EXPECT_EQ(prof->rows[0][0].AsInt(), 1);
  EXPECT_EQ(prof->rows[0][1].AsInt(), 1);
}

TEST(SystemViews, ExplainAnalyzeShowsKernelCoverage) {
  Database::Options opts;
  opts.default_storage = StorageKind::kColumn;
  Database db{opts};
  MustExecute(&db, "CREATE TABLE t (a INT, s VARCHAR)");
  std::string insert = "INSERT INTO t VALUES (0, 'a')";
  for (int i = 1; i < 100; ++i) {
    insert += ", (" + std::to_string(i) + ", 'b')";
  }
  MustExecute(&db, insert);
  auto r = db.Query("EXPLAIN ANALYZE SELECT a FROM t WHERE a > 10");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  std::string all;
  for (const Row& row : r->rows) all += row[0].AsString() + "\n";
  EXPECT_NE(all.find(" kernel=1/1"), std::string::npos) << all;
}

TEST(SystemViews, PreparedQueriesEnterHistory) {
  Database db{RowLayout()};
  MustExecute(&db, "CREATE TABLE t (a INT); INSERT INTO t VALUES (1), (2)");
  ASSERT_OK_AND_ASSIGN(auto q, db.Prepare("SELECT a FROM t WHERE a = ?"));
  ASSERT_TRUE(q->Execute({Value::Int(2)}).ok());
  auto r = db.Query(
      "SELECT rows FROM sqlxnf_statements WHERE kind = 'prepared'");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_EQ(r->rows[0][0].AsInt(), 1);
}

TEST(SystemViews, CoCacheNavigationCountersFlow) {
  Database db;
  CreateCompanyDb(&db);
  ASSERT_OK_AND_ASSIGN(
      auto cache,
      db.OpenCo("OUT OF Xdept AS DEPT, Xemp AS EMP, "
                "employment AS (RELATE Xdept, Xemp "
                "WHERE Xdept.dno = Xemp.edno) TAKE *"));
  EXPECT_EQ(db.metrics()->counter("cocache.fills")->value(), 1u);
  EXPECT_GT(db.metrics()->counter("cocache.tuples_linked")->value(), 0u);
  int rel = cache->RelIndex("employment");
  ASSERT_GE(rel, 0);
  uint64_t navs = 0;
  for (auto& tuple : cache->node(cache->NodeIndex("xdept")).tuples) {
    cache->Children(rel, tuple);
    ++navs;
  }
  ASSERT_GT(navs, 0u);
  EXPECT_EQ(db.metrics()->counter("cocache.pointer_navigations")->value(),
            navs);
}

}  // namespace
}  // namespace xnf::testing
