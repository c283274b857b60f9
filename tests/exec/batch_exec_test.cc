// Batch-execution contract tests: kBatchSize boundary sizes, the
// empty-batch end-of-stream convention, Open() re-entrancy for every
// operator, the row-at-a-time adapter, and ResultSet exec counters.

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "exec/operators.h"
#include "gtest/gtest.h"
#include "storage/index.h"

namespace xnf::exec {
namespace {

Schema IntSchema(std::initializer_list<const char*> names) {
  Schema s;
  for (const char* n : names) s.AddColumn(Column(n, Type::kInt));
  return s;
}

// n rows of (i, i % 7).
std::vector<Row> MakeRows(size_t n) {
  std::vector<Row> rows;
  rows.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    rows.push_back({Value::Int(static_cast<int64_t>(i)),
                    Value::Int(static_cast<int64_t>(i % 7))});
  }
  return rows;
}

OperatorPtr ValuesN(size_t n) {
  return std::make_unique<ValuesOp>(IntSchema({"id", "v"}), MakeRows(n));
}

qgm::ExprPtr Slot(int slot) {
  auto e = std::make_unique<qgm::Expr>(qgm::Expr::Kind::kInputRef);
  e->slot = slot;
  e->type = Type::kInt;
  return e;
}

qgm::ExprPtr IntLit(int64_t v) { return qgm::Expr::Lit(Value::Int(v)); }

qgm::ExprPtr Cmp(sql::BinOp op, qgm::ExprPtr l, qgm::ExprPtr r) {
  return qgm::Expr::Binary(op, std::move(l), std::move(r), Type::kBool);
}

ResultSet MustRun(Operator* op) {
  ExecContext ctx;
  auto rs = RunPlan(op, &ctx);
  EXPECT_TRUE(rs.ok()) << rs.status().ToString();
  return std::move(rs).value();
}

void ExpectSameRows(const std::vector<Row>& a, const std::vector<Row>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_TRUE(RowsEqual(a[i], b[i])) << "row " << i << " differs";
  }
}

// Two full drains of the same plan must agree — Open() fully resets state.
void ExpectRerunIdentical(Operator* op, size_t expected_rows) {
  ResultSet first = MustRun(op);
  EXPECT_EQ(first.rows.size(), expected_rows);
  ResultSet second = MustRun(op);
  ExpectSameRows(first.rows, second.rows);
}

TEST(BatchExec, BoundarySizesAndCounters) {
  for (size_t n : {size_t{0}, size_t{1}, kBatchSize, kBatchSize + 1,
                   2 * kBatchSize + 3}) {
    auto op = ValuesN(n);
    ResultSet rs = MustRun(op.get());
    ASSERT_EQ(rs.rows.size(), n) << "n=" << n;
    EXPECT_EQ(rs.stats.rows_produced, n);
    EXPECT_EQ(rs.stats.batches_produced, (n + kBatchSize - 1) / kBatchSize);
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(rs.rows[i][0].AsInt(), static_cast<int64_t>(i));
    }
  }
}

TEST(BatchExec, EmptyBatchIsStickyEos) {
  auto op = ValuesN(1);
  ExecContext ctx;
  ASSERT_TRUE(op->Open(&ctx).ok());
  RowBatch batch;
  ASSERT_TRUE(op->NextBatch(&batch).ok());
  EXPECT_EQ(batch.size(), 1u);
  // Once exhausted, every subsequent call keeps returning empty.
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(op->NextBatch(&batch).ok());
    EXPECT_TRUE(batch.empty());
  }
}

TEST(BatchExec, NextAdapterMatchesBatchDrain) {
  const size_t n = kBatchSize + 5;
  auto op = ValuesN(n);
  ResultSet batched = MustRun(op.get());

  ExecContext ctx;
  ASSERT_TRUE(op->Open(&ctx).ok());
  std::vector<Row> rowwise;
  while (true) {
    auto row = op->Next();
    ASSERT_TRUE(row.ok()) << row.status().ToString();
    if (!row->has_value()) break;
    rowwise.push_back(std::move(**row));
  }
  ExpectSameRows(batched.rows, rowwise);
}

TEST(BatchExec, NextAdapterResetsOnReopen) {
  auto op = ValuesN(3);
  ExecContext ctx;
  ASSERT_TRUE(op->Open(&ctx).ok());
  // Consume one row, leaving carry-buffer state behind...
  auto row = op->Next();
  ASSERT_TRUE(row.ok() && row->has_value());
  EXPECT_EQ((**row)[0].AsInt(), 0);
  // ...then re-open: the adapter must restart from the first row.
  ASSERT_TRUE(op->Open(&ctx).ok());
  row = op->Next();
  ASSERT_TRUE(row.ok() && row->has_value());
  EXPECT_EQ((**row)[0].AsInt(), 0);
}

TEST(BatchExec, ReopenValues) {
  auto op = ValuesN(kBatchSize + 1);
  ExpectRerunIdentical(op.get(), kBatchSize + 1);
}

TEST(BatchExec, ReopenFilterAcrossBatchBoundary) {
  // Only the final row of a kBatchSize+1 input passes.
  std::vector<qgm::ExprPtr> preds;
  preds.push_back(Cmp(sql::BinOp::kEq, Slot(0),
                      IntLit(static_cast<int64_t>(kBatchSize))));
  FilterOp filter(ValuesN(kBatchSize + 1), std::move(preds), nullptr);
  ExpectRerunIdentical(&filter, 1);
}

TEST(BatchExec, ReopenProject) {
  std::vector<qgm::ExprPtr> exprs;
  exprs.push_back(qgm::Expr::Binary(sql::BinOp::kAdd, Slot(0), Slot(1),
                                    Type::kInt));
  ProjectOp project(IntSchema({"s"}), ValuesN(kBatchSize + 2),
                    std::move(exprs), nullptr);
  ExpectRerunIdentical(&project, kBatchSize + 2);
}

TEST(BatchExec, ReopenNestedLoopJoin) {
  std::vector<qgm::ExprPtr> preds;
  preds.push_back(Cmp(sql::BinOp::kEq, Slot(1), Slot(3)));
  NestedLoopJoinOp join(IntSchema({"id", "v", "id2", "v2"}), ValuesN(40),
                        ValuesN(25), std::move(preds), /*left_outer=*/false);
  ResultSet first = MustRun(&join);
  EXPECT_GT(first.rows.size(), 0u);
  ExpectSameRows(first.rows, MustRun(&join).rows);
}

TEST(BatchExec, ReopenNestedLoopJoinLeftOuter) {
  std::vector<qgm::ExprPtr> preds;
  // Right side empty on purpose: every left row is padded with NULLs.
  preds.push_back(Cmp(sql::BinOp::kEq, Slot(0), Slot(2)));
  NestedLoopJoinOp join(IntSchema({"id", "v", "id2", "v2"}), ValuesN(5),
                        ValuesN(0), std::move(preds), /*left_outer=*/true);
  ResultSet first = MustRun(&join);
  ASSERT_EQ(first.rows.size(), 5u);
  EXPECT_TRUE(first.rows[0][2].is_null());
  ExpectSameRows(first.rows, MustRun(&join).rows);
}

TEST(BatchExec, ReopenHashJoinAcrossBatchBoundary) {
  std::vector<qgm::ExprPtr> lk, rk;
  lk.push_back(Slot(1));
  rk.push_back(Slot(1));
  HashJoinOp join(IntSchema({"id", "v", "id2", "v2"}),
                  ValuesN(kBatchSize + 10), ValuesN(14), std::move(lk),
                  std::move(rk), {}, /*left_outer=*/false);
  ResultSet first = MustRun(&join);
  EXPECT_GT(first.rows.size(), kBatchSize);
  ExpectSameRows(first.rows, MustRun(&join).rows);
}

TEST(BatchExec, ReopenAggregate) {
  std::vector<qgm::ExprPtr> keys;
  keys.push_back(Slot(1));
  std::vector<qgm::AggSpec> aggs;
  qgm::AggSpec count;
  count.func = qgm::AggFunc::kCountStar;
  aggs.push_back(std::move(count));
  AggregateOp agg(IntSchema({"id", "v", "c"}), ValuesN(kBatchSize + 1),
                  std::move(keys), std::move(aggs), nullptr,
                  /*scalar=*/false);
  ExpectRerunIdentical(&agg, 7);  // v = id % 7 has 7 groups
}

TEST(BatchExec, ReopenSort) {
  std::vector<SortOp::Key> keys;
  keys.push_back(SortOp::Key{Slot(0), /*ascending=*/false});
  SortOp sort(ValuesN(kBatchSize + 3), std::move(keys), nullptr);
  ResultSet first = MustRun(&sort);
  ASSERT_EQ(first.rows.size(), kBatchSize + 3);
  EXPECT_EQ(first.rows[0][0].AsInt(),
            static_cast<int64_t>(kBatchSize + 2));
  ExpectSameRows(first.rows, MustRun(&sort).rows);
}

TEST(BatchExec, ReopenDistinct) {
  // Project to v alone so only 7 distinct rows remain.
  std::vector<qgm::ExprPtr> exprs;
  exprs.push_back(Slot(1));
  auto project = std::make_unique<ProjectOp>(
      IntSchema({"v"}), ValuesN(kBatchSize + 1), std::move(exprs), nullptr);
  DistinctOp distinct(std::move(project));
  ExpectRerunIdentical(&distinct, 7);
}

TEST(BatchExec, ReopenLimitWithOffsetAcrossBatchBoundary) {
  // Offset past the first batch: rows kBatchSize .. kBatchSize+2.
  LimitOp limit(ValuesN(kBatchSize + 5), /*limit=*/3,
                /*offset=*/static_cast<int64_t>(kBatchSize));
  ResultSet first = MustRun(&limit);
  ASSERT_EQ(first.rows.size(), 3u);
  EXPECT_EQ(first.rows[0][0].AsInt(), static_cast<int64_t>(kBatchSize));
  ExpectSameRows(first.rows, MustRun(&limit).rows);
}

TEST(BatchExec, LimitZeroProducesNoRows) {
  LimitOp limit(ValuesN(10), /*limit=*/0);
  ExpectRerunIdentical(&limit, 0);
}

TEST(BatchExec, ReopenUnionDistinct) {
  std::vector<OperatorPtr> children;
  children.push_back(ValuesN(kBatchSize));
  children.push_back(ValuesN(kBatchSize + 40));  // first kBatchSize are dups
  UnionOp u(IntSchema({"id", "v"}), std::move(children), /*distinct=*/true);
  ExpectRerunIdentical(&u, kBatchSize + 40);
}

TEST(BatchExec, ReopenIntersectAndExcept) {
  IntersectExceptOp intersect(IntSchema({"id", "v"}), ValuesN(kBatchSize + 8),
                              ValuesN(12), /*is_except=*/false);
  ExpectRerunIdentical(&intersect, 12);
  IntersectExceptOp except(IntSchema({"id", "v"}), ValuesN(kBatchSize + 8),
                           ValuesN(12), /*is_except=*/true);
  ExpectRerunIdentical(&except, kBatchSize + 8 - 12);
}

// Operators needing a real table: SeqScan, IndexLookup, IndexNLJoin.
class BatchScanTest : public ::testing::Test {
 protected:
  static constexpr size_t kRows = kBatchSize + 17;

  void SetUp() override {
    ASSERT_TRUE(catalog_.CreateTable("t", IntSchema({"id", "v"})).ok());
    TableInfo* t = catalog_.GetTable("t");
    for (const Row& row : MakeRows(kRows)) ASSERT_TRUE(t->storage->Insert(row).ok());
    ASSERT_TRUE(catalog_.CreateIndex("t_id", "t", {"id"}, /*unique=*/true,
                                     Index::Kind::kHash)
                    .ok());
  }

  ResultSet MustRunWithCatalog(Operator* op) {
    ExecContext ctx;
    ctx.catalog = &catalog_;
    auto rs = RunPlan(op, &ctx);
    EXPECT_TRUE(rs.ok()) << rs.status().ToString();
    return std::move(rs).value();
  }

  Catalog catalog_;
};

TEST_F(BatchScanTest, ReopenSeqScanWithFilter) {
  std::vector<qgm::ExprPtr> filters;
  filters.push_back(Cmp(sql::BinOp::kLt, Slot(0), IntLit(200)));
  SeqScanOp scan(IntSchema({"id", "v"}), "t", std::move(filters));
  ResultSet first = MustRunWithCatalog(&scan);
  ASSERT_EQ(first.rows.size(), 200u);
  ExpectSameRows(first.rows, MustRunWithCatalog(&scan).rows);
}

TEST_F(BatchScanTest, ReopenIndexLookup) {
  TableAccess access;
  access.index = catalog_.GetTable("t")->FindIndexOn({0});
  access.key = IntLit(42);
  IndexLookupOp lookup(IntSchema({"id", "v"}), "t", std::move(access));
  ResultSet first = MustRunWithCatalog(&lookup);
  ASSERT_EQ(first.rows.size(), 1u);
  EXPECT_EQ(first.rows[0][0].AsInt(), 42);
  ExpectSameRows(first.rows, MustRunWithCatalog(&lookup).rows);
}

TEST_F(BatchScanTest, ReopenIndexNLJoinAcrossBatchBoundary) {
  // Probe side spans a batch boundary; each left id finds exactly one match.
  std::vector<qgm::ExprPtr> keys;
  keys.push_back(Slot(0));
  IndexNLJoinOp join(IntSchema({"id", "v", "id2", "v2"}),
                     ValuesN(kBatchSize + 9), "t", "t_id", std::move(keys),
                     {});
  ResultSet first = MustRunWithCatalog(&join);
  ASSERT_EQ(first.rows.size(), kBatchSize + 9);
  ExpectSameRows(first.rows, MustRunWithCatalog(&join).rows);
}

TEST_F(BatchScanTest, BufferPoolFaultCounterFlowsIntoStats) {
  BufferPool pool(/*capacity_pages=*/0);
  Catalog catalog(&pool);
  ASSERT_TRUE(catalog.CreateTable("t", IntSchema({"id", "v"})).ok());
  TableInfo* t = catalog.GetTable("t");
  for (const Row& row : MakeRows(256)) ASSERT_TRUE(t->storage->Insert(row).ok());
  pool.Clear();  // cold cache: the scan itself must fault the pages in
  SeqScanOp scan(IntSchema({"id", "v"}), "t", {});
  ExecContext ctx;
  ctx.catalog = &catalog;
  auto rs = RunPlan(&scan, &ctx);
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_EQ(rs->stats.rows_produced, 256u);
  EXPECT_GT(rs->stats.buffer_pool_faults, 0u);
}

}  // namespace
}  // namespace xnf::exec
