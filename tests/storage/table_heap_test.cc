#include "storage/table_heap.h"

#include <vector>

#include "common/metrics.h"
#include "gtest/gtest.h"

namespace xnf {
namespace {

Row MakeRow(int64_t id) { return {Value::Int(id), Value::String("r")}; }

TEST(TableHeap, InsertRead) {
  TableHeap heap;
  Rid rid = *heap.Insert(MakeRow(1));
  auto row = heap.Read(rid);
  ASSERT_TRUE(row.ok());
  EXPECT_EQ((*row)[0].AsInt(), 1);
  EXPECT_EQ(heap.live_count(), 1u);
}

TEST(TableHeap, PagesFillAtConfiguredCapacity) {
  TableHeap::Options opts;
  opts.tuples_per_page = 4;
  TableHeap heap(opts);
  for (int i = 0; i < 9; ++i) ASSERT_TRUE(heap.Insert(MakeRow(i)).ok());
  EXPECT_EQ(heap.page_count(), 3u);
  EXPECT_EQ(heap.live_count(), 9u);
}

TEST(TableHeap, DeleteTombstones) {
  TableHeap heap;
  Rid a = *heap.Insert(MakeRow(1));
  Rid b = *heap.Insert(MakeRow(2));
  ASSERT_TRUE(heap.Delete(a).ok());
  EXPECT_FALSE(heap.IsLive(a));
  EXPECT_TRUE(heap.IsLive(b));
  EXPECT_EQ(heap.live_count(), 1u);
  EXPECT_EQ(heap.Read(a).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(heap.Delete(a).code(), StatusCode::kNotFound);
}

TEST(TableHeap, ReadRidsTouchesOncePerPageRun) {
  BufferPool pool(0);
  MetricsRegistry metrics;
  TableHeap::Options opts;
  opts.tuples_per_page = 4;
  opts.buffer_pool = &pool;
  opts.metrics = &metrics;
  TableHeap heap(opts);
  std::vector<Rid> rids;
  for (int i = 0; i < 20; ++i) rids.push_back(*heap.Insert(MakeRow(i)));

  // Page runs: p0 (0, 1, 2), p1 (5, 6), p0 again (1), p3 (12..15).
  const std::vector<Rid> wanted = {rids[0],  rids[1],  rids[2],  rids[5],
                                   rids[6],  rids[1],  rids[12], rids[13],
                                   rids[14], rids[15]};
  const Counter* reads = metrics.counter("storage.heap.reads");
  const uint64_t reads_before = reads->value();
  pool.ResetCounters();
  std::vector<Rid> seen_rids;
  std::vector<Row> seen_rows;
  ASSERT_TRUE(heap.ReadRids(wanted, [&](Rid rid, const Row& row) {
                    seen_rids.push_back(rid);
                    seen_rows.push_back(row);
                    return true;
                  })
                  .ok());
  EXPECT_EQ(pool.accesses(PageKind::kHeap), 4u);
  EXPECT_EQ(reads->value() - reads_before, wanted.size());
  ASSERT_EQ(seen_rids, wanted);
  for (size_t i = 0; i < wanted.size(); ++i) {
    auto row = heap.Read(wanted[i]);
    ASSERT_TRUE(row.ok());
    EXPECT_TRUE(RowsEqual(seen_rows[i], *row)) << i;
  }

  // Returning false stops the walk.
  size_t delivered = 0;
  ASSERT_TRUE(heap.ReadRids(wanted, [&](Rid, const Row&) {
                    return ++delivered < 2;
                  })
                  .ok());
  EXPECT_EQ(delivered, 2u);
}

TEST(TableHeap, ReadRidsDeadRidFailsLikeRead) {
  TableHeap heap;
  std::vector<Rid> rids;
  for (int i = 0; i < 3; ++i) rids.push_back(*heap.Insert(MakeRow(i)));
  ASSERT_TRUE(heap.Delete(rids[1]).ok());
  for (Rid dead : {rids[1], Rid{7, 0}, Rid{0, 9}}) {
    std::vector<int64_t> seen;
    Status st = heap.ReadRids({rids[0], dead, rids[2]},
                              [&](Rid, const Row& row) {
                                seen.push_back(row[0].AsInt());
                                return true;
                              });
    EXPECT_EQ(st.code(), StatusCode::kNotFound);
    EXPECT_EQ(st.code(), heap.Read(dead).status().code());
    EXPECT_EQ(seen, (std::vector<int64_t>{0}));  // rows before the failure
  }
}

TEST(TableHeap, UpdateInPlace) {
  TableHeap heap;
  Rid rid = *heap.Insert(MakeRow(1));
  ASSERT_TRUE(heap.Update(rid, MakeRow(42)).ok());
  auto row = heap.Read(rid);
  ASSERT_TRUE(row.ok());
  EXPECT_EQ((*row)[0].AsInt(), 42);
  EXPECT_EQ(heap.live_count(), 1u);
}

TEST(TableHeap, ScanSkipsDeletedAndStopsEarly) {
  TableHeap heap;
  std::vector<Rid> rids;
  for (int i = 0; i < 10; ++i) rids.push_back(*heap.Insert(MakeRow(i)));
  ASSERT_TRUE(heap.Delete(rids[3]).ok());
  ASSERT_TRUE(heap.Delete(rids[7]).ok());

  int seen = 0;
  ASSERT_TRUE(heap.Scan([&](Rid, const Row& row) {
    EXPECT_NE(row[0].AsInt(), 3);
    EXPECT_NE(row[0].AsInt(), 7);
    ++seen;
    return true;
  }).ok());
  EXPECT_EQ(seen, 8);

  // Early stop.
  seen = 0;
  ASSERT_TRUE(heap.Scan([&](Rid, const Row&) {
    ++seen;
    return seen < 3;
  }).ok());
  EXPECT_EQ(seen, 3);
}

TEST(TableHeap, BufferPoolAccounting) {
  BufferPool pool(2);
  TableHeap::Options opts;
  opts.tuples_per_page = 2;
  opts.buffer_pool = &pool;
  opts.file_id = 7;
  TableHeap heap(opts);
  for (int i = 0; i < 8; ++i) ASSERT_TRUE(heap.Insert(MakeRow(i)).ok());  // 4 pages
  pool.ResetCounters();
  pool.Clear();
  ASSERT_TRUE(heap.Scan([](Rid, const Row&) { return true; }).ok());
  EXPECT_EQ(pool.accesses(), 4u);
  EXPECT_EQ(pool.faults(), 4u);  // cold cache: every page faults
  // Second scan with capacity 2 < 4 pages: everything faults again (LRU).
  ASSERT_TRUE(heap.Scan([](Rid, const Row&) { return true; }).ok());
  EXPECT_EQ(pool.faults(), 8u);
}

}  // namespace
}  // namespace xnf
