// Per-PageKind buffer-pool accounting under eviction pressure: a bounded
// pool driven by a mixed heap/index/column workload must keep the per-kind
// counters exact, summing to the global totals, with evictions attributed
// to the victim's kind.

#include <cstdint>

#include "gtest/gtest.h"
#include "storage/buffer_pool.h"
#include "test_util.h"

namespace xnf::testing {
namespace {

uint64_t SumAccesses(const BufferPool& pool) {
  return pool.accesses(PageKind::kHeap) + pool.accesses(PageKind::kIndex) +
         pool.accesses(PageKind::kColumn);
}
uint64_t SumFaults(const BufferPool& pool) {
  return pool.faults(PageKind::kHeap) + pool.faults(PageKind::kIndex) +
         pool.faults(PageKind::kColumn);
}
uint64_t SumEvictions(const BufferPool& pool) {
  return pool.evictions(PageKind::kHeap) + pool.evictions(PageKind::kIndex) +
         pool.evictions(PageKind::kColumn);
}

TEST(BufferPoolKinds, MixedWorkloadUnderEvictionPressureSumsToTotals) {
  BufferPool pool(4);  // tiny: every new distinct page evicts a victim

  // Interleave three kinds over more distinct pages than the pool holds,
  // with re-touches so some accesses hit and some re-fault evicted pages.
  for (int round = 0; round < 3; ++round) {
    for (uint32_t p = 0; p < 8; ++p) {
      ASSERT_OK(pool.Touch({0, p}, PageKind::kHeap));
      if (p % 2 == 0) ASSERT_OK(pool.Touch({1, p}, PageKind::kIndex));
      if (p % 3 == 0) ASSERT_OK(pool.Touch({2, p}, PageKind::kColumn));
      // A hot page that keeps getting re-touched (hits while resident).
      ASSERT_OK(pool.Touch({0, 0}, PageKind::kHeap));
    }
  }

  // Exact access counts by construction: per round, heap = 8 touches + 8
  // hot re-touches, index = 4, column = 3.
  EXPECT_EQ(pool.accesses(PageKind::kHeap), 3u * 16u);
  EXPECT_EQ(pool.accesses(PageKind::kIndex), 3u * 4u);
  EXPECT_EQ(pool.accesses(PageKind::kColumn), 3u * 3u);

  // The per-kind breakdowns sum to the global totals, for every counter.
  EXPECT_EQ(SumAccesses(pool), pool.accesses());
  EXPECT_EQ(SumFaults(pool), pool.faults());
  EXPECT_EQ(SumEvictions(pool), pool.evictions());

  // Eviction pressure actually materialized, and the pool invariant holds:
  // every fault either stayed resident or was evicted.
  EXPECT_GT(pool.evictions(), 0u);
  EXPECT_GT(pool.faults(), 10u);
  EXPECT_EQ(pool.faults(), pool.resident_pages() + pool.evictions());
  EXPECT_EQ(pool.resident_pages(), 4u);

  // Per-kind residency partitions the resident set.
  EXPECT_EQ(pool.resident_pages(PageKind::kHeap) +
                pool.resident_pages(PageKind::kIndex) +
                pool.resident_pages(PageKind::kColumn),
            pool.resident_pages());

  // Every kind both faulted and was evicted at some point: the mixed
  // workload exercises attribution on all three, not just heap.
  EXPECT_GT(pool.faults(PageKind::kHeap), 0u);
  EXPECT_GT(pool.faults(PageKind::kIndex), 0u);
  EXPECT_GT(pool.faults(PageKind::kColumn), 0u);
  EXPECT_GT(pool.evictions(PageKind::kHeap), 0u);
  EXPECT_GT(pool.evictions(PageKind::kIndex), 0u);
  EXPECT_GT(pool.evictions(PageKind::kColumn), 0u);
}

TEST(BufferPoolKinds, UnboundedPoolNeverEvicts) {
  BufferPool pool(0);
  for (uint32_t p = 0; p < 100; ++p) {
    ASSERT_OK(pool.Touch({0, p}, PageKind::kHeap));
    ASSERT_OK(pool.Touch({2, p}, PageKind::kColumn));
  }
  EXPECT_EQ(pool.faults(), 200u);
  EXPECT_EQ(pool.evictions(), 0u);
  EXPECT_EQ(SumFaults(pool), pool.faults());
  EXPECT_EQ(pool.resident_pages(PageKind::kHeap), 100u);
  EXPECT_EQ(pool.resident_pages(PageKind::kColumn), 100u);
}

// Pins may hold a bounded pool over capacity (parallel morsels pin their
// page ranges before touching them); once they drain, the pool is back
// within capacity, evicting the unpinned pages least recently used first.
TEST(BufferPoolKinds, PoolShrinksToCapacityWhenPinsDrain) {
  BufferPool pool(2);
  pool.PinRange(0, 0, 3);
  pool.Pin({1, 0});
  for (uint32_t p = 0; p < 3; ++p) ASSERT_OK(pool.Touch({0, p}));
  ASSERT_OK(pool.Touch({1, 0}, PageKind::kIndex));
  EXPECT_EQ(pool.resident_pages(), 4u);  // every page pinned: no victim
  EXPECT_EQ(pool.evictions(), 0u);

  pool.UnpinRange(0, 0, 3);  // {1,0} still pinned
  EXPECT_EQ(pool.resident_pages(), 2u);
  EXPECT_EQ(pool.evictions(PageKind::kHeap), 2u);  // pages 0 and 1, LRU
  ASSERT_OK(pool.Touch({0, 2}));
  EXPECT_EQ(pool.faults(), 4u);  // page 2 stayed resident

  pool.Unpin({1, 0});
  EXPECT_EQ(pool.resident_pages(), 2u);  // already within capacity
  EXPECT_EQ(pool.faults(), pool.resident_pages() + pool.evictions());
}

// End-to-end: the same invariant holds for the pool inside a Database under
// a real mixed workload (heap scans + columnar scans) with a bounded pool.
TEST(BufferPoolKinds, DatabaseMixedWorkloadCountersSumToTotals) {
  Database::Options opts;
  opts.buffer_pool_pages = 8;
  opts.default_storage = StorageKind::kRow;
  Database db{opts};
  MustExecute(&db, "CREATE TABLE r (a INT) USING row;"
                   "CREATE TABLE c (a INT) USING column");
  for (int batch = 0; batch < 4; ++batch) {
    std::string ins_r = "INSERT INTO r VALUES (0)";
    std::string ins_c = "INSERT INTO c VALUES (0)";
    for (int i = 1; i < 200; ++i) {
      ins_r += ", (" + std::to_string(i) + ")";
      ins_c += ", (" + std::to_string(i) + ")";
    }
    MustExecute(&db, ins_r);
    MustExecute(&db, ins_c);
  }
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(db.Query("SELECT a FROM r WHERE a > 100").ok());
    ASSERT_TRUE(db.Query("SELECT a FROM c WHERE a > 100").ok());
  }
  BufferPool* pool = db.buffer_pool();
  EXPECT_GT(pool->accesses(PageKind::kHeap), 0u);
  EXPECT_GT(pool->accesses(PageKind::kColumn), 0u);
  EXPECT_GT(pool->evictions(), 0u);
  EXPECT_EQ(SumAccesses(*pool), pool->accesses());
  EXPECT_EQ(SumFaults(*pool), pool->faults());
  EXPECT_EQ(SumEvictions(*pool), pool->evictions());
}

}  // namespace
}  // namespace xnf::testing
