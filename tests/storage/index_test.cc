#include "storage/index.h"

#include "gtest/gtest.h"

namespace xnf {
namespace {

Row R(int64_t key, const std::string& payload) {
  return {Value::Int(key), Value::String(payload)};
}

TEST(HashIndex, InsertLookup) {
  HashIndex index("idx", {0}, /*unique=*/false);
  ASSERT_TRUE(index.Insert(R(1, "a"), Rid{0, 0}).ok());
  ASSERT_TRUE(index.Insert(R(1, "b"), Rid{0, 1}).ok());
  ASSERT_TRUE(index.Insert(R(2, "c"), Rid{0, 2}).ok());
  EXPECT_EQ(index.Lookup({Value::Int(1)}).size(), 2u);
  EXPECT_EQ(index.Lookup({Value::Int(2)}).size(), 1u);
  EXPECT_TRUE(index.Lookup({Value::Int(9)}).empty());
}

TEST(HashIndex, UniqueViolation) {
  HashIndex index("idx", {0}, /*unique=*/true);
  ASSERT_TRUE(index.Insert(R(1, "a"), Rid{0, 0}).ok());
  EXPECT_EQ(index.Insert(R(1, "b"), Rid{0, 1}).code(),
            StatusCode::kAlreadyExists);
}

TEST(HashIndex, NullKeysNotIndexed) {
  HashIndex index("idx", {0}, /*unique=*/true);
  Row null_row = {Value::Null(), Value::String("a")};
  ASSERT_TRUE(index.Insert(null_row, Rid{0, 0}).ok());
  ASSERT_TRUE(index.Insert(null_row, Rid{0, 1}).ok());  // no unique clash
  EXPECT_TRUE(index.Lookup({Value::Null()}).empty());
  EXPECT_EQ(index.entry_count(), 0u);
}

TEST(HashIndex, EraseSpecificRid) {
  HashIndex index("idx", {0}, false);
  ASSERT_TRUE(index.Insert(R(1, "a"), Rid{0, 0}).ok());
  ASSERT_TRUE(index.Insert(R(1, "b"), Rid{0, 1}).ok());
  ASSERT_TRUE(index.Erase(R(1, "a"), Rid{0, 0}).ok());
  auto rids = index.Lookup({Value::Int(1)});
  ASSERT_EQ(rids.size(), 1u);
  EXPECT_EQ(rids[0], (Rid{0, 1}));
}

TEST(HashIndex, CompositeKey) {
  HashIndex index("idx", {0, 1}, false);
  ASSERT_TRUE(index.Insert(R(1, "a"), Rid{0, 0}).ok());
  ASSERT_TRUE(index.Insert(R(1, "b"), Rid{0, 1}).ok());
  EXPECT_EQ(index.Lookup({Value::Int(1), Value::String("a")}).size(), 1u);
  EXPECT_TRUE(index.Lookup({Value::Int(1), Value::String("z")}).empty());
}

TEST(OrderedIndex, PointAndRange) {
  OrderedIndex index("idx", {0}, false);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(index.Insert(R(i, "x"), Rid{0, static_cast<uint32_t>(i)}).ok());
  }
  EXPECT_EQ(index.Lookup({Value::Int(4)}).size(), 1u);
  // [3, 6]
  auto rids = index.RangeLookup({Value::Int(3)}, true, {Value::Int(6)}, true);
  EXPECT_EQ(rids.size(), 4u);
  // (3, 6)
  rids = index.RangeLookup({Value::Int(3)}, false, {Value::Int(6)}, false);
  EXPECT_EQ(rids.size(), 2u);
  // Unbounded low.
  rids = index.RangeLookup({}, true, {Value::Int(2)}, true);
  EXPECT_EQ(rids.size(), 3u);
  // Unbounded both.
  rids = index.RangeLookup({}, true, {}, true);
  EXPECT_EQ(rids.size(), 10u);
}

TEST(OrderedIndex, UniqueViolation) {
  OrderedIndex index("idx", {0}, true);
  ASSERT_TRUE(index.Insert(R(5, "a"), Rid{0, 0}).ok());
  EXPECT_FALSE(index.Insert(R(5, "b"), Rid{0, 1}).ok());
}

TEST(Index, DuplicatesComeBackInRidOrderWhateverTheHistory) {
  // An update erases and re-inserts a row's entry; lookups must still list
  // duplicates in rid (table-scan) order, as a freshly built index would.
  HashIndex hash("h", {0}, false);
  OrderedIndex ordered("o", {0}, false);
  for (Index* index : {static_cast<Index*>(&hash),
                       static_cast<Index*>(&ordered)}) {
    for (uint32_t s = 0; s < 4; ++s) {
      ASSERT_TRUE(index->Insert(R(7, "x"), Rid{0, s}).ok());
    }
    ASSERT_TRUE(index->Erase(R(7, "x"), Rid{0, 1}).ok());
    ASSERT_TRUE(index->Insert(R(7, "y"), Rid{0, 1}).ok());
    ASSERT_TRUE(index->Erase(R(7, "x"), Rid{0, 0}).ok());
    ASSERT_TRUE(index->Insert(R(7, "y"), Rid{0, 0}).ok());
    EXPECT_EQ(index->Lookup({Value::Int(7)}),
              (std::vector<Rid>{{0, 0}, {0, 1}, {0, 2}, {0, 3}}))
        << index->name();
  }
  EXPECT_EQ(ordered.RangeLookup({Value::Int(7)}, true, {}, true),
            (std::vector<Rid>{{0, 0}, {0, 1}, {0, 2}, {0, 3}}));
}

TEST(BufferPool, LruEviction) {
  BufferPool pool(2);
  pool.Touch({1, 0});
  pool.Touch({1, 1});
  pool.Touch({1, 0});  // 0 is now MRU
  pool.Touch({1, 2});  // evicts 1
  EXPECT_EQ(pool.faults(), 3u);
  pool.Touch({1, 0});  // hit
  EXPECT_EQ(pool.faults(), 3u);
  pool.Touch({1, 1});  // fault again (was evicted)
  EXPECT_EQ(pool.faults(), 4u);
  EXPECT_EQ(pool.accesses(), 6u);
}

TEST(BufferPool, UnboundedNeverEvicts) {
  BufferPool pool(0);
  for (int i = 0; i < 100; ++i) pool.Touch({1, static_cast<uint32_t>(i)});
  for (int i = 0; i < 100; ++i) pool.Touch({1, static_cast<uint32_t>(i)});
  EXPECT_EQ(pool.faults(), 100u);
  EXPECT_EQ(pool.accesses(), 200u);
}

}  // namespace
}  // namespace xnf
