#include "storage/column_store.h"

#include <string>
#include <vector>

#include "common/failpoint.h"
#include "common/serde.h"
#include "gtest/gtest.h"
#include "storage/buffer_pool.h"

namespace xnf {
namespace {

Schema IntStrSchema() {
  Schema s;
  Column id("id", Type::kInt);
  id.primary_key = true;
  s.AddColumn(id);
  s.AddColumn(Column("v", Type::kString));
  return s;
}

Schema WideSchema() {
  Schema s;
  s.AddColumn(Column("i", Type::kInt));
  s.AddColumn(Column("d", Type::kDouble));
  s.AddColumn(Column("s", Type::kString));
  s.AddColumn(Column("b", Type::kBool));
  return s;
}

ColumnStore MakeStore(Schema schema, uint32_t rows_per_group = 4,
                      BufferPool* pool = nullptr,
                      uint32_t max_dict = 1u << 16) {
  ColumnStore::Options opts;
  opts.rows_per_group = rows_per_group;
  opts.buffer_pool = pool;
  opts.max_dict_entries = max_dict;
  return ColumnStore(std::move(schema), opts);
}

class ColumnStoreFailpointTest : public ::testing::Test {
 protected:
  void TearDown() override { Failpoints::DisableAll(); }
};

TEST(ColumnStore, InsertReadRoundTrip) {
  ColumnStore store = MakeStore(WideSchema());
  Rid rid = *store.Insert({Value::Int(7), Value::Double(1.5),
                           Value::String("x"), Value::Bool(true)});
  auto row = store.Read(rid);
  ASSERT_TRUE(row.ok());
  EXPECT_EQ((*row)[0].AsInt(), 7);
  EXPECT_EQ((*row)[1].AsDouble(), 1.5);
  EXPECT_EQ((*row)[2].AsString(), "x");
  EXPECT_TRUE((*row)[3].AsBool());
  EXPECT_EQ(store.live_count(), 1u);
  EXPECT_EQ(store.kind(), StorageKind::kColumn);
  EXPECT_NE(store.AsColumnStore(), nullptr);
}

TEST(ColumnStore, RidsDenseInAppendOrderAcrossGroups) {
  ColumnStore store = MakeStore(IntStrSchema(), /*rows_per_group=*/3);
  for (int i = 0; i < 8; ++i) {
    Rid rid = *store.Insert({Value::Int(i), Value::String("r")});
    EXPECT_EQ(rid.page, static_cast<uint32_t>(i / 3));
    EXPECT_EQ(rid.slot, static_cast<uint32_t>(i % 3));
  }
  EXPECT_EQ(store.page_count(), 3u);  // page_count counts row groups
}

TEST(ColumnStore, ScanMatchesHeapContract) {
  // Same rid-ordered stream a TableHeap scan would produce: dense rids,
  // tombstoned rows skipped, early stop honoured.
  ColumnStore store = MakeStore(IntStrSchema(), 2);
  std::vector<Rid> rids;
  for (int i = 0; i < 5; ++i) {
    rids.push_back(*store.Insert({Value::Int(i), Value::String("r")}));
  }
  ASSERT_TRUE(store.Delete(rids[1]).ok());
  std::vector<int64_t> seen;
  ASSERT_TRUE(store
                  .Scan([&](Rid, const Row& row) {
                    seen.push_back(row[0].AsInt());
                    return true;
                  })
                  .ok());
  EXPECT_EQ(seen, (std::vector<int64_t>{0, 2, 3, 4}));
  seen.clear();
  ASSERT_TRUE(store
                  .Scan([&](Rid, const Row& row) {
                    seen.push_back(row[0].AsInt());
                    return seen.size() < 2;
                  })
                  .ok());
  EXPECT_EQ(seen.size(), 2u);
}

TEST(ColumnStore, UpdateDeleteRestore) {
  ColumnStore store = MakeStore(IntStrSchema());
  Rid rid = *store.Insert({Value::Int(1), Value::String("a")});
  ASSERT_TRUE(store.Update(rid, {Value::Int(2), Value::String("b")}).ok());
  EXPECT_EQ((*store.Read(rid))[0].AsInt(), 2);
  ASSERT_TRUE(store.Delete(rid).ok());
  EXPECT_FALSE(store.IsLive(rid));
  EXPECT_EQ(store.Read(rid).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(store.Delete(rid).code(), StatusCode::kNotFound);
  EXPECT_EQ(store.Update(rid, {Value::Int(3), Value::String("c")}).code(),
            StatusCode::kNotFound);
  ASSERT_TRUE(store.Restore(rid, {Value::Int(9), Value::String("z")}).ok());
  EXPECT_TRUE(store.IsLive(rid));
  EXPECT_EQ((*store.Read(rid))[0].AsInt(), 9);
  EXPECT_EQ((*store.Read(rid))[1].AsString(), "z");
  // Restoring a live slot is a contract violation, like TableHeap.
  EXPECT_EQ(store.Restore(rid, {Value::Int(1), Value::String("a")}).code(),
            StatusCode::kInvalidArgument);
}

TEST(ColumnStore, AllNullColumnRoundTripsAndViews) {
  ColumnStore store = MakeStore(WideSchema(), 4);
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(store
                    .Insert({Value::Null(), Value::Null(), Value::Null(),
                             Value::Null()})
                    .ok());
  }
  for (uint32_t g = 0; g < store.page_count(); ++g) {
    ColumnStore::GroupInfo info;
    ASSERT_TRUE(store.ReadGroupInfo(g, &info).ok());
    for (size_t c = 0; c < store.num_columns(); ++c) {
      ColumnStore::ViewScratch scratch;
      ColumnStore::ColumnView view;
      ASSERT_TRUE(store.ViewColumn(g, c, &scratch, &view).ok());
      ASSERT_EQ(view.rows, info.rows);
      for (size_t i = 0; i < view.rows; ++i) {
        EXPECT_TRUE(view.IsNull(i));
        EXPECT_TRUE(ColumnStore::ViewValue(view, i).is_null());
      }
    }
  }
  auto row = store.Read(Rid{1, 1});
  ASSERT_TRUE(row.ok());
  for (const Value& v : *row) EXPECT_TRUE(v.is_null());
}

TEST(ColumnStore, EmptyStringIsARegularDictionaryEntry) {
  ColumnStore store = MakeStore(IntStrSchema());
  Rid a = *store.Insert({Value::Int(1), Value::String("")});
  Rid b = *store.Insert({Value::Int(2), Value::String("x")});
  Rid c = *store.Insert({Value::Int(3), Value::String("")});
  EXPECT_EQ((*store.Read(a))[1].AsString(), "");
  EXPECT_EQ((*store.Read(b))[1].AsString(), "x");
  EXPECT_EQ((*store.Read(c))[1].AsString(), "");
  // "" and "x" share the dictionary; the repeat did not add an entry.
  ASSERT_TRUE(store.DictCode(1, "").has_value());
  EXPECT_EQ(store.Dictionary(1).size(), 2u);
  EXPECT_FALSE(store.DictOverflowed(1));
}

TEST(ColumnStore, DictionaryOverflowFallbackStaysExact) {
  // Cap the dictionary at 2 entries; the third distinct string overflows.
  ColumnStore store =
      MakeStore(IntStrSchema(), /*rows_per_group=*/4, nullptr,
                /*max_dict=*/2);
  std::vector<std::string> values = {"a", "b", "c", "d", "a", "c"};
  std::vector<Rid> rids;
  for (size_t i = 0; i < values.size(); ++i) {
    rids.push_back(
        *store.Insert({Value::Int(static_cast<int64_t>(i)),
                       Value::String(values[i])}));
  }
  EXPECT_TRUE(store.DictOverflowed(1));
  EXPECT_EQ(store.Dictionary(1).size(), 2u);
  for (size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ((*store.Read(rids[i]))[1].AsString(), values[i]);
  }
  // Scans decode overflow codes too.
  std::vector<std::string> seen;
  ASSERT_TRUE(store
                  .Scan([&](Rid, const Row& row) {
                    seen.push_back(row[1].AsString());
                    return true;
                  })
                  .ok());
  EXPECT_EQ(seen, values);
  ColumnStore::Compression stats = store.CompressionStats();
  EXPECT_EQ(stats.dict_entries, 2u);
  EXPECT_GT(stats.overflow_values, 0u);
}

TEST(ColumnStore, RleRunsSpanningGroupBoundaries) {
  // 10 identical values at 4 rows per group: groups 0 and 1 fill with a
  // single run each and seal to RLE; group 2 stays partial/plain.
  ColumnStore store = MakeStore(WideSchema(), 4);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(store
                    .Insert({Value::Int(42), Value::Double(2.0),
                             Value::String("s"), Value::Bool(false)})
                    .ok());
  }
  ColumnStore::Compression stats = store.CompressionStats();
  EXPECT_GT(stats.rle_segments, 0u);
  // Reads and views decode identically across the boundary.
  for (int i = 0; i < 10; ++i) {
    Rid rid{static_cast<uint32_t>(i / 4), static_cast<uint32_t>(i % 4)};
    auto row = store.Read(rid);
    ASSERT_TRUE(row.ok());
    EXPECT_EQ((*row)[0].AsInt(), 42);
    EXPECT_EQ((*row)[1].AsDouble(), 2.0);
  }
  ColumnStore::ViewScratch scratch;
  ColumnStore::ColumnView view;
  ASSERT_TRUE(store.ViewColumn(0, 0, &scratch, &view).ok());
  ASSERT_NE(view.ints, nullptr);
  for (size_t i = 0; i < view.rows; ++i) EXPECT_EQ(view.ints[i], 42);
}

TEST(ColumnStore, SealedRunsReadBackAtEverySlot) {
  // One 1024-row group whose INT lanes seal at the two extremes — a single
  // run, and the most runs a sealed segment may hold (runs * 2 == rows) —
  // and one with runs of mixed lengths (1, 2, 3, ...), plus a DOUBLE lane.
  // Point reads binary-search the run ends: every slot, so the first and
  // last slot of every run, must read back what was inserted, and so must
  // the expanded view.
  constexpr uint32_t kRows = 1024;
  Schema schema;
  for (const char* name : {"one", "pairs", "mixed"}) {
    schema.AddColumn(Column(name, Type::kInt));
  }
  schema.AddColumn(Column("d", Type::kDouble));
  ColumnStore store = MakeStore(std::move(schema), kRows);
  std::vector<int64_t> mixed;
  for (int64_t run = 1; mixed.size() < kRows; ++run) {
    for (int64_t i = 0; i < run && mixed.size() < kRows; ++i) {
      mixed.push_back(run);
    }
  }
  auto expected = [&](uint32_t slot) {
    return Row{Value::Int(7), Value::Int(slot / 2), Value::Int(mixed[slot]),
               Value::Double(0.5 * (slot / 4))};
  };
  for (uint32_t slot = 0; slot < kRows; ++slot) {
    ASSERT_TRUE(store.Insert(expected(slot)).ok());
  }
  ASSERT_EQ(store.page_count(), 1u);
  EXPECT_EQ(store.CompressionStats().rle_segments, 4u);
  std::vector<ColumnStore::ViewScratch> scratch(4);
  std::vector<ColumnStore::ColumnView> views(4);
  for (size_t c = 0; c < 4; ++c) {
    ASSERT_TRUE(store.ViewColumn(0, c, &scratch[c], &views[c]).ok());
  }
  auto typed = [](const Value& v) {
    return std::string(TypeName(v.type())) + " " + v.ToString();
  };
  for (uint32_t slot = 0; slot < kRows; ++slot) {
    auto row = store.Read(Rid{0, slot});
    ASSERT_TRUE(row.ok());
    Row want = expected(slot);
    for (size_t c = 0; c < 4; ++c) {
      EXPECT_EQ(typed((*row)[c]), typed(want[c]))
          << "slot " << slot << " column " << c;
      EXPECT_EQ(typed(ColumnStore::ViewValue(views[c], slot)), typed(want[c]))
          << "slot " << slot << " column " << c;
    }
  }
}

TEST(ColumnStore, UpdateUnsealsRleGroup) {
  ColumnStore store = MakeStore(WideSchema(), 4);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(store
                    .Insert({Value::Int(1), Value::Double(1.0),
                             Value::String("s"), Value::Bool(true)})
                    .ok());
  }
  ASSERT_GT(store.CompressionStats().rle_segments, 0u);
  ASSERT_TRUE(store
                  .Update(Rid{0, 2}, {Value::Int(5), Value::Double(1.0),
                                      Value::String("s"), Value::Bool(true)})
                  .ok());
  EXPECT_EQ((*store.Read(Rid{0, 2}))[0].AsInt(), 5);
  EXPECT_EQ((*store.Read(Rid{0, 1}))[0].AsInt(), 1);
  EXPECT_EQ((*store.Read(Rid{0, 3}))[0].AsInt(), 1);
}

// A group checkpointed at a smaller group size keeps growing after restore
// into a larger one; its tombstone bitmap must cover every slot, since scans
// index it unchecked (GroupView).
TEST(ColumnStore, RestoredGroupBitmapCoversTheWholeGroup) {
  ColumnStore small = MakeStore(IntStrSchema(), 16);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(small.Insert({Value::Int(i), Value::String("v")}).ok());
  }
  ASSERT_TRUE(small.Delete(Rid{0, 3}).ok());
  std::string unit;
  ASSERT_TRUE(small.SerializeUnit(0, &unit).ok());

  ColumnStore big = MakeStore(IntStrSchema(), 1024);
  serde::Reader in(unit);
  ASSERT_TRUE(big.RestoreUnit(0, &in).ok());
  big.FinalizeRestore();
  for (int i = 10; i < 200; ++i) {
    ASSERT_TRUE(big.Insert({Value::Int(i), Value::String("v")}).ok());
  }
  ASSERT_EQ(big.page_count(), 1u);
  ColumnStore::GroupInfo info;
  ASSERT_TRUE(big.ReadGroupInfo(0, &info).ok());
  ASSERT_NE(info.tombstones, nullptr);
  EXPECT_EQ(info.rows, 200u);
  EXPECT_EQ(info.live, 199u);
  size_t dead = 0;
  for (size_t i = 0; i < info.rows; ++i) {
    if ((info.tombstones[i >> 6] >> (i & 63)) & 1) ++dead;
  }
  EXPECT_EQ(dead, 1u);
  EXPECT_FALSE(big.IsLive(Rid{0, 3}));
  EXPECT_TRUE(big.IsLive(Rid{0, 199}));

  // A group larger than the store's groups cannot be restored at all.
  ColumnStore tiny = MakeStore(IntStrSchema(), 8);
  serde::Reader again(unit);
  Status st = tiny.RestoreUnit(0, &again);
  EXPECT_EQ(st.code(), StatusCode::kInternal) << st.ToString();
}

TEST(ColumnStore, StrictSchemaTypesEnforced) {
  // The storage layer assumes the executor coerced values already — the
  // same contract a re-opened store's segments are laid out under. An
  // uncoerced value is an internal error, not silent data corruption.
  ColumnStore store = MakeStore(IntStrSchema());
  EXPECT_EQ(store.Insert({Value::String("no"), Value::String("x")}).status()
                .code(),
            StatusCode::kInternal);
  EXPECT_EQ(store.Insert({Value::Int(1)}).status().code(),
            StatusCode::kInternal);
  Rid rid = *store.Insert({Value::Int(1), Value::String("x")});
  EXPECT_EQ(store.Update(rid, {Value::Int(1), Value::Int(2)}).code(),
            StatusCode::kInternal);
  // NULL is valid for any column type.
  EXPECT_TRUE(store.Update(rid, {Value::Null(), Value::Null()}).ok());
}

TEST(ColumnStore, PerKindBufferPoolAttribution) {
  BufferPool pool(0);
  ColumnStore store = MakeStore(IntStrSchema(), 4, &pool);
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(store.Insert({Value::Int(i), Value::String("r")}).ok());
  }
  ASSERT_TRUE(store.Scan([](Rid, const Row&) { return true; }).ok());
  EXPECT_GT(pool.accesses(PageKind::kColumn), 0u);
  EXPECT_GT(pool.faults(PageKind::kColumn), 0u);
  // Nothing here touches heap or index pages.
  EXPECT_EQ(pool.accesses(PageKind::kHeap), 0u);
  EXPECT_EQ(pool.accesses(PageKind::kIndex), 0u);
  EXPECT_EQ(pool.faults(), pool.faults(PageKind::kColumn));
  // 2 groups x 2 columns distinct pages.
  EXPECT_EQ(pool.faults(PageKind::kColumn), 4u);
}

TEST(ColumnStore, LateViewTouchesOnlyThatColumnsPage) {
  BufferPool pool(0);
  ColumnStore store = MakeStore(WideSchema(), 4, &pool);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(store
                    .Insert({Value::Int(i), Value::Double(0.5),
                             Value::String("s"), Value::Bool(true)})
                    .ok());
  }
  pool.ResetCounters();
  pool.Clear();
  ColumnStore::GroupInfo info;
  ASSERT_TRUE(store.ReadGroupInfo(0, &info).ok());
  ColumnStore::ViewScratch scratch;
  ColumnStore::ColumnView view;
  ASSERT_TRUE(store.ViewColumn(0, 0, &scratch, &view).ok());
  // Group header touches the first column page; the view touches column 0
  // again — columns 1..3 are never faulted in.
  EXPECT_EQ(pool.faults(PageKind::kColumn), 1u);
}

TEST_F(ColumnStoreFailpointTest, AppendFailureLeavesNoPartialState) {
  ColumnStore store = MakeStore(IntStrSchema(), 4);
  ASSERT_TRUE(store.Insert({Value::Int(1), Value::String("a")}).ok());
  ASSERT_TRUE(Failpoints::Enable("column.append", "nth(1)").ok());
  auto r = store.Insert({Value::Int(2), Value::String("b")});
  ASSERT_FALSE(r.ok());
  Failpoints::DisableAll();
  EXPECT_EQ(store.live_count(), 1u);
  // The next insert lands on the rid the failed one would have taken.
  Rid rid = *store.Insert({Value::Int(3), Value::String("c")});
  EXPECT_EQ(rid.page, 0u);
  EXPECT_EQ(rid.slot, 1u);
  std::vector<int64_t> seen;
  ASSERT_TRUE(store
                  .Scan([&](Rid, const Row& row) {
                    seen.push_back(row[0].AsInt());
                    return true;
                  })
                  .ok());
  EXPECT_EQ(seen, (std::vector<int64_t>{1, 3}));
}

TEST_F(ColumnStoreFailpointTest, WriteFailureLeavesRowIntact) {
  ColumnStore store = MakeStore(IntStrSchema());
  Rid rid = *store.Insert({Value::Int(1), Value::String("a")});
  ASSERT_TRUE(Failpoints::Enable("column.write", "nth(1)").ok());
  ASSERT_FALSE(store.Update(rid, {Value::Int(2), Value::String("b")}).ok());
  Failpoints::DisableAll();
  EXPECT_EQ((*store.Read(rid))[0].AsInt(), 1);
  EXPECT_EQ((*store.Read(rid))[1].AsString(), "a");
  EXPECT_EQ(store.live_count(), 1u);
}

TEST_F(ColumnStoreFailpointTest, ReadFailpointCoversScansAndViews) {
  ColumnStore store = MakeStore(IntStrSchema());
  ASSERT_TRUE(store.Insert({Value::Int(1), Value::String("a")}).ok());
  ASSERT_TRUE(Failpoints::Enable("column.read", "always").ok());
  EXPECT_FALSE(store.Read(Rid{0, 0}).ok());
  EXPECT_FALSE(store.Scan([](Rid, const Row&) { return true; }).ok());
  ColumnStore::GroupInfo info;
  EXPECT_FALSE(store.ReadGroupInfo(0, &info).ok());
  ColumnStore::ViewScratch scratch;
  ColumnStore::ColumnView view;
  EXPECT_FALSE(store.ViewColumn(0, 0, &scratch, &view).ok());
  Failpoints::DisableAll();
  EXPECT_TRUE(store.Read(Rid{0, 0}).ok());
}

}  // namespace
}  // namespace xnf
