// The XNF cache and its cursor API (paper §3.7 and §4.2).

#include <algorithm>
#include <set>

#include "gtest/gtest.h"
#include "test_util.h"
#include "xnf/cache.h"

namespace xnf::testing {
namespace {

class CacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    CreateCompanyDb(&db_);
    auto cache = db_.OpenCo(R"(
      OUT OF Xdept AS DEPT, Xemp AS EMP, Xproj AS PROJ,
        employment AS (RELATE Xdept, Xemp WHERE Xdept.dno = Xemp.edno),
        ownership AS (RELATE Xdept, Xproj WHERE Xdept.dno = Xproj.pdno)
      TAKE *
    )");
    ASSERT_TRUE(cache.ok()) << cache.status().ToString();
    cache_ = std::move(cache).value();
  }

  Database db_;
  std::unique_ptr<co::CoCache> cache_;
};

TEST_F(CacheTest, IndependentCursorBrowsesAllTuples) {
  co::Cursor cursor(cache_.get(), cache_->NodeIndex("xemp"));
  std::vector<int64_t> enos;
  while (cursor.Next()) enos.push_back(cursor.values()[0].AsInt());
  std::sort(enos.begin(), enos.end());
  EXPECT_EQ(enos, (std::vector<int64_t>{1, 2, 4, 5, 6}));
  // Reset rewinds.
  cursor.Reset();
  int count = 0;
  while (cursor.Next()) ++count;
  EXPECT_EQ(count, 5);
}

TEST_F(CacheTest, DependentCursorFollowsParent) {
  // The paper's aDept / anEmpOfDept example: the dependent cursor sees only
  // employees reachable from the department the parent points to.
  co::Cursor dept_cursor(cache_.get(), cache_->NodeIndex("xdept"));
  std::vector<size_t> per_dept_counts;
  while (dept_cursor.Next()) {
    ASSERT_OK_AND_ASSIGN(
        std::unique_ptr<co::DependentCursor> emp_cursor,
        co::DependentCursor::Open(&dept_cursor, {"employment"}));
    size_t n = 0;
    while (emp_cursor->Next()) {
      // Every employee seen must belong to the current department.
      EXPECT_EQ(emp_cursor->values()[4].AsInt(),
                dept_cursor.values()[0].AsInt());
      ++n;
    }
    per_dept_counts.push_back(n);
  }
  std::sort(per_dept_counts.begin(), per_dept_counts.end());
  EXPECT_EQ(per_dept_counts, (std::vector<size_t>{0, 2, 3}));
}

TEST_F(CacheTest, DependentCursorRebind) {
  co::Cursor dept_cursor(cache_.get(), cache_->NodeIndex("xdept"));
  ASSERT_TRUE(dept_cursor.Next());
  ASSERT_OK_AND_ASSIGN(
      std::unique_ptr<co::DependentCursor> emp_cursor,
      co::DependentCursor::Open(&dept_cursor, {"employment"}));
  size_t first = 0;
  while (emp_cursor->Next()) ++first;
  ASSERT_TRUE(dept_cursor.Next());
  ASSERT_OK(emp_cursor->Rebind());
  size_t second = 0;
  while (emp_cursor->Next()) ++second;
  EXPECT_NE(first, second);  // dept 1 has 2 employees, dept 2 has 3
}

TEST_F(CacheTest, MultiStepDependentCursor) {
  // Cross two relationships: department -> employees -> (backward) nothing;
  // instead use ownership then backward employment is invalid, so test a
  // forward-forward chain through a recursive structure in fig4 below.
  co::Cursor dept_cursor(cache_.get(), cache_->NodeIndex("xdept"));
  ASSERT_TRUE(dept_cursor.Next());  // d1
  // employment then employment-backward returns to the department itself.
  ASSERT_OK_AND_ASSIGN(
      std::unique_ptr<co::DependentCursor> back,
      co::DependentCursor::Open(&dept_cursor,
                                {"employment", "employment"}));
  int count = 0;
  while (back->Next()) {
    EXPECT_EQ(back->values()[0].AsInt(), dept_cursor.values()[0].AsInt());
    ++count;
  }
  // Dedup: the department appears once even though two employees lead back.
  EXPECT_EQ(count, 1);
}

TEST_F(CacheTest, QualifiedPathDependentCursor) {
  // §3.5/§3.7: a dependent cursor bound through a qualified path expression.
  co::Cursor dept_cursor(cache_.get(), cache_->NodeIndex("xdept"));
  ASSERT_TRUE(dept_cursor.Next());  // d1: employees e1 (1500), e2 (2500)
  ASSERT_OK_AND_ASSIGN(
      std::unique_ptr<co::DependentCursor> cheap,
      co::DependentCursor::OpenPath(
          &dept_cursor, "employment->(Xemp e WHERE e.sal < 2000)"));
  std::vector<int64_t> enos;
  while (cheap->Next()) enos.push_back(cheap->values()[0].AsInt());
  EXPECT_EQ(enos, (std::vector<int64_t>{1}));
  // Unqualified node step is a no-op filter.
  ASSERT_OK_AND_ASSIGN(
      std::unique_ptr<co::DependentCursor> all,
      co::DependentCursor::OpenPath(&dept_cursor, "employment->Xemp"));
  int n = 0;
  while (all->Next()) ++n;
  EXPECT_EQ(n, 2);
}

TEST_F(CacheTest, QualifiedPathCursorErrors) {
  co::Cursor dept_cursor(cache_.get(), cache_->NodeIndex("xdept"));
  ASSERT_TRUE(dept_cursor.Next());
  // Wrong node name after the hop.
  auto r = co::DependentCursor::OpenPath(&dept_cursor, "employment->Xproj");
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  // Unknown column inside the qualification.
  auto r2 = co::DependentCursor::OpenPath(
      &dept_cursor, "employment->(Xemp e WHERE e.nope = 1)");
  EXPECT_EQ(r2.status().code(), StatusCode::kNotFound);
}

TEST_F(CacheTest, UnknownRelationshipRejected) {
  co::Cursor dept_cursor(cache_.get(), cache_->NodeIndex("xdept"));
  ASSERT_TRUE(dept_cursor.Next());
  auto r = co::DependentCursor::Open(&dept_cursor, {"nope"});
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  auto r2 = co::DependentCursor::Open(&dept_cursor, {"ownership", "employment"});
  EXPECT_EQ(r2.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(CacheTest, PointerAndHashNavigationAgree) {
  int rel = cache_->RelIndex("employment");
  co::Cursor dept_cursor(cache_.get(), cache_->NodeIndex("xdept"));
  while (dept_cursor.Next()) {
    const auto& by_pointer = cache_->Children(rel, *dept_cursor.tuple());
    auto by_hash = cache_->ChildrenByHash(rel, *dept_cursor.tuple());
    std::set<co::CoCache::Connection*> a(by_pointer.begin(),
                                         by_pointer.end());
    std::set<co::CoCache::Connection*> b(by_hash.begin(), by_hash.end());
    EXPECT_EQ(a, b);
  }
}

TEST_F(CacheTest, SnapshotRoundTrip) {
  co::CoInstance snap = cache_->Snapshot();
  EXPECT_EQ(snap.nodes.size(), cache_->node_count());
  EXPECT_EQ(snap.nodes[snap.NodeIndex("xemp")].tuples.size(), 5u);
  EXPECT_EQ(snap.rels[snap.RelIndex("employment")].connections.size(), 5u);
  // The snapshot preserves write provenance.
  EXPECT_EQ(snap.rels[snap.RelIndex("employment")].write_kind,
            co::CoRelInstance::WriteKind::kForeignKey);
}

TEST_F(CacheTest, EnforceReachabilityPrunesOrphans) {
  // Cutting the only connection into an employee makes it unreachable; the
  // cache keeps it browsable until reachability is re-enforced.
  int rel = cache_->RelIndex("employment");
  co::CoCache::Node& emp = cache_->node(cache_->NodeIndex("xemp"));
  co::CoCache::Tuple* victim = &emp.tuples.front();
  ASSERT_EQ(victim->in[rel].size(), 1u);
  cache_->RemoveConnection(victim->in[rel][0]);
  EXPECT_TRUE(victim->alive);
  size_t dropped = cache_->EnforceReachability();
  EXPECT_GE(dropped, 1u);
  EXPECT_FALSE(victim->alive);
  // Root tuples are never pruned.
  for (const co::CoCache::Tuple& t :
       cache_->node(cache_->NodeIndex("xdept")).tuples) {
    EXPECT_TRUE(t.alive);
  }
  // Idempotent.
  EXPECT_EQ(cache_->EnforceReachability(), 0u);
}

TEST_F(CacheTest, LiveCountsTrackRemovals) {
  int rel = cache_->RelIndex("employment");
  co::CoCache::Connection* conn = &cache_->rel(rel).connections.front();
  size_t before = cache_->rel(rel).live_count();
  cache_->RemoveConnection(conn);
  EXPECT_EQ(cache_->rel(rel).live_count(), before - 1);
  // Pointer buckets no longer contain the dead connection.
  for (const co::CoCache::Connection* c :
       cache_->Children(rel, *conn->parent)) {
    EXPECT_NE(c, conn);
  }
}

// A design CO where one group owns kFanOut items and items share parts
// through a link table, so a group -> item -> part path reaches each part
// through many items (a diamond), some of them over duplicate links.
constexpr int kFanOut = 2000;
constexpr int kParts = 60;

class FanOutCursorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    MustExecute(&db_, R"(
      CREATE TABLE G (gid INT PRIMARY KEY);
      CREATE TABLE I (iid INT PRIMARY KEY, igid INT);
      CREATE TABLE P (pid INT PRIMARY KEY, cost INT);
      CREATE TABLE IP (ipiid INT, ippid INT);
      INSERT INTO G VALUES (1), (2);
    )");
    std::string items, parts, links;
    for (int i = 0; i < kFanOut + 3; ++i) {
      items += (i ? ", (" : "(") + std::to_string(i) + ", " +
               (i < kFanOut ? "1" : "2") + ")";
      for (int p : {(i * 7 + 3) % kParts, (i * 13) % kParts, i % kParts}) {
        links += (links.empty() ? "(" : ", (") + std::to_string(i) + ", " +
                 std::to_string(p) + ")";
      }
    }
    for (int p = 0; p < kParts; ++p) {
      parts += (p ? ", (" : "(") + std::to_string(p) + ", " +
               std::to_string(p % 7 * 10) + ")";
    }
    MustExecute(&db_, "INSERT INTO I VALUES " + items + ";" +
                          "INSERT INTO P VALUES " + parts + ";" +
                          "INSERT INTO IP VALUES " + links + ";");
    ASSERT_OK_AND_ASSIGN(cache_, db_.OpenCo(R"(
      OUT OF g AS G, i AS I, p AS P,
        has_item AS (RELATE g, i WHERE g.gid = i.igid),
        uses AS (RELATE i, p USING IP x
                 WHERE i.iid = x.ipiid AND p.pid = x.ippid)
      TAKE *
    )"));
  }

  // The dependent-cursor walk as it was before steps were bound once: a
  // std::find dedup per step. Its output, order included, is the contract.
  std::vector<const co::CoCache::Tuple*> LegacyWalk(
      const co::Cursor& parent, const std::vector<std::string>& rels) const {
    std::vector<const co::CoCache::Tuple*> frontier = {parent.tuple()};
    int node = parent.node_index();
    for (const std::string& name : rels) {
      const int r = cache_->RelIndex(name);
      const co::CoCache::Rel& rel = cache_->rel(r);
      const bool forward = rel.parent_node == node;
      std::vector<const co::CoCache::Tuple*> next;
      for (const co::CoCache::Tuple* t : frontier) {
        for (const co::CoCache::Connection* c :
             forward ? t->out[r] : t->in[r]) {
          const co::CoCache::Tuple* partner = forward ? c->child : c->parent;
          if (c->alive && partner->alive &&
              std::find(next.begin(), next.end(), partner) == next.end()) {
            next.push_back(partner);
          }
        }
      }
      frontier = std::move(next);
      node = forward ? rel.child_node : rel.parent_node;
    }
    return frontier;
  }

  static std::vector<const co::CoCache::Tuple*> Drain(
      co::DependentCursor* cursor) {
    std::vector<const co::CoCache::Tuple*> out;
    while (cursor->Next()) out.push_back(cursor->tuple());
    return out;
  }

  Database db_;
  std::unique_ptr<co::CoCache> cache_;
};

TEST_F(FanOutCursorTest, FanOutKeepsConnectionOrder) {
  co::Cursor groups(cache_.get(), cache_->NodeIndex("g"));
  ASSERT_TRUE(groups.Next());
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<co::DependentCursor> items,
                       co::DependentCursor::Open(&groups, {"has_item"}));
  auto got = Drain(items.get());
  ASSERT_EQ(got.size(), static_cast<size_t>(kFanOut));
  EXPECT_EQ(got, LegacyWalk(groups, {"has_item"}));
}

TEST_F(FanOutCursorTest, DiamondYieldsEachTupleOnceInFirstSeenOrder) {
  co::Cursor groups(cache_.get(), cache_->NodeIndex("g"));
  ASSERT_TRUE(groups.Next());
  ASSERT_OK_AND_ASSIGN(
      std::unique_ptr<co::DependentCursor> parts,
      co::DependentCursor::Open(&groups, {"has_item", "uses"}));
  auto got = Drain(parts.get());
  EXPECT_EQ(got.size(), static_cast<size_t>(kParts));
  EXPECT_EQ(std::set<const co::CoCache::Tuple*>(got.begin(), got.end()).size(),
            got.size());
  EXPECT_EQ(got, LegacyWalk(groups, {"has_item", "uses"}));

  // Backward across both relationships: every part reaches its groups
  // through many items, and each group comes back once.
  co::Cursor parts_cursor(cache_.get(), cache_->NodeIndex("p"));
  std::unique_ptr<co::DependentCursor> owners;
  while (parts_cursor.Next()) {
    if (owners == nullptr) {
      ASSERT_OK_AND_ASSIGN(owners, co::DependentCursor::Open(
                                       &parts_cursor, {"uses", "has_item"}));
    } else {
      ASSERT_OK(owners->Rebind());
    }
    auto groups_seen = Drain(owners.get());
    EXPECT_EQ(groups_seen, LegacyWalk(parts_cursor, {"uses", "has_item"}));
    EXPECT_GE(groups_seen.size(), 1u);
    EXPECT_LE(groups_seen.size(), 2u);
  }
}

TEST_F(FanOutCursorTest, QualifiedStepFiltersInOrder) {
  co::Cursor groups(cache_.get(), cache_->NodeIndex("g"));
  ASSERT_TRUE(groups.Next());
  ASSERT_OK_AND_ASSIGN(
      std::unique_ptr<co::DependentCursor> dear,
      co::DependentCursor::OpenPath(
          &groups, "has_item->uses->(p x WHERE x.cost > 30 AND pid < 50)"));
  std::vector<const co::CoCache::Tuple*> want;
  for (const co::CoCache::Tuple* t : LegacyWalk(groups, {"has_item", "uses"})) {
    if (t->values[1].AsInt() > 30 && t->values[0].AsInt() < 50) {
      want.push_back(t);
    }
  }
  EXPECT_FALSE(want.empty());
  EXPECT_EQ(Drain(dear.get()), want);
}

TEST_F(FanOutCursorTest, RebindFollowsTheParentAcrossFanOuts) {
  // One cursor rebound from the 2000-item group to the 3-item group and
  // back: no state of an earlier walk leaks into a later one.
  co::Cursor groups(cache_.get(), cache_->NodeIndex("g"));
  ASSERT_TRUE(groups.Next());
  ASSERT_OK_AND_ASSIGN(
      std::unique_ptr<co::DependentCursor> parts,
      co::DependentCursor::Open(&groups, {"has_item", "uses"}));
  ASSERT_TRUE(groups.Next());
  ASSERT_OK(parts->Rebind());
  auto small = Drain(parts.get());
  EXPECT_EQ(small, LegacyWalk(groups, {"has_item", "uses"}));
  EXPECT_LE(small.size(), 9u);
  groups.Reset();
  ASSERT_TRUE(groups.Next());
  ASSERT_OK(parts->Rebind());
  EXPECT_EQ(Drain(parts.get()), LegacyWalk(groups, {"has_item", "uses"}));
}

TEST_F(FanOutCursorTest, BadStepsFailAtOpen) {
  co::Cursor groups(cache_.get(), cache_->NodeIndex("g"));
  // An unpositioned parent is reported before the path is looked at.
  EXPECT_EQ(co::DependentCursor::Open(&groups, {"nope"}).status().code(),
            StatusCode::kInvalidArgument);
  ASSERT_TRUE(groups.Next());
  EXPECT_EQ(co::DependentCursor::Open(&groups, {"nope"}).status().code(),
            StatusCode::kNotFound);
  // `uses` does not touch g.
  EXPECT_EQ(co::DependentCursor::Open(&groups, {"uses"}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(
      co::DependentCursor::OpenPath(&groups, "has_item->p").status().code(),
      StatusCode::kInvalidArgument);
  EXPECT_EQ(co::DependentCursor::OpenPath(
                &groups, "has_item->(i y WHERE y.nope = 1)")
                .status()
                .code(),
            StatusCode::kNotFound);
}

}  // namespace
}  // namespace xnf::testing
