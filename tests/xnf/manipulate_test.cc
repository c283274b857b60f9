// udi-operations and connect/disconnect with propagation (paper §3.7).

#include "gtest/gtest.h"
#include "test_util.h"
#include "xnf/cache.h"
#include "xnf/manipulate.h"

namespace xnf::testing {
namespace {

class ManipulateTest : public ::testing::Test {
 protected:
  void SetUp() override {
    CreateCompanyDb(&db_);
    auto cache = db_.OpenCo(R"(
      OUT OF Xdept AS DEPT, Xemp AS EMP, Xproj AS PROJ,
        employment AS (RELATE Xdept, Xemp WHERE Xdept.dno = Xemp.edno),
        ownership AS (RELATE Xdept, Xproj WHERE Xdept.dno = Xproj.pdno),
        membership AS (RELATE Xproj, Xemp WITH ATTRIBUTES ep.percentage
                       USING EMPPROJ ep
                       WHERE Xproj.pno = ep.eppno AND Xemp.eno = ep.epeno)
      TAKE *
    )");
    ASSERT_TRUE(cache.ok()) << cache.status().ToString();
    cache_ = std::move(cache).value();
  }

  co::CoCache::Tuple* FindTuple(const std::string& node, int64_t id) {
    co::CoCache::Node& n = cache_->node(cache_->NodeIndex(node));
    for (co::CoCache::Tuple& t : n.tuples) {
      if (t.alive && t.values[0].AsInt() == id) return &t;
    }
    return nullptr;
  }

  int64_t QueryInt(const std::string& q) {
    auto rs = db_.Query(q);
    EXPECT_TRUE(rs.ok()) << rs.status().ToString();
    EXPECT_EQ(rs->rows.size(), 1u);
    if (rs->rows[0][0].is_null()) return -999;
    return rs->rows[0][0].AsInt();
  }

  Database db_;
  std::unique_ptr<co::CoCache> cache_;
};

TEST_F(ManipulateTest, UpdatePropagatesToBase) {
  co::Manipulator m(cache_.get(), db_.catalog());
  co::CoCache::Tuple* e1 = FindTuple("xemp", 1);
  ASSERT_NE(e1, nullptr);
  ASSERT_OK(m.UpdateColumn(e1, "sal", Value::Int(1600)));
  EXPECT_EQ(e1->values[2].AsInt(), 1600);
  EXPECT_EQ(QueryInt("SELECT sal FROM EMP WHERE eno = 1"), 1600);
}

TEST_F(ManipulateTest, RelationshipColumnsRejected) {
  // §3.7: columns used to define relationships are updated only through
  // connect/disconnect.
  co::Manipulator m(cache_.get(), db_.catalog());
  co::CoCache::Tuple* e1 = FindTuple("xemp", 1);
  Status st = m.UpdateColumn(e1, "edno", Value::Int(2));
  EXPECT_EQ(st.code(), StatusCode::kNotUpdatable);
  // The base is untouched.
  EXPECT_EQ(QueryInt("SELECT edno FROM EMP WHERE eno = 1"), 1);
}

TEST_F(ManipulateTest, DisconnectForeignKeyNullifies) {
  co::Manipulator m(cache_.get(), db_.catalog());
  int rel = cache_->RelIndex("employment");
  co::CoCache::Tuple* e1 = FindTuple("xemp", 1);
  ASSERT_EQ(e1->in[rel].size(), 1u);
  ASSERT_OK(m.Disconnect(e1->in[rel][0]));
  EXPECT_EQ(QueryInt("SELECT edno FROM EMP WHERE eno = 1"), -999);  // NULL
  EXPECT_TRUE(e1->values[4].is_null());
  EXPECT_TRUE(e1->in[rel].empty());
}

TEST_F(ManipulateTest, ConnectForeignKeySetsAndReassigns) {
  co::Manipulator m(cache_.get(), db_.catalog());
  int rel = cache_->RelIndex("employment");
  co::CoCache::Tuple* e1 = FindTuple("xemp", 1);
  co::CoCache::Tuple* d2 = FindTuple("xdept", 2);
  // e1 currently belongs to d1; connecting to d2 reassigns (sets the FK).
  ASSERT_OK_AND_ASSIGN(co::CoCache::Connection * conn,
                       m.Connect(rel, d2, e1));
  EXPECT_TRUE(conn->alive);
  EXPECT_EQ(QueryInt("SELECT edno FROM EMP WHERE eno = 1"), 2);
  ASSERT_EQ(e1->in[rel].size(), 1u);
  EXPECT_EQ(e1->in[rel][0]->parent, d2);
}

TEST_F(ManipulateTest, ConnectDisconnectLinkTable) {
  co::Manipulator m(cache_.get(), db_.catalog());
  int rel = cache_->RelIndex("membership");
  co::CoCache::Tuple* p1 = FindTuple("xproj", 1);
  co::CoCache::Tuple* e5 = FindTuple("xemp", 5);
  int64_t before = QueryInt("SELECT COUNT(*) FROM EMPPROJ");
  ASSERT_OK_AND_ASSIGN(co::CoCache::Connection * conn,
                       m.Connect(rel, p1, e5, {Value::Int(25)}));
  EXPECT_EQ(QueryInt("SELECT COUNT(*) FROM EMPPROJ"), before + 1);
  EXPECT_EQ(QueryInt("SELECT percentage FROM EMPPROJ WHERE epeno = 5 AND "
                     "eppno = 1"),
            25);
  // Disconnect removes the link tuple again.
  ASSERT_OK(m.Disconnect(conn));
  EXPECT_EQ(QueryInt("SELECT COUNT(*) FROM EMPPROJ"), before);
}

TEST_F(ManipulateTest, DeleteTupleDisconnectsAndRemovesBaseRow) {
  co::Manipulator m(cache_.get(), db_.catalog());
  co::CoCache::Tuple* e2 = FindTuple("xemp", 2);
  int64_t links_before = QueryInt(
      "SELECT COUNT(*) FROM EMPPROJ WHERE epeno = 2");
  EXPECT_EQ(links_before, 1);
  ASSERT_OK(m.DeleteTuple(e2));
  EXPECT_FALSE(e2->alive);
  EXPECT_EQ(QueryInt("SELECT COUNT(*) FROM EMP WHERE eno = 2"), 0);
  // Membership link rows for e2 are deleted (disconnect of incident
  // connections).
  EXPECT_EQ(QueryInt("SELECT COUNT(*) FROM EMPPROJ WHERE epeno = 2"), 0);
}

TEST_F(ManipulateTest, DeleteParentNullifiesChildren) {
  co::Manipulator m(cache_.get(), db_.catalog());
  co::CoCache::Tuple* d1 = FindTuple("xdept", 1);
  ASSERT_OK(m.DeleteTuple(d1));
  // §3.7: delete of an Xdept tuple disconnects attached employment
  // instances; the children's FK columns become NULL.
  EXPECT_EQ(QueryInt("SELECT COUNT(*) FROM EMP WHERE edno = 1"), 0);
  EXPECT_EQ(QueryInt("SELECT COUNT(*) FROM EMP WHERE eno = 1"), 1);
}

TEST_F(ManipulateTest, InsertTuple) {
  co::Manipulator m(cache_.get(), db_.catalog());
  int xemp = cache_->NodeIndex("xemp");
  Row values = {Value::Int(9), Value::String("gina"), Value::Int(2100),
                Value::String("staff"), Value::Null(), Value::Null()};
  ASSERT_OK_AND_ASSIGN(co::CoCache::Tuple * t,
                       m.InsertTuple(xemp, std::move(values)));
  EXPECT_EQ(QueryInt("SELECT sal FROM EMP WHERE eno = 9"), 2100);
  // Newly inserted tuples start unconnected; connect them explicitly.
  int rel = cache_->RelIndex("employment");
  EXPECT_TRUE(t->in[rel].empty());
  co::CoCache::Tuple* d1 = FindTuple("xdept", 1);
  ASSERT_OK(m.Connect(rel, d1, t).status());
  EXPECT_EQ(QueryInt("SELECT edno FROM EMP WHERE eno = 9"), 1);
}

TEST_F(ManipulateTest, NonUpdatableNodeRejected) {
  // An aggregated node has no base-table provenance.
  auto cache = db_.OpenCo(R"(
    OUT OF stats AS (SELECT edno, COUNT(*) AS headcount FROM EMP
                     WHERE edno IS NOT NULL GROUP BY edno)
    TAKE *
  )");
  ASSERT_TRUE(cache.ok()) << cache.status().ToString();
  co::Manipulator m(cache->get(), db_.catalog());
  co::CoCache::Node& node = (*cache)->node(0);
  ASSERT_FALSE(node.updatable());
  Status st = m.UpdateColumn(&node.tuples.front(), "headcount",
                             Value::Int(99));
  EXPECT_EQ(st.code(), StatusCode::kNotUpdatable);
}

TEST_F(ManipulateTest, CoLevelDelete) {
  // §3.7's CO deletion statement: all reachable tuples of the target CO are
  // removed from their base tables.
  auto r = db_.Execute(R"(
    OUT OF Xd AS (SELECT * FROM DEPT WHERE dno = 3)
    DELETE *
  )");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->affected, 1);
  EXPECT_EQ(QueryInt("SELECT COUNT(*) FROM DEPT"), 2);
}

TEST_F(ManipulateTest, CoLevelDeleteWithRestriction) {
  // Delete employees earning under 1K (e6 and unreachable-e3 stays!).
  auto r = db_.Execute(R"(
    OUT OF Xdept AS DEPT, Xemp AS EMP,
      employment AS (RELATE Xdept, Xemp WHERE Xdept.dno = Xemp.edno)
    WHERE Xemp e SUCH THAT e.sal < 1000
    TAKE Xemp(*)
  )");
  ASSERT_TRUE(r.ok());
  // Now the DELETE form.
  auto d = db_.Execute(R"(
    OUT OF Xemp AS (SELECT * FROM EMP WHERE sal < 1000)
    DELETE *
  )");
  ASSERT_TRUE(d.ok()) << d.status().ToString();
  EXPECT_EQ(QueryInt("SELECT COUNT(*) FROM EMP WHERE sal < 1000"), 0);
  EXPECT_EQ(QueryInt("SELECT COUNT(*) FROM EMP"), 5);  // only e6 (900) gone
}

TEST_F(ManipulateTest, CoLevelUpdate) {
  // §3.7: update at the CO level; assignments may reference the tuple's own
  // columns, restrictions and reachability apply first.
  auto r = db_.Execute(R"(
    OUT OF Xdept AS DEPT, Xemp AS EMP,
      employment AS (RELATE Xdept, Xemp WHERE Xdept.dno = Xemp.edno)
    WHERE Xemp e SUCH THAT e.sal < 2000
    UPDATE Xemp SET sal = sal + 100
  )");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->affected, 3);  // e1, e4, e6 (e3 unreachable)
  EXPECT_EQ(QueryInt("SELECT sal FROM EMP WHERE eno = 1"), 1600);
  EXPECT_EQ(QueryInt("SELECT sal FROM EMP WHERE eno = 4"), 1900);
  EXPECT_EQ(QueryInt("SELECT sal FROM EMP WHERE eno = 6"), 1000);
  // Unreachable e3 untouched even though its salary is < 2000.
  EXPECT_EQ(QueryInt("SELECT sal FROM EMP WHERE eno = 3"), 1000);
}

TEST_F(ManipulateTest, CoLevelUpdateMultipleAssignments) {
  auto r = db_.Execute(R"(
    OUT OF Xd AS (SELECT * FROM DEPT WHERE loc = 'NY')
    UPDATE Xd SET budget = budget * 2, dname = 'renamed'
  )");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->affected, 2);
  EXPECT_EQ(QueryInt("SELECT budget FROM DEPT WHERE dno = 1"), 200000);
  EXPECT_EQ(QueryInt("SELECT COUNT(*) FROM DEPT WHERE dname = 'renamed'"), 2);
}

TEST_F(ManipulateTest, CoLevelUpdateRejectsRelationshipColumn) {
  auto r = db_.Execute(R"(
    OUT OF Xdept AS DEPT, Xemp AS EMP,
      employment AS (RELATE Xdept, Xemp WHERE Xdept.dno = Xemp.edno)
    UPDATE Xemp SET edno = 3
  )");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotUpdatable);
}

TEST_F(ManipulateTest, CoLevelUpdateUnknownTarget) {
  auto r = db_.Execute("OUT OF Xd AS DEPT UPDATE Ghost SET x = 1");
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST_F(ManipulateTest, CacheBaseConsistencyAfterMixedOps) {
  co::Manipulator m(cache_.get(), db_.catalog());
  ASSERT_OK(m.UpdateColumn(FindTuple("xemp", 4), "sal", Value::Int(1900)));
  ASSERT_OK(m.DeleteTuple(FindTuple("xemp", 6)));
  int rel = cache_->RelIndex("employment");
  ASSERT_OK(
      m.Connect(rel, FindTuple("xdept", 3), FindTuple("xemp", 5)).status());

  // Re-evaluate the CO from scratch and compare against the cache snapshot.
  auto fresh = db_.QueryCo(R"(
    OUT OF Xdept AS DEPT, Xemp AS EMP, Xproj AS PROJ,
      employment AS (RELATE Xdept, Xemp WHERE Xdept.dno = Xemp.edno),
      ownership AS (RELATE Xdept, Xproj WHERE Xdept.dno = Xproj.pdno),
      membership AS (RELATE Xproj, Xemp WITH ATTRIBUTES ep.percentage
                     USING EMPPROJ ep
                     WHERE Xproj.pno = ep.eppno AND Xemp.eno = ep.epeno)
    TAKE *
  )");
  ASSERT_TRUE(fresh.ok());
  co::CoInstance snap = cache_->Snapshot();
  for (const std::string node : {"xdept", "xemp", "xproj"}) {
    EXPECT_EQ(snap.nodes[snap.NodeIndex(node)].tuples.size(),
              fresh->nodes[fresh->NodeIndex(node)].tuples.size())
        << node;
  }
  EXPECT_EQ(snap.rels[snap.RelIndex("employment")].connections.size(),
            fresh->rels[fresh->RelIndex("employment")].connections.size());
}

// Duplicate link rows: a removed connection deletes one link row, the first
// match (rid order) visible at the snapshot, whether the lookup scans the
// link table or an index on either link column serves it.
class DuplicateLinkTest : public ::testing::TestWithParam<const char*> {
 protected:
  void SetUp() override {
    CreateCompanyDb(&db_);
    // A second (emp 1, proj 1) link row, after (1, 1, 50) in rid order.
    ASSERT_OK(db_.Execute("INSERT INTO EMPPROJ VALUES (1, 1, 99)").status());
    if (*GetParam() != '\0') ASSERT_OK(db_.Execute(GetParam()).status());
  }

  int64_t QueryInt(const std::string& q) {
    auto rs = db_.Query(q);
    EXPECT_TRUE(rs.ok()) << rs.status().ToString();
    return rs.ok() && rs->rows.size() == 1 ? rs->rows[0][0].AsInt() : -999;
  }

  static constexpr char kMembership[] = R"(
    OUT OF Xproj AS (SELECT * FROM PROJ WHERE pno = 1), Xemp AS EMP,
      membership AS (RELATE Xproj, Xemp WITH ATTRIBUTES ep.percentage
                     USING EMPPROJ ep
                     WHERE Xproj.pno = ep.eppno AND Xemp.eno = ep.epeno)
  )";

  Database db_;
};

TEST_P(DuplicateLinkTest, DisconnectDeletesFirstVisibleMatch) {
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<co::CoCache> cache,
                       db_.OpenCo(std::string(kMembership) + " TAKE *"));
  co::Manipulator m(cache.get(), db_.catalog());
  int rel = cache->RelIndex("membership");
  co::CoCache::Tuple& p1 = cache->node(cache->NodeIndex("xproj")).tuples[0];
  // Copied: a disconnect shifts the bucket the span views.
  std::vector<co::CoCache::Connection*> to_e1;
  for (co::CoCache::Connection* c : p1.out[rel]) {
    if (c->child->values[0].AsInt() == 1) to_e1.push_back(c);
  }
  ASSERT_EQ(to_e1.size(), 2u);
  if (to_e1[0]->attrs[0].AsInt() != 99) std::swap(to_e1[0], to_e1[1]);
  ASSERT_EQ(to_e1[0]->attrs[0].AsInt(), 99);
  // Removing the 99 connection deletes the first match, the 50 row.
  ASSERT_OK(m.Disconnect(to_e1[0]));
  EXPECT_EQ(QueryInt("SELECT COUNT(*) FROM EMPPROJ WHERE epeno = 1 AND "
                     "eppno = 1"),
            1);
  EXPECT_EQ(QueryInt("SELECT percentage FROM EMPPROJ WHERE epeno = 1 AND "
                     "eppno = 1"),
            99);
  ASSERT_OK(m.Disconnect(to_e1[1]));
  // Only proj 1's link to emp 2 is left of its links.
  EXPECT_EQ(QueryInt("SELECT COUNT(*) FROM EMPPROJ WHERE eppno = 1"), 1);
  EXPECT_EQ(QueryInt("SELECT COUNT(*) FROM EMPPROJ"), 3);
}

TEST_P(DuplicateLinkTest, CoDeleteRemovesEveryDuplicate) {
  ASSERT_OK_AND_ASSIGN(ExecResult r,
                       db_.Execute(std::string(kMembership) + " DELETE *"));
  // proj 1, emps 1 and 2, and the three link rows of proj 1.
  EXPECT_EQ(r.affected, 6);
  EXPECT_EQ(QueryInt("SELECT COUNT(*) FROM EMPPROJ WHERE eppno = 1"), 0);
  EXPECT_EQ(QueryInt("SELECT COUNT(*) FROM EMPPROJ"), 2);
}

INSTANTIATE_TEST_SUITE_P(
    LinkIndexes, DuplicateLinkTest,
    ::testing::Values("", "CREATE INDEX ep_proj ON EMPPROJ (eppno)",
                      "CREATE INDEX ep_emp ON EMPPROJ (epeno)"),
    [](const ::testing::TestParamInfo<const char*>& i) {
      return std::string(i.index == 0   ? "NoIndex"
                         : i.index == 1 ? "ParentColumnIndex"
                                        : "ChildColumnIndex");
    });

}  // namespace
}  // namespace xnf::testing
