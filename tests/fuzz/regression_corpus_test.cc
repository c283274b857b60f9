// Pinned differential-fuzz corpus.
//
// Each entry is a small script run through the reference interpreter and
// the full engine configuration matrix via RunScript; the assertion is that
// NO party diverges. The corpus holds the adversarial corners of the
// comparison policy — the places where an engine change is most likely to
// split the matrix or drift from the reference: statement atomicity under
// mid-statement constraint violations, NULL key semantics in XNF
// relationships, type coercion across set operations, ORDER BY contracts,
// and CO write-through edge cases. Scripts minimized from future fuzzer
// divergences belong here too, with their seed in the comment.

#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "testing/differential.h"

namespace xnf::testing {
namespace {

void ExpectAgreement(const std::vector<std::string>& script) {
  auto div = RunScript(script, DefaultMatrix());
  EXPECT_FALSE(div.has_value())
      << "statement " << div->statement << " [" << div->statement_text
      << "]: " << div->description;
}

TEST(RegressionCorpus, InsertAtomicityOnDuplicateKey) {
  // A duplicate key in the middle of a multi-row INSERT must roll the whole
  // statement back in every configuration; the follow-up scan compares the
  // surviving state.
  ExpectAgreement({
      "CREATE TABLE t (a INT PRIMARY KEY, b INT)",
      "INSERT INTO t VALUES (1, 10), (2, 20)",
      "INSERT INTO t VALUES (3, 30), (1, 99), (4, 40)",
      "SELECT a, b FROM t ORDER BY a",
  });
}

TEST(RegressionCorpus, UpdateAtomicityOnUniqueViolation) {
  ExpectAgreement({
      "CREATE TABLE t (a INT PRIMARY KEY, b INT)",
      "INSERT INTO t VALUES (1, 10), (2, 20), (3, 30)",
      "UPDATE t SET a = 2 WHERE b >= 10",
      "SELECT a FROM t ORDER BY a",
  });
}

TEST(RegressionCorpus, NullKeysNeverJoinOrConnect) {
  // NULL foreign keys produce no join rows and no XNF connections; the
  // child tuples become unreachable and are pruned.
  ExpectAgreement({
      "CREATE TABLE p (a INT PRIMARY KEY, b INT)",
      "CREATE TABLE c (a INT PRIMARY KEY, r INT)",
      "INSERT INTO p VALUES (1, 10), (2, 20)",
      "INSERT INTO c VALUES (1, 1), (2, NULL), (3, 2)",
      "SELECT p.a, c.a FROM p, c WHERE p.a = c.r",
      "OUT OF n0 AS p, n1 AS c, e AS (RELATE n0, n1 WHERE n0.a = n1.r) "
      "TAKE *",
  });
}

TEST(RegressionCorpus, CoDeleteSkipsNullLinkKeys) {
  // Link rows whose key is NULL never match a connection (CompareEq is
  // unknown), so CO DELETE leaves them behind — in every configuration.
  ExpectAgreement({
      "CREATE TABLE p (a INT PRIMARY KEY, b INT)",
      "CREATE TABLE c (a INT PRIMARY KEY, b INT)",
      "CREATE TABLE l (pa INT, cb INT)",
      "INSERT INTO p VALUES (1, 10), (2, 20)",
      "INSERT INTO c VALUES (5, 50), (6, 60)",
      "INSERT INTO l VALUES (1, 5), (NULL, 6), (2, NULL), (2, 6)",
      "OUT OF n0 AS p, n1 AS c, "
      "e AS (RELATE n0, n1 USING l u WHERE n0.a = u.pa AND n1.a = u.cb) "
      "DELETE *",
      "SELECT pa, cb FROM l",
  });
}

TEST(RegressionCorpus, CoUpdateOnEmptyComponentSucceedsVacuously) {
  // Per-tuple checks (unknown column, relationship column) never run when
  // the restricted component is empty: affected 0, no error. This is the
  // engine's contract; the reference must not be stricter.
  ExpectAgreement({
      "CREATE TABLE p (a INT PRIMARY KEY, b INT)",
      "INSERT INTO p VALUES (1, 10)",
      "OUT OF n0 AS p WHERE n0 z SUCH THAT z.a > 100 "
      "UPDATE n0 SET nosuchcol = 1",
      "SELECT a, b FROM p",
  });
}

TEST(RegressionCorpus, SetOpTypeMergeAndDedup) {
  // INT and DOUBLE branches merge to DOUBLE; UNION dedup uses grouping
  // equality, so 1 and 1.0 collapse. INTERSECT/EXCEPT follow the same row
  // identity.
  ExpectAgreement({
      "CREATE TABLE ti (a INT PRIMARY KEY, b INT)",
      "CREATE TABLE td (a INT PRIMARY KEY, d DOUBLE)",
      "INSERT INTO ti VALUES (1, 1), (2, 2), (3, 3)",
      "INSERT INTO td VALUES (1, 1.0), (2, 2.5), (3, 3.0)",
      "SELECT b FROM ti UNION SELECT d FROM td ORDER BY 1",
      "SELECT b FROM ti INTERSECT SELECT d FROM td ORDER BY 1",
      "SELECT b FROM ti EXCEPT SELECT d FROM td ORDER BY 1",
      "SELECT b FROM ti UNION ALL SELECT d FROM td ORDER BY 1",
  });
}

TEST(RegressionCorpus, AggregatesOverEmptyInput) {
  // Scalar aggregation of an empty table yields one row (COUNT 0, others
  // NULL); grouped aggregation yields none.
  ExpectAgreement({
      "CREATE TABLE t (a INT PRIMARY KEY, b INT)",
      "SELECT COUNT(*), SUM(b), MIN(b), MAX(b) FROM t",
      "SELECT b, COUNT(*) FROM t GROUP BY b",
      "INSERT INTO t VALUES (1, NULL), (2, NULL)",
      "SELECT COUNT(b), SUM(b) FROM t",
  });
}

TEST(RegressionCorpus, OrderByLimitOffsetBeyondEnd) {
  ExpectAgreement({
      "CREATE TABLE t (a INT PRIMARY KEY, b INT)",
      "INSERT INTO t VALUES (1, 30), (2, 10), (3, 20)",
      "SELECT a, b FROM t ORDER BY b DESC, a ASC LIMIT 10 OFFSET 1",
      "SELECT a, b FROM t ORDER BY b, a LIMIT 2 OFFSET 5",
      "SELECT a, b FROM t ORDER BY b, a LIMIT 0",
  });
}

TEST(RegressionCorpus, LeftJoinNullExtensionVsWhere) {
  // A WHERE predicate on the null-extended side filters extended rows; the
  // same predicate in ON does not. The matrix must agree on both forms.
  ExpectAgreement({
      "CREATE TABLE p (a INT PRIMARY KEY, b INT)",
      "CREATE TABLE c (a INT PRIMARY KEY, r INT)",
      "INSERT INTO p VALUES (1, 10), (2, 20), (3, 30)",
      "INSERT INTO c VALUES (1, 1), (2, 1)",
      "SELECT p.a, c.a FROM p LEFT JOIN c ON p.a = c.r",
      "SELECT p.a, c.a FROM p LEFT JOIN c ON p.a = c.r WHERE c.a > 0",
      "SELECT p.a, c.a FROM p LEFT JOIN c ON p.a = c.r AND c.a > 1",
  });
}

TEST(RegressionCorpus, ScalarSubqueryEmptyIsNull) {
  ExpectAgreement({
      "CREATE TABLE t (a INT PRIMARY KEY, b INT)",
      "INSERT INTO t VALUES (1, 10), (2, 20)",
      "SELECT a, (SELECT SUM(b) FROM t WHERE b > 100) FROM t",
      "SELECT a FROM t WHERE b = (SELECT MAX(b) FROM t WHERE b < 15)",
  });
}

TEST(RegressionCorpus, ViewBodyValidatedBeforeNameConflict) {
  // An invalid view body must be reported even when the name also exists;
  // a valid body over an existing name is AlreadyExists. Either way all
  // parties fail and later statements see the same catalog.
  ExpectAgreement({
      "CREATE TABLE t (a INT PRIMARY KEY, b INT)",
      "INSERT INTO t VALUES (1, 10)",
      "CREATE VIEW v AS SELECT a, b FROM t",
      "CREATE VIEW v AS SELECT nosuch FROM t",
      "CREATE VIEW v AS SELECT a FROM t",
      "SELECT a, b FROM v",
  });
}

TEST(RegressionCorpus, XnfViewOverRestrictedViewThroughScript) {
  // Restricted views import via materialization at query time but are not
  // composable inside CREATE VIEW (no materializer there): the second
  // CREATE VIEW fails everywhere, the direct query works everywhere.
  ExpectAgreement({
      "CREATE TABLE p (a INT PRIMARY KEY, b INT)",
      "INSERT INTO p VALUES (1, 10), (2, 20), (3, 30)",
      "CREATE VIEW xv AS OUT OF n0 AS p WHERE n0 z SUCH THAT z.b < 25 "
      "TAKE *",
      "CREATE VIEW xv2 AS OUT OF xv TAKE *",
      "OUT OF xv TAKE *",
      "OUT OF xv UPDATE n0 SET b = b + 1",
      "SELECT a, b FROM p ORDER BY a",
  });
}

TEST(RegressionCorpus, TakeProjectionDropsWriteProvenance) {
  // Projecting away a relationship's key column demotes write provenance;
  // a subsequent CO DELETE in the same script must behave identically
  // across the matrix (here: TAKE keeps the columns, so delete works).
  ExpectAgreement({
      "CREATE TABLE p (a INT PRIMARY KEY, b INT)",
      "CREATE TABLE c (a INT PRIMARY KEY, r INT)",
      "INSERT INTO p VALUES (1, 10), (2, 20)",
      "INSERT INTO c VALUES (7, 1), (8, 2), (9, NULL)",
      "OUT OF n0 AS p, n1 AS c, e AS (RELATE n0, n1 WHERE n0.a = n1.r) "
      "TAKE n0(a), n1, e",
      "OUT OF n0 AS p, n1 AS c, e AS (RELATE n0, n1 WHERE n0.a = n1.r) "
      "WHERE n0 z SUCH THAT z.a = 1 DELETE *",
      "SELECT a FROM p",
      "SELECT a FROM c",
  });
}

TEST(RegressionCorpus, ColumnarStringJoinDictCodesAgree) {
  // String equi-joins over columnar tables take the dictionary-code probe
  // path: a self-join compares codes of the same dictionary, a two-table
  // join translates through per-table dictionaries, and NULL keys never
  // match. The reference interpreter decodes every value, so it is the
  // baseline the code path must agree with.
  ExpectAgreement({
      "CREATE TABLE a (a INT PRIMARY KEY, b INT, s VARCHAR) USING column",
      "CREATE TABLE b (a INT PRIMARY KEY, c INT, s VARCHAR) USING column",
      "INSERT INTO a VALUES (1, 10, 'x'), (2, 20, 'y'), (3, 30, NULL), "
      "(4, 40, 'x')",
      "INSERT INTO b VALUES (1, 7, 'y'), (2, 8, 'z'), (3, 9, NULL), "
      "(4, 6, 'x')",
      "SELECT l.a, r.a FROM a l, a r WHERE l.s = r.s ORDER BY l.a, r.a",
      "SELECT a.a, b.a FROM a, b WHERE a.s = b.s ORDER BY a.a, b.a",
      "SELECT a.s, COUNT(*) FROM a, b WHERE a.s = b.s GROUP BY a.s "
      "ORDER BY a.s",
      "DELETE FROM b WHERE s = 'z'",
      "SELECT a.a, b.a FROM a, b WHERE a.s = b.s AND a.b < 35 "
      "ORDER BY a.a, b.a",
  });
}

TEST(RegressionCorpus, ClusterByPlacementIsInvisible) {
  // CLUSTER BY only changes physical row-group placement; every query
  // result (and the heap-order scan sequence of SELECT without ORDER BY)
  // must match the unclustered engines and the reference. Updates that move
  // a row's cluster value invalidate the group tag, not the row.
  ExpectAgreement({
      "CREATE TABLE t (a INT PRIMARY KEY, g INT, v INT) "
      "USING column CLUSTER BY g",
      "INSERT INTO t VALUES (1, 1, 10), (2, 2, 20), (3, 1, 30), (4, 2, 40), "
      "(5, 1, 50), (6, 3, 60)",
      "SELECT a, g, v FROM t WHERE g = 1 ORDER BY a",
      "SELECT g, SUM(v) FROM t GROUP BY g ORDER BY g",
      "UPDATE t SET g = 2 WHERE a = 3",
      "SELECT a FROM t WHERE g = 1 ORDER BY a",
      "SELECT a FROM t WHERE g = 2 ORDER BY a",
      "DELETE FROM t WHERE g = 3",
      "SELECT COUNT(*) FROM t",
  });
}

TEST(RegressionCorpus, TakePruningKeepsRestrictionsAndEdgesIntact) {
  // TAKE column lists let the candidate scans skip decoding columns, but
  // restriction predicates and edge queries still read theirs: the pruned
  // evaluation must agree with the reference and with the full-width no-CSE
  // members of the matrix.
  ExpectAgreement({
      "CREATE TABLE p (a INT PRIMARY KEY, b INT, v INT, s VARCHAR) "
      "USING column",
      "CREATE TABLE c (a INT PRIMARY KEY, r INT, w INT, u VARCHAR) "
      "USING column",
      "INSERT INTO p VALUES (1, 10, 100, 'p1'), (2, 20, 200, 'p2'), "
      "(3, 30, 300, 'p3')",
      "INSERT INTO c VALUES (7, 1, 70, 'c1'), (8, 2, 80, 'c2'), "
      "(9, NULL, 90, 'c3')",
      "OUT OF n0 AS p, n1 AS c, e AS (RELATE n0, n1 WHERE n0.a = n1.r) "
      "WHERE n0 z SUCH THAT z.b < 25 TAKE n0(a), n1(a, w), e",
      "OUT OF n0 AS p, n1 AS c, e AS (RELATE n0, n1 WHERE n0.a = n1.r) "
      "TAKE n0(s), e, n1",
  });
}

TEST(RegressionCorpus, IndexCreationMidScriptKeepsPlansAgreeing) {
  // Creating an index between identical queries flips the access path in
  // index-enabled configurations only; results must not move.
  ExpectAgreement({
      "CREATE TABLE t (a INT PRIMARY KEY, b INT, c INT)",
      "INSERT INTO t VALUES (1, 5, 1), (2, 5, 2), (3, 7, 1), (4, 7, 2)",
      "SELECT a FROM t WHERE b = 5 ORDER BY a",
      "CREATE INDEX ix ON t (b)",
      "SELECT a FROM t WHERE b = 5 ORDER BY a",
      "UPDATE t SET b = 9 WHERE c = 1",
      "SELECT a FROM t WHERE b = 9 ORDER BY a",
  });
}

TEST(RegressionCorpus, IndexDuplicatesFollowRidOrderAfterUpdates) {
  // Seed 8074: an UPDATE re-inserts a row's index entries, which used to
  // move it behind its duplicate-key siblings; the checkpointed engine
  // rebuilds its index from a scan, so its index-nested-loop join emitted
  // the duplicates in another order than the in-memory engines.
  for (const char* kind : {"INDEX", "ORDERED INDEX"}) {
    ExpectAgreement({
        "CREATE TABLE p (a INT PRIMARY KEY, b INT)",
        "CREATE TABLE c (a INT PRIMARY KEY, b INT, r INT)",
        std::string("CREATE ") + kind + " ix ON c (r)",
        "INSERT INTO p VALUES (1, 0), (2, 0)",
        "INSERT INTO c VALUES (1, 0, 1), (2, 0, 1), (3, 0, 2), (4, 0, 2)",
        "UPDATE c SET b = 5 WHERE a = 1",
        "UPDATE c SET r = 1 WHERE a = 4",
        "UPDATE c SET r = 2 WHERE a = 4",
        "SELECT p.a, c.a FROM p, c WHERE c.r = p.a",
    });
  }
}

}  // namespace
}  // namespace xnf::testing
