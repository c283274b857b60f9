#ifndef XNF_TESTING_REFERENCE_INTERNAL_H_
#define XNF_TESTING_REFERENCE_INTERNAL_H_

// Shared internals of the reference interpreter. Split across
// reference_sql.cc (SQL statements + expression dialects) and
// reference_xnf.cc (composite-object pipeline); nothing here is part of the
// public testing API.

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/schema.h"
#include "common/status.h"
#include "common/value.h"
#include "sql/ast.h"
#include "testing/reference.h"
#include "xnf/ast.h"
#include "xnf/instance.h"

namespace xnf::testing::refi {

// ----------------------------------------------------------------- catalog

struct RefTable {
  Schema schema;              // qualifiers set to the table name
  std::vector<Row> rows;
  std::vector<int64_t> rids;  // stable per-row ids for write-through
  int64_t next_rid = 0;
};

struct RefView {
  bool is_xnf = false;
  std::string definition;  // body text after AS
  // XNF views keep the parsed query; whether it is structurally composable
  // (splice-able) is re-derived from it: no restrictions and TAKE *.
  std::shared_ptr<co::XnfQuery> xnf;
};

struct State {
  std::map<std::string, RefTable> tables;  // lowercase name -> table
  std::vector<std::string> table_order;    // creation order
  std::map<std::string, RefView> views;    // lowercase name -> view
  // Index names per table (lowercase). Index-name uniqueness is scoped to
  // the table, like the engine's per-table index list; tables with a primary
  // key start out with the implicit "<table>_pk" entry.
  std::map<std::string, std::set<std::string>> table_indexes;
};

// ------------------------------------------------------- composite objects

// Reference CO model. Tuple identity is the vector index; rids are parallel
// to tuples when the node is updatable.
struct RefNode {
  std::string name;
  Schema schema;  // qualifiers set to the node name
  std::vector<Row> tuples;
  std::vector<int64_t> rids;
  std::string base_table;
  std::vector<int> base_column_map;  // node column -> base table column
  bool updatable() const { return !base_table.empty(); }
};

struct RefConn {
  int parent = -1;
  int child = -1;
  Row attrs;
};

struct RefRel {
  std::string name;
  int parent_node = -1;
  int child_node = -1;
  std::vector<std::string> attr_names;
  std::vector<RefConn> conns;
  co::CoRelInstance::WriteKind write_kind =
      co::CoRelInstance::WriteKind::kNone;
  int fk_parent_column = -1;  // node-schema indices
  int fk_child_column = -1;
  std::string link_table;
  int link_parent_column = -1;  // link-table schema indices
  int link_child_column = -1;
  int parent_key_column = -1;  // node-schema indices
  int child_key_column = -1;
};

struct RefCo {
  std::vector<RefNode> nodes;
  std::vector<RefRel> rels;
  int NodeIndex(const std::string& name) const;
  int RelIndex(const std::string& name) const;
};

// ------------------------------------------------------------- name scopes

// One FROM source (or restriction binding). `alias` is "" for anonymous
// entries (left-join outputs), whose schema column qualifiers discriminate
// qualified references instead. `offset` locates the entry's columns inside
// the scope's combined row.
struct Entry {
  std::string alias;  // lowercase; "" = anonymous
  Schema schema;
  size_t offset = 0;
};

struct Scope {
  const std::vector<Entry>* entries = nullptr;
  const Row* row = nullptr;  // null during static checking
  const Scope* parent = nullptr;
};

// Aggregate context: when set, aggregate function calls evaluate over the
// group's rows; otherwise they are an error.
struct GroupCtx {
  const std::vector<const Row*>* rows = nullptr;
  const Scope* scope = nullptr;  // template scope; row swapped per group row
};

// --------------------------------------------------------- SQL entry points

// Scalar expression evaluation (runtime semantics of exec/eval.cc).
Result<Value> Eval(State* st, const sql::Expr& e, const Scope& scope,
                   const GroupCtx* group);

// SQL predicate evaluation: NULL -> false, non-bool -> InvalidArgument.
Result<bool> EvalPred(State* st, const sql::Expr& e, const Scope& scope,
                      const GroupCtx* group);

// Static type check mirroring qgm/builder.cc.
struct CheckOpts {
  bool allow_aggs = false;
  bool in_aggregate = false;
};
Result<Type> CheckExpr(State* st, const sql::Expr& e, const Scope& scope,
                       const CheckOpts& opts);

// Static check of a scalar outside a SELECT (DML expressions, simple-node
// predicates, SUCH THAT, CO SET), mirroring qgm::Builder::BuildScalar:
// subqueries, and '?' unless `allow_params`, are rejected before any name is
// resolved; then CheckExpr. Path expressions are rejected like in SQL: the
// reference does not model paths, and the generator never emits them.
Result<Type> CheckScalar(State* st, const sql::Expr& e, const Scope& scope,
                         bool allow_params);

// Structural expression equality (mirrors qgm ExprEquals over the AST):
// drives GROUP BY validation and ORDER BY key matching.
bool ExprEq(const sql::Expr& a, const sql::Expr& b);

// Resolved column reference: the scope level holding it (pointer identity)
// plus the offset into that level's combined row. Exposed so the SELECT
// pipeline can match column references against group keys and star-expanded
// head columns the way the engine compares InputRefs.
struct ResolvedCol {
  const Scope* level = nullptr;
  size_t offset = 0;
  Type type = Type::kNull;
};
Result<ResolvedCol> ResolveColumn(const Scope& scope, const std::string& table,
                                  const std::string& column);

// True iff the expression contains an aggregate call, not descending into
// subquery bodies (their aggregates belong to the inner query).
bool HasAggregate(const sql::Expr& e);

// Static validation of a full SELECT chain; returns the merged head shape
// (used for subquery checking inside CheckExpr).
struct SelectShape {
  std::vector<std::string> names;
  std::vector<Type> types;
};
Result<SelectShape> CheckSelect(State* st, const sql::SelectStmt& stmt,
                                const Scope* parent);

struct SelectOut {
  std::vector<std::string> names;  // head names (lowercase)
  std::vector<Type> types;
  std::vector<Row> rows;
  std::vector<std::pair<int, bool>> order_keys;  // head positions only
  bool full_order = false;
};

// Static check + naive evaluation of a SELECT (including set-op chains).
// `parent` enables correlated subqueries; top-level calls pass null.
Result<SelectOut> EvalSelect(State* st, const sql::SelectStmt& stmt,
                             const Scope* parent);

// Statement execution (SQL side): DDL, DML, SELECT.
RefOutcome ExecuteSqlStatement(State* st, const std::string& text);

// Statement execution (XNF side): OUT OF ... TAKE/UPDATE/DELETE.
RefOutcome ExecuteXnfStatement(State* st, const std::string& text);

// CREATE VIEW ... AS OUT OF ... validation + registration (lives with the
// XNF code but is dispatched from the SQL statement path).
Status CreateXnfView(State* st, const std::string& name,
                     const std::string& definition);

// Evaluates a parsed XNF query to a materialized, restricted, taken RefCo.
Result<RefCo> EvaluateCo(State* st, const co::XnfQuery& query);

// Canonical rendering shared by RefCo and engine CoInstance comparison.
std::string RenderCanonicalCo(const RefCo& co);

// True iff the select is a "simple" node derivation per the engine's
// AnalyzeSimpleNode (xnf/evaluator.cc): single base-table FROM, plain WHERE,
// bare-column or lone-star items, no distinct/group/order/limit/set-ops.
bool IsSimpleNodeQuery(State* st, const sql::SelectStmt& stmt);

}  // namespace xnf::testing::refi

#endif  // XNF_TESTING_REFERENCE_INTERNAL_H_
