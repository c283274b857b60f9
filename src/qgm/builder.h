#ifndef XNF_QGM_BUILDER_H_
#define XNF_QGM_BUILDER_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "common/result_set.h"
#include "common/status.h"
#include "qgm/qgm.h"
#include "sql/ast.h"

namespace xnf::qgm {

// One named row source of a scalar expression (see Builder::BuildScalar).
struct ScalarSource {
  std::string alias;
  const Schema* schema = nullptr;
};

// The names a scalar expression outside a SELECT can see, and what it may
// contain besides plain SQL scalars.
struct ScalarScope {
  // Quantifier i of the built expression reads sources[i].
  std::vector<ScalarSource> sources;
  // Enclosing bindings (a path step's outer correlations): a reference
  // that resolves in no source resolves here and becomes a kParam.
  std::vector<ScalarSource> outer;
  // '?' statement parameters (DML). XNF expressions have none.
  bool allow_params = false;
  // EXISTS path / COUNT(path) become kPath nodes (SUCH THAT, path steps
  // and CO SET evaluated over an instance); otherwise they are rejected.
  bool allow_paths = false;
};

// Semantic analysis: turns a parsed SELECT into a Query Graph Model graph.
// Performs name resolution (against the catalog, expanding SQL views),
// typing, aggregate extraction, and correlated-subquery binding.
class Builder {
 public:
  // Resolves table names that are neither base tables nor SQL views —
  // used for (a) temp tables registered by the XNF semantic rewrite (the
  // common-subexpression materializations of §4.3) and (b) XNF view
  // components referenced as "view.node" (closure type (3) queries).
  // Returns nullptr when the name is unknown. The pointed-to result must
  // outlive query execution.
  using ExtraResolver =
      std::function<Result<const ResultSet*>(const std::string& name)>;

  explicit Builder(const Catalog* catalog, ExtraResolver extra = nullptr)
      : catalog_(catalog), extra_(std::move(extra)) {}

  // Builds a graph for a full SELECT (including UNION chains).
  Result<QueryGraph> Build(const sql::SelectStmt& stmt);

  // Builds a scalar expression over the named row sources of `scope` (DML
  // SET / WHERE / VALUES, simple-node predicates, SUCH THAT, path steps,
  // CO SET). InputRefs have quantifier i for scope.sources[i] and column =
  // index into its schema. A reference resolved in scope.outer becomes
  // kParam(k), and (*outer_refs)[k] is the InputRef over `outer` that
  // supplies it. Subqueries (and '?' unless allowed) are rejected before
  // any name is resolved, so the catalog is never consulted.
  Result<ExprPtr> BuildScalar(const sql::Expr& expr, const ScalarScope& scope,
                              std::vector<ExprPtr>* outer_refs = nullptr);

 private:
  struct Scope;
  struct ExprCtx;

  Result<int> BuildSelectChain(const sql::SelectStmt& stmt, QueryGraph* graph,
                               Scope* parent,
                               std::vector<ExprPtr>* bindings);
  Result<int> BuildSelectBox(const sql::SelectStmt& stmt, QueryGraph* graph,
                             Scope* parent, std::vector<ExprPtr>* bindings);
  Status AddTableRef(const sql::TableRef& ref, QueryGraph* graph, Box* box,
                     Scope* scope);
  Status AddNamedSource(const std::string& name, const std::string& alias,
                        QueryGraph* graph, Box* box, Scope* scope);
  Result<ExprPtr> BuildExpr(const sql::Expr& expr, ExprCtx* ctx);
  Result<ExprPtr> ResolveColumn(const std::string& table,
                                const std::string& column, ExprCtx* ctx);
  Result<ExprPtr> BuildAggCall(const sql::Expr& expr, ExprCtx* ctx);
  Status ValidateGroupedExpr(const Expr& expr, const Box& box,
                             const char* where) const;

  const Catalog* catalog_;
  ExtraResolver extra_;
  std::vector<std::string> view_stack_;  // cycle detection for view expansion
};

// Derives the result type of a binary operation; fails on type mismatches.
Result<Type> BinaryResultType(sql::BinOp op, Type left, Type right);

}  // namespace xnf::qgm

#endif  // XNF_QGM_BUILDER_H_
