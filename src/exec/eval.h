#ifndef XNF_EXEC_EVAL_H_
#define XNF_EXEC_EVAL_H_

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "common/status.h"
#include "common/value.h"
#include "exec/operator.h"
#include "qgm/expr.h"

namespace xnf::exec {

// A compiled correlated subquery: a subplan plus the expressions (over the
// outer row) that produce its parameter values. Uncorrelated subqueries
// cache their materialized result between outer rows; the cache is reset by
// the owning operator's Open().
struct CompiledSubquery {
  OperatorPtr plan;
  std::vector<qgm::ExprPtr> bindings;  // compiled over the outer row layout
  // Cache for uncorrelated subqueries (bindings empty).
  std::optional<std::vector<Row>> cached;

  void ResetCache() { cached.reset(); }
};

// The set of subqueries owned by one QGM box, shared by the operators of
// that box (filter, project, aggregate) via shared_ptr.
struct SubqueryEnv {
  std::vector<std::unique_ptr<CompiledSubquery>> subqueries;

  void ResetCaches() {
    for (auto& s : subqueries) s->ResetCache();
  }
};

// Evaluates one kPath node (EXISTS path / COUNT(path)) for the row being
// evaluated. XNF callers set it with that row's correlation bindings, so an
// expression holding a path is evaluated one row at a time.
using PathHook = std::function<Result<Value>(const qgm::Expr& path)>;

// Context for expression evaluation: the current input row, the execution
// context (catalog + correlation params), the subquery environment and the
// path hook.
struct EvalContext {
  const Row* row = nullptr;
  ExecContext* exec = nullptr;
  SubqueryEnv* subqueries = nullptr;
  const PathHook* path_hook = nullptr;
};

// Evaluates a compiled expression (all kInputRef slots resolved). SQL
// three-valued logic: predicates yield BOOL values or NULL for unknown.
Result<Value> EvalExpr(const qgm::Expr& expr, EvalContext* ctx);

// Evaluates `expr` as a predicate: NULL and FALSE both reject.
Result<bool> EvalPredicate(const qgm::Expr& expr, EvalContext* ctx);

// A predicate's outcome from its value: NULL and FALSE both reject, a
// non-boolean value is an error.
Result<bool> PredicateOutcome(const Value& v);

// Evaluates `expr` once per row, returning one value per row in input order.
// Subquery-free node kinds without conditional-evaluation semantics are
// evaluated column-wise over the whole batch; AND/OR, CASE, IN-lists,
// subqueries and paths fall back to scalar EvalExpr per row (preserving
// short-circuit and caching behaviour exactly). `ctx->row` is ignored.
Result<std::vector<Value>> EvalExprBatch(const qgm::Expr& expr,
                                         const std::vector<const Row*>& rows,
                                         EvalContext* ctx);

// Applies predicate `pred` to each row, ANDing the outcome into (*keep)[i]
// (NULL and FALSE both reject). Rows with keep[i] == 0 are skipped entirely,
// matching the scalar conjunct loop that stops at the first failing
// predicate. `keep` must have rows.size() entries.
Status EvalPredicateBatch(const qgm::Expr& pred,
                          const std::vector<const Row*>& rows,
                          EvalContext* ctx, std::vector<char>* keep);

}  // namespace xnf::exec

#endif  // XNF_EXEC_EVAL_H_
