#ifndef XNF_XNF_SCALAR_EVAL_H_
#define XNF_XNF_SCALAR_EVAL_H_

#include <functional>
#include <string>
#include <vector>

#include "common/schema.h"
#include "common/status.h"
#include "common/value.h"
#include "sql/ast.h"

namespace xnf::co {

// Interpreting evaluator for sql::Expr trees over named (schema, row)
// bindings — the expression engine behind SUCH THAT predicates, qualified
// path steps, and CO-level SET assignments. SQL three-valued logic
// throughout. Path expressions (kPath / kExistsPath / COUNT(path)) are
// delegated to the optional `path_hook`, so the evaluator itself stays
// independent of any CO instance or cache representation.
class RowEvaluator {
 public:
  struct Binding {
    std::string name;  // correlation / component name (lowercase)
    const Schema* schema = nullptr;
    const Row* row = nullptr;
  };

  // Called for kPath, kExistsPath, and COUNT(<path>) nodes.
  using PathHook = std::function<Result<Value>(const sql::Expr&)>;

  explicit RowEvaluator(std::vector<Binding> bindings,
                        PathHook path_hook = nullptr)
      : bindings_(std::move(bindings)), path_hook_(std::move(path_hook)) {}

  // Re-points binding `i` at another row of the same schema, so one
  // evaluator serves a whole scan.
  void set_row(size_t i, const Row* row) { bindings_[i].row = row; }

  Result<Value> Eval(const sql::Expr& expr) const;

  // Predicate evaluation: NULL and FALSE both reject.
  Result<bool> EvalPredicate(const sql::Expr& expr) const;

 private:
  // Binding and column index of one resolved kColumnRef node.
  struct Resolved {
    const sql::Expr* ref = nullptr;
    size_t binding = 0;
    size_t column = 0;
  };

  Result<Value> ResolveColumn(const sql::Expr& ref) const;

  std::vector<Binding> bindings_;
  PathHook path_hook_;
  // Resolution depends only on binding names and schemas, which set_row
  // leaves alone, so an evaluator reused across rows resolves each column
  // reference once. Failed resolutions are not kept.
  mutable std::vector<Resolved> resolved_;
};

}  // namespace xnf::co

#endif  // XNF_XNF_SCALAR_EVAL_H_
