#ifndef XNF_XNF_PATH_H_
#define XNF_XNF_PATH_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/value.h"
#include "exec/eval.h"
#include "qgm/expr.h"
#include "sql/ast.h"
#include "xnf/instance.h"

namespace xnf::co {

// Evaluates XNF path expressions (§3.5) over a materialized CO instance, and
// compiled expressions (SUCH THAT, §3.3; CO SET, §3.7) whose paths it walks.
// Paths are traversed on the instance's connection graph; a relationship
// step moves from the current node to its partner (forward parent→child
// when the current node is the parent, otherwise backward); node steps
// validate position and may filter with a qualification predicate. A path
// denotes a set of tuples of its target table.
class InstanceEvaluator {
 public:
  // A correlation binding: `name` refers to tuple `tuple` of node `node`.
  struct Binding {
    std::string name;
    int node = -1;
    int tuple = -1;
  };

  struct PathResult {
    int node = -1;              // target node index
    std::vector<int> tuples;    // distinct tuple indices, ascending
  };

  explicit InstanceEvaluator(const CoInstance* instance)
      : instance_(instance) {}

  // Path evaluation. The path start is either a bound correlation name or a
  // component table name (then all of that node's tuples start the walk).
  // A qualified step's predicate sees the step's tuple and, as parameters,
  // the tuples of `bindings`; it is compiled once per binding layout.
  Result<PathResult> EvalPath(const sql::PathExpr& path,
                              const std::vector<Binding>& bindings) const;

  // The value of a compiled kPath node with `bindings` in scope: EXISTS /
  // NOT EXISTS (BOOL) or COUNT (INT) over the path's tuples.
  Result<Value> EvalPathTerm(const qgm::Expr& term,
                             const std::vector<Binding>& bindings) const;

  // Evaluates compiled `expr` on `tuples` of node bindings.back().node, one
  // value per tuple, each tuple bound as bindings.back(). Column-wise unless
  // `expr` holds a path; then tuple at a time, the hook walking each path
  // with that tuple bound. `ctx` supplies parameter values.
  Result<std::vector<Value>> EvalOnTuples(const qgm::Expr& expr,
                                          const std::vector<int>& tuples,
                                          std::vector<Binding> bindings,
                                          exec::EvalContext* ctx) const;

 private:
  // Lazily built per-relationship adjacency (forward: parent tuple ->
  // children, backward: child tuple -> parents) so path steps cost
  // O(frontier * fanout) instead of O(total connections).
  struct Adjacency {
    std::vector<std::vector<int>> forward;
    std::vector<std::vector<int>> backward;
    bool built = false;
  };
  const Adjacency& GetAdjacency(int rel) const;

  // A qualified step's predicate compiled for one layout of enclosing
  // bindings: the step's tuple is the only source; a reference to an
  // enclosing correlation is a parameter read from its bound tuple.
  struct StepPlan {
    const sql::PathStep* step = nullptr;
    std::vector<std::pair<std::string, int>> layout;  // (name, node)
    Status error = Status::Ok();
    qgm::ExprPtr predicate;
    std::vector<std::pair<int, int>> params;  // (binding, column)
  };
  Result<const StepPlan*> CompileStep(
      const sql::PathStep& step, const std::string& corr, int node,
      const std::vector<Binding>& bindings) const;

  const CoInstance* instance_;
  mutable std::vector<Adjacency> adjacency_;
  // Owned one by one: a nested path compiles more steps while an enclosing
  // step's plan is being evaluated.
  mutable std::vector<std::unique_ptr<StepPlan>> steps_;
};

}  // namespace xnf::co

#endif  // XNF_XNF_PATH_H_
