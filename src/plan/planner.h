#ifndef XNF_PLAN_PLANNER_H_
#define XNF_PLAN_PLANNER_H_

#include <memory>
#include <vector>

#include "catalog/catalog.h"
#include "common/status.h"
#include "common/trace.h"
#include "exec/operator.h"
#include "qgm/builder.h"
#include "qgm/qgm.h"

namespace xnf::plan {

// Translates a QGM graph into an executable operator tree. Access-path and
// join-method selection is rule-based:
//  - a base-table quantifier's pushed filters take the access path
//    exec::ChooseAccess picks (an index for an equality against
//    constants/params, else a scan);
//  - joins use index nested-loop when the inner side is a base table with an
//    index on the join column, hash join for other equi-joins, and
//    nested-loop otherwise;
//  - predicates containing subqueries are evaluated in a residual filter at
//    the top of the box where the full row is available.
class Planner {
 public:
  explicit Planner(const Catalog* catalog) : catalog_(catalog) {}

  Result<exec::OperatorPtr> Plan(const qgm::QueryGraph& graph);

 private:
  Result<exec::OperatorPtr> PlanBox(const qgm::QueryGraph& graph, int box);
  Result<exec::OperatorPtr> PlanSelect(const qgm::QueryGraph& graph,
                                       const qgm::Box& box);
  // `referenced` is the per-column bitmap of `q`'s columns the rest of the
  // box reads (pushed filters excluded — the scan handles its own filter
  // columns); empty = prune nothing. Columnar scans use it for late
  // materialization.
  Result<exec::OperatorPtr> PlanQuantifierSource(
      const qgm::QueryGraph& graph, const qgm::Quantifier& q,
      std::vector<qgm::ExprPtr> pushed_filters,
      std::vector<char> referenced);

  const Catalog* catalog_;
};

// Clones `expr` resolving every kInputRef slot to offsets[quantifier] +
// column; kAggRef nodes become slot references at agg_base + agg_index when
// agg_base >= 0 (and are an error otherwise).
Result<qgm::ExprPtr> CompileExpr(const qgm::Expr& expr,
                                 const std::vector<size_t>& offsets,
                                 int agg_base = -1);

// Builds `expr` over `scope` (qgm::Builder::BuildScalar) and compiles it
// for evaluation over the sources' rows laid end to end: source i's columns
// start at the sum of the earlier sources' widths. Every scalar the engine
// evaluates outside a planned query (DML, simple-node predicates, SUCH
// THAT, path steps, CO SET) is compiled here.
Result<qgm::ExprPtr> CompileScalar(
    const sql::Expr& expr, const qgm::ScalarScope& scope,
    std::vector<qgm::ExprPtr>* outer_refs = nullptr);

// End-to-end convenience: build+plan+run are separate elsewhere; this runs a
// planned tree against the catalog. `sink` (optional) wraps the two stages
// in "plan" / "execute" spans — the XNF evaluator passes its trace sink so
// every derived node/edge query traces its inner pipeline.
Result<ResultSet> Execute(const Catalog* catalog, const qgm::QueryGraph& graph,
                          TraceSink* sink = nullptr);

}  // namespace xnf::plan

#endif  // XNF_PLAN_PLANNER_H_
