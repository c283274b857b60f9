#include "plan/planner.h"

#include <algorithm>
#include <limits>
#include <set>

#include "exec/operators.h"

namespace xnf::plan {

using exec::OperatorPtr;
using qgm::Box;
using qgm::Expr;
using qgm::ExprPtr;
using qgm::QueryGraph;

namespace {

// Set of quantifiers referenced by an expression.
std::set<int> ReferencedQuantifiers(const Expr& e) {
  std::set<int> out;
  qgm::VisitExpr(e, [&](const Expr& n) {
    if (n.kind == Expr::Kind::kInputRef) out.insert(n.quantifier);
  });
  return out;
}

// Detects `InputRef(q,c) = other` (either orientation) where `other` does not
// reference q. Returns (column, other side) on success.
struct EquiMatch {
  int column = -1;
  const Expr* other = nullptr;
};

std::optional<EquiMatch> MatchEquiForQuantifier(const Expr& pred, int q) {
  if (pred.kind != Expr::Kind::kBinary || pred.bin_op != sql::BinOp::kEq) {
    return std::nullopt;
  }
  const Expr* l = pred.args[0].get();
  const Expr* r = pred.args[1].get();
  auto is_col_of_q = [&](const Expr* e) {
    return e->kind == Expr::Kind::kInputRef && e->quantifier == q;
  };
  if (is_col_of_q(l) && !qgm::ReferencesQuantifier(*r, q)) {
    return EquiMatch{l->column, r};
  }
  if (is_col_of_q(r) && !qgm::ReferencesQuantifier(*l, q)) {
    return EquiMatch{r->column, l};
  }
  return std::nullopt;
}

// A scan of `table` annotated with its storage layout and CLUSTER BY
// column (EXPLAIN).
std::unique_ptr<exec::SeqScanOp> MakeScan(const TableInfo& table,
                                          Schema schema,
                                          const std::string& name,
                                          std::vector<ExprPtr> filters) {
  auto scan = std::make_unique<exec::SeqScanOp>(std::move(schema), name,
                                                std::move(filters));
  scan->set_storage_kind(table.storage->kind());
  if (const ColumnStore* cs = table.storage->AsColumnStore();
      cs != nullptr && cs->cluster_column() >= 0) {
    scan->set_cluster_column(
        cs->schema().column(static_cast<size_t>(cs->cluster_column())).name);
  }
  return scan;
}

}  // namespace

Result<ExprPtr> CompileExpr(const Expr& expr, const std::vector<size_t>& offsets,
                            int agg_base) {
  ExprPtr out = expr.Clone();
  Status status = Status::Ok();
  qgm::VisitExprMutable(out.get(), [&](Expr* e) {
    if (e->kind == Expr::Kind::kInputRef) {
      if (e->quantifier < 0 ||
          static_cast<size_t>(e->quantifier) >= offsets.size()) {
        status = Status::Internal("input ref to unknown quantifier");
        return;
      }
      e->slot = static_cast<int>(offsets[e->quantifier]) + e->column;
    } else if (e->kind == Expr::Kind::kAggRef) {
      if (agg_base < 0) {
        status = Status::Internal("aggregate reference outside aggregation");
        return;
      }
      e->kind = Expr::Kind::kInputRef;
      e->slot = agg_base + e->agg_index;
      e->quantifier = -1;
      e->column = -1;
    }
  });
  if (!status.ok()) return status;
  return out;
}

Result<ExprPtr> CompileScalar(const sql::Expr& expr,
                              const qgm::ScalarScope& scope,
                              std::vector<ExprPtr>* outer_refs) {
  qgm::Builder builder(nullptr);
  XNF_ASSIGN_OR_RETURN(ExprPtr built,
                       builder.BuildScalar(expr, scope, outer_refs));
  std::vector<size_t> offsets;
  size_t width = 0;
  for (const qgm::ScalarSource& source : scope.sources) {
    offsets.push_back(width);
    width += source.schema->size();
  }
  return CompileExpr(*built, offsets);
}

Result<ResultSet> Execute(const Catalog* catalog, const QueryGraph& graph,
                          TraceSink* sink) {
  Planner planner(catalog);
  XNF_ASSIGN_OR_RETURN(OperatorPtr root, [&]() -> Result<OperatorPtr> {
    TraceScope span(sink, "plan");
    return planner.Plan(graph);
  }());
  exec::ExecContext ctx;
  ctx.catalog = catalog;
  TraceScope span(sink, "execute");
  return exec::RunPlan(root.get(), &ctx);
}

Result<OperatorPtr> Planner::Plan(const QueryGraph& graph) {
  if (graph.root < 0) return Status::Internal("query graph has no root");
  return PlanBox(graph, graph.root);
}

Result<OperatorPtr> Planner::PlanBox(const QueryGraph& graph, int box_index) {
  const Box& box = *graph.box(box_index);
  switch (box.kind) {
    case Box::Kind::kValues: {
      if (box.values_ext != nullptr) {
        return OperatorPtr(std::make_unique<exec::ValuesOp>(
            box.values_schema, box.values_ext));
      }
      return OperatorPtr(std::make_unique<exec::ValuesOp>(box.values_schema,
                                                          box.values_rows));
    }
    case Box::Kind::kBaseTable: {
      TableInfo* table = catalog_->GetTable(box.table_name);
      if (table == nullptr) {
        return Status::NotFound("table '" + box.table_name + "' not found");
      }
      // The whole row is the box output: every column is referenced.
      return OperatorPtr(
          MakeScan(*table, table->schema, box.table_name, {}));
    }
    case Box::Kind::kUnion: {
      std::vector<OperatorPtr> children;
      for (int input : box.union_inputs) {
        XNF_ASSIGN_OR_RETURN(OperatorPtr child, PlanBox(graph, input));
        children.push_back(std::move(child));
      }
      if (box.set_op == Box::SetOpKind::kIntersect ||
          box.set_op == Box::SetOpKind::kExcept) {
        if (children.size() != 2) {
          return Status::Internal("INTERSECT/EXCEPT box needs two inputs");
        }
        return OperatorPtr(std::make_unique<exec::IntersectExceptOp>(
            box.values_schema, std::move(children[0]),
            std::move(children[1]),
            box.set_op == Box::SetOpKind::kExcept));
      }
      return OperatorPtr(std::make_unique<exec::UnionOp>(
          box.values_schema, std::move(children), !box.union_all));
    }
    case Box::Kind::kSelect:
      return PlanSelect(graph, box);
  }
  return Status::Internal("unhandled box kind");
}

Result<OperatorPtr> Planner::PlanQuantifierSource(
    const QueryGraph& graph, const qgm::Quantifier& q,
    std::vector<ExprPtr> pushed_filters, std::vector<char> referenced) {
  if (q.input_box >= 0) {
    XNF_ASSIGN_OR_RETURN(OperatorPtr source, PlanBox(graph, q.input_box));
    if (pushed_filters.empty()) return source;
    return OperatorPtr(std::make_unique<exec::FilterOp>(
        std::move(source), std::move(pushed_filters), nullptr));
  }
  // Base table: an index probe for one equality filter, or a scan.
  TableInfo* table = catalog_->GetTable(q.base_table);
  if (table == nullptr) {
    return Status::NotFound("table '" + q.base_table + "' not found");
  }
  exec::TableAccess access =
      exec::ChooseAccess(*table, std::move(pushed_filters),
                         catalog_->exec_config().use_indexes);
  if (access.index != nullptr) {
    return OperatorPtr(std::make_unique<exec::IndexLookupOp>(
        q.schema, q.base_table, std::move(access)));
  }
  auto scan =
      MakeScan(*table, q.schema, q.base_table, std::move(access.filters));
  if (!referenced.empty()) scan->set_referenced(std::move(referenced));
  return OperatorPtr(std::move(scan));
}

Result<OperatorPtr> Planner::PlanSelect(const QueryGraph& graph,
                                        const Box& box) {
  size_t nq = box.quantifiers.size();

  // Classify predicates.
  struct PredInfo {
    const Expr* expr;
    std::set<int> quantifiers;
    bool has_subquery;
    bool used = false;
  };
  std::vector<PredInfo> preds;
  for (const ExprPtr& p : box.predicates) {
    preds.push_back(
        {p.get(), ReferencedQuantifiers(*p), qgm::HasSubquery(*p), false});
  }

  bool has_outer = box.left_outer_from >= 0;

  // Join order: greedy avoidance of cartesian products. Starting from the
  // first quantifier, always prefer (in declaration order) an unbound
  // quantifier that a predicate connects to the already-bound set; fall back
  // to the next unbound one. Outer-join boxes keep declaration order (the
  // preserved/optional split depends on it).
  std::vector<size_t> join_order;
  if (nq > 0) {
    if (has_outer) {
      for (size_t i = 0; i < nq; ++i) join_order.push_back(i);
    } else {
      std::vector<char> bound_flag(nq, 0);
      join_order.push_back(0);
      bound_flag[0] = 1;
      while (join_order.size() < nq) {
        size_t pick = nq;
        for (size_t cand = 0; cand < nq && pick == nq; ++cand) {
          if (bound_flag[cand]) continue;
          for (const PredInfo& p : preds) {
            if (p.has_subquery || p.quantifiers.size() < 2) continue;
            bool touches_cand = false;
            bool others_bound = true;
            for (int q : p.quantifiers) {
              if (q == static_cast<int>(cand)) {
                touches_cand = true;
              } else if (!bound_flag[q]) {
                others_bound = false;
              }
            }
            if (touches_cand && others_bound) {
              pick = cand;
              break;
            }
          }
        }
        if (pick == nq) {
          for (size_t cand = 0; cand < nq; ++cand) {
            if (!bound_flag[cand]) {
              pick = cand;
              break;
            }
          }
        }
        bound_flag[pick] = 1;
        join_order.push_back(pick);
      }
    }
  }

  // Flat row offsets per quantifier, following the join order (the executed
  // row is the concatenation of quantifier rows in join order).
  std::vector<size_t> offsets(nq, 0);
  size_t width = 0;
  for (size_t pos = 0; pos < nq; ++pos) {
    offsets[join_order[pos]] = width;
    width += box.quantifiers[join_order[pos]].schema.size();
  }

  // Subquery environment: compile all subplans and their bindings.
  auto env = std::make_shared<exec::SubqueryEnv>();
  for (const qgm::BoxSubquery& sub : box.subqueries) {
    auto compiled = std::make_unique<exec::CompiledSubquery>();
    XNF_ASSIGN_OR_RETURN(compiled->plan, PlanBox(graph, sub.box));
    for (const ExprPtr& binding : sub.param_bindings) {
      XNF_ASSIGN_OR_RETURN(ExprPtr b, CompileExpr(*binding, offsets));
      compiled->bindings.push_back(std::move(b));
    }
    env->subqueries.push_back(std::move(compiled));
  }

  if (nq == 0) {
    // FROM-less select (e.g. SELECT 1+1): single empty row source.
    Schema empty_schema;
    std::vector<Row> one_row = {Row{}};
    OperatorPtr plan =
        std::make_unique<exec::ValuesOp>(empty_schema, std::move(one_row));
    // fall through shared tail below via lambda
    // Residual predicates (constants only).
    std::vector<ExprPtr> residual;
    for (PredInfo& p : preds) {
      XNF_ASSIGN_OR_RETURN(ExprPtr c, CompileExpr(*p.expr, offsets));
      residual.push_back(std::move(c));
    }
    if (!residual.empty()) {
      plan = std::make_unique<exec::FilterOp>(std::move(plan),
                                              std::move(residual), env);
    }
    Schema head_schema;
    std::vector<ExprPtr> head_exprs;
    for (const qgm::HeadExpr& h : box.head) {
      head_schema.AddColumn(Column(h.name, h.type));
      XNF_ASSIGN_OR_RETURN(ExprPtr e, CompileExpr(*h.expr, offsets));
      head_exprs.push_back(std::move(e));
    }
    plan = std::make_unique<exec::ProjectOp>(head_schema, std::move(plan),
                                             std::move(head_exprs), env);
    if (box.limit.has_value() || box.offset.has_value()) {
      plan = std::make_unique<exec::LimitOp>(
          std::move(plan),
          box.limit.value_or(std::numeric_limits<int64_t>::max()),
          box.offset.value_or(0));
    }
    return plan;
  }

  // Build each quantifier's source with pushed single-quantifier filters.
  // The raw pushed predicates are remembered per quantifier: if a join step
  // bypasses the built source (index nested-loop joins probe the base table
  // directly), they are re-applied as join residual predicates.
  std::vector<OperatorPtr> sources(nq);
  std::vector<std::vector<const Expr*>> pushed_raw(nq);
  for (size_t i = 0; i < nq; ++i) {
    std::vector<ExprPtr> pushed;
    if (!has_outer) {
      for (PredInfo& p : preds) {
        if (p.used || p.has_subquery) continue;
        if (p.quantifiers.size() == 1 &&
            *p.quantifiers.begin() == static_cast<int>(i)) {
          // Compile relative to the quantifier's own row.
          std::vector<size_t> local(nq, 0);
          XNF_ASSIGN_OR_RETURN(ExprPtr c, CompileExpr(*p.expr, local));
          pushed.push_back(std::move(c));
          pushed_raw[i].push_back(p.expr);
          p.used = true;
        }
      }
    }
    // Columns of quantifier i the rest of the box reads. Pushed filters are
    // excluded on purpose: the columnar scan decides itself which filter
    // columns it must decode, and kernelized filters need no materialized
    // values at all. Everything else — remaining predicates, head, grouping,
    // aggregates, ordering, outer-join conditions, subquery bindings — pins
    // its columns.
    std::vector<char> referenced(box.quantifiers[i].schema.size(), 0);
    auto mark = [&](const Expr& e) {
      qgm::VisitExpr(e, [&](const Expr& node) {
        if (node.kind == Expr::Kind::kInputRef &&
            node.quantifier == static_cast<int>(i) && node.column >= 0 &&
            static_cast<size_t>(node.column) < referenced.size()) {
          referenced[node.column] = 1;
        }
      });
    };
    for (const PredInfo& p : preds) {
      bool pushed_here = false;
      for (const Expr* raw : pushed_raw[i]) pushed_here |= raw == p.expr;
      if (!pushed_here) mark(*p.expr);
    }
    for (const qgm::HeadExpr& h : box.head) mark(*h.expr);
    for (const ExprPtr& g : box.group_by) mark(*g);
    for (const qgm::AggSpec& a : box.aggs) {
      if (a.arg != nullptr) mark(*a.arg);
    }
    if (box.having != nullptr) mark(*box.having);
    for (const qgm::OrderKey& k : box.order_by) {
      if (k.head_index < 0 && k.expr != nullptr) mark(*k.expr);
    }
    for (const ExprPtr& p : box.outer_join_predicates) mark(*p);
    for (const qgm::BoxSubquery& sub : box.subqueries) {
      for (const ExprPtr& b : sub.param_bindings) mark(*b);
    }
    XNF_ASSIGN_OR_RETURN(
        sources[i],
        PlanQuantifierSource(graph, box.quantifiers[i], std::move(pushed),
                             std::move(referenced)));
  }

  // Join the quantifiers left-deep following the computed join order.
  OperatorPtr plan = std::move(sources[join_order[0]]);
  std::set<int> bound = {static_cast<int>(join_order[0])};
  size_t bound_width = box.quantifiers[join_order[0]].schema.size();

  for (size_t pos = 1; pos < nq; ++pos) {
    size_t i = join_order[pos];
    bool outer_step =
        has_outer && static_cast<int>(i) == box.left_outer_from;
    // Gather join predicates connecting `bound` with quantifier i.
    std::vector<const Expr*> join_preds;
    if (outer_step) {
      // The ON condition; right group must be joined first if it has several
      // quantifiers (builder emits outer joins with a single right
      // quantifier, enforced here).
      if (box.left_outer_from != static_cast<int>(nq - 1)) {
        return Status::NotSupported(
            "outer join with multiple right-side quantifiers");
      }
      for (const ExprPtr& p : box.outer_join_predicates) {
        join_preds.push_back(p.get());
      }
    } else {
      for (PredInfo& p : preds) {
        if (p.used || p.has_subquery) continue;
        bool ok = true;
        bool touches_i = false;
        for (int q : p.quantifiers) {
          if (q == static_cast<int>(i)) {
            touches_i = true;
          } else if (bound.count(q) == 0) {
            ok = false;
          }
        }
        if (ok && touches_i) {
          join_preds.push_back(p.expr);
          p.used = true;
        }
      }
    }

    // Partition into equi conjuncts and residual.
    std::vector<const Expr*> equi;
    std::vector<const Expr*> residual;
    for (const Expr* p : join_preds) {
      auto m = MatchEquiForQuantifier(*p, static_cast<int>(i));
      bool other_bound = false;
      if (m.has_value()) {
        auto refs = ReferencedQuantifiers(*m->other);
        other_bound = true;
        for (int q : refs) {
          if (bound.count(q) == 0) other_bound = false;
        }
      }
      if (m.has_value() && other_bound) {
        equi.push_back(p);
      } else {
        residual.push_back(p);
      }
    }

    const qgm::Quantifier& qi = box.quantifiers[i];
    size_t right_width = qi.schema.size();
    Schema combined_schema;  // width only; qualify later
    // (operators only need width; reuse quantifier schemas concatenated)
    for (size_t k = 0; k <= pos; ++k) {
      for (const Column& c : box.quantifiers[join_order[k]].schema.columns()) {
        combined_schema.AddColumn(c);
      }
    }

    std::vector<ExprPtr> compiled_residual;
    for (const Expr* p : residual) {
      XNF_ASSIGN_OR_RETURN(ExprPtr c, CompileExpr(*p, offsets));
      compiled_residual.push_back(std::move(c));
    }

    // Try index nested-loop join: inner side base table with an index on an
    // equi column.
    bool planned = false;
    if (!outer_step && qi.input_box < 0 && !equi.empty() &&
        catalog_->exec_config().use_indexes) {
      TableInfo* table = catalog_->GetTable(qi.base_table);
      if (table != nullptr) {
        for (size_t e = 0; e < equi.size() && !planned; ++e) {
          auto m = MatchEquiForQuantifier(*equi[e], static_cast<int>(i));
          Index* index =
              table->FindIndexOn({static_cast<size_t>(m->column)});
          if (index == nullptr) continue;
          std::vector<ExprPtr> keys;
          XNF_ASSIGN_OR_RETURN(ExprPtr key, CompileExpr(*m->other, offsets));
          keys.push_back(std::move(key));
          // Other equi conjuncts become residual.
          for (size_t e2 = 0; e2 < equi.size(); ++e2) {
            if (e2 == e) continue;
            XNF_ASSIGN_OR_RETURN(ExprPtr c, CompileExpr(*equi[e2], offsets));
            compiled_residual.push_back(std::move(c));
          }
          // The probe bypasses sources[i]: re-apply its pushed filters.
          for (const Expr* p : pushed_raw[i]) {
            XNF_ASSIGN_OR_RETURN(ExprPtr c, CompileExpr(*p, offsets));
            compiled_residual.push_back(std::move(c));
          }
          plan = std::make_unique<exec::IndexNLJoinOp>(
              combined_schema, std::move(plan), qi.base_table, index->name(),
              std::move(keys), std::move(compiled_residual));
          planned = true;
        }
      }
    }

    if (!planned && !equi.empty()) {
      // Hash join.
      std::vector<ExprPtr> left_keys;
      std::vector<ExprPtr> right_keys;
      for (const Expr* p : equi) {
        auto m = MatchEquiForQuantifier(*p, static_cast<int>(i));
        XNF_ASSIGN_OR_RETURN(ExprPtr lk, CompileExpr(*m->other, offsets));
        left_keys.push_back(std::move(lk));
        // Right key: column of quantifier i relative to its own row.
        auto rk = std::make_unique<Expr>(Expr::Kind::kInputRef);
        rk->quantifier = static_cast<int>(i);
        rk->column = m->column;
        rk->slot = m->column;
        rk->type = qi.schema.column(m->column).type;
        right_keys.push_back(std::move(rk));
      }
      plan = std::make_unique<exec::HashJoinOp>(
          combined_schema, std::move(plan), std::move(sources[i]),
          std::move(left_keys), std::move(right_keys),
          std::move(compiled_residual), outer_step);
      planned = true;
    }

    if (!planned) {
      plan = std::make_unique<exec::NestedLoopJoinOp>(
          combined_schema, std::move(plan), std::move(sources[i]),
          std::move(compiled_residual), outer_step);
    }

    bound.insert(static_cast<int>(i));
    bound_width += right_width;
  }

  // Residual predicates (multi-quantifier leftovers, subquery predicates,
  // and — under outer joins — all WHERE predicates).
  std::vector<ExprPtr> residual;
  for (PredInfo& p : preds) {
    if (p.used) continue;
    XNF_ASSIGN_OR_RETURN(ExprPtr c, CompileExpr(*p.expr, offsets));
    residual.push_back(std::move(c));
  }
  if (!residual.empty()) {
    plan = std::make_unique<exec::FilterOp>(std::move(plan),
                                            std::move(residual), env);
  }

  // Aggregation.
  bool grouped = !box.aggs.empty() || !box.group_by.empty();
  int agg_base = -1;
  if (grouped) {
    agg_base = static_cast<int>(width);
    std::vector<ExprPtr> keys;
    for (const ExprPtr& g : box.group_by) {
      XNF_ASSIGN_OR_RETURN(ExprPtr k, CompileExpr(*g, offsets));
      keys.push_back(std::move(k));
    }
    std::vector<qgm::AggSpec> aggs;
    for (const qgm::AggSpec& a : box.aggs) {
      qgm::AggSpec spec;
      spec.func = a.func;
      spec.distinct = a.distinct;
      spec.result_type = a.result_type;
      if (a.arg) {
        XNF_ASSIGN_OR_RETURN(spec.arg, CompileExpr(*a.arg, offsets));
      }
      aggs.push_back(std::move(spec));
    }
    // Output schema: input columns plus agg results (names synthetic).
    Schema agg_schema;
    for (size_t k = 0; k < nq; ++k) {
      for (const Column& c : box.quantifiers[k].schema.columns()) {
        agg_schema.AddColumn(c);
      }
    }
    for (size_t a = 0; a < box.aggs.size(); ++a) {
      agg_schema.AddColumn(
          Column("agg" + std::to_string(a), box.aggs[a].result_type));
    }
    plan = std::make_unique<exec::AggregateOp>(
        agg_schema, std::move(plan), std::move(keys), std::move(aggs), env,
        box.group_by.empty());
    if (box.having) {
      std::vector<ExprPtr> having;
      XNF_ASSIGN_OR_RETURN(ExprPtr h, CompileExpr(*box.having, offsets,
                                                  agg_base));
      having.push_back(std::move(h));
      plan = std::make_unique<exec::FilterOp>(std::move(plan),
                                              std::move(having), env);
    }
  }

  // Pre-projection sort for expression order keys.
  bool has_expr_keys = false;
  bool has_head_keys = false;
  for (const qgm::OrderKey& k : box.order_by) {
    if (k.head_index >= 0) {
      has_head_keys = true;
    } else {
      has_expr_keys = true;
    }
  }
  if (has_expr_keys && has_head_keys) {
    return Status::NotSupported(
        "mixing select-list and expression ORDER BY keys");
  }
  if (has_expr_keys) {
    std::vector<exec::SortOp::Key> keys;
    for (const qgm::OrderKey& k : box.order_by) {
      exec::SortOp::Key key;
      XNF_ASSIGN_OR_RETURN(key.expr, CompileExpr(*k.expr, offsets, agg_base));
      key.ascending = k.ascending;
      keys.push_back(std::move(key));
    }
    plan = std::make_unique<exec::SortOp>(std::move(plan), std::move(keys),
                                          env);
  }

  // Projection.
  Schema head_schema;
  std::vector<ExprPtr> head_exprs;
  for (const qgm::HeadExpr& h : box.head) {
    head_schema.AddColumn(Column(h.name, h.type));
    XNF_ASSIGN_OR_RETURN(ExprPtr e, CompileExpr(*h.expr, offsets, agg_base));
    head_exprs.push_back(std::move(e));
  }
  plan = std::make_unique<exec::ProjectOp>(head_schema, std::move(plan),
                                           std::move(head_exprs), env);

  if (box.distinct) {
    plan = std::make_unique<exec::DistinctOp>(std::move(plan));
  }

  if (has_head_keys) {
    std::vector<exec::SortOp::Key> keys;
    for (const qgm::OrderKey& k : box.order_by) {
      exec::SortOp::Key key;
      auto e = std::make_unique<Expr>(Expr::Kind::kInputRef);
      e->slot = k.head_index;
      e->quantifier = -1;
      e->column = k.head_index;
      e->type = head_schema.column(k.head_index).type;
      key.expr = std::move(e);
      key.ascending = k.ascending;
      keys.push_back(std::move(key));
    }
    plan = std::make_unique<exec::SortOp>(std::move(plan), std::move(keys),
                                          nullptr);
  }

  if (box.limit.has_value() || box.offset.has_value()) {
    plan = std::make_unique<exec::LimitOp>(
        std::move(plan),
        box.limit.value_or(std::numeric_limits<int64_t>::max()),
        box.offset.value_or(0));
  }
  return plan;
}

}  // namespace xnf::plan
