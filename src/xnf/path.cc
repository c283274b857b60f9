#include "xnf/path.h"

#include <set>

#include "common/str_util.h"
#include "plan/planner.h"

namespace xnf::co {

const InstanceEvaluator::Adjacency& InstanceEvaluator::GetAdjacency(
    int rel_index) const {
  if (adjacency_.size() != instance_->rels.size()) {
    adjacency_.clear();
    adjacency_.resize(instance_->rels.size());
  }
  Adjacency& adj = adjacency_[rel_index];
  if (!adj.built) {
    const CoRelInstance& rel = instance_->rels[rel_index];
    adj.forward.assign(instance_->nodes[rel.parent_node].tuples.size(), {});
    adj.backward.assign(instance_->nodes[rel.child_node].tuples.size(), {});
    for (const CoConnection& c : rel.connections) {
      adj.forward[c.parent].push_back(c.child);
      adj.backward[c.child].push_back(c.parent);
    }
    adj.built = true;
  }
  return adj;
}

Result<InstanceEvaluator::PathResult> InstanceEvaluator::EvalPath(
    const sql::PathExpr& path, const std::vector<Binding>& bindings) const {
  std::string start = ToLower(path.start);
  int current_node = -1;
  std::set<int> current;

  // Start: correlation binding or component table name.
  for (const Binding& b : bindings) {
    if (b.name == start) {
      current_node = b.node;
      current.insert(b.tuple);
      break;
    }
  }
  if (current_node < 0) {
    current_node = instance_->NodeIndex(start);
    if (current_node < 0) {
      return Status::NotFound("path start '" + path.start +
                              "' is neither a bound correlation nor a "
                              "component table");
    }
    for (size_t t = 0; t < instance_->nodes[current_node].tuples.size(); ++t) {
      current.insert(static_cast<int>(t));
    }
  }

  for (const sql::PathStep& step : path.steps) {
    std::string name = ToLower(step.name);
    int rel_index = instance_->RelIndex(name);
    if (rel_index >= 0) {
      const CoRelInstance& rel = instance_->rels[rel_index];
      bool forward = rel.parent_node == current_node;
      bool backward = rel.child_node == current_node;
      if (!forward && !backward) {
        return Status::InvalidArgument(
            "relationship '" + step.name + "' does not connect to '" +
            instance_->nodes[current_node].name + "' in this path");
      }
      // For cyclic relationships over the same node both hold; traverse
      // forward (parent to child) in that case.
      const Adjacency& adj = GetAdjacency(rel_index);
      const auto& edges = forward ? adj.forward : adj.backward;
      std::set<int> next;
      for (int t : current) {
        for (int partner : edges[t]) next.insert(partner);
      }
      current_node = forward ? rel.child_node : rel.parent_node;
      current = std::move(next);
      continue;
    }
    int node_index = instance_->NodeIndex(name);
    if (node_index >= 0) {
      if (node_index != current_node) {
        return Status::InvalidArgument(
            "path step '" + step.name + "' does not match current position '" +
            instance_->nodes[current_node].name + "'");
      }
      if (step.predicate) {
        std::string corr = step.corr.empty() ? name : ToLower(step.corr);
        XNF_ASSIGN_OR_RETURN(const StepPlan* plan,
                             CompileStep(step, corr, current_node, bindings));
        std::vector<Value> params;
        params.reserve(plan->params.size());
        for (const auto& [b, column] : plan->params) {
          const Binding& outer = bindings[b];
          params.push_back(instance_->nodes[outer.node].tuples[outer.tuple]
                                                              [column]);
        }
        exec::ExecContext exec_ctx;
        exec_ctx.params = &params;
        exec::EvalContext ctx;
        ctx.exec = &exec_ctx;
        std::vector<int> candidates(current.begin(), current.end());
        std::vector<Binding> inner = bindings;
        inner.push_back(Binding{corr, current_node, -1});
        XNF_ASSIGN_OR_RETURN(
            std::vector<Value> keep,
            EvalOnTuples(*plan->predicate, candidates, std::move(inner), &ctx));
        std::set<int> filtered;
        for (size_t i = 0; i < candidates.size(); ++i) {
          XNF_ASSIGN_OR_RETURN(bool ok, exec::PredicateOutcome(keep[i]));
          if (ok) filtered.insert(candidates[i]);
        }
        current = std::move(filtered);
      }
      continue;
    }
    return Status::NotFound("path step '" + step.name +
                            "' is neither a relationship nor a component "
                            "table");
  }

  PathResult out;
  out.node = current_node;
  out.tuples.assign(current.begin(), current.end());
  return out;
}

Result<const InstanceEvaluator::StepPlan*> InstanceEvaluator::CompileStep(
    const sql::PathStep& step, const std::string& corr, int node,
    const std::vector<Binding>& bindings) const {
  std::vector<std::pair<std::string, int>> layout;
  layout.reserve(bindings.size());
  for (const Binding& b : bindings) layout.emplace_back(b.name, b.node);
  for (const std::unique_ptr<StepPlan>& plan : steps_) {
    if (plan->step == &step && plan->layout == layout) {
      XNF_RETURN_IF_ERROR(plan->error);
      return plan.get();
    }
  }
  StepPlan& plan = *steps_.emplace_back(std::make_unique<StepPlan>());
  plan.step = &step;
  plan.layout = std::move(layout);
  qgm::ScalarScope scope;
  scope.sources.push_back({corr, &instance_->nodes[node].schema});
  for (const Binding& b : bindings) {
    scope.outer.push_back({b.name, &instance_->nodes[b.node].schema});
  }
  scope.allow_paths = true;
  std::vector<qgm::ExprPtr> outer_refs;
  Result<qgm::ExprPtr> compiled =
      plan::CompileScalar(*step.predicate, scope, &outer_refs);
  if (!compiled.ok()) {
    plan.error = compiled.status();
    return plan.error;
  }
  plan.predicate = std::move(compiled).value();
  for (const qgm::ExprPtr& ref : outer_refs) {
    plan.params.emplace_back(ref->quantifier, ref->column);
  }
  return &plan;
}

Result<Value> InstanceEvaluator::EvalPathTerm(
    const qgm::Expr& term, const std::vector<Binding>& bindings) const {
  XNF_ASSIGN_OR_RETURN(PathResult r, EvalPath(*term.path, bindings));
  if (term.func_name == "count") {
    return Value::Int(static_cast<int64_t>(r.tuples.size()));
  }
  bool exists = !r.tuples.empty();
  return Value::Bool(term.negated ? !exists : exists);
}

Result<std::vector<Value>> InstanceEvaluator::EvalOnTuples(
    const qgm::Expr& expr, const std::vector<int>& tuples,
    std::vector<Binding> bindings, exec::EvalContext* ctx) const {
  const std::vector<Row>& rows = instance_->nodes[bindings.back().node].tuples;
  if (!qgm::HasPath(expr)) {
    std::vector<const Row*> batch;
    batch.reserve(tuples.size());
    for (int t : tuples) batch.push_back(&rows[t]);
    return exec::EvalExprBatch(expr, batch, ctx);
  }
  exec::PathHook hook = [&](const qgm::Expr& term) {
    return EvalPathTerm(term, bindings);
  };
  exec::EvalContext local = *ctx;
  local.path_hook = &hook;
  std::vector<Value> out;
  out.reserve(tuples.size());
  for (int t : tuples) {
    bindings.back().tuple = t;
    local.row = &rows[t];
    XNF_ASSIGN_OR_RETURN(Value v, exec::EvalExpr(expr, &local));
    out.push_back(std::move(v));
  }
  return out;
}

}  // namespace xnf::co
