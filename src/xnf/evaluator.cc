#include "xnf/evaluator.h"

#include <chrono>
#include <functional>
#include <numeric>
#include <set>
#include <unordered_map>
#include <utility>

#include "common/failpoint.h"
#include "common/str_util.h"
#include "exec/eval.h"
#include "exec/operators.h"
#include "plan/planner.h"
#include "qgm/builder.h"
#include "qgm/rewrite.h"
#include "xnf/parser.h"
#include "xnf/path.h"

namespace xnf::co {

namespace {

constexpr char kTidColumn[] = "__tid";

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Splits an AND tree into conjunct pointers (no ownership transfer).
void SplitConjuncts(const sql::Expr* e, std::vector<const sql::Expr*>* out) {
  if (e->kind == sql::Expr::Kind::kBinary &&
      e->bin_op == sql::BinOp::kAnd) {
    SplitConjuncts(e->args[0].get(), out);
    SplitConjuncts(e->args[1].get(), out);
    return;
  }
  out->push_back(e);
}

// True if the expression contains a subquery or an XNF path expression.
bool ExprHasSubqueryOrPath(const sql::Expr& e) {
  if (e.subquery != nullptr || e.path != nullptr) return true;
  for (const sql::ExprPtr& a : e.args) {
    if (a && ExprHasSubqueryOrPath(*a)) return true;
  }
  return false;
}

bool ExprContainsAgg(const sql::Expr& e) {
  if (e.kind == sql::Expr::Kind::kFuncCall) {
    std::string n = ToLower(e.column);
    if (n == "count" || n == "sum" || n == "avg" || n == "min" || n == "max") {
      return true;
    }
  }
  for (const sql::ExprPtr& a : e.args) {
    if (a && ExprContainsAgg(*a)) return true;
  }
  return false;
}

// Detects whether a node's defining query is a simple projection/selection
// of one base table, which makes the node updatable (provenance rids).
struct SimpleNodeInfo {
  bool simple = false;
  std::string base_table;
  std::string alias;                  // FROM alias used in the predicate
  const sql::Expr* predicate = nullptr;
  bool select_star = false;
  std::vector<std::string> columns;   // when !select_star: base column names
  std::vector<std::string> out_names; // output column names (aliases)
};

SimpleNodeInfo AnalyzeSimpleNode(const CoNodeDef& def,
                                 const Catalog& catalog) {
  SimpleNodeInfo info;
  if (!def.table.empty()) {
    if (catalog.GetTable(def.table) == nullptr) return info;
    info.simple = true;
    info.base_table = def.table;
    info.alias = def.table;
    info.select_star = true;
    return info;
  }
  const sql::SelectStmt& q = *def.query;
  if (q.distinct || !q.group_by.empty() || q.having != nullptr ||
      !q.order_by.empty() || q.limit.has_value() || q.union_next != nullptr ||
      q.from.size() != 1) {
    return info;
  }
  const sql::TableRef& from = *q.from[0];
  if (from.kind != sql::TableRef::Kind::kNamed) return info;
  if (catalog.GetTable(from.name) == nullptr) return info;  // view: not simple
  if (q.where != nullptr &&
      (ExprHasSubqueryOrPath(*q.where) || ExprContainsAgg(*q.where))) {
    return info;
  }
  for (const sql::SelectItem& item : q.items) {
    if (item.star) {
      if (!item.star_table.empty()) return info;
      info.select_star = true;
      continue;
    }
    if (item.expr->kind != sql::Expr::Kind::kColumnRef) return info;
    info.columns.push_back(ToLower(item.expr->column));
    info.out_names.push_back(
        item.alias.empty() ? ToLower(item.expr->column) : ToLower(item.alias));
  }
  if (info.select_star && !info.columns.empty()) return info;  // mixed: skip
  info.simple = true;
  info.base_table = ToLower(from.name);
  info.alias = from.alias.empty() ? ToLower(from.name) : ToLower(from.alias);
  info.predicate = q.where.get();
  return info;
}

// Marks every input slot a compiled predicate reads (the residual check in
// the candidate scan evaluates over gathered rows, so its columns must be
// decoded even when the node does not emit them).
void MarkExprSlots(const qgm::Expr& e, std::vector<char>* referenced) {
  if (e.kind == qgm::Expr::Kind::kInputRef && e.slot >= 0 &&
      static_cast<size_t>(e.slot) < referenced->size()) {
    (*referenced)[e.slot] = 1;
  }
  for (const qgm::ExprPtr& a : e.args) {
    if (a) MarkExprSlots(*a, referenced);
  }
}

// Whether SQL `=` between key columns of these types behaves like the hash
// join's RowsEqual: same type, or both numeric (1 = 1.0).
bool KeyTypesComparable(Type a, Type b) {
  auto numeric = [](Type t) { return t == Type::kInt || t == Type::kDouble; };
  return a == b || (numeric(a) && numeric(b));
}

// Folds the key columns `cols` of `tuple` into `*hash` as HashRow would the
// key row; false if a key column is NULL (the tuple then joins nothing).
bool HashKey(const Row& tuple, const std::vector<int>& cols, size_t* hash) {
  size_t h = kRowHashSeed;
  for (int c : cols) {
    if (tuple[c].is_null()) return false;
    h = HashCombine(h, tuple[c]);
  }
  *hash = h;
  return true;
}

// The node join: connections between `parents` and `children` whose key
// columns are equal under RowsEqual (1 = 1.0), parent-major with children
// in tid order. The parents go into one chained hash table (head / next
// arrays) that each child probes in tid order; a counting sort by parent
// then lays the matches out. Allocations are per join, not per key.
std::vector<CoConnection> NodeJoin(const std::vector<Row>& parents,
                                   const std::vector<int>& parent_cols,
                                   const std::vector<Row>& children,
                                   const std::vector<int>& child_cols) {
  int shift = 64;
  while ((size_t{1} << (64 - shift)) < parents.size()) --shift;
  std::vector<int32_t> head(size_t{1} << (64 - shift), -1);
  std::vector<int32_t> next(parents.size(), -1);
  std::vector<size_t> hashes(parents.size());
  // Fibonacci hashing spreads the key hash over the table's bits.
  auto bucket = [&](size_t h) -> int32_t& {
    return head[shift == 64 ? 0 : (h * 0x9E3779B97F4A7C15ull) >> shift];
  };
  for (size_t p = 0; p < parents.size(); ++p) {
    if (!HashKey(parents[p], parent_cols, &hashes[p])) continue;
    int32_t& chain = bucket(hashes[p]);
    next[p] = chain;
    chain = static_cast<int32_t>(p);
  }
  std::vector<std::pair<int, int>> matches;  // (parent, child), child-major
  matches.reserve(children.size());  // exact when parent keys are unique
  std::vector<CsrSegment> per_parent(parents.size());
  for (size_t c = 0; c < children.size(); ++c) {
    size_t h;
    if (!HashKey(children[c], child_cols, &h)) continue;
    for (int32_t p = bucket(h); p >= 0; p = next[p]) {
      if (hashes[p] != h) continue;
      bool equal = true;
      for (size_t k = 0; equal && k < child_cols.size(); ++k) {
        equal = parents[p][parent_cols[k]].TotalOrderCompare(
                    children[c][child_cols[k]]) == 0;
      }
      if (!equal) continue;
      matches.emplace_back(p, static_cast<int>(c));
      ++per_parent[p].cap;
    }
  }
  std::vector<CoConnection> out(LayOutSegments(&per_parent));
  for (const auto& [p, c] : matches) {
    CsrSegment& seg = per_parent[p];
    CoConnection& conn = out[seg.off + seg.len++];
    conn.parent = p;
    conn.child = c;
  }
  return out;
}

// Walks every column reference of an expression tree.
void VisitColumnRefs(const sql::Expr& e,
                     const std::function<void(const sql::Expr&)>& fn) {
  if (e.kind == sql::Expr::Kind::kColumnRef) fn(e);
  for (const sql::ExprPtr& a : e.args) {
    if (a) VisitColumnRefs(*a, fn);
  }
}

// Copies the write provenance AnalyzeRelWrite derived at compile time.
void CopyWriteProvenance(const CoRelInstance& from, CoRelInstance* to) {
  to->write_kind = from.write_kind;
  to->fk_parent_column = from.fk_parent_column;
  to->fk_child_column = from.fk_child_column;
  to->link_table = from.link_table;
  to->link_parent_column = from.link_parent_column;
  to->link_child_column = from.link_child_column;
  to->parent_key_column = from.parent_key_column;
  to->child_key_column = from.child_key_column;
  to->attr_link_columns = from.attr_link_columns;
}

}  // namespace

void Evaluator::MergeStats(const Stats& from, Stats* into) {
  into->node_queries += from.node_queries;
  into->edge_queries += from.edge_queries;
  into->temp_reuses += from.temp_reuses;
  into->cse_hits += from.cse_hits;
  into->cse_misses += from.cse_misses;
  into->reachability_passes += from.reachability_passes;
  into->restrictions_applied += from.restrictions_applied;
  into->rows_produced += from.rows_produced;
  into->batches_produced += from.batches_produced;
  into->scan_columns_decoded += from.scan_columns_decoded;
  into->scan_columns_skipped += from.scan_columns_skipped;
  into->profiles.insert(into->profiles.end(), from.profiles.begin(),
                        from.profiles.end());
}

Result<ResultSet> Evaluator::RunSelect(const sql::SelectStmt& stmt,
                                       Stats* stats) {
  qgm::Builder::ExtraResolver resolver =
      [this](const std::string& name) -> Result<const ResultSet*> {
    auto it = temps_.find(name);
    if (it == temps_.end()) return static_cast<const ResultSet*>(nullptr);
    return static_cast<const ResultSet*>(&it->second);
  };
  qgm::Builder builder(catalog_, resolver);
  XNF_ASSIGN_OR_RETURN(qgm::QueryGraph graph, builder.Build(stmt));
  if (catalog_->exec_config().use_rewrite) {
    XNF_ASSIGN_OR_RETURN(qgm::RewriteStats rw,
                         qgm::Rewrite(&graph, trace_sink_));
    (void)rw;
  }
  plan::Planner planner(catalog_);
  XNF_ASSIGN_OR_RETURN(exec::OperatorPtr root,
                       [&]() -> Result<exec::OperatorPtr> {
                         TraceScope span(trace_sink_, "plan");
                         return planner.Plan(graph);
                       }());
  exec::ExecContext ctx;
  ctx.catalog = catalog_;
  ctx.params = params_;
  TraceScope span(trace_sink_, "execute");
  XNF_ASSIGN_OR_RETURN(ResultSet rs, exec::RunPlan(root.get(), &ctx));
  stats->rows_produced += rs.stats.rows_produced;
  stats->batches_produced += rs.stats.batches_produced;
  return rs;
}

// --- Compile ----------------------------------------------------------------

Result<std::unique_ptr<CoPlan>> Evaluator::Compile(const XnfQuery& query) {
  auto plan = std::make_unique<CoPlan>();
  plan->query = &query;
  // Referenced views with restrictions / partial TAKE are evaluated
  // recursively and imported as premade components (full closure, Fig. 6).
  Resolver resolver(catalog_, [this](const XnfQuery& sub) {
    Evaluator nested(catalog_, options_);
    nested.set_trace_sink(trace_sink_);
    Result<CoInstance> out = nested.Evaluate(sub);
    MergeStats(nested.stats(), &stats_);
    return out;
  });
  XNF_ASSIGN_OR_RETURN(plan->def, [&]() -> Result<CoDef> {
    TraceScope span(trace_sink_, "resolve");
    return resolver.Resolve(query);
  }());
  const CoDef& def = plan->def;
  // TAKE-driven column pruning. Gated on CSE because the no-CSE edge path
  // matches node tuples by full-row value, which a NULL placeholder would
  // corrupt. kDelete/kUpdate act on base rows through rids and need full
  // tuples in the returned instance.
  std::map<std::string, std::set<std::string>> take_needed;
  if (query.action == XnfQuery::Action::kTake && !query.take_all &&
      options_.use_cse) {
    take_needed = ComputeTakePruning(query, def);
  }
  TraceScope span(trace_sink_, "qgm-build");
  plan->nodes.resize(def.nodes.size());
  for (size_t n = 0; n < def.nodes.size(); ++n) {
    if (def.nodes[n].premade != nullptr) plan->cacheable = false;
    CompileNode(def.nodes[n], take_needed.empty() ? nullptr : &take_needed,
                &plan->nodes[n]);
  }
  CompileRels(plan.get());
  CompileRestrictionsAndTake(plan.get());
  return plan;
}

void Evaluator::CompileNode(
    const CoNodeDef& def,
    const std::map<std::string, std::set<std::string>>* take,
    CoPlan::Node* node) {
  using Access = CoPlan::Node::Access;
  if (def.premade != nullptr) {
    node->access = Access::kPremade;
    node->schema = def.premade->schema;
    return;
  }
  SimpleNodeInfo simple = AnalyzeSimpleNode(def, *catalog_);
  if (simple.simple) {
    node->access = Access::kSimple;
    TableInfo* table = catalog_->GetTable(simple.base_table);
    node->table = table;
    node->base_table = simple.base_table;
    // The predicate, compiled over the base schema. Fast extraction (§4
    // "fast extraction of data"): an equality conjunct on an indexed column
    // turns the candidate scan into an index lookup — this is what makes
    // 1-in-10000 working-set extraction cheap.
    std::vector<qgm::ExprPtr> conjuncts;
    if (simple.predicate != nullptr) {
      qgm::ScalarScope scope;
      scope.sources.push_back({simple.alias, &table->schema});
      scope.allow_params = true;
      Result<qgm::ExprPtr> compiled =
          plan::CompileScalar(*simple.predicate, scope);
      if (!compiled.ok()) {
        node->error = compiled.status();
        return;
      }
      qgm::SplitConjuncts(std::move(compiled).value(), &conjuncts);
    }
    node->table_access = exec::ChooseAccess(
        *table, std::move(conjuncts), catalog_->exec_config().use_indexes);
    // Output schema and base column map.
    if (simple.select_star) {
      for (size_t i = 0; i < table->schema.size(); ++i) {
        Column c = table->schema.column(i);
        c.table = def.name;
        node->schema.AddColumn(c);
        node->base_column_map.push_back(static_cast<int>(i));
      }
    } else {
      for (size_t i = 0; i < simple.columns.size(); ++i) {
        Result<size_t> b = table->schema.Resolve("", simple.columns[i]);
        if (!b.ok()) {
          node->error = b.status();
          return;
        }
        Column c = table->schema.column(*b);
        c.name = simple.out_names[i];
        c.table = def.name;
        node->schema.AddColumn(c);
        node->base_column_map.push_back(static_cast<int>(*b));
      }
    }
    // Columnar candidate scans only decode the columns the node emits —
    // and under an analyzed TAKE list, only the emitted columns something
    // after the scan actually reads; the rest surface as NULL placeholders
    // that ApplyTake projects away. Heap tables ignore the bitmap.
    node->referenced.assign(table->schema.size(), 0);
    const std::set<std::string>* take_cols = nullptr;
    if (take != nullptr) {
      auto it = take->find(ToLower(def.name));
      if (it != take->end()) take_cols = &it->second;
    }
    for (size_t c = 0; c < node->base_column_map.size(); ++c) {
      if (take_cols != nullptr &&
          take_cols->count(ToLower(node->schema.column(c).name)) == 0) {
        continue;
      }
      node->referenced[node->base_column_map[c]] = 1;
    }
    for (const qgm::ExprPtr& f : node->table_access.filters) {
      MarkExprSlots(*f, &node->referenced);
    }
    return;
  }

  // General path: the defining query, planned through the engine.
  if (def.query == nullptr) {
    node->error = Status::NotFound("table '" + def.table +
                                   "' not found for node '" + def.name + "'");
    return;
  }
  Result<exec::OperatorPtr> planned = [&]() -> Result<exec::OperatorPtr> {
    qgm::Builder builder(catalog_);
    XNF_ASSIGN_OR_RETURN(qgm::QueryGraph graph, builder.Build(*def.query));
    if (catalog_->exec_config().use_rewrite) {
      TraceScope span(trace_sink_, "rewrite");
      XNF_ASSIGN_OR_RETURN(qgm::RewriteStats rw,
                           qgm::Rewrite(&graph, trace_sink_));
      (void)rw;
    }
    plan::Planner planner(catalog_);
    TraceScope span(trace_sink_, "plan");
    return planner.Plan(graph);
  }();
  if (!planned.ok()) {
    node->error = planned.status();
    return;
  }
  node->access = Access::kQuery;
  node->query = std::move(planned).value();
  node->schema = node->query->schema().WithQualifier(def.name);
}

void Evaluator::CompileRels(CoPlan* plan) {
  const CoDef& def = plan->def;
  plan->rels.resize(def.rels.size());
  auto schema_of = [&](const std::string& name) -> const Schema* {
    int n = def.NodeIndex(name);
    return n < 0 ? nullptr : &plan->nodes[n].schema;
  };

  for (size_t i = 0; i < def.rels.size(); ++i) {
    const CoRelDef& rel = def.rels[i];
    CoPlan::Rel& out = plan->rels[i];
    if (rel.premade != nullptr) {
      plan->cacheable = false;
      continue;
    }
    const Schema* parent = schema_of(rel.parent);
    const Schema* child = schema_of(rel.child);
    if (parent != nullptr && child != nullptr) {
      AnalyzeRelWrite(rel, *parent, *child, &out.write);
    }
    // Edge path (CSE only; the no-CSE baseline always runs its inline
    // query). A predicate of the 1:n foreign-key shape — only
    // `parent.col = child.col` equalities, no USING table, no attributes,
    // key columns of one type or both numeric — is a node join: its
    // connections are hashed out of the node results directly. Everything
    // else (link tables, theta and cross predicates, residual conjuncts,
    // subqueries, paths, bare columns) runs as an edge query.
    if (options_.use_cse && rel.attributes.empty() && parent != nullptr &&
        child != nullptr) {
      std::optional<EquiKeys> keys = AnalyzeEquiKeys(rel, *parent, *child);
      if (keys.has_value()) {
        bool comparable = true;
        for (size_t k = 0; k < keys->parent_cols.size(); ++k) {
          comparable &= KeyTypesComparable(
              parent->column(keys->parent_cols[k]).type,
              child->column(keys->child_cols[k]).type);
        }
        if (comparable) {
          out.node_join = std::move(keys);
          continue;
        }
      }
    }
    auto stmt = std::make_unique<sql::SelectStmt>();
    auto add_named = [&](const std::string& name, const std::string& alias) {
      auto ref = std::make_unique<sql::TableRef>();
      ref->kind = sql::TableRef::Kind::kNamed;
      ref->name = name;
      ref->alias = alias;
      stmt->from.push_back(std::move(ref));
    };
    auto add_attributes = [&] {
      for (const RelAttribute& a : rel.attributes) {
        sql::SelectItem item;
        item.expr = a.expr->Clone();
        item.alias = a.name;
        stmt->items.push_back(std::move(item));
      }
    };
    if (options_.use_cse) {
      // Temps carry a __tid column identifying the candidate tuple.
      add_named("__co_" + rel.parent, rel.parent_corr);
      add_named("__co_" + rel.child, rel.child_corr);
      sql::SelectItem ptid;
      ptid.expr = sql::Expr::ColRef(rel.parent_corr, kTidColumn);
      ptid.alias = "__ptid";
      stmt->items.push_back(std::move(ptid));
      sql::SelectItem ctid;
      ctid.expr = sql::Expr::ColRef(rel.child_corr, kTidColumn);
      ctid.alias = "__ctid";
      stmt->items.push_back(std::move(ctid));
      if (!rel.using_table.empty()) add_named(rel.using_table, rel.using_corr);
    } else {
      // The partner node queries recomputed inline.
      for (const auto& [name, alias] :
           {std::pair{&rel.parent, &rel.parent_corr},
            std::pair{&rel.child, &rel.child_corr}}) {
        int n = def.NodeIndex(*name);
        if (n < 0) {
          out.error = Status::Internal("missing node definition for '" +
                                       *name + "'");
          break;
        }
        const CoNodeDef& node = def.nodes[n];
        auto ref = std::make_unique<sql::TableRef>();
        if (node.query != nullptr) {
          ref->kind = sql::TableRef::Kind::kSubquery;
          ref->subquery = node.query->Clone();
        } else {
          ref->kind = sql::TableRef::Kind::kNamed;
          ref->name = node.table;
        }
        ref->alias = *alias;
        stmt->from.push_back(std::move(ref));
      }
      if (!rel.using_table.empty()) add_named(rel.using_table, rel.using_corr);
      sql::SelectItem pstar;
      pstar.star = true;
      pstar.star_table = rel.parent_corr;
      stmt->items.push_back(std::move(pstar));
      sql::SelectItem cstar;
      cstar.star = true;
      cstar.star_table = rel.child_corr;
      stmt->items.push_back(std::move(cstar));
    }
    add_attributes();
    stmt->where = rel.predicate->Clone();
    out.edge = std::move(stmt);
  }

  // CSE temps (node rows + __tid) for the partners of edge queries, narrowed
  // to the columns the relationship predicates and attributes actually
  // reference, so the edge joins never copy full-width tuples.
  if (!options_.use_cse) return;
  // Partner node -> columns its edge queries read.
  std::map<std::string, std::set<std::string>> used_columns;
  std::set<std::string> full_width;  // nodes needing all columns
  for (size_t i = 0; i < def.rels.size(); ++i) {
    const CoRelDef& rel = def.rels[i];
    // Premade edges have no predicate to analyze; node joins read the node
    // results, not temps.
    if (rel.premade != nullptr || plan->rels[i].node_join.has_value()) {
      continue;
    }
    used_columns[rel.parent];
    used_columns[rel.child];
    auto collect = [&](const sql::Expr& e) {
      std::string qual = ToLower(e.table);
      if (qual == rel.parent_corr) {
        used_columns[rel.parent].insert(ToLower(e.column));
      } else if (qual == rel.child_corr) {
        used_columns[rel.child].insert(ToLower(e.column));
      } else if (!rel.using_table.empty() && qual == rel.using_corr) {
        // link-table column: not part of a node temp
      } else {
        // Bare or unknown qualifier: be conservative.
        full_width.insert(rel.parent);
        full_width.insert(rel.child);
      }
    };
    VisitColumnRefs(*rel.predicate, collect);
    for (const RelAttribute& a : rel.attributes) {
      VisitColumnRefs(*a.expr, collect);
    }
  }
  for (size_t n = 0; n < def.nodes.size(); ++n) {
    const std::string& name = def.nodes[n].name;
    if (used_columns.count(name) == 0) continue;
    const Schema& schema = plan->nodes[n].schema;
    CoPlan::Temp temp;
    temp.node = static_cast<int>(n);
    if (full_width.count(name) > 0) {
      temp.schema = schema;
      for (size_t c = 0; c < schema.size(); ++c) {
        temp.projection.push_back(static_cast<int>(c));
      }
    } else {
      for (const std::string& col : used_columns[name]) {
        auto idx = schema.Find(col);
        if (!idx.has_value()) {
          plan->temps_error = Status::NotFound(
              "column '" + col + "' not found in component table '" + name +
              "'");
          return;
        }
        temp.projection.push_back(static_cast<int>(*idx));
        temp.schema.AddColumn(schema.column(*idx));
      }
    }
    temp.schema.AddColumn(Column(kTidColumn, Type::kInt));
    plan->temps.push_back(std::move(temp));
  }
}

void Evaluator::CompileRestrictionsAndTake(CoPlan* plan) {
  const CoDef& def = plan->def;
  const XnfQuery& query = *plan->query;
  for (const Restriction& r : query.restrictions) {
    const bool node = r.kind == Restriction::Kind::kNode;
    const int target = node ? def.NodeIndex(r.target) : def.RelIndex(r.target);
    plan->restriction_targets.push_back(target);
    Result<qgm::ExprPtr> compiled = [&]() -> Result<qgm::ExprPtr> {
      if (target < 0) {
        return Status::NotFound(
            (node ? "restricted component table '"
                  : "restricted relationship '") +
            r.target + "' not found");
      }
      qgm::ScalarScope scope;
      scope.allow_paths = true;
      if (node) {
        scope.sources.push_back({r.corr.empty() ? def.nodes[target].name
                                                : r.corr,
                                 &plan->nodes[target].schema});
      } else {
        const CoRelDef& rel = def.rels[target];
        for (const auto& [corr, name] :
             {std::pair{&r.parent_corr, &rel.parent},
              std::pair{&r.child_corr, &rel.child}}) {
          int n = def.NodeIndex(*name);
          if (n < 0) {
            return Status::Internal("missing node definition for '" + *name +
                                    "'");
          }
          scope.sources.push_back({*corr, &plan->nodes[n].schema});
        }
      }
      return plan::CompileScalar(*r.predicate, scope);
    }();
    plan->restriction_errors.push_back(compiled.status());
    plan->restrictions.push_back(compiled.ok() ? std::move(compiled).value()
                                               : nullptr);
  }

  if (query.take_all) return;
  // Which components survive.
  plan->take_node.assign(def.nodes.size(), 0);
  plan->take_rel.assign(def.rels.size(), 0);
  plan->take_columns.assign(def.nodes.size(), std::nullopt);
  std::vector<const TakeItem*> node_items(def.nodes.size(), nullptr);
  for (const TakeItem& item : query.take) {
    int n = def.NodeIndex(item.name);
    if (n >= 0) {
      plan->take_node[n] = 1;
      node_items[n] = &item;
      continue;
    }
    int r = def.RelIndex(item.name);
    if (r >= 0) {
      if (item.has_column_list && !item.star_columns) {
        plan->take_error = Status::InvalidArgument(
            "column projection on relationship '" + item.name +
            "' is not meaningful");
        return;
      }
      plan->take_rel[r] = 1;
      continue;
    }
    plan->take_error = Status::NotFound("TAKE item '" + item.name +
                                        "' is not a component of this CO");
    return;
  }
  // Well-formedness: a relationship survives only if both partners do.
  for (size_t r = 0; r < def.rels.size(); ++r) {
    if (!plan->take_rel[r]) continue;
    int p = def.NodeIndex(def.rels[r].parent);
    int c = def.NodeIndex(def.rels[r].child);
    if (p < 0 || c < 0 || !plan->take_node[p] || !plan->take_node[c]) {
      plan->take_rel[r] = 0;  // implicit discard (§3.3)
    }
  }
  // Column projections.
  for (size_t n = 0; n < def.nodes.size(); ++n) {
    const TakeItem* item = node_items[n];
    if (!plan->take_node[n] || item == nullptr || !item->has_column_list ||
        item->star_columns) {
      continue;
    }
    std::vector<size_t> cols;
    for (const std::string& c : item->columns) {
      Result<size_t> i = plan->nodes[n].schema.Resolve("", c);
      if (!i.ok()) {
        plan->take_error = i.status();
        return;
      }
      cols.push_back(*i);
    }
    plan->take_columns[n] = std::move(cols);
  }
}

// --- Run --------------------------------------------------------------------

Result<CoNodeInstance> Evaluator::RunNode(const CoPlan& plan, size_t n,
                                          Stats* stats) {
  XNF_FAILPOINT("xnf.node.query");
  const CoNodeDef& def = plan.def.nodes[n];
  const CoPlan::Node& compiled = plan.nodes[n];
  CoNodeInstance node;
  node.name = def.name;
  const uint64_t start_ns = NowNs();
  auto profile = [&](const char* access, size_t rows) {
    stats->profiles.push_back({QueryProfile::Kind::kNode, def.name, access,
                               rows, NowNs() - start_ns});
  };

  // Pre-materialized component imported from a restricted view reference.
  if (compiled.access == CoPlan::Node::Access::kPremade) {
    profile("premade", def.premade->tuples.size());
    return *def.premade;
  }
  XNF_RETURN_IF_ERROR(compiled.error);
  exec::ExecContext exec_ctx;
  exec_ctx.catalog = catalog_;
  exec_ctx.params = params_;

  if (compiled.access == CoPlan::Node::Access::kQuery) {
    XNF_ASSIGN_OR_RETURN(ResultSet rs, [&]() -> Result<ResultSet> {
      TraceScope span(trace_sink_, "execute");
      return exec::RunPlan(compiled.query.get(), &exec_ctx);
    }());
    stats->rows_produced += rs.stats.rows_produced;
    stats->batches_produced += rs.stats.batches_produced;
    stats->node_queries++;
    node.schema = compiled.schema;
    node.tuples = std::move(rs.rows);
    profile("query", node.tuples.size());
    return node;
  }

  // A system view re-snapshots on its first lookup in each statement.
  if (compiled.table->is_system) {
    (void)catalog_->GetTable(compiled.base_table);
  }
  node.schema = compiled.schema;
  node.base_column_map = compiled.base_column_map;
  node.base_table = compiled.base_table;
  std::vector<Row> rows;
  exec::ScanStats scan_stats;
  XNF_RETURN_IF_ERROR(exec::FindRows(*compiled.table, compiled.table_access,
                                     &compiled.referenced, &exec_ctx, &rows,
                                     &node.rids, &scan_stats));
  stats->scan_columns_decoded += scan_stats.columns_decoded;
  stats->scan_columns_skipped += scan_stats.columns_skipped;
  // A node emitting the whole base row in order (SELECT *) takes the rows
  // as they are; any other projects through base_column_map.
  bool whole_row = node.base_column_map.size() == compiled.table->schema.size();
  for (size_t c = 0; whole_row && c < node.base_column_map.size(); ++c) {
    whole_row = node.base_column_map[c] == static_cast<int>(c);
  }
  if (whole_row) {
    node.tuples = std::move(rows);
  } else {
    node.tuples.reserve(rows.size());
    for (const Row& row : rows) {
      Row& out = node.tuples.emplace_back();
      out.reserve(node.base_column_map.size());
      for (int b : node.base_column_map) out.push_back(row[b]);
    }
  }
  stats->node_queries++;
  profile(compiled.table_access.index != nullptr ? "index" : "scan",
          node.tuples.size());
  return node;
}

Result<CoRelInstance> Evaluator::RunRel(const CoPlan& plan, size_t r,
                                        const CoInstance& instance,
                                        Stats* stats) {
  XNF_FAILPOINT("xnf.edge.query");
  const CoRelDef& def = plan.def.rels[r];
  const CoPlan::Rel& compiled = plan.rels[r];
  CoRelInstance rel;
  rel.name = def.name;
  rel.parent_node = instance.NodeIndex(def.parent);
  rel.child_node = instance.NodeIndex(def.child);
  if (rel.parent_node < 0 || rel.child_node < 0) {
    return Status::Internal("relationship partners missing");
  }
  const uint64_t start_ns = NowNs();
  auto profile = [&](const char* access, size_t rows) {
    stats->profiles.push_back({QueryProfile::Kind::kEdge, def.name, access,
                               rows, NowNs() - start_ns});
  };

  // Pre-materialized connections: the partner nodes are premade too, so the
  // tuple indices carry over; only the node indices need re-binding.
  if (def.premade != nullptr) {
    rel = *def.premade;
    rel.parent_node = instance.NodeIndex(def.parent);
    rel.child_node = instance.NodeIndex(def.child);
    profile("premade", rel.connections.size());
    return rel;
  }
  XNF_RETURN_IF_ERROR(compiled.error);
  CopyWriteProvenance(compiled.write, &rel);

  if (options_.use_cse) {
    // Either way the edge reuses both node results instead of recomputing
    // them.
    stats->edge_queries++;
    stats->temp_reuses += 2;
    stats->cse_hits += 2;
  }
  if (compiled.node_join.has_value()) {
    // §4.3 taken literally: the parent and child tuples just produced are
    // joined again on the key columns, in the order of the temp join's
    // left-deep plan, where the parent temp probes (see NodeJoin). A NULL
    // key component never matches.
    rel.connections = NodeJoin(instance.nodes[rel.parent_node].tuples,
                               compiled.node_join->parent_cols,
                               instance.nodes[rel.child_node].tuples,
                               compiled.node_join->child_cols);
    profile("node-join", rel.connections.size());
    return rel;
  }

  for (const RelAttribute& a : def.attributes) {
    rel.attr_schema.AddColumn(Column(a.name, Type::kNull));
  }
  XNF_ASSIGN_OR_RETURN(ResultSet rs, RunSelect(*compiled.edge, stats));

  if (options_.use_cse) {
    // The edge query over the temps returns (__ptid, __ctid, attrs...).
    for (size_t i = 0; i < rel.attr_schema.size(); ++i) {
      rel.attr_schema.column(i).type = rs.schema.column(2 + i).type;
    }
    for (Row& row : rs.rows) {
      CoConnection c;
      c.parent = static_cast<int>(row[0].AsInt());
      c.child = static_cast<int>(row[1].AsInt());
      c.attrs.assign(std::make_move_iterator(row.begin() + 2),
                     std::make_move_iterator(row.end()));
      rel.connections.push_back(std::move(c));
    }
    profile("temp-join", rel.connections.size());
    return rel;
  }

  // No CSE: the edge query recomputed both node queries — two extra
  // executions of the node queries, which is what CSE avoids.
  stats->edge_queries++;
  stats->node_queries += 2;
  stats->cse_misses += 2;
  const CoNodeInstance& parent = instance.nodes[rel.parent_node];
  const CoNodeInstance& child = instance.nodes[rel.child_node];
  size_t pw = parent.schema.size();
  size_t cw = child.schema.size();
  for (size_t i = 0; i < rel.attr_schema.size(); ++i) {
    rel.attr_schema.column(i).type = rs.schema.column(pw + cw + i).type;
  }
  // Match endpoint rows back to candidate tuple indices by value.
  auto build_index = [](const CoNodeInstance& node) {
    std::unordered_map<Row, int, RowHash, RowEq> index;
    for (size_t t = 0; t < node.tuples.size(); ++t) {
      index.emplace(node.tuples[t], static_cast<int>(t));
    }
    return index;
  };
  auto parent_index = build_index(parent);
  auto child_index = build_index(child);
  for (Row& row : rs.rows) {
    Row prow(row.begin(), row.begin() + pw);
    Row crow(row.begin() + pw, row.begin() + pw + cw);
    auto pit = parent_index.find(prow);
    auto cit = child_index.find(crow);
    if (pit == parent_index.end() || cit == child_index.end()) continue;
    CoConnection c;
    c.parent = pit->second;
    c.child = cit->second;
    c.attrs.assign(std::make_move_iterator(row.begin() + pw + cw),
                   std::make_move_iterator(row.end()));
    rel.connections.push_back(std::move(c));
  }
  profile("inline", rel.connections.size());
  return rel;
}

std::optional<EquiKeys> Evaluator::AnalyzeEquiKeys(const CoRelDef& def,
                                                   const Schema& parent,
                                                   const Schema& child) {
  if (!def.using_table.empty() || def.parent_corr == def.child_corr) {
    return std::nullopt;
  }
  std::vector<const sql::Expr*> conjuncts;
  SplitConjuncts(def.predicate.get(), &conjuncts);
  EquiKeys keys;
  for (const sql::Expr* e : conjuncts) {
    if (e->kind != sql::Expr::Kind::kBinary || e->bin_op != sql::BinOp::kEq) {
      return std::nullopt;
    }
    const sql::Expr* pcol = e->args[0].get();
    const sql::Expr* ccol = e->args[1].get();
    auto is_col = [](const sql::Expr* c, const std::string& corr) {
      return c->kind == sql::Expr::Kind::kColumnRef &&
             ToLower(c->table) == corr;
    };
    if (!is_col(pcol, def.parent_corr)) std::swap(pcol, ccol);
    if (!is_col(pcol, def.parent_corr) || !is_col(ccol, def.child_corr)) {
      return std::nullopt;
    }
    auto pi = parent.Find(ToLower(pcol->column));
    auto ci = child.Find(ToLower(ccol->column));
    if (!pi.has_value() || !ci.has_value()) return std::nullopt;
    keys.parent_cols.push_back(static_cast<int>(*pi));
    keys.child_cols.push_back(static_cast<int>(*ci));
  }
  return keys;
}

void Evaluator::AnalyzeRelWrite(const CoRelDef& def, const Schema& parent,
                                const Schema& child, CoRelInstance* rel) {
  if (def.using_table.empty()) {
    // Foreign-key pattern: exactly one equality parent.a = child.b.
    std::optional<EquiKeys> keys = AnalyzeEquiKeys(def, parent, child);
    if (!keys.has_value() || keys->parent_cols.size() != 1) return;
    rel->write_kind = CoRelInstance::WriteKind::kForeignKey;
    rel->fk_parent_column = keys->parent_cols[0];
    rel->fk_child_column = keys->child_cols[0];
    return;
  }
  std::vector<const sql::Expr*> conjuncts;
  SplitConjuncts(def.predicate.get(), &conjuncts);

  auto classify = [&](const sql::Expr* e) -> int {
    // 0 = parent col, 1 = child col, 2 = using col, -1 = other.
    if (e->kind != sql::Expr::Kind::kColumnRef) return -1;
    std::string q = ToLower(e->table);
    if (q == def.parent_corr) return 0;
    if (q == def.child_corr) return 1;
    if (q == def.using_corr) return 2;
    return -1;
  };

  // Link-table pattern: parent.a = u.x AND child.b = u.y.
  TableInfo* link = catalog_->GetTable(def.using_table);
  if (link == nullptr || conjuncts.size() != 2) return;
  int parent_key = -1, child_key = -1, link_p = -1, link_c = -1;
  for (const sql::Expr* e : conjuncts) {
    if (e->kind != sql::Expr::Kind::kBinary || e->bin_op != sql::BinOp::kEq) {
      return;
    }
    int l = classify(e->args[0].get());
    int r = classify(e->args[1].get());
    const sql::Expr* node_col = nullptr;
    const sql::Expr* link_col = nullptr;
    int node_side = -1;
    if ((l == 0 || l == 1) && r == 2) {
      node_col = e->args[0].get();
      link_col = e->args[1].get();
      node_side = l;
    } else if ((r == 0 || r == 1) && l == 2) {
      node_col = e->args[1].get();
      link_col = e->args[0].get();
      node_side = r;
    } else {
      return;
    }
    auto li = link->schema.Find(ToLower(link_col->column));
    if (!li.has_value()) return;
    if (node_side == 0) {
      auto pi = parent.Find(ToLower(node_col->column));
      if (!pi.has_value()) return;
      parent_key = static_cast<int>(*pi);
      link_p = static_cast<int>(*li);
    } else {
      auto ci = child.Find(ToLower(node_col->column));
      if (!ci.has_value()) return;
      child_key = static_cast<int>(*ci);
      link_c = static_cast<int>(*li);
    }
  }
  if (parent_key < 0 || child_key < 0) return;
  rel->write_kind = CoRelInstance::WriteKind::kLinkTable;
  rel->link_table = def.using_table;
  rel->parent_key_column = parent_key;
  rel->child_key_column = child_key;
  rel->link_parent_column = link_p;
  rel->link_child_column = link_c;
  // Attribute provenance.
  for (const RelAttribute& a : def.attributes) {
    int col = -1;
    if (a.expr->kind == sql::Expr::Kind::kColumnRef &&
        ToLower(a.expr->table) == def.using_corr) {
      auto li = link->schema.Find(ToLower(a.expr->column));
      if (li.has_value()) col = static_cast<int>(*li);
    }
    rel->attr_link_columns.push_back(col);
  }
}

Result<CoInstance> Evaluator::Materialize(const CoPlan& plan) {
  CoInstance instance;
  temps_.clear();
  // A failed phase must not leave CSE temps behind: a later Run on the same
  // Evaluator would resolve "__co_" temp references against stale results
  // from the failed run. The guard clears them on every early (error)
  // return.
  struct TempsGuard {
    Evaluator* ev;
    ~TempsGuard() { ev->temps_.clear(); }
  } temps_guard{this};

  // Each derived query collects its counters in its own Stats, merged only
  // on success: a failed query must not leave its partial counters (temp
  // reuses, CSE hits) in the reported stats.

  // Phase 1: node candidates.
  {
    TraceScope span(trace_sink_, "materialize-nodes");
    for (size_t n = 0; n < plan.nodes.size(); ++n) {
      Stats query_stats;
      XNF_ASSIGN_OR_RETURN(CoNodeInstance node,
                           RunNode(plan, n, &query_stats));
      MergeStats(query_stats, &stats_);
      instance.nodes.push_back(std::move(node));
    }
  }

  // Phase 2: CSE temps (node rows + __tid) for the partners of edge
  // queries, projected as compiled.
  if (options_.use_cse) {
    TraceScope span(trace_sink_, "cse-temps");
    XNF_RETURN_IF_ERROR(plan.temps_error);
    for (const CoPlan::Temp& t : plan.temps) {
      const CoNodeInstance& node = instance.nodes[t.node];
      ResultSet temp;
      temp.schema = t.schema;
      temp.rows.reserve(node.tuples.size());
      for (size_t i = 0; i < node.tuples.size(); ++i) {
        Row row;
        row.reserve(t.projection.size() + 1);
        for (int c : t.projection) row.push_back(node.tuples[i][c]);
        row.push_back(Value::Int(static_cast<int64_t>(i)));
        temp.rows.push_back(std::move(row));
      }
      temps_["__co_" + node.name] = std::move(temp);
    }
  }

  // Phase 3: edges, over the now frozen nodes and temps.
  {
    TraceScope span(trace_sink_, "materialize-edges");
    for (size_t r = 0; r < plan.rels.size(); ++r) {
      Stats query_stats;
      XNF_ASSIGN_OR_RETURN(CoRelInstance rel,
                           RunRel(plan, r, instance, &query_stats));
      MergeStats(query_stats, &stats_);
      instance.rels.push_back(std::move(rel));
    }
  }
  temps_.clear();

  // Phase 4: reachability.
  if (options_.enforce_reachability) {
    TraceScope span(trace_sink_, "reachability");
    ApplyReachability(&instance);
    stats_.reachability_passes++;
  }
  return instance;
}

Result<CoInstance> Evaluator::Run(const CoPlan& plan,
                                  const std::vector<Value>& params) {
  params_ = &params;
  struct ParamsGuard {
    Evaluator* ev;
    ~ParamsGuard() { ev->params_ = nullptr; }
  } params_guard{this};
  XNF_ASSIGN_OR_RETURN(CoInstance instance, Materialize(plan));
  {
    TraceScope span(trace_sink_, "restrictions");
    XNF_RETURN_IF_ERROR(ApplyRestrictions(plan, &instance));
  }
  {
    TraceScope span(trace_sink_, "take");
    XNF_RETURN_IF_ERROR(ApplyTake(plan, &instance));
  }
  return instance;
}

Result<CoInstance> Evaluator::Evaluate(const XnfQuery& query) {
  XNF_ASSIGN_OR_RETURN(std::unique_ptr<CoPlan> plan, Compile(query));
  return Run(*plan, {});
}

Result<CoInstance> Evaluator::EvaluateText(const std::string& text) {
  XNF_ASSIGN_OR_RETURN(XnfQuery query, Parser::Parse(text));
  return Evaluate(query);
}

std::map<std::string, std::set<std::string>> Evaluator::ComputeTakePruning(
    const XnfQuery& query, const CoDef& def) {

  // A path expression or subquery in a restriction predicate can navigate
  // to (and read) any node; give up rather than enumerate what it touches.
  for (const Restriction& r : query.restrictions) {
    if (r.predicate != nullptr && ExprHasSubqueryOrPath(*r.predicate)) {
      return {};
    }
  }

  std::map<std::string, std::set<std::string>> needed;
  std::set<std::string> full;  // nodes that must decode every column

  // 1. The TAKE projection itself. `node(col, ...)` pins the listed
  // columns; `node` / `node(*)` keeps full width. A bare relationship item
  // adds nothing: its attributes come from the edge query (collected in
  // step 3), not from node tuples.
  for (const TakeItem& item : query.take) {
    int n = def.NodeIndex(item.name);
    if (n >= 0) {
      const std::string key = ToLower(def.nodes[n].name);
      if (item.has_column_list && !item.star_columns) {
        for (const std::string& c : item.columns) {
          needed[key].insert(ToLower(c));
        }
      } else {
        full.insert(key);
      }
      continue;
    }
    if (def.RelIndex(item.name) >= 0) continue;
    return {};  // unknown TAKE item: ApplyTake reports it; don't prune
  }

  // 2. Restriction predicates read node columns through the instance
  // evaluator. Node restrictions bind one correlation; edge restrictions
  // bind the two partners. Unrecognized qualifiers are conservatively full
  // width (bare columns in an edge restriction could hit either partner).
  for (const Restriction& r : query.restrictions) {
    if (r.kind == Restriction::Kind::kNode) {
      int n = def.NodeIndex(r.target);
      if (n < 0) return {};  // ApplyRestrictions reports it
      const std::string key = ToLower(def.nodes[n].name);
      const std::string corr =
          ToLower(r.corr.empty() ? def.nodes[n].name : r.corr);
      std::function<void(const sql::Expr&)> walk = [&](const sql::Expr& e) {
        if (e.kind == sql::Expr::Kind::kColumnRef) {
          std::string qual = ToLower(e.table);
          if (qual.empty() || qual == corr) {
            needed[key].insert(ToLower(e.column));
          } else {
            full.insert(key);
          }
        }
        for (const sql::ExprPtr& a : e.args) {
          if (a) walk(*a);
        }
      };
      walk(*r.predicate);
    } else {
      int ri = def.RelIndex(r.target);
      if (ri < 0) return {};
      const CoRelDef& rel = def.rels[ri];
      const std::string pkey = ToLower(rel.parent);
      const std::string ckey = ToLower(rel.child);
      const std::string pcorr = ToLower(r.parent_corr);
      const std::string ccorr = ToLower(r.child_corr);
      std::function<void(const sql::Expr&)> walk = [&](const sql::Expr& e) {
        if (e.kind == sql::Expr::Kind::kColumnRef) {
          std::string qual = ToLower(e.table);
          if (qual == pcorr) {
            needed[pkey].insert(ToLower(e.column));
          } else if (qual == ccorr) {
            needed[ckey].insert(ToLower(e.column));
          } else {
            full.insert(pkey);
            full.insert(ckey);
          }
        }
        for (const sql::ExprPtr& a : e.args) {
          if (a) walk(*a);
        }
      };
      walk(*r.predicate);
    }
  }

  // 3. Edge predicates and attributes read partner columns when building
  // the CSE temps (phase 2 narrows the temps with this same walk, so every
  // column the temps carry is marked here too).
  for (const CoRelDef& rel : def.rels) {
    if (rel.premade != nullptr) continue;
    const std::string pkey = ToLower(rel.parent);
    const std::string ckey = ToLower(rel.child);
    auto collect = [&](const sql::Expr& root) {
      if (ExprHasSubqueryOrPath(root)) {
        full.insert(pkey);
        full.insert(ckey);
        return;
      }
      std::function<void(const sql::Expr&)> walk = [&](const sql::Expr& e) {
        if (e.kind == sql::Expr::Kind::kColumnRef) {
          std::string qual = ToLower(e.table);
          if (qual == ToLower(rel.parent_corr)) {
            needed[pkey].insert(ToLower(e.column));
          } else if (qual == ToLower(rel.child_corr)) {
            needed[ckey].insert(ToLower(e.column));
          } else if (!rel.using_table.empty() &&
                     qual == ToLower(rel.using_corr)) {
            // link-table column: not a node column
          } else {
            full.insert(pkey);
            full.insert(ckey);
          }
        }
        for (const sql::ExprPtr& a : e.args) {
          if (a) walk(*a);
        }
      };
      walk(root);
    };
    if (rel.predicate != nullptr) collect(*rel.predicate);
    for (const RelAttribute& a : rel.attributes) collect(*a.expr);
  }

  std::map<std::string, std::set<std::string>> take_needed;
  for (const CoNodeDef& n : def.nodes) {
    const std::string key = ToLower(n.name);
    if (full.count(key) > 0) continue;  // absent entry = decode full width
    take_needed[key] = std::move(needed[key]);
  }
  return take_needed;
}

Status Evaluator::ApplyRestrictions(const CoPlan& plan, CoInstance* instance) {
  const std::vector<Restriction>& restrictions = plan.query->restrictions;
  if (restrictions.empty()) return Status::Ok();
  InstanceEvaluator eval(instance);
  exec::ExecContext exec_ctx;
  exec_ctx.catalog = catalog_;

  // All restrictions are evaluated simultaneously against the input
  // instance, then the pruned instance is re-checked for reachability.
  std::vector<std::vector<char>> keep(instance->nodes.size());
  for (size_t n = 0; n < instance->nodes.size(); ++n) {
    keep[n].assign(instance->nodes[n].tuples.size(), 1);
  }
  std::vector<std::vector<char>> keep_conn(instance->rels.size());
  for (size_t r = 0; r < instance->rels.size(); ++r) {
    keep_conn[r].assign(instance->rels[r].connections.size(), 1);
  }

  for (size_t i = 0; i < restrictions.size(); ++i) {
    const Restriction& restriction = restrictions[i];
    XNF_RETURN_IF_ERROR(plan.restriction_errors[i]);
    const qgm::Expr& pred = *plan.restrictions[i];
    exec::EvalContext ctx;
    ctx.exec = &exec_ctx;
    if (restriction.kind == Restriction::Kind::kNode) {
      const int n = plan.restriction_targets[i];
      std::string corr = ToLower(restriction.corr.empty()
                                     ? instance->nodes[n].name
                                     : restriction.corr);
      std::vector<int> tuples(instance->nodes[n].tuples.size());
      std::iota(tuples.begin(), tuples.end(), 0);
      XNF_ASSIGN_OR_RETURN(std::vector<Value> values,
                           eval.EvalOnTuples(pred, tuples, {{corr, n, -1}},
                                             &ctx));
      for (size_t t = 0; t < values.size(); ++t) {
        XNF_ASSIGN_OR_RETURN(bool ok, exec::PredicateOutcome(values[t]));
        if (!ok) keep[n][t] = 0;
      }
    } else {
      // One connection at a time, over the parent tuple followed by the
      // child tuple in a reused scratch row.
      const int r = plan.restriction_targets[i];
      const CoRelInstance& rel = instance->rels[r];
      const std::vector<Row>& parents = instance->nodes[rel.parent_node].tuples;
      const std::vector<Row>& children = instance->nodes[rel.child_node].tuples;
      std::vector<InstanceEvaluator::Binding> bindings = {
          {ToLower(restriction.parent_corr), rel.parent_node, -1},
          {ToLower(restriction.child_corr), rel.child_node, -1}};
      exec::PathHook hook = [&](const qgm::Expr& term) {
        return eval.EvalPathTerm(term, bindings);
      };
      Row scratch;
      ctx.row = &scratch;
      ctx.path_hook = &hook;
      for (size_t c = 0; c < rel.connections.size(); ++c) {
        const CoConnection& conn = rel.connections[c];
        scratch = parents[conn.parent];
        scratch.insert(scratch.end(), children[conn.child].begin(),
                       children[conn.child].end());
        bindings[0].tuple = conn.parent;
        bindings[1].tuple = conn.child;
        XNF_ASSIGN_OR_RETURN(bool ok, exec::EvalPredicate(pred, &ctx));
        if (!ok) keep_conn[r][c] = 0;
      }
    }
    stats_.restrictions_applied++;
  }

  // Drop failing connections first, then failing tuples (pruning tuples also
  // removes their incident connections).
  for (size_t r = 0; r < instance->rels.size(); ++r) {
    CoRelInstance& rel = instance->rels[r];
    std::vector<CoConnection> kept;
    for (size_t c = 0; c < rel.connections.size(); ++c) {
      if (keep_conn[r][c]) kept.push_back(std::move(rel.connections[c]));
    }
    rel.connections = std::move(kept);
  }
  PruneInstance(instance, keep);

  if (options_.enforce_reachability) {
    ApplyReachability(instance);
    stats_.reachability_passes++;
  }
  return Status::Ok();
}

Status Evaluator::ApplyTake(const CoPlan& plan, CoInstance* instance) {
  if (plan.query->take_all) return Status::Ok();
  XNF_RETURN_IF_ERROR(plan.take_error);
  const std::vector<char>& keep_node = plan.take_node;
  const std::vector<char>& keep_rel = plan.take_rel;

  // Rebuild the instance with surviving components. Column projection also
  // remaps every relationship's write-provenance column indices; a key
  // column projected away demotes the relationship to read-only.
  CoInstance projected;
  std::vector<int> node_remap(instance->nodes.size(), -1);
  // Per original node: old column index -> new column index (-1 = dropped);
  // empty = identity.
  std::vector<std::vector<int>> column_remap(instance->nodes.size());
  for (size_t n = 0; n < instance->nodes.size(); ++n) {
    if (!keep_node[n]) continue;
    node_remap[n] = static_cast<int>(projected.nodes.size());
    CoNodeInstance node = std::move(instance->nodes[n]);
    // Column projection.
    if (plan.take_columns[n].has_value()) {
      const std::vector<size_t>& cols = *plan.take_columns[n];
      Schema schema;
      std::vector<int> base_map;
      column_remap[n].assign(node.schema.size(), -1);
      for (size_t k = 0; k < cols.size(); ++k) {
        const size_t i = cols[k];
        column_remap[n][i] = static_cast<int>(k);
        schema.AddColumn(node.schema.column(i));
        if (!node.base_column_map.empty()) {
          base_map.push_back(node.base_column_map[i]);
        }
      }
      for (Row& row : node.tuples) {
        Row out;
        out.reserve(cols.size());
        for (size_t i : cols) out.push_back(std::move(row[i]));
        row = std::move(out);
      }
      node.schema = schema;
      node.base_column_map = base_map;
    }
    projected.nodes.push_back(std::move(node));
  }
  for (size_t r = 0; r < instance->rels.size(); ++r) {
    if (!keep_rel[r]) continue;
    CoRelInstance rel = std::move(instance->rels[r]);
    int old_parent = rel.parent_node;
    int old_child = rel.child_node;
    rel.parent_node = node_remap[old_parent];
    rel.child_node = node_remap[old_child];
    // Remap write-provenance columns through the nodes' projections.
    auto remap_col = [&](int old_node, int col) {
      if (col < 0 || column_remap[old_node].empty()) return col;
      return column_remap[old_node][col];
    };
    switch (rel.write_kind) {
      case CoRelInstance::WriteKind::kForeignKey:
        rel.fk_parent_column = remap_col(old_parent, rel.fk_parent_column);
        rel.fk_child_column = remap_col(old_child, rel.fk_child_column);
        if (rel.fk_parent_column < 0 || rel.fk_child_column < 0) {
          rel.write_kind = CoRelInstance::WriteKind::kNone;
        }
        break;
      case CoRelInstance::WriteKind::kLinkTable:
        rel.parent_key_column = remap_col(old_parent, rel.parent_key_column);
        rel.child_key_column = remap_col(old_child, rel.child_key_column);
        if (rel.parent_key_column < 0 || rel.child_key_column < 0) {
          rel.write_kind = CoRelInstance::WriteKind::kNone;
        }
        break;
      case CoRelInstance::WriteKind::kNone:
        break;
    }
    projected.rels.push_back(std::move(rel));
  }
  *instance = std::move(projected);

  if (options_.enforce_reachability) {
    ApplyReachability(instance);
    stats_.reachability_passes++;
  }
  return Status::Ok();
}

}  // namespace xnf::co
