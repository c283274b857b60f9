#include "xnf/evaluator.h"

#include <chrono>
#include <functional>
#include <set>
#include <unordered_map>
#include <utility>

#include "catalog/mvcc.h"
#include "common/failpoint.h"
#include "common/str_util.h"
#include "exec/eval.h"
#include "exec/operators.h"
#include "exec/parallel.h"
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

bool ExprContainsPath(const sql::Expr& e) {
  if (e.kind == sql::Expr::Kind::kPath ||
      e.kind == sql::Expr::Kind::kExistsPath) {
    return true;
  }
  for (const sql::ExprPtr& a : e.args) {
    if (a && ExprContainsPath(*a)) return true;
  }
  if (e.subquery) return false;  // paths cannot appear inside SQL subqueries
  return false;
}

bool ExprContainsSubqueryOrAgg(const sql::Expr& e) {
  using K = sql::Expr::Kind;
  if (e.kind == K::kInSubquery || e.kind == K::kExistsSubquery ||
      e.kind == K::kScalarSubquery) {
    return true;
  }
  if (e.kind == K::kFuncCall) {
    std::string n = ToLower(e.column);
    if (n == "count" || n == "sum" || n == "avg" || n == "min" || n == "max") {
      return true;
    }
  }
  for (const sql::ExprPtr& a : e.args) {
    if (a && ExprContainsSubqueryOrAgg(*a)) return true;
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
      (ExprContainsSubqueryOrAgg(*q.where) || ExprContainsPath(*q.where))) {
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

// True if the expression contains a subquery or an XNF path expression:
// either can read columns the plain column-reference walk cannot see, so
// TAKE pruning must give up on the affected nodes.
bool ExprHasSubqueryOrPath(const sql::Expr& e) {
  if (e.subquery != nullptr || e.path != nullptr) return true;
  for (const sql::ExprPtr& a : e.args) {
    if (a && ExprHasSubqueryOrPath(*a)) return true;
  }
  return false;
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
  XNF_ASSIGN_OR_RETURN(ResultSet rs,
                       plan::Execute(catalog_, graph, trace_sink_));
  stats->rows_produced += rs.stats.rows_produced;
  stats->batches_produced += rs.stats.batches_produced;
  return rs;
}

Result<CoNodeInstance> Evaluator::MaterializeNode(const CoNodeDef& def,
                                                  Stats* stats) {
  XNF_FAILPOINT("xnf.node.query");
  CoNodeInstance node;
  node.name = def.name;
  const uint64_t start_ns = NowNs();
  auto profile = [&](const char* access, size_t rows) {
    stats->profiles.push_back({QueryProfile::Kind::kNode, def.name, access,
                               rows, NowNs() - start_ns});
  };

  // Pre-materialized component imported from a restricted view reference.
  if (def.premade != nullptr) {
    profile("premade", def.premade->tuples.size());
    return *def.premade;
  }

  SimpleNodeInfo simple = AnalyzeSimpleNode(def, *catalog_);
  if (simple.simple) {
    TableInfo* table = catalog_->GetTable(simple.base_table);
    // Compile the predicate over the base schema.
    qgm::ExprPtr pred;
    if (simple.predicate != nullptr) {
      qgm::Builder builder(catalog_);
      XNF_ASSIGN_OR_RETURN(
          qgm::ExprPtr built,
          builder.BuildScalar(*simple.predicate, table->schema, simple.alias));
      std::vector<size_t> offsets = {0};
      XNF_ASSIGN_OR_RETURN(pred, plan::CompileExpr(*built, offsets));
    }
    // Output schema and base column map.
    if (simple.select_star) {
      for (size_t i = 0; i < table->schema.size(); ++i) {
        Column c = table->schema.column(i);
        c.table = def.name;
        node.schema.AddColumn(c);
        node.base_column_map.push_back(static_cast<int>(i));
      }
    } else {
      for (size_t i = 0; i < simple.columns.size(); ++i) {
        XNF_ASSIGN_OR_RETURN(size_t b,
                             table->schema.Resolve("", simple.columns[i]));
        Column c = table->schema.column(b);
        c.name = simple.out_names[i];
        c.table = def.name;
        node.schema.AddColumn(c);
        node.base_column_map.push_back(static_cast<int>(b));
      }
    }
    node.base_table = simple.base_table;

    exec::ExecContext exec_ctx;
    exec_ctx.catalog = catalog_;

    auto emit = [&](Rid rid, const Row& row) {
      Row& out = node.tuples.emplace_back();
      out.reserve(node.base_column_map.size());
      for (int b : node.base_column_map) out.push_back(row[b]);
      node.rids.push_back(rid);
    };

    // Fast extraction (§4 "fast extraction of data"): an equality conjunct
    // on an indexed column turns the candidate scan into an index lookup —
    // this is what makes 1-in-10000 working-set extraction cheap. The
    // lookup merges the snapshot's overlay, so concurrent writers on the
    // table do not take the index away.
    Index* index = nullptr;
    Value index_key;
    const qgm::Expr* index_conjunct = nullptr;
    size_t index_column = 0;
    if (pred != nullptr) {
      std::function<void(const qgm::Expr&)> find =
          [&](const qgm::Expr& e) {
            if (index != nullptr) return;
            if (e.kind == qgm::Expr::Kind::kBinary &&
                e.bin_op == sql::BinOp::kAnd) {
              find(*e.args[0]);
              find(*e.args[1]);
              return;
            }
            if (e.kind != qgm::Expr::Kind::kBinary ||
                e.bin_op != sql::BinOp::kEq) {
              return;
            }
            const qgm::Expr* col = e.args[0].get();
            const qgm::Expr* lit = e.args[1].get();
            if (col->kind != qgm::Expr::Kind::kInputRef) std::swap(col, lit);
            if (col->kind != qgm::Expr::Kind::kInputRef ||
                lit->kind != qgm::Expr::Kind::kLiteral) {
              return;
            }
            Index* idx =
                table->FindIndexOn({static_cast<size_t>(col->slot)});
            if (idx != nullptr) {
              index = idx;
              index_key = lit->literal;
              index_conjunct = &e;
              index_column = static_cast<size_t>(col->slot);
            }
          };
      find(*pred);
    }
    Status status = Status::Ok();
    auto check = [&](const Row& row) -> bool {
      if (pred == nullptr) return true;
      exec::EvalContext ectx;
      ectx.row = &row;
      ectx.exec = &exec_ctx;
      auto keep = exec::EvalPredicate(*pred, &ectx);
      if (!keep.ok()) {
        status = keep.status();
        return false;
      }
      return *keep;
    };

    if (index != nullptr) {
      // Every hit satisfies the conjunct the index answered; when that
      // conjunct is the whole predicate and needs no coercion, skip the
      // per-row re-check.
      const bool exact =
          index_conjunct == pred.get() &&
          index_key.type() == table->schema.column(index_column).type;
      XNF_RETURN_IF_ERROR(LookupVisible(
          *table, *index, OverlayFor(catalog_->txn_manager(), *table),
          {index_key}, [&](Rid rid, const Row& row) {
            if (!exact && !check(row)) return status.ok();
            emit(rid, row);
            return true;
          }));
    } else {
      // Candidate scan: morsel-parallel when an executor pool is attached,
      // serial otherwise; output order matches the heap scan either way.
      // Columnar tables only decode the columns the node emits — and under
      // an analyzed TAKE list, only the emitted columns something after the
      // scan actually reads; the rest surface as NULL placeholders that
      // ApplyTake projects away. Heap tables ignore the bitmap.
      std::vector<char> referenced(table->schema.size(), 0);
      const std::set<std::string>* take_cols = nullptr;
      if (take_pruning_) {
        auto it = take_needed_.find(ToLower(def.name));
        if (it != take_needed_.end()) take_cols = &it->second;
      }
      for (size_t c = 0; c < node.base_column_map.size(); ++c) {
        if (take_cols != nullptr &&
            take_cols->count(ToLower(node.schema.column(c).name)) == 0) {
          continue;
        }
        referenced[node.base_column_map[c]] = 1;
      }
      if (pred != nullptr) MarkExprSlots(*pred, &referenced);
      std::vector<qgm::ExprPtr> filters;
      if (pred != nullptr) filters.push_back(std::move(pred));
      std::vector<Row> rows;
      std::vector<Rid> rids;
      exec::ScanStats scan_stats;
      XNF_RETURN_IF_ERROR(exec::ParallelFilterScan(
          *table, filters, &referenced, &exec_ctx, &rows,
          &rids, &scan_stats));
      stats->scan_columns_decoded += scan_stats.columns_decoded;
      stats->scan_columns_skipped += scan_stats.columns_skipped;
      for (size_t i = 0; i < rows.size(); ++i) emit(rids[i], rows[i]);
    }
    XNF_RETURN_IF_ERROR(status);
    stats->node_queries++;
    profile(index != nullptr ? "index" : "scan", node.tuples.size());
    return node;
  }

  // General path: run the defining query through the engine.
  if (def.query == nullptr) {
    return Status::NotFound("table '" + def.table + "' not found for node '" +
                            def.name + "'");
  }
  XNF_ASSIGN_OR_RETURN(ResultSet rs, RunSelect(*def.query, stats));
  stats->node_queries++;
  node.schema = rs.schema.WithQualifier(def.name);
  node.tuples = std::move(rs.rows);
  profile("query", node.tuples.size());
  return node;
}

Result<CoRelInstance> Evaluator::MaterializeRel(const CoRelDef& def,
                                                const CoInstance& instance,
                                                const EquiKeys* node_join,
                                                Stats* stats) {
  XNF_FAILPOINT("xnf.edge.query");
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
  // Either way the edge reuses both node results instead of recomputing
  // them.
  stats->edge_queries++;
  stats->temp_reuses += 2;
  stats->cse_hits += 2;

  if (node_join != nullptr) {
    // §4.3 taken literally: the parent and child tuples just produced are
    // joined again on the key columns, in the order of the temp join's
    // left-deep plan, where the parent temp probes (see NodeJoin). A NULL
    // key component never matches.
    rel.connections = NodeJoin(instance.nodes[rel.parent_node].tuples,
                               node_join->parent_cols,
                               instance.nodes[rel.child_node].tuples,
                               node_join->child_cols);
    profile("node-join", rel.connections.size());
    return rel;
  }

  // Attribute schema.
  for (const RelAttribute& a : def.attributes) {
    rel.attr_schema.AddColumn(Column(a.name, Type::kNull));
  }

  // Build the edge query.
  auto stmt = std::make_unique<sql::SelectStmt>();
  auto add_from = [&](const std::string& source, const std::string& alias,
                      bool is_temp) {
    auto ref = std::make_unique<sql::TableRef>();
    ref->kind = sql::TableRef::Kind::kNamed;
    ref->name = is_temp ? "__co_" + source : source;
    ref->alias = alias;
    stmt->from.push_back(std::move(ref));
  };

  // Temps carry a __tid column identifying the candidate tuple.
  add_from(def.parent, def.parent_corr, /*is_temp=*/true);
  add_from(def.child, def.child_corr, /*is_temp=*/true);
  sql::SelectItem ptid;
  ptid.expr = sql::Expr::ColRef(def.parent_corr, kTidColumn);
  ptid.alias = "__ptid";
  stmt->items.push_back(std::move(ptid));
  sql::SelectItem ctid;
  ctid.expr = sql::Expr::ColRef(def.child_corr, kTidColumn);
  ctid.alias = "__ctid";
  stmt->items.push_back(std::move(ctid));

  if (!def.using_table.empty()) {
    add_from(def.using_table, def.using_corr, /*is_temp=*/false);
  }
  for (const RelAttribute& a : def.attributes) {
    sql::SelectItem item;
    item.expr = a.expr->Clone();
    item.alias = a.name;
    stmt->items.push_back(std::move(item));
  }
  stmt->where = def.predicate->Clone();

  XNF_ASSIGN_OR_RETURN(ResultSet rs, RunSelect(*stmt, stats));

  // Fill attribute types from the result schema.
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

Result<CoRelInstance> Evaluator::MaterializeRelNoCse(const CoRelDef& def,
                                                     const CoInstance& instance,
                                                     Stats* stats) {
  XNF_FAILPOINT("xnf.edge.query");
  CoRelInstance rel;
  rel.name = def.name;
  rel.parent_node = instance.NodeIndex(def.parent);
  rel.child_node = instance.NodeIndex(def.child);
  const uint64_t start_ns = NowNs();
  const CoNodeInstance& parent = instance.nodes[rel.parent_node];
  const CoNodeInstance& child = instance.nodes[rel.child_node];
  for (const RelAttribute& a : def.attributes) {
    rel.attr_schema.AddColumn(Column(a.name, Type::kNull));
  }

  // Edge query with the node queries recomputed inline.
  const CoDef* def_holder = nullptr;
  (void)def_holder;
  auto stmt = std::make_unique<sql::SelectStmt>();
  auto add_inline = [&](const std::string& node_name,
                        const std::string& alias) -> Status {
    // Find the node definition by name through the instance order: the
    // evaluator materializes nodes in definition order, so reconstruct from
    // the defining query stored when materializing. We keep a copy in
    // no_cse_defs_.
    auto it = no_cse_defs_.find(node_name);
    if (it == no_cse_defs_.end()) {
      return Status::Internal("missing node definition for '" + node_name +
                              "'");
    }
    auto ref = std::make_unique<sql::TableRef>();
    if (it->second.query != nullptr) {
      ref->kind = sql::TableRef::Kind::kSubquery;
      ref->subquery = it->second.query->Clone();
    } else {
      ref->kind = sql::TableRef::Kind::kNamed;
      ref->name = it->second.table;
    }
    ref->alias = alias;
    stmt->from.push_back(std::move(ref));
    return Status::Ok();
  };
  XNF_RETURN_IF_ERROR(add_inline(def.parent, def.parent_corr));
  XNF_RETURN_IF_ERROR(add_inline(def.child, def.child_corr));
  if (!def.using_table.empty()) {
    auto ref = std::make_unique<sql::TableRef>();
    ref->kind = sql::TableRef::Kind::kNamed;
    ref->name = def.using_table;
    ref->alias = def.using_corr;
    stmt->from.push_back(std::move(ref));
  }
  sql::SelectItem pstar;
  pstar.star = true;
  pstar.star_table = def.parent_corr;
  stmt->items.push_back(std::move(pstar));
  sql::SelectItem cstar;
  cstar.star = true;
  cstar.star_table = def.child_corr;
  stmt->items.push_back(std::move(cstar));
  for (const RelAttribute& a : def.attributes) {
    sql::SelectItem item;
    item.expr = a.expr->Clone();
    item.alias = a.name;
    stmt->items.push_back(std::move(item));
  }
  stmt->where = def.predicate->Clone();

  XNF_ASSIGN_OR_RETURN(ResultSet rs, RunSelect(*stmt, stats));
  stats->edge_queries++;
  // These two extra executions of the node queries are what CSE avoids.
  stats->node_queries += 2;
  stats->cse_misses += 2;

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
  stats->profiles.push_back({QueryProfile::Kind::kEdge, def.name, "inline",
                             rel.connections.size(), NowNs() - start_ns});
  return rel;
}

std::optional<Evaluator::EquiKeys> Evaluator::AnalyzeEquiKeys(
    const CoRelDef& def, const CoNodeInstance& parent,
    const CoNodeInstance& child) {
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
    auto pi = parent.schema.Find(ToLower(pcol->column));
    auto ci = child.schema.Find(ToLower(ccol->column));
    if (!pi.has_value() || !ci.has_value()) return std::nullopt;
    keys.parent_cols.push_back(static_cast<int>(*pi));
    keys.child_cols.push_back(static_cast<int>(*ci));
  }
  return keys;
}

void Evaluator::AnalyzeRelWrite(const CoRelDef& def,
                                const CoInstance& instance,
                                CoRelInstance* rel) {
  const CoNodeInstance& parent = instance.nodes[rel->parent_node];
  const CoNodeInstance& child = instance.nodes[rel->child_node];

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
      auto pi = parent.schema.Find(ToLower(node_col->column));
      if (!pi.has_value()) return;
      parent_key = static_cast<int>(*pi);
      link_p = static_cast<int>(*li);
    } else {
      auto ci = child.schema.Find(ToLower(node_col->column));
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

Result<CoInstance> Evaluator::Materialize(const CoDef& def) {
  CoInstance instance;
  temps_.clear();
  no_cse_defs_.clear();

  // A failed phase must not leave CSE temps or node definitions behind:
  // a later Evaluate() on the same Evaluator would resolve "__co_" temp
  // references against stale results from the failed run. The guard clears
  // both on every early (error) return and is dismissed on success.
  struct TempsGuard {
    Evaluator* ev;
    bool dismissed = false;
    ~TempsGuard() {
      if (!dismissed) {
        ev->temps_.clear();
        ev->no_cse_defs_.clear();
      }
    }
  } temps_guard{this};

  // Each derived query collects its counters in its own Stats, merged only
  // on success: a failed query must not leave its partial counters (temp
  // reuses, CSE hits) in the reported stats.

  // Phase 1: node candidates.
  {
    TraceScope span(trace_sink_, "materialize-nodes");
    for (const CoNodeDef& node_def : def.nodes) {
      Stats query_stats;
      XNF_ASSIGN_OR_RETURN(CoNodeInstance node,
                           MaterializeNode(node_def, &query_stats));
      MergeStats(query_stats, &stats_);
      instance.nodes.push_back(std::move(node));
    }
    if (!options_.use_cse) {
      for (const CoNodeDef& node_def : def.nodes) {
        no_cse_defs_.emplace(node_def.name, node_def.Clone());
      }
    }
  }

  // Edge path per relationship (CSE only; the no-CSE baseline always runs
  // its inline query). A predicate of the 1:n foreign-key shape — only
  // `parent.col = child.col` equalities, no USING table, no attributes, key
  // columns of one type or both numeric — is a node join: its connections
  // are hashed out of the node results directly. Everything else (link
  // tables, theta and cross predicates, residual conjuncts, subqueries,
  // paths, bare columns) runs as an edge query over the CSE temps.
  std::vector<std::optional<EquiKeys>> node_join(def.rels.size());
  for (size_t i = 0; options_.use_cse && i < def.rels.size(); ++i) {
    const CoRelDef& rel = def.rels[i];
    const int p = instance.NodeIndex(rel.parent);
    const int c = instance.NodeIndex(rel.child);
    if (rel.premade != nullptr || !rel.attributes.empty() || p < 0 || c < 0) {
      continue;
    }
    const CoNodeInstance& parent = instance.nodes[p];
    const CoNodeInstance& child = instance.nodes[c];
    std::optional<EquiKeys> keys = AnalyzeEquiKeys(rel, parent, child);
    if (!keys.has_value()) continue;
    bool comparable = true;
    for (size_t k = 0; k < keys->parent_cols.size(); ++k) {
      comparable &= KeyTypesComparable(
          parent.schema.column(keys->parent_cols[k]).type,
          child.schema.column(keys->child_cols[k]).type);
    }
    if (comparable) node_join[i] = std::move(keys);
  }

  // Phase 2: register CSE temps (node rows + __tid) for the partners of
  // edge queries. Temps are narrowed to the columns the relationship
  // predicates and attributes actually reference, so the edge joins never
  // copy full-width tuples.
  if (options_.use_cse) {
    TraceScope span(trace_sink_, "cse-temps");
    // Partner node -> columns its edge queries read.
    std::map<std::string, std::set<std::string>> used_columns;
    std::set<std::string> full_width;  // nodes needing all columns
    for (size_t i = 0; i < def.rels.size(); ++i) {
      const CoRelDef& rel = def.rels[i];
      // Premade edges have no predicate to analyze; node joins read the
      // node results, not temps.
      if (rel.premade != nullptr || node_join[i].has_value()) continue;
      used_columns[rel.parent];
      used_columns[rel.child];
      auto collect = [&](const sql::Expr& root) {
        std::function<void(const sql::Expr&)> walk =
            [&](const sql::Expr& e) {
              if (e.kind == sql::Expr::Kind::kColumnRef) {
                std::string qual = ToLower(e.table);
                if (qual == rel.parent_corr) {
                  used_columns[rel.parent].insert(ToLower(e.column));
                } else if (qual == rel.child_corr) {
                  used_columns[rel.child].insert(ToLower(e.column));
                } else if (!rel.using_table.empty() &&
                           qual == rel.using_corr) {
                  // link-table column: not part of a node temp
                } else {
                  // Bare or unknown qualifier: be conservative.
                  full_width.insert(rel.parent);
                  full_width.insert(rel.child);
                }
              }
              for (const sql::ExprPtr& a : e.args) {
                if (a) walk(*a);
              }
            };
        walk(root);
      };
      collect(*rel.predicate);
      for (const RelAttribute& a : rel.attributes) collect(*a.expr);
    }
    for (const CoNodeInstance& node : instance.nodes) {
      if (used_columns.count(node.name) == 0) continue;
      ResultSet temp;
      std::vector<int> projection;  // node column indices in the temp
      bool full = full_width.count(node.name) > 0;
      if (full) {
        temp.schema = node.schema;
        for (size_t c = 0; c < node.schema.size(); ++c) {
          projection.push_back(static_cast<int>(c));
        }
      } else {
        for (const std::string& col : used_columns[node.name]) {
          auto idx = node.schema.Find(col);
          if (!idx.has_value()) {
            return Status::NotFound("column '" + col +
                                    "' not found in component table '" +
                                    node.name + "'");
          }
          projection.push_back(static_cast<int>(*idx));
          temp.schema.AddColumn(node.schema.column(*idx));
        }
      }
      temp.schema.AddColumn(Column(kTidColumn, Type::kInt));
      temp.rows.reserve(node.tuples.size());
      for (size_t t = 0; t < node.tuples.size(); ++t) {
        Row row;
        row.reserve(projection.size() + 1);
        for (int c : projection) row.push_back(node.tuples[t][c]);
        row.push_back(Value::Int(static_cast<int64_t>(t)));
        temp.rows.push_back(std::move(row));
      }
      temps_["__co_" + node.name] = std::move(temp);
    }
  }

  // Phase 3: edges, over the now frozen nodes and temps.
  {
    TraceScope span(trace_sink_, "materialize-edges");
    for (size_t i = 0; i < def.rels.size(); ++i) {
      const CoRelDef& rel_def = def.rels[i];
      Stats query_stats;
      CoRelInstance rel;
      if (rel_def.premade != nullptr || options_.use_cse) {
        XNF_ASSIGN_OR_RETURN(
            rel, MaterializeRel(rel_def, instance,
                                node_join[i] ? &*node_join[i] : nullptr,
                                &query_stats));
      } else {
        XNF_ASSIGN_OR_RETURN(
            rel, MaterializeRelNoCse(rel_def, instance, &query_stats));
      }
      if (rel_def.premade == nullptr) {
        AnalyzeRelWrite(rel_def, instance, &rel);
      }
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
  temps_guard.dismissed = true;
  return instance;
}

Result<CoInstance> Evaluator::EvaluateText(const std::string& text) {
  XNF_ASSIGN_OR_RETURN(XnfQuery query, Parser::Parse(text));
  return Evaluate(query);
}

Result<CoInstance> Evaluator::Evaluate(const XnfQuery& query) {
  // Referenced views with restrictions / partial TAKE are evaluated
  // recursively and imported as premade components (full closure, Fig. 6).
  Resolver resolver(catalog_, [this](const XnfQuery& sub) {
    Evaluator nested(catalog_, options_);
    nested.set_trace_sink(trace_sink_);
    Result<CoInstance> out = nested.Evaluate(sub);
    MergeStats(nested.stats(), &stats_);
    return out;
  });
  XNF_ASSIGN_OR_RETURN(CoDef def, [&]() -> Result<CoDef> {
    TraceScope span(trace_sink_, "resolve");
    return resolver.Resolve(query);
  }());
  // TAKE-driven column pruning. Gated on CSE because the no-CSE edge path
  // matches node tuples by full-row value, which a NULL placeholder would
  // corrupt. kDelete/kUpdate act on base rows through rids and need full
  // tuples in the returned instance.
  take_needed_.clear();
  take_pruning_ = false;
  if (query.action == XnfQuery::Action::kTake && !query.take_all &&
      options_.use_cse) {
    ComputeTakePruning(query, def);
  }
  XNF_ASSIGN_OR_RETURN(CoInstance instance, Materialize(def));
  {
    TraceScope span(trace_sink_, "restrictions");
    XNF_RETURN_IF_ERROR(ApplyRestrictions(query.restrictions, &instance));
  }
  {
    TraceScope span(trace_sink_, "take");
    XNF_RETURN_IF_ERROR(ApplyTake(query, &instance));
  }
  return instance;
}

void Evaluator::ComputeTakePruning(const XnfQuery& query, const CoDef& def) {
  take_needed_.clear();
  take_pruning_ = false;

  // A path expression or subquery in a restriction predicate can navigate
  // to (and read) any node; give up rather than enumerate what it touches.
  for (const Restriction& r : query.restrictions) {
    if (r.predicate != nullptr && ExprHasSubqueryOrPath(*r.predicate)) return;
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
    return;  // unknown TAKE item: ApplyTake reports it; don't prune
  }

  // 2. Restriction predicates read node columns through the instance
  // evaluator. Node restrictions bind one correlation; edge restrictions
  // bind the two partners. Unrecognized qualifiers are conservatively full
  // width (bare columns in an edge restriction could hit either partner).
  for (const Restriction& r : query.restrictions) {
    if (r.kind == Restriction::Kind::kNode) {
      int n = def.NodeIndex(r.target);
      if (n < 0) return;  // ApplyRestrictions reports it
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
      if (ri < 0) return;
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

  for (const CoNodeDef& n : def.nodes) {
    const std::string key = ToLower(n.name);
    if (full.count(key) > 0) continue;  // absent entry = decode full width
    take_needed_[key] = std::move(needed[key]);
  }
  take_pruning_ = !take_needed_.empty();
}

Status Evaluator::ApplyRestrictions(
    const std::vector<Restriction>& restrictions, CoInstance* instance) {
  if (restrictions.empty()) return Status::Ok();
  InstanceEvaluator eval(instance);

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

  for (const Restriction& restriction : restrictions) {
    if (restriction.kind == Restriction::Kind::kNode) {
      int n = instance->NodeIndex(restriction.target);
      if (n < 0) {
        return Status::NotFound("restricted component table '" +
                                restriction.target + "' not found");
      }
      std::string corr = restriction.corr.empty() ? instance->nodes[n].name
                                                  : restriction.corr;
      for (size_t t = 0; t < instance->nodes[n].tuples.size(); ++t) {
        std::vector<InstanceEvaluator::Binding> bindings = {
            {corr, n, static_cast<int>(t)}};
        XNF_ASSIGN_OR_RETURN(
            bool ok, eval.EvalPredicate(*restriction.predicate, bindings));
        if (!ok) keep[n][t] = 0;
      }
    } else {
      int r = instance->RelIndex(restriction.target);
      if (r < 0) {
        return Status::NotFound("restricted relationship '" +
                                restriction.target + "' not found");
      }
      const CoRelInstance& rel = instance->rels[r];
      for (size_t c = 0; c < rel.connections.size(); ++c) {
        const CoConnection& conn = rel.connections[c];
        std::vector<InstanceEvaluator::Binding> bindings = {
            {restriction.parent_corr, rel.parent_node, conn.parent},
            {restriction.child_corr, rel.child_node, conn.child}};
        XNF_ASSIGN_OR_RETURN(
            bool ok, eval.EvalPredicate(*restriction.predicate, bindings));
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

Status Evaluator::ApplyTake(const XnfQuery& query, CoInstance* instance) {
  if (query.take_all) return Status::Ok();

  // Which components survive.
  std::vector<char> keep_node(instance->nodes.size(), 0);
  std::vector<char> keep_rel(instance->rels.size(), 0);
  std::vector<const TakeItem*> node_items(instance->nodes.size(), nullptr);
  for (const TakeItem& item : query.take) {
    int n = instance->NodeIndex(item.name);
    if (n >= 0) {
      keep_node[n] = 1;
      node_items[n] = &item;
      continue;
    }
    int r = instance->RelIndex(item.name);
    if (r >= 0) {
      if (item.has_column_list && !item.star_columns) {
        return Status::InvalidArgument(
            "column projection on relationship '" + item.name +
            "' is not meaningful");
      }
      keep_rel[r] = 1;
      continue;
    }
    return Status::NotFound("TAKE item '" + item.name +
                            "' is not a component of this CO");
  }

  // Well-formedness: a relationship survives only if both partners do.
  for (size_t r = 0; r < instance->rels.size(); ++r) {
    if (!keep_rel[r]) continue;
    if (!keep_node[instance->rels[r].parent_node] ||
        !keep_node[instance->rels[r].child_node]) {
      keep_rel[r] = 0;  // implicit discard (§3.3)
    }
  }

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
    const TakeItem* item = node_items[n];
    if (item != nullptr && item->has_column_list && !item->star_columns) {
      std::vector<size_t> cols;
      Schema schema;
      std::vector<int> base_map;
      column_remap[n].assign(node.schema.size(), -1);
      for (const std::string& c : item->columns) {
        XNF_ASSIGN_OR_RETURN(size_t i, node.schema.Resolve("", c));
        column_remap[n][i] = static_cast<int>(cols.size());
        cols.push_back(i);
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
