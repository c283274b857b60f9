// Composite-object pipeline of the reference interpreter.
//
// Mirrors the engine's XNF stack naively: xnf/co_def.cc resolution (view
// splicing, premade import of restricted views), xnf/evaluator.cc
// materialization (simple-node analysis with base-table provenance, edge
// joins as nested loops over candidate tuples), xnf/instance.cc
// reachability, restriction and TAKE application, and the CO-level
// UPDATE/DELETE write-through of api/database.cc + xnf/manipulate.cc. The
// engine runs edge predicates through its full SQL pipeline; the reference
// evaluates them as nested loops with the same SQL dialect semantics, so
// connection sets agree without sharing any executor code.
//
// Ordering note: node tuple order differs between the engines' access paths
// (index lookup vs heap scan) and the reference; every comparison is
// content-based (canonical CO rendering sorts tuples and connections) and
// every write-through effect is order-independent for the generated grammar
// (CO UPDATE assignments are precomputed against the pre-update instance;
// link rows deleted by first-match carry only their key columns).

#include <algorithm>
#include <deque>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/schema.h"
#include "common/status.h"
#include "common/str_util.h"
#include "common/value.h"
#include "sql/ast.h"
#include "testing/reference_internal.h"
#include "xnf/ast.h"
#include "xnf/parser.h"

namespace xnf::testing::refi {
namespace {

using sql::Expr;
using K = sql::Expr::Kind;
using co::OutOfItem;
using co::Restriction;
using co::TakeItem;
using co::XnfQuery;

// ------------------------------------------------------ resolved definition

struct RNodeDef {
  std::string name;                        // lowercase
  const sql::SelectStmt* query = nullptr;  // kNodeQuery
  std::string table;                       // kNodeTable (lowercase)
  const RefNode* premade = nullptr;
};

struct RRelDef {
  std::string name;
  std::string parent;
  std::string child;
  std::string parent_corr;
  std::string child_corr;
  std::vector<std::pair<const Expr*, std::string>> attributes;
  std::string using_table;
  std::string using_corr;
  const Expr* predicate = nullptr;
  const RefRel* premade = nullptr;
};

struct RDef {
  std::vector<RNodeDef> nodes;
  std::vector<RRelDef> rels;
  // Keep spliced view bodies and materialized inner views alive for the
  // duration of the evaluation (defs hold raw pointers into them).
  std::vector<std::shared_ptr<const XnfQuery>> owned_queries;
  std::vector<std::shared_ptr<RefCo>> premade_holders;

  int NodeIndex(const std::string& name) const {
    std::string key = ToLower(name);
    for (size_t i = 0; i < nodes.size(); ++i) {
      if (nodes[i].name == key) return static_cast<int>(i);
    }
    return -1;
  }
};

Result<RefCo> EvaluateCoImpl(State* st, const XnfQuery& query,
                             bool allow_materialize);

// Mirrors Resolver::AddItems: bare view references splice structurally when
// the view has no restrictions and a full TAKE; otherwise the view is
// evaluated recursively and imported as premade components. During CREATE
// VIEW validation no materializer exists (allow_materialize=false), so such
// references are rejected — exactly like the engine's view-creation path.
Status AddXnfItems(State* st, const std::vector<OutOfItem>& items, RDef* def,
                   std::vector<std::string>* view_stack,
                   bool allow_materialize) {
  for (const OutOfItem& item : items) {
    switch (item.kind) {
      case OutOfItem::Kind::kViewRef: {
        auto it = st->views.find(ToLower(item.name));
        if (it == st->views.end() || !it->second.is_xnf) {
          return Status::NotFound("XNF view '" + item.name + "' not found");
        }
        for (const std::string& v : *view_stack) {
          if (v == item.name) {
            return Status::InvalidArgument(
                "cyclic XNF view definition involving '" + item.name + "'");
          }
        }
        std::shared_ptr<const XnfQuery> sub = it->second.xnf;
        if (sub == nullptr) {
          XNF_ASSIGN_OR_RETURN(XnfQuery parsed,
                               co::Parser::Parse(it->second.definition));
          sub = std::make_shared<const XnfQuery>(std::move(parsed));
        }
        def->owned_queries.push_back(sub);
        if (sub->action != XnfQuery::Action::kTake) {
          return Status::InvalidArgument("XNF view '" + item.name +
                                         "' must be a TAKE query");
        }
        if (sub->restrictions.empty() && sub->take_all) {
          view_stack->push_back(item.name);
          XNF_RETURN_IF_ERROR(AddXnfItems(st, sub->items, def, view_stack,
                                          allow_materialize));
          view_stack->pop_back();
          break;
        }
        if (!allow_materialize) {
          return Status::NotSupported(
              "XNF view '" + item.name +
              "' with restrictions or partial TAKE cannot be composed "
              "structurally; no materializer available");
        }
        // The engine's materializer evaluates the view with a fresh
        // resolver; the stack guard only covers this resolution.
        view_stack->push_back(item.name);
        Result<RefCo> materialized =
            EvaluateCoImpl(st, *sub, /*allow_materialize=*/true);
        view_stack->pop_back();
        if (!materialized.ok()) return materialized.status();
        auto holder = std::make_shared<RefCo>(std::move(*materialized));
        def->premade_holders.push_back(holder);
        for (const RefNode& n : holder->nodes) {
          RNodeDef node;
          node.name = n.name;
          node.premade = &n;
          def->nodes.push_back(std::move(node));
        }
        for (const RefRel& r : holder->rels) {
          RRelDef rel;
          rel.name = r.name;
          rel.parent = holder->nodes[r.parent_node].name;
          rel.child = holder->nodes[r.child_node].name;
          rel.parent_corr = rel.parent;
          rel.child_corr = rel.child;
          rel.premade = &r;
          def->rels.push_back(std::move(rel));
        }
        break;
      }
      case OutOfItem::Kind::kNodeQuery: {
        RNodeDef node;
        node.name = ToLower(item.name);
        node.query = item.query.get();
        def->nodes.push_back(std::move(node));
        break;
      }
      case OutOfItem::Kind::kNodeTable: {
        RNodeDef node;
        node.name = ToLower(item.name);
        node.table = ToLower(item.table);
        def->nodes.push_back(std::move(node));
        break;
      }
      case OutOfItem::Kind::kRelate: {
        const co::RelateSpec& spec = *item.relate;
        RRelDef rel;
        rel.name = ToLower(item.name);
        rel.parent = ToLower(spec.parent);
        rel.child = ToLower(spec.child);
        rel.parent_corr =
            ToLower(spec.parent_corr.empty() ? spec.parent : spec.parent_corr);
        rel.child_corr =
            ToLower(spec.child_corr.empty() ? spec.child : spec.child_corr);
        for (const co::RelAttribute& a : spec.attributes) {
          rel.attributes.emplace_back(a.expr.get(), a.name);
        }
        rel.using_table = ToLower(spec.using_table);
        rel.using_corr = ToLower(
            spec.using_corr.empty() ? spec.using_table : spec.using_corr);
        rel.predicate = spec.predicate.get();
        def->rels.push_back(std::move(rel));
        break;
      }
    }
  }
  return Status::Ok();
}

Status ValidateDef(const RDef& def) {
  std::set<std::string> names;
  for (const RNodeDef& n : def.nodes) {
    if (!names.insert(n.name).second) {
      return Status::InvalidArgument("duplicate component name '" + n.name +
                                     "'");
    }
  }
  for (const RRelDef& r : def.rels) {
    if (!names.insert(r.name).second) {
      return Status::InvalidArgument("duplicate component name '" + r.name +
                                     "'");
    }
  }
  for (const RRelDef& r : def.rels) {
    if (def.NodeIndex(r.parent) < 0) {
      return Status::InvalidArgument("relationship '" + r.name +
                                     "' references unknown parent table '" +
                                     r.parent + "'");
    }
    if (def.NodeIndex(r.child) < 0) {
      return Status::InvalidArgument("relationship '" + r.name +
                                     "' references unknown child table '" +
                                     r.child + "'");
    }
    if (r.predicate == nullptr && r.premade == nullptr) {
      return Status::InvalidArgument("relationship '" + r.name +
                                     "' has no predicate");
    }
  }
  return Status::Ok();
}

Result<RDef> ResolveXnf(State* st, const XnfQuery& query,
                        bool allow_materialize) {
  RDef def;
  std::vector<std::string> stack;
  XNF_RETURN_IF_ERROR(
      AddXnfItems(st, query.items, &def, &stack, allow_materialize));
  XNF_RETURN_IF_ERROR(ValidateDef(def));
  return def;
}

// --------------------------------------------------- simple-node analysis

bool ContainsPath(const Expr& e) {
  if (e.kind == K::kPath || e.kind == K::kExistsPath) return true;
  for (const sql::ExprPtr& a : e.args) {
    if (a && ContainsPath(*a)) return true;
  }
  return false;
}

bool ContainsSubqueryOrAgg(const Expr& e) {
  if (e.kind == K::kInSubquery || e.kind == K::kExistsSubquery ||
      e.kind == K::kScalarSubquery) {
    return true;
  }
  if (e.kind == K::kFuncCall) {
    std::string n = ToLower(e.column);
    if (n == "count" || n == "sum" || n == "avg" || n == "min" ||
        n == "max") {
      return true;
    }
  }
  for (const sql::ExprPtr& a : e.args) {
    if (a && ContainsSubqueryOrAgg(*a)) return true;
  }
  return false;
}

struct SimpleInfo {
  bool simple = false;
  std::string base_table;
  std::string alias;
  const Expr* predicate = nullptr;
  bool select_star = false;
  std::vector<std::string> columns;
  std::vector<std::string> out_names;
};

// Mirrors AnalyzeSimpleNode: a bare table, or a projection/selection of one
// base table with a plain WHERE (no subqueries, aggregates, or paths).
SimpleInfo AnalyzeSimple(State* st, const RNodeDef& def) {
  SimpleInfo info;
  if (!def.table.empty()) {
    if (st->tables.count(def.table) == 0) return info;
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
  if (st->tables.count(ToLower(from.name)) == 0) return info;
  if (q.where != nullptr &&
      (ContainsSubqueryOrAgg(*q.where) || ContainsPath(*q.where))) {
    return info;
  }
  for (const sql::SelectItem& item : q.items) {
    if (item.star) {
      if (!item.star_table.empty()) return info;
      info.select_star = true;
      continue;
    }
    if (item.expr->kind != K::kColumnRef) return info;
    info.columns.push_back(ToLower(item.expr->column));
    info.out_names.push_back(
        item.alias.empty() ? ToLower(item.expr->column) : ToLower(item.alias));
  }
  if (info.select_star && !info.columns.empty()) return info;
  info.simple = true;
  info.base_table = ToLower(from.name);
  info.alias = from.alias.empty() ? ToLower(from.name) : ToLower(from.alias);
  info.predicate = q.where.get();
  return info;
}

// --------------------------------------------------------- materialization

Result<RefNode> MaterializeRefNode(State* st, const RNodeDef& def) {
  if (def.premade != nullptr) return *def.premade;

  RefNode node;
  node.name = def.name;
  SimpleInfo simple = AnalyzeSimple(st, def);
  if (simple.simple) {
    RefTable& table = st->tables.at(simple.base_table);
    std::vector<Entry> entries;
    entries.push_back(
        Entry{simple.alias, table.schema.WithQualifier(simple.alias), 0});
    if (simple.predicate != nullptr) {
      Scope check_scope;
      check_scope.entries = &entries;
      XNF_RETURN_IF_ERROR(
          CheckScalar(st, *simple.predicate, check_scope, true).status());
    }
    if (simple.select_star) {
      for (size_t i = 0; i < table.schema.size(); ++i) {
        Column c = table.schema.column(i);
        c.table = def.name;
        node.schema.AddColumn(std::move(c));
        node.base_column_map.push_back(static_cast<int>(i));
      }
    } else {
      for (size_t i = 0; i < simple.columns.size(); ++i) {
        XNF_ASSIGN_OR_RETURN(size_t b,
                             table.schema.Resolve("", simple.columns[i]));
        Column c = table.schema.column(b);
        c.name = simple.out_names[i];
        c.table = def.name;
        node.schema.AddColumn(std::move(c));
        node.base_column_map.push_back(static_cast<int>(b));
      }
    }
    node.base_table = simple.base_table;
    Scope scope;
    scope.entries = &entries;
    for (size_t ri = 0; ri < table.rows.size(); ++ri) {
      const Row& row = table.rows[ri];
      if (simple.predicate != nullptr) {
        scope.row = &row;
        XNF_ASSIGN_OR_RETURN(bool keep, EvalPred(st, *simple.predicate, scope,
                                                 nullptr));
        if (!keep) continue;
      }
      Row out;
      out.reserve(node.base_column_map.size());
      for (int b : node.base_column_map) out.push_back(row[b]);
      node.tuples.push_back(std::move(out));
      node.rids.push_back(table.rids[ri]);
    }
    return node;
  }

  if (def.query == nullptr) {
    return Status::NotFound("table '" + def.table + "' not found for node '" +
                            def.name + "'");
  }
  XNF_ASSIGN_OR_RETURN(SelectOut out, EvalSelect(st, *def.query, nullptr));
  for (size_t i = 0; i < out.names.size(); ++i) {
    Column c(out.names[i], out.types[i]);
    c.table = def.name;
    node.schema.AddColumn(std::move(c));
  }
  node.tuples = std::move(out.rows);
  return node;
}

// Mirrors the CSE temp-narrowing check: every node column a relationship
// predicate or attribute references (qualified by the partner correlation)
// must exist in the candidate schema. With CSE off the engine hits the same
// columns when building the inline edge query; either way it errors.
Status CheckRelColumns(const RDef& def, const RefCo& inst) {
  for (const RRelDef& rel : def.rels) {
    if (rel.premade != nullptr) continue;
    auto check_against = [&](const std::string& qual, const Expr& e,
                             auto&& self) -> Status {
      if (e.kind == K::kColumnRef && ToLower(e.table) == qual) {
        const std::string* node_name = nullptr;
        if (qual == rel.parent_corr) {
          node_name = &rel.parent;
        } else if (qual == rel.child_corr) {
          node_name = &rel.child;
        }
        if (node_name != nullptr) {
          int n = inst.NodeIndex(*node_name);
          if (n >= 0 && !inst.nodes[n].schema.Find(ToLower(e.column))) {
            return Status::NotFound("column '" + ToLower(e.column) +
                                    "' not found in component table '" +
                                    *node_name + "'");
          }
        }
      }
      for (const sql::ExprPtr& a : e.args) {
        if (a != nullptr) {
          XNF_RETURN_IF_ERROR(self(qual, *a, self));
        }
      }
      return Status::Ok();
    };
    auto walk = [&](const Expr& root) -> Status {
      XNF_RETURN_IF_ERROR(
          check_against(rel.parent_corr, root, check_against));
      return check_against(rel.child_corr, root, check_against);
    };
    XNF_RETURN_IF_ERROR(walk(*rel.predicate));
    for (const auto& [expr, name] : rel.attributes) {
      XNF_RETURN_IF_ERROR(walk(*expr));
    }
  }
  return Status::Ok();
}

// Mirrors AnalyzeRelWrite: classify the predicate as a foreign-key equality
// (parent.a = child.b) or a two-conjunct link-table join.
void AnalyzeWrite(State* st, const RRelDef& def, const RefCo& inst,
                  RefRel* rel) {
  const RefNode& parent = inst.nodes[rel->parent_node];
  const RefNode& child = inst.nodes[rel->child_node];

  std::vector<const Expr*> conjuncts;
  std::function<void(const Expr*)> split = [&](const Expr* e) {
    if (e->kind == K::kBinary && e->bin_op == sql::BinOp::kAnd) {
      split(e->args[0].get());
      split(e->args[1].get());
      return;
    }
    conjuncts.push_back(e);
  };
  split(def.predicate);

  auto classify = [&](const Expr* e) -> int {
    if (e->kind != K::kColumnRef) return -1;
    std::string q = ToLower(e->table);
    if (q == def.parent_corr) return 0;
    if (q == def.child_corr) return 1;
    if (!def.using_table.empty() && q == def.using_corr) return 2;
    return -1;
  };

  if (def.using_table.empty()) {
    if (conjuncts.size() != 1) return;
    const Expr* e = conjuncts[0];
    if (e->kind != K::kBinary || e->bin_op != sql::BinOp::kEq) return;
    int l = classify(e->args[0].get());
    int r = classify(e->args[1].get());
    const Expr* pcol = nullptr;
    const Expr* ccol = nullptr;
    if (l == 0 && r == 1) {
      pcol = e->args[0].get();
      ccol = e->args[1].get();
    } else if (l == 1 && r == 0) {
      pcol = e->args[1].get();
      ccol = e->args[0].get();
    } else {
      return;
    }
    auto pi = parent.schema.Find(ToLower(pcol->column));
    auto ci = child.schema.Find(ToLower(ccol->column));
    if (!pi.has_value() || !ci.has_value()) return;
    rel->write_kind = co::CoRelInstance::WriteKind::kForeignKey;
    rel->fk_parent_column = static_cast<int>(*pi);
    rel->fk_child_column = static_cast<int>(*ci);
    return;
  }

  auto link_it = st->tables.find(def.using_table);
  if (link_it == st->tables.end() || conjuncts.size() != 2) return;
  const Schema& link_schema = link_it->second.schema;
  int parent_key = -1, child_key = -1, link_p = -1, link_c = -1;
  for (const Expr* e : conjuncts) {
    if (e->kind != K::kBinary || e->bin_op != sql::BinOp::kEq) return;
    int l = classify(e->args[0].get());
    int r = classify(e->args[1].get());
    const Expr* node_col = nullptr;
    const Expr* link_col = nullptr;
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
    auto li = link_schema.Find(ToLower(link_col->column));
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
  rel->write_kind = co::CoRelInstance::WriteKind::kLinkTable;
  rel->link_table = def.using_table;
  rel->parent_key_column = parent_key;
  rel->child_key_column = child_key;
  rel->link_parent_column = link_p;
  rel->link_child_column = link_c;
}

Result<RefRel> MaterializeRefRel(State* st, const RRelDef& def,
                                 const RefCo& inst) {
  RefRel rel;
  rel.name = def.name;
  rel.parent_node = inst.NodeIndex(def.parent);
  rel.child_node = inst.NodeIndex(def.child);
  if (rel.parent_node < 0 || rel.child_node < 0) {
    return Status::Internal("relationship partners missing");
  }
  if (def.premade != nullptr) {
    rel = *def.premade;
    rel.parent_node = inst.NodeIndex(def.parent);
    rel.child_node = inst.NodeIndex(def.child);
    return rel;
  }
  const RefNode& parent = inst.nodes[rel.parent_node];
  const RefNode& child = inst.nodes[rel.child_node];
  for (const auto& [expr, name] : def.attributes) rel.attr_names.push_back(name);

  std::vector<Entry> entries;
  entries.push_back(Entry{def.parent_corr, parent.schema, 0});
  entries.push_back(Entry{def.child_corr, child.schema, parent.schema.size()});
  const std::vector<Row>* link_rows = nullptr;
  if (!def.using_table.empty()) {
    auto it = st->tables.find(def.using_table);
    if (it == st->tables.end()) {
      return Status::NotFound("table or view '" + def.using_table +
                              "' not found");
    }
    entries.push_back(Entry{def.using_corr, it->second.schema,
                            parent.schema.size() + child.schema.size()});
    link_rows = &it->second.rows;
  }
  Scope scope;
  scope.entries = &entries;
  CheckOpts opts;
  XNF_RETURN_IF_ERROR(CheckExpr(st, *def.predicate, scope, opts).status());
  for (const auto& [expr, name] : def.attributes) {
    XNF_RETURN_IF_ERROR(CheckExpr(st, *expr, scope, opts).status());
  }

  static const std::vector<Row> kNoLink = {Row{}};
  const std::vector<Row>& link = link_rows != nullptr ? *link_rows : kNoLink;
  for (size_t p = 0; p < parent.tuples.size(); ++p) {
    for (size_t c = 0; c < child.tuples.size(); ++c) {
      for (const Row& l : link) {
        Row combined = parent.tuples[p];
        combined.insert(combined.end(), child.tuples[c].begin(),
                        child.tuples[c].end());
        combined.insert(combined.end(), l.begin(), l.end());
        scope.row = &combined;
        XNF_ASSIGN_OR_RETURN(bool keep, EvalPred(st, *def.predicate, scope,
                                                 nullptr));
        if (!keep) continue;
        RefConn conn;
        conn.parent = static_cast<int>(p);
        conn.child = static_cast<int>(c);
        for (const auto& [expr, name] : def.attributes) {
          XNF_ASSIGN_OR_RETURN(
              Value v, Eval(st, *expr, scope, nullptr));
          conn.attrs.push_back(std::move(v));
        }
        rel.conns.push_back(std::move(conn));
      }
    }
  }
  AnalyzeWrite(st, def, inst, &rel);
  return rel;
}

// ------------------------------------------------ pruning and reachability

void PruneRefCo(RefCo* co, const std::vector<std::vector<char>>& keep) {
  std::vector<std::vector<int>> remap(co->nodes.size());
  for (size_t n = 0; n < co->nodes.size(); ++n) {
    RefNode& node = co->nodes[n];
    remap[n].assign(node.tuples.size(), -1);
    std::vector<Row> kept_tuples;
    std::vector<int64_t> kept_rids;
    for (size_t t = 0; t < node.tuples.size(); ++t) {
      if (!keep[n][t]) continue;
      remap[n][t] = static_cast<int>(kept_tuples.size());
      kept_tuples.push_back(std::move(node.tuples[t]));
      if (!node.rids.empty()) kept_rids.push_back(node.rids[t]);
    }
    node.tuples = std::move(kept_tuples);
    node.rids = std::move(kept_rids);
  }
  for (RefRel& rel : co->rels) {
    std::vector<RefConn> kept;
    for (RefConn& c : rel.conns) {
      int p = remap[rel.parent_node][c.parent];
      int ch = remap[rel.child_node][c.child];
      if (p < 0 || ch < 0) continue;
      kept.push_back(RefConn{p, ch, std::move(c.attrs)});
    }
    rel.conns = std::move(kept);
  }
}

void ReachabilityRefCo(RefCo* co) {
  size_t n_nodes = co->nodes.size();
  std::vector<char> has_incoming(n_nodes, 0);
  for (const RefRel& rel : co->rels) {
    if (rel.child_node >= 0) has_incoming[rel.child_node] = 1;
  }
  std::vector<std::vector<char>> marked(n_nodes);
  for (size_t n = 0; n < n_nodes; ++n) {
    marked[n].assign(co->nodes[n].tuples.size(), 0);
  }
  std::deque<std::pair<int, int>> frontier;
  for (size_t n = 0; n < n_nodes; ++n) {
    if (has_incoming[n]) continue;
    for (size_t t = 0; t < co->nodes[n].tuples.size(); ++t) {
      marked[n][t] = 1;
      frontier.emplace_back(static_cast<int>(n), static_cast<int>(t));
    }
  }
  while (!frontier.empty()) {
    auto [n, t] = frontier.front();
    frontier.pop_front();
    for (const RefRel& rel : co->rels) {
      if (rel.parent_node != n) continue;
      for (const RefConn& c : rel.conns) {
        if (c.parent != t) continue;
        if (!marked[rel.child_node][c.child]) {
          marked[rel.child_node][c.child] = 1;
          frontier.emplace_back(rel.child_node, c.child);
        }
      }
    }
  }
  PruneRefCo(co, marked);
}

// -------------------------------------------------- restrictions and TAKE

Status ApplyRefRestrictions(State* st,
                            const std::vector<Restriction>& restrictions,
                            RefCo* co) {
  if (restrictions.empty()) return Status::Ok();
  std::vector<std::vector<char>> keep(co->nodes.size());
  for (size_t n = 0; n < co->nodes.size(); ++n) {
    keep[n].assign(co->nodes[n].tuples.size(), 1);
  }
  std::vector<std::vector<char>> keep_conn(co->rels.size());
  for (size_t r = 0; r < co->rels.size(); ++r) {
    keep_conn[r].assign(co->rels[r].conns.size(), 1);
  }

  for (const Restriction& restriction : restrictions) {
    if (restriction.kind == Restriction::Kind::kNode) {
      int n = co->NodeIndex(restriction.target);
      if (n < 0) {
        return Status::NotFound("restricted component table '" +
                                restriction.target + "' not found");
      }
      const RefNode& node = co->nodes[n];
      std::string corr = ToLower(
          restriction.corr.empty() ? node.name : restriction.corr);
      std::vector<Entry> entries;
      entries.push_back(Entry{corr, node.schema, 0});
      Scope scope;
      scope.entries = &entries;
      XNF_RETURN_IF_ERROR(
          CheckScalar(st, *restriction.predicate, scope, false).status());
      for (size_t t = 0; t < node.tuples.size(); ++t) {
        scope.row = &node.tuples[t];
        XNF_ASSIGN_OR_RETURN(
            bool ok, EvalPred(st, *restriction.predicate, scope, nullptr));
        if (!ok) keep[n][t] = 0;
      }
    } else {
      int r = co->RelIndex(restriction.target);
      if (r < 0) {
        return Status::NotFound("restricted relationship '" +
                                restriction.target + "' not found");
      }
      const RefRel& rel = co->rels[r];
      const RefNode& parent = co->nodes[rel.parent_node];
      const RefNode& child = co->nodes[rel.child_node];
      std::vector<Entry> entries;
      entries.push_back(
          Entry{ToLower(restriction.parent_corr), parent.schema, 0});
      entries.push_back(Entry{ToLower(restriction.child_corr), child.schema,
                              parent.schema.size()});
      Scope scope;
      scope.entries = &entries;
      XNF_RETURN_IF_ERROR(
          CheckScalar(st, *restriction.predicate, scope, false).status());
      for (size_t c = 0; c < rel.conns.size(); ++c) {
        const RefConn& conn = rel.conns[c];
        Row combined = parent.tuples[conn.parent];
        combined.insert(combined.end(), child.tuples[conn.child].begin(),
                        child.tuples[conn.child].end());
        scope.row = &combined;
        XNF_ASSIGN_OR_RETURN(
            bool ok, EvalPred(st, *restriction.predicate, scope, nullptr));
        if (!ok) keep_conn[r][c] = 0;
      }
    }
  }

  for (size_t r = 0; r < co->rels.size(); ++r) {
    RefRel& rel = co->rels[r];
    std::vector<RefConn> kept;
    for (size_t c = 0; c < rel.conns.size(); ++c) {
      if (keep_conn[r][c]) kept.push_back(std::move(rel.conns[c]));
    }
    rel.conns = std::move(kept);
  }
  PruneRefCo(co, keep);
  ReachabilityRefCo(co);
  return Status::Ok();
}

Status ApplyRefTake(const XnfQuery& query, RefCo* co) {
  if (query.take_all) return Status::Ok();

  std::vector<char> keep_node(co->nodes.size(), 0);
  std::vector<char> keep_rel(co->rels.size(), 0);
  std::vector<const TakeItem*> node_items(co->nodes.size(), nullptr);
  for (const TakeItem& item : query.take) {
    int n = co->NodeIndex(item.name);
    if (n >= 0) {
      keep_node[n] = 1;
      node_items[n] = &item;
      continue;
    }
    int r = co->RelIndex(item.name);
    if (r >= 0) {
      if (item.has_column_list && !item.star_columns) {
        return Status::InvalidArgument("column projection on relationship '" +
                                       item.name + "' is not meaningful");
      }
      keep_rel[r] = 1;
      continue;
    }
    return Status::NotFound("TAKE item '" + item.name +
                            "' is not a component of this CO");
  }

  for (size_t r = 0; r < co->rels.size(); ++r) {
    if (!keep_rel[r]) continue;
    if (!keep_node[co->rels[r].parent_node] ||
        !keep_node[co->rels[r].child_node]) {
      keep_rel[r] = 0;
    }
  }

  RefCo projected;
  std::vector<int> node_remap(co->nodes.size(), -1);
  std::vector<std::vector<int>> column_remap(co->nodes.size());
  for (size_t n = 0; n < co->nodes.size(); ++n) {
    if (!keep_node[n]) continue;
    node_remap[n] = static_cast<int>(projected.nodes.size());
    RefNode node = std::move(co->nodes[n]);
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
  for (size_t r = 0; r < co->rels.size(); ++r) {
    if (!keep_rel[r]) continue;
    RefRel rel = std::move(co->rels[r]);
    int old_parent = rel.parent_node;
    int old_child = rel.child_node;
    rel.parent_node = node_remap[old_parent];
    rel.child_node = node_remap[old_child];
    auto remap_col = [&](int old_node, int col) {
      if (col < 0 || column_remap[old_node].empty()) return col;
      return column_remap[old_node][col];
    };
    switch (rel.write_kind) {
      case co::CoRelInstance::WriteKind::kForeignKey:
        rel.fk_parent_column = remap_col(old_parent, rel.fk_parent_column);
        rel.fk_child_column = remap_col(old_child, rel.fk_child_column);
        if (rel.fk_parent_column < 0 || rel.fk_child_column < 0) {
          rel.write_kind = co::CoRelInstance::WriteKind::kNone;
        }
        break;
      case co::CoRelInstance::WriteKind::kLinkTable:
        rel.parent_key_column = remap_col(old_parent, rel.parent_key_column);
        rel.child_key_column = remap_col(old_child, rel.child_key_column);
        if (rel.parent_key_column < 0 || rel.child_key_column < 0) {
          rel.write_kind = co::CoRelInstance::WriteKind::kNone;
        }
        break;
      case co::CoRelInstance::WriteKind::kNone:
        break;
    }
    projected.rels.push_back(std::move(rel));
  }
  *co = std::move(projected);
  ReachabilityRefCo(co);
  return Status::Ok();
}

Result<RefCo> EvaluateCoImpl(State* st, const XnfQuery& query,
                             bool allow_materialize) {
  XNF_ASSIGN_OR_RETURN(RDef def, ResolveXnf(st, query, allow_materialize));
  RefCo inst;
  for (const RNodeDef& node_def : def.nodes) {
    XNF_ASSIGN_OR_RETURN(RefNode node, MaterializeRefNode(st, node_def));
    inst.nodes.push_back(std::move(node));
  }
  XNF_RETURN_IF_ERROR(CheckRelColumns(def, inst));
  for (const RRelDef& rel_def : def.rels) {
    XNF_ASSIGN_OR_RETURN(RefRel rel, MaterializeRefRel(st, rel_def, inst));
    inst.rels.push_back(std::move(rel));
  }
  ReachabilityRefCo(&inst);
  XNF_RETURN_IF_ERROR(ApplyRefRestrictions(st, query.restrictions, &inst));
  XNF_RETURN_IF_ERROR(ApplyRefTake(query, &inst));
  return inst;
}

// ------------------------------------------------------- CO manipulation

// Mirrors Manipulator::IsRelationshipColumn over the materialized instance.
bool IsRelColumn(const RefCo& co, int node, int column) {
  for (const RefRel& rel : co.rels) {
    switch (rel.write_kind) {
      case co::CoRelInstance::WriteKind::kForeignKey:
        if (rel.parent_node == node && rel.fk_parent_column == column) {
          return true;
        }
        if (rel.child_node == node && rel.fk_child_column == column) {
          return true;
        }
        break;
      case co::CoRelInstance::WriteKind::kLinkTable:
        if (rel.parent_node == node && rel.parent_key_column == column) {
          return true;
        }
        if (rel.child_node == node && rel.child_key_column == column) {
          return true;
        }
        break;
      case co::CoRelInstance::WriteKind::kNone:
        break;
    }
  }
  return false;
}

Result<RefOutcome> ExecCoUpdate(State* st, const XnfQuery& query,
                                const RefCo& co) {
  int n = co.NodeIndex(query.update_target);
  if (n < 0) {
    return Status::NotFound("component table '" + query.update_target +
                            "' not found in this CO");
  }
  const RefNode& node = co.nodes[n];

  // Assignment expressions are checked statically (the correlation being
  // the component name), then evaluated against the pre-update instance.
  std::vector<Entry> entries;
  entries.push_back(Entry{ToLower(node.name), node.schema, 0});
  Scope scope;
  scope.entries = &entries;
  for (const auto& [col, expr] : query.assignments) {
    XNF_RETURN_IF_ERROR(CheckScalar(st, *expr, scope, false).status());
  }
  std::vector<std::vector<Value>> planned(node.tuples.size());
  for (size_t t = 0; t < node.tuples.size(); ++t) {
    scope.row = &node.tuples[t];
    for (const auto& [col, expr] : query.assignments) {
      XNF_ASSIGN_OR_RETURN(Value v, Eval(st, *expr, scope, nullptr));
      planned[t].push_back(std::move(v));
    }
  }

  // Write-through, statement-atomically: stage the base table and commit
  // only if every per-tuple, per-assignment application succeeds. Per-call
  // checks mirror Manipulator::UpdateColumn, so assigning an unknown or
  // relationship-defining column of an empty component succeeds with zero
  // tuples affected — exactly like the engine, whose manipulator never runs.
  // An ill-typed assignment expression fails even then (checked above).
  RefTable* table = nullptr;
  std::vector<Row> staged;
  if (!node.base_table.empty()) {
    table = &st->tables.at(node.base_table);
    staged = table->rows;
  }
  for (size_t t = 0; t < node.tuples.size(); ++t) {
    for (size_t a = 0; a < query.assignments.size(); ++a) {
      const std::string& col_name = query.assignments[a].first;
      XNF_ASSIGN_OR_RETURN(size_t col,
                           node.schema.Resolve("", ToLower(col_name)));
      if (IsRelColumn(co, n, static_cast<int>(col))) {
        return Status::NotUpdatable(
            "column '" + col_name +
            "' defines a relationship; use connect/disconnect instead "
            "(§3.7)");
      }
      XNF_ASSIGN_OR_RETURN(
          Value coerced, planned[t][a].CoerceTo(node.schema.column(col).type));
      if (!node.updatable() || node.rids.empty()) {
        return Status::NotUpdatable("component table '" + node.name +
                                    "' is not updatable (no simple "
                                    "base-table derivation)");
      }
      auto rid_it = std::find(table->rids.begin(), table->rids.end(),
                              node.rids[t]);
      if (rid_it == table->rids.end()) {
        return Status::Internal("stale tuple provenance");
      }
      size_t ri = static_cast<size_t>(rid_it - table->rids.begin());
      Row new_row = staged[ri];
      new_row[node.base_column_map[col]] = std::move(coerced);
      XNF_RETURN_IF_ERROR(table->schema.CheckAndCoerceRow(&new_row));
      staged[ri] = std::move(new_row);
    }
  }
  if (table != nullptr) table->rows = std::move(staged);
  RefOutcome out;
  out.kind = RefOutcome::Kind::kAffected;
  out.affected = static_cast<int64_t>(node.tuples.size());
  return out;
}

Result<RefOutcome> ExecCoDelete(State* st, const RefCo& co) {
  for (const RefNode& node : co.nodes) {
    if (!node.tuples.empty() && !node.updatable()) {
      return Status::NotUpdatable("component table '" + node.name +
                                  "' is not updatable; CO DELETE rejected");
    }
  }
  // Stage every touched table; commit all-or-nothing.
  std::map<std::string, std::pair<std::vector<Row>, std::vector<int64_t>>>
      staged;
  auto stage = [&](const std::string& key) {
    auto it = staged.find(key);
    if (it == staged.end()) {
      RefTable& t = st->tables.at(key);
      it = staged.emplace(key, std::make_pair(t.rows, t.rids)).first;
    }
    return it;
  };

  int64_t affected = 0;
  // Link-table connections first: each deletes the first link row (in row
  // order) whose key pair matches the connection's endpoints.
  for (const RefRel& rel : co.rels) {
    if (rel.write_kind != co::CoRelInstance::WriteKind::kLinkTable) continue;
    if (st->tables.count(rel.link_table) == 0) continue;
    auto it = stage(rel.link_table);
    auto& [rows, rids] = it->second;
    const RefNode& parent = co.nodes[rel.parent_node];
    const RefNode& child = co.nodes[rel.child_node];
    for (const RefConn& c : rel.conns) {
      const Value& pkey = parent.tuples[c.parent][rel.parent_key_column];
      const Value& ckey = child.tuples[c.child][rel.child_key_column];
      for (size_t ri = 0; ri < rows.size(); ++ri) {
        if (rows[ri][rel.link_parent_column].CompareEq(pkey) ==
                Tribool::kTrue &&
            rows[ri][rel.link_child_column].CompareEq(ckey) ==
                Tribool::kTrue) {
          rows.erase(rows.begin() + ri);
          rids.erase(rids.begin() + ri);
          ++affected;
          break;
        }
      }
    }
  }

  for (const RefNode& node : co.nodes) {
    if (node.tuples.empty()) continue;
    if (st->tables.count(node.base_table) == 0) {
      return Status::NotFound("base table '" + node.base_table +
                              "' not found");
    }
    auto it = stage(node.base_table);
    auto& [rows, rids] = it->second;
    for (int64_t rid : node.rids) {
      auto rid_it = std::find(rids.begin(), rids.end(), rid);
      if (rid_it == rids.end()) {
        return Status::Internal("stale tuple provenance");
      }
      size_t ri = static_cast<size_t>(rid_it - rids.begin());
      rows.erase(rows.begin() + ri);
      rids.erase(rids.begin() + ri);
      ++affected;
    }
  }

  for (auto& [key, pair] : staged) {
    RefTable& t = st->tables.at(key);
    t.rows = std::move(pair.first);
    t.rids = std::move(pair.second);
  }
  RefOutcome out;
  out.kind = RefOutcome::Kind::kAffected;
  out.affected = affected;
  return out;
}

}  // namespace

// ----------------------------------------------------------- entry points

bool IsSimpleNodeQuery(State* st, const sql::SelectStmt& stmt) {
  RNodeDef def;
  def.name = "probe";
  def.query = &stmt;
  return AnalyzeSimple(st, def).simple;
}

Result<RefCo> EvaluateCo(State* st, const co::XnfQuery& query) {
  return EvaluateCoImpl(st, query, /*allow_materialize=*/true);
}

Status CreateXnfView(State* st, const std::string& name,
                     const std::string& definition) {
  // Validation mirrors the engine's CREATE VIEW path: parse and resolve the
  // body WITHOUT a materializer — references to views carrying restrictions
  // or a partial TAKE are rejected — and only then check the name.
  XNF_ASSIGN_OR_RETURN(XnfQuery query, co::Parser::Parse(definition));
  XNF_RETURN_IF_ERROR(
      ResolveXnf(st, query, /*allow_materialize=*/false).status());
  std::string key = ToLower(name);
  if (st->tables.count(key) > 0 || st->views.count(key) > 0) {
    return Status::AlreadyExists("object '" + name + "' already exists");
  }
  RefView view;
  view.is_xnf = true;
  view.definition = definition;
  view.xnf = std::make_shared<XnfQuery>(std::move(query));
  st->views.emplace(key, std::move(view));
  return Status::Ok();
}

RefOutcome ExecuteXnfStatement(State* st, const std::string& text) {
  Result<XnfQuery> parsed = co::Parser::Parse(text);
  if (!parsed.ok()) return RefOutcome::Error(parsed.status());
  Result<RefCo> co = EvaluateCo(st, *parsed);
  if (!co.ok()) return RefOutcome::Error(co.status());
  Result<RefOutcome> out = [&]() -> Result<RefOutcome> {
    switch (parsed->action) {
      case XnfQuery::Action::kDelete:
        return ExecCoDelete(st, *co);
      case XnfQuery::Action::kUpdate:
        return ExecCoUpdate(st, *parsed, *co);
      case XnfQuery::Action::kTake: {
        RefOutcome take;
        take.kind = RefOutcome::Kind::kCo;
        take.co_canonical = RenderCanonicalCo(*co);
        return take;
      }
    }
    return Status::Internal("unhandled XNF action");
  }();
  if (!out.ok()) return RefOutcome::Error(out.status());
  return std::move(*out);
}

}  // namespace xnf::testing::refi
