// SELECT pipeline and SQL statement execution of the reference interpreter.
//
// The static pass (CheckCore / CheckChain) mirrors qgm/builder.cc — FROM
// resolution and join lowering, star expansion, head naming, grouped-query
// validation, ORDER BY key resolution, set-operation schema merging — plus
// the two static rejections that the engine raises at plan time (mixed
// select-list/expression ORDER BY keys, outer joins with more than one
// right-side quantifier). Like the engine, every statement is checked in
// full before any row is evaluated, so build-time errors fire even over
// empty tables.
//
// The runtime pass evaluates the checked structure naively: cross products
// for inner joins with ON and WHERE applied as row filters (the engine's
// box predicates), per-left-row matching for LEFT JOIN units, hash grouping
// with first-encounter group order and first-row representatives, HAVING
// before projection, DISTINCT with first-win dedup, stable sorts under the
// total value order, and OFFSET/LIMIT last. Set operations follow the
// engine's operators: streamed concatenation with incremental dedup for
// UNION, membership against the right side plus dedup for INTERSECT/EXCEPT.

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/schema.h"
#include "common/status.h"
#include "common/str_util.h"
#include "common/value.h"
#include "sql/ast.h"
#include "sql/parser.h"
#include "testing/reference_internal.h"

namespace xnf::testing::refi {
namespace {

using sql::Expr;
using sql::SelectStmt;
using sql::TableRef;
using K = sql::Expr::Kind;

struct RowHashF {
  size_t operator()(const Row& r) const { return HashRow(r); }
};
struct RowEqF {
  bool operator()(const Row& a, const Row& b) const { return RowsEqual(a, b); }
};

// ------------------------------------------------------- checked structure

// One output column of a box: either an expression over the source row or a
// star-expanded source column (the engine's InputRef head).
struct HeadCol {
  const Expr* expr = nullptr;
  size_t offset = 0;  // source-row offset when expr == nullptr
  std::string name;
  Type type = Type::kNull;
};

struct OrderKeyC {
  int head_index = -1;         // >= 0: sort the projected rows by this column
  const Expr* expr = nullptr;  // else: sort the source rows by this expression
  bool ascending = true;
};

struct LojUnit;

// One FROM source producing rows of `width`: a base table, a SELECT body
// (view or derived table, both built without parent correlation), or a
// nested LEFT JOIN unit.
struct FromLeaf {
  std::string table;                         // non-empty: base table key
  const SelectStmt* select = nullptr;        // view body or derived table
  std::unique_ptr<SelectStmt> owned_select;  // owns re-parsed view bodies
  std::unique_ptr<LojUnit> loj;
  size_t width = 0;
};

// A LEFT JOIN lowered the engine's way: a dedicated nested box whose scope
// has no parent (no correlation in LEFT JOIN ON), with the left subtree
// flattened inside. Leaves [0, left_leaves) are the preserved side; the
// single remaining leaf is the optional side.
struct LojUnit {
  std::vector<Entry> entries;
  std::vector<FromLeaf> leaves;
  std::vector<const Expr*> inner_on;  // flattened inner-join ON predicates
  std::vector<const Expr*> outer_on;  // the LEFT JOIN ON condition
  size_t left_leaves = 0;
  size_t left_width = 0;
  size_t width = 0;
};

struct CheckedCore {
  const SelectStmt* stmt = nullptr;
  std::vector<Entry> entries;
  std::vector<FromLeaf> leaves;       // parallel to entries
  std::vector<const Expr*> inner_on;  // INNER JOIN ON predicates of this box
  size_t width = 0;
  bool grouped = false;
  std::vector<HeadCol> head;
  std::vector<OrderKeyC> order;
  bool has_head_keys = false;
  bool has_expr_keys = false;
};

struct CheckedChain {
  std::vector<CheckedCore> cores;
  std::vector<SelectStmt::SetOp> ops;  // ops[i] links cores[i] and cores[i+1]
  std::vector<std::string> names;
  std::vector<Type> types;
};

Result<CheckedChain> CheckChain(State* st, const SelectStmt& stmt,
                                const Scope* parent);

// ----------------------------------------------------------- FROM building

struct FromCtx {
  std::vector<Entry>* entries;
  std::vector<FromLeaf>* leaves;
  std::vector<const Expr*>* inner_on;
  size_t* width;
  const Scope* parent;  // correlation scope for ON; null inside LOJ units
};

void AppendEntry(FromCtx* c, std::string alias, Schema schema,
                 FromLeaf leaf) {
  size_t w = schema.size();
  leaf.width = w;
  c->entries->push_back(Entry{std::move(alias), std::move(schema), *c->width});
  c->leaves->push_back(std::move(leaf));
  *c->width += w;
}

Status AddRef(State* st, const TableRef& ref, FromCtx* c) {
  switch (ref.kind) {
    case TableRef::Kind::kNamed: {
      std::string key = ToLower(ref.name);
      std::string alias = ToLower(ref.alias.empty() ? ref.name : ref.alias);
      if (auto it = st->tables.find(key); it != st->tables.end()) {
        FromLeaf leaf;
        leaf.table = key;
        AppendEntry(c, alias, it->second.schema.WithQualifier(alias),
                    std::move(leaf));
        return Status::Ok();
      }
      if (auto vi = st->views.find(key); vi != st->views.end()) {
        if (vi->second.is_xnf) {
          return Status::InvalidArgument(
              "'" + ref.name +
              "' is an XNF composite-object view; reference it with OUT OF "
              "or as view.component");
        }
        sql::Parser parser(vi->second.definition);
        XNF_ASSIGN_OR_RETURN(std::unique_ptr<SelectStmt> body,
                             parser.ParseSelect());
        XNF_ASSIGN_OR_RETURN(SelectShape shape,
                             CheckSelect(st, *body, nullptr));
        Schema schema;
        for (size_t i = 0; i < shape.names.size(); ++i) {
          schema.AddColumn(Column(shape.names[i], shape.types[i]));
        }
        FromLeaf leaf;
        leaf.owned_select = std::move(body);
        leaf.select = leaf.owned_select.get();
        AppendEntry(c, alias, schema.WithQualifier(alias), std::move(leaf));
        return Status::Ok();
      }
      return Status::NotFound("table or view '" + ref.name + "' not found");
    }
    case TableRef::Kind::kSubquery: {
      XNF_ASSIGN_OR_RETURN(SelectShape shape,
                           CheckSelect(st, *ref.subquery, nullptr));
      std::string alias = ToLower(ref.alias);
      Schema schema;
      for (size_t i = 0; i < shape.names.size(); ++i) {
        schema.AddColumn(Column(shape.names[i], shape.types[i]));
      }
      FromLeaf leaf;
      leaf.select = ref.subquery.get();
      AppendEntry(c, alias, schema.WithQualifier(alias), std::move(leaf));
      return Status::Ok();
    }
    case TableRef::Kind::kJoin: {
      if (ref.join_type == sql::JoinType::kInner) {
        // Flatten both sides; ON is checked over all entries so far (with
        // parent correlation available) and kept as a box predicate.
        XNF_RETURN_IF_ERROR(AddRef(st, *ref.left, c));
        XNF_RETURN_IF_ERROR(AddRef(st, *ref.right, c));
        Scope scope;
        scope.entries = c->entries;
        scope.parent = c->parent;
        XNF_RETURN_IF_ERROR(
            CheckExpr(st, *ref.on, scope, CheckOpts{}).status());
        c->inner_on->push_back(ref.on.get());
        return Status::Ok();
      }
      auto unit = std::make_unique<LojUnit>();
      FromCtx sub{&unit->entries, &unit->leaves, &unit->inner_on,
                  &unit->width, nullptr};
      XNF_RETURN_IF_ERROR(AddRef(st, *ref.left, &sub));
      unit->left_leaves = unit->leaves.size();
      unit->left_width = unit->width;
      XNF_RETURN_IF_ERROR(AddRef(st, *ref.right, &sub));
      if (unit->leaves.size() != unit->left_leaves + 1) {
        // The planner only supports a single optional-side quantifier.
        return Status::NotSupported(
            "outer join with multiple right-side quantifiers");
      }
      Scope on_scope;
      on_scope.entries = &unit->entries;
      XNF_RETURN_IF_ERROR(
          CheckExpr(st, *ref.on, on_scope, CheckOpts{}).status());
      unit->outer_on.push_back(ref.on.get());
      // The unit's output is an anonymous entry whose columns keep their
      // original qualifiers, so alias.column still resolves from outside.
      Schema joined;
      for (const Entry& e : unit->entries) {
        for (const Column& col : e.schema.columns()) joined.AddColumn(col);
      }
      FromLeaf leaf;
      leaf.loj = std::move(unit);
      AppendEntry(c, "", std::move(joined), std::move(leaf));
      return Status::Ok();
    }
  }
  return Status::Internal("unhandled table ref kind");
}

// ------------------------------------------------------ grouped validation

// Structural equality with column references compared by what they resolve
// to, the way the engine compares built InputRefs: `x.b` and `b` are equal
// when they name the same source column.
bool ExprEqRes(const Scope& scope, const Expr& a, const Expr& b) {
  if (a.kind == K::kColumnRef && b.kind == K::kColumnRef) {
    Result<ResolvedCol> ra =
        ResolveColumn(scope, a.table, a.column);
    Result<ResolvedCol> rb =
        ResolveColumn(scope, b.table, b.column);
    if (ra.ok() && rb.ok()) {
      return (*ra).level == (*rb).level && (*ra).offset == (*rb).offset;
    }
    return ExprEq(a, b);
  }
  if (a.kind != b.kind) return false;
  auto args_eq = [&]() {
    if (a.args.size() != b.args.size()) return false;
    for (size_t i = 0; i < a.args.size(); ++i) {
      if (!ExprEqRes(scope, *a.args[i], *b.args[i])) return false;
    }
    return true;
  };
  switch (a.kind) {
    case K::kLiteral:
      return a.literal.type() == b.literal.type() &&
             a.literal.TotalOrderCompare(b.literal) == 0;
    case K::kStar:
      return true;
    case K::kBinary:
      return a.bin_op == b.bin_op && args_eq();
    case K::kUnary:
      return a.un_op == b.un_op && args_eq();
    case K::kFuncCall:
      return EqualsIgnoreCase(a.column, b.column) &&
             a.distinct_arg == b.distinct_arg && args_eq();
    case K::kIsNull:
    case K::kLike:
    case K::kBetween:
    case K::kInList:
      return a.negated == b.negated && args_eq();
    case K::kCase:
      return args_eq();
    default:
      return false;
  }
}

bool IsAggCall(const Expr& e) {
  if (e.kind != K::kFuncCall) return false;
  std::string n = ToLower(e.column);
  return n == "count" || n == "sum" || n == "avg" || n == "min" || n == "max";
}

// Mirrors Builder::ValidateGroupedExpr over the AST: a subtree is valid if
// it equals a group key or is an aggregate call; bare column references
// outside those are rejected; subquery bodies are not descended into.
Status ValidateGrouped(const Expr& e, const SelectStmt& stmt,
                       const Scope& scope, const char* where) {
  for (const sql::ExprPtr& g : stmt.group_by) {
    if (ExprEqRes(scope, e, *g)) return Status::Ok();
  }
  if (IsAggCall(e)) return Status::Ok();
  if (e.kind == K::kColumnRef) {
    return Status::InvalidArgument(
        std::string("column in ") + where +
        " must appear in GROUP BY or inside an aggregate");
  }
  for (const sql::ExprPtr& a : e.args) {
    if (a != nullptr) {
      XNF_RETURN_IF_ERROR(ValidateGrouped(*a, stmt, scope, where));
    }
  }
  return Status::Ok();
}

// True iff some GROUP BY key is a column reference naming the given source
// offset in this scope level (the engine's InputRef-vs-group-key equality
// for star-expanded head columns).
bool OffsetMatchesGroupKey(const SelectStmt& stmt, const Scope& scope,
                           size_t offset) {
  for (const sql::ExprPtr& g : stmt.group_by) {
    if (g->kind != K::kColumnRef) continue;
    Result<ResolvedCol> r =
        ResolveColumn(scope, g->table, g->column);
    if (r.ok() && (*r).level == &scope && (*r).offset == offset) return true;
  }
  return false;
}

// -------------------------------------------------------------- CheckCore

Result<CheckedCore> CheckCore(State* st, const SelectStmt& stmt,
                              const Scope* parent) {
  CheckedCore core;
  core.stmt = &stmt;
  FromCtx fctx{&core.entries, &core.leaves, &core.inner_on, &core.width,
               parent};
  for (const auto& ref : stmt.from) {
    XNF_RETURN_IF_ERROR(AddRef(st, *ref, &fctx));
  }
  Scope scope;
  scope.entries = &core.entries;
  scope.parent = parent;

  CheckOpts plain;  // allow_aggs = false
  if (stmt.where) {
    XNF_RETURN_IF_ERROR(CheckExpr(st, *stmt.where, scope, plain).status());
  }
  for (const sql::ExprPtr& g : stmt.group_by) {
    XNF_RETURN_IF_ERROR(CheckExpr(st, *g, scope, plain).status());
  }

  CheckOpts heads;
  heads.allow_aggs = true;
  for (const sql::SelectItem& item : stmt.items) {
    if (item.star) {
      std::string qualifier = ToLower(item.star_table);
      bool matched = false;
      for (const Entry& e : core.entries) {
        const Schema& s = e.schema;
        for (size_t ci = 0; ci < s.size(); ++ci) {
          if (!qualifier.empty() &&
              !EqualsIgnoreCase(s.column(ci).table, qualifier)) {
            continue;
          }
          matched = true;
          HeadCol h;
          h.offset = e.offset + ci;
          h.name = s.column(ci).name;
          h.type = s.column(ci).type;
          core.head.push_back(std::move(h));
        }
      }
      if (!matched) {
        return Status::NotFound(qualifier.empty()
                                    ? "SELECT * with empty FROM"
                                    : "no columns match '" + item.star_table +
                                          ".*'");
      }
      continue;
    }
    XNF_ASSIGN_OR_RETURN(Type t, CheckExpr(st, *item.expr, scope, heads));
    HeadCol h;
    h.expr = item.expr.get();
    h.type = t;
    if (!item.alias.empty()) {
      h.name = ToLower(item.alias);
    } else if (item.expr->kind == K::kColumnRef) {
      h.name = ToLower(item.expr->column);
    } else {
      h.name = "col" + std::to_string(core.head.size() + 1);
    }
    core.head.push_back(std::move(h));
  }

  if (stmt.having) {
    XNF_RETURN_IF_ERROR(CheckExpr(st, *stmt.having, scope, heads).status());
  }

  bool has_aggs = false;
  for (const HeadCol& h : core.head) {
    if (h.expr != nullptr && HasAggregate(*h.expr)) has_aggs = true;
  }
  if (stmt.having && HasAggregate(*stmt.having)) has_aggs = true;
  core.grouped = !stmt.group_by.empty() || has_aggs;

  if (core.grouped) {
    for (const HeadCol& h : core.head) {
      if (h.expr != nullptr) {
        XNF_RETURN_IF_ERROR(
            ValidateGrouped(*h.expr, stmt, scope, "SELECT list"));
      } else if (!OffsetMatchesGroupKey(stmt, scope, h.offset)) {
        return Status::InvalidArgument(
            "column in SELECT list must appear in GROUP BY or inside an "
            "aggregate");
      }
    }
    if (stmt.having) {
      XNF_RETURN_IF_ERROR(ValidateGrouped(*stmt.having, stmt, scope,
                                          "HAVING"));
    }
  } else if (stmt.having) {
    return Status::InvalidArgument("HAVING without GROUP BY or aggregates");
  }

  for (const sql::OrderItem& o : stmt.order_by) {
    OrderKeyC key;
    key.ascending = o.ascending;
    bool resolved = false;
    if (o.expr->kind == K::kColumnRef && o.expr->table.empty()) {
      std::string name = ToLower(o.expr->column);
      for (size_t i = 0; i < core.head.size(); ++i) {
        if (core.head[i].name == name) {
          key.head_index = static_cast<int>(i);
          resolved = true;
          break;
        }
      }
    } else if (o.expr->kind == K::kLiteral && o.expr->literal.is_int()) {
      int64_t pos = o.expr->literal.AsInt();
      if (pos < 1 || pos > static_cast<int64_t>(core.head.size())) {
        return Status::InvalidArgument("ORDER BY position out of range");
      }
      key.head_index = static_cast<int>(pos - 1);
      resolved = true;
    }
    if (!resolved) {
      XNF_RETURN_IF_ERROR(CheckExpr(st, *o.expr, scope, heads).status());
      if (core.grouped) {
        // Must match a head expression, and is then converted to a head key.
        for (size_t i = 0; i < core.head.size() && key.head_index < 0; ++i) {
          bool match =
              core.head[i].expr != nullptr
                  ? ExprEqRes(scope, *core.head[i].expr, *o.expr)
                  : (o.expr->kind == K::kColumnRef && [&] {
                      Result<ResolvedCol> r = ResolveColumn(
                          scope, o.expr->table, o.expr->column);
                      return r.ok() && (*r).level == &scope &&
                             (*r).offset == core.head[i].offset;
                    }());
          if (match) key.head_index = static_cast<int>(i);
        }
        if (key.head_index < 0) {
          return Status::NotSupported(
              "ORDER BY expression must appear in the SELECT list of a "
              "grouped query");
        }
      } else {
        key.expr = o.expr.get();
      }
    }
    if (key.head_index >= 0) {
      core.has_head_keys = true;
    } else {
      core.has_expr_keys = true;
    }
    core.order.push_back(key);
  }
  if (core.has_expr_keys && core.has_head_keys) {
    return Status::NotSupported(
        "mixing select-list and expression ORDER BY keys");
  }
  return core;
}

Result<CheckedChain> CheckChain(State* st, const SelectStmt& stmt,
                                const Scope* parent) {
  CheckedChain chain;
  XNF_ASSIGN_OR_RETURN(CheckedCore first, CheckCore(st, stmt, parent));
  chain.names.reserve(first.head.size());
  for (const HeadCol& h : first.head) {
    chain.names.push_back(h.name);
    chain.types.push_back(h.type);
  }
  chain.cores.push_back(std::move(first));
  const SelectStmt* link = &stmt;
  while (link->union_next != nullptr) {
    const SelectStmt* next = link->union_next.get();
    XNF_ASSIGN_OR_RETURN(CheckedCore right, CheckCore(st, *next, parent));
    if (right.head.size() != chain.types.size()) {
      return Status::InvalidArgument(
          "set operation branches have different numbers of columns");
    }
    for (size_t c = 0; c < chain.types.size(); ++c) {
      Type a = chain.types[c];
      Type b = right.head[c].type;
      if (a == b || b == Type::kNull) continue;
      if (a == Type::kNull) {
        chain.types[c] = b;
      } else if ((a == Type::kInt || a == Type::kDouble) &&
                 (b == Type::kInt || b == Type::kDouble)) {
        chain.types[c] = Type::kDouble;
      } else {
        return Status::InvalidArgument(
            "set operation branch column types differ");
      }
    }
    chain.ops.push_back(link->set_op);
    chain.cores.push_back(std::move(right));
    link = next;
  }
  return chain;
}

// ---------------------------------------------------------------- runtime

Result<std::vector<Row>> EvalCore(State* st, const CheckedCore& core,
                                  const Scope* parent);

Result<std::vector<Row>> EvalLoj(State* st, const LojUnit& unit);

Result<std::vector<Row>> EvalLeaf(State* st, const FromLeaf& leaf) {
  if (!leaf.table.empty()) {
    return st->tables.at(leaf.table).rows;
  }
  if (leaf.select != nullptr) {
    XNF_ASSIGN_OR_RETURN(SelectOut out, EvalSelect(st, *leaf.select, nullptr));
    return std::move(out.rows);
  }
  return EvalLoj(st, *leaf.loj);
}

// Cross product of leaf row sets in entry order.
Result<std::vector<Row>> CrossLeaves(State* st,
                                     const std::vector<FromLeaf>& leaves,
                                     size_t first, size_t last) {
  std::vector<Row> rows = {Row{}};
  for (size_t i = first; i < last; ++i) {
    XNF_ASSIGN_OR_RETURN(std::vector<Row> leaf_rows,
                         EvalLeaf(st, leaves[i]));
    std::vector<Row> next;
    next.reserve(rows.size() * leaf_rows.size());
    for (const Row& l : rows) {
      for (const Row& r : leaf_rows) {
        Row combined = l;
        combined.insert(combined.end(), r.begin(), r.end());
        next.push_back(std::move(combined));
      }
    }
    rows = std::move(next);
  }
  return rows;
}

Result<std::vector<Row>> EvalLoj(State* st, const LojUnit& unit) {
  XNF_ASSIGN_OR_RETURN(std::vector<Row> left,
                       CrossLeaves(st, unit.leaves, 0, unit.left_leaves));
  Scope scope;
  scope.entries = &unit.entries;
  // Inner-join predicates of the preserved side only reference preserved
  // columns; applying them before the outer join is equivalent to the
  // engine's residual placement because null-extension never changes them.
  std::vector<Row> kept;
  for (Row& row : left) {
    scope.row = &row;
    bool keep = true;
    for (const Expr* p : unit.inner_on) {
      XNF_ASSIGN_OR_RETURN(bool ok,
                           EvalPred(st, *p, scope, nullptr));
      if (!ok) {
        keep = false;
        break;
      }
    }
    if (keep) kept.push_back(std::move(row));
  }
  XNF_ASSIGN_OR_RETURN(std::vector<Row> right,
                       EvalLeaf(st, unit.leaves[unit.left_leaves]));
  size_t right_width = unit.width - unit.left_width;
  std::vector<Row> out;
  for (const Row& l : kept) {
    bool matched = false;
    for (const Row& r : right) {
      Row combined = l;
      combined.insert(combined.end(), r.begin(), r.end());
      scope.row = &combined;
      bool ok = true;
      for (const Expr* p : unit.outer_on) {
        XNF_ASSIGN_OR_RETURN(
            bool v, EvalPred(st, *p, scope, nullptr));
        if (!v) {
          ok = false;
          break;
        }
      }
      if (ok) {
        matched = true;
        out.push_back(std::move(combined));
      }
    }
    if (!matched) {
      Row padded = l;
      padded.resize(padded.size() + right_width, Value::Null());
      out.push_back(std::move(padded));
    }
  }
  return out;
}

void SortRowsByHeadKeys(std::vector<Row>* rows,
                        const std::vector<OrderKeyC>& keys) {
  std::stable_sort(rows->begin(), rows->end(),
                   [&](const Row& a, const Row& b) {
                     for (const OrderKeyC& k : keys) {
                       int c = a[k.head_index].TotalOrderCompare(
                           b[k.head_index]);
                       if (c != 0) return k.ascending ? c < 0 : c > 0;
                     }
                     return false;
                   });
}

void ApplyLimit(const SelectStmt& stmt, std::vector<Row>* rows) {
  if (!stmt.limit.has_value() && !stmt.offset.has_value()) return;
  int64_t offset = stmt.offset.value_or(0);
  int64_t limit = stmt.limit.value_or(
      std::numeric_limits<int64_t>::max());
  std::vector<Row> out;
  for (Row& r : *rows) {
    if (offset > 0) {
      --offset;
      continue;
    }
    if (static_cast<int64_t>(out.size()) >= limit) break;
    out.push_back(std::move(r));
  }
  *rows = std::move(out);
}

Result<std::vector<Row>> EvalCore(State* st, const CheckedCore& core,
                                  const Scope* parent) {
  const SelectStmt& stmt = *core.stmt;
  Scope scope;
  scope.entries = &core.entries;
  scope.parent = parent;

  // FROM-less SELECT: the engine's zero-quantifier plan applies only the
  // WHERE predicate, the projection, and LIMIT/OFFSET.
  if (core.leaves.empty()) {
    std::vector<Row> out;
    Row empty;
    scope.row = &empty;
    bool keep = true;
    if (stmt.where) {
      XNF_ASSIGN_OR_RETURN(
          keep, EvalPred(st, *stmt.where, scope, nullptr));
    }
    if (keep) {
      Row row;
      for (const HeadCol& h : core.head) {
        XNF_ASSIGN_OR_RETURN(
            Value v, Eval(st, *h.expr, scope, nullptr));
        row.push_back(std::move(v));
      }
      out.push_back(std::move(row));
    }
    ApplyLimit(stmt, &out);
    return out;
  }

  XNF_ASSIGN_OR_RETURN(std::vector<Row> src,
                       CrossLeaves(st, core.leaves, 0, core.leaves.size()));

  std::vector<Row> filtered;
  for (Row& row : src) {
    scope.row = &row;
    bool keep = true;
    for (const Expr* p : core.inner_on) {
      XNF_ASSIGN_OR_RETURN(bool ok,
                           EvalPred(st, *p, scope, nullptr));
      if (!ok) {
        keep = false;
        break;
      }
    }
    if (keep && stmt.where) {
      XNF_ASSIGN_OR_RETURN(
          keep, EvalPred(st, *stmt.where, scope, nullptr));
    }
    if (keep) filtered.push_back(std::move(row));
  }

  std::vector<Row> projected;
  if (core.grouped) {
    // First-encounter group order; the representative is the first row.
    struct Group {
      std::vector<const Row*> rows;
    };
    std::vector<Row> keys_of;
    std::vector<Group> groups;
    std::unordered_map<Row, size_t, RowHashF, RowEqF> index;
    if (stmt.group_by.empty()) {
      groups.emplace_back();  // scalar aggregate: one group, possibly empty
      for (const Row& row : filtered) groups[0].rows.push_back(&row);
    } else {
      for (const Row& row : filtered) {
        scope.row = &row;
        Row key;
        for (const sql::ExprPtr& g : stmt.group_by) {
          XNF_ASSIGN_OR_RETURN(
              Value v, Eval(st, *g, scope, nullptr));
          key.push_back(std::move(v));
        }
        auto [it, inserted] = index.emplace(std::move(key), groups.size());
        if (inserted) groups.emplace_back();
        groups[it->second].rows.push_back(&row);
      }
    }
    for (const Group& g : groups) {
      Row rep = g.rows.empty() ? Row(core.width, Value::Null()) : *g.rows[0];
      Scope gscope;
      gscope.entries = &core.entries;
      gscope.row = &rep;
      gscope.parent = parent;
      GroupCtx gctx;
      gctx.rows = &g.rows;
      gctx.scope = &gscope;
      if (stmt.having) {
        XNF_ASSIGN_OR_RETURN(
            bool keep,
            EvalPred(st, *stmt.having, gscope, &gctx));
        if (!keep) continue;
      }
      Row out;
      for (const HeadCol& h : core.head) {
        if (h.expr == nullptr) {
          out.push_back(rep[h.offset]);
        } else {
          XNF_ASSIGN_OR_RETURN(
              Value v, Eval(st, *h.expr, gscope, &gctx));
          out.push_back(std::move(v));
        }
      }
      projected.push_back(std::move(out));
    }
  } else {
    if (core.has_expr_keys) {
      // Pre-projection sort of the source rows by the key expressions.
      std::vector<std::vector<Value>> key_vals;
      key_vals.reserve(filtered.size());
      for (const Row& row : filtered) {
        scope.row = &row;
        std::vector<Value> vals;
        for (const OrderKeyC& k : core.order) {
          XNF_ASSIGN_OR_RETURN(
              Value v, Eval(st, *k.expr, scope, nullptr));
          vals.push_back(std::move(v));
        }
        key_vals.push_back(std::move(vals));
      }
      std::vector<size_t> order(filtered.size());
      for (size_t i = 0; i < order.size(); ++i) order[i] = i;
      std::stable_sort(order.begin(), order.end(),
                       [&](size_t a, size_t b) {
                         for (size_t k = 0; k < core.order.size(); ++k) {
                           int c = key_vals[a][k].TotalOrderCompare(
                               key_vals[b][k]);
                           if (c != 0) {
                             return core.order[k].ascending ? c < 0 : c > 0;
                           }
                         }
                         return false;
                       });
      std::vector<Row> sorted;
      sorted.reserve(filtered.size());
      for (size_t i : order) sorted.push_back(std::move(filtered[i]));
      filtered = std::move(sorted);
    }
    for (const Row& row : filtered) {
      scope.row = &row;
      Row out;
      for (const HeadCol& h : core.head) {
        if (h.expr == nullptr) {
          out.push_back(row[h.offset]);
        } else {
          XNF_ASSIGN_OR_RETURN(
              Value v, Eval(st, *h.expr, scope, nullptr));
          out.push_back(std::move(v));
        }
      }
      projected.push_back(std::move(out));
    }
  }

  if (stmt.distinct) {
    std::unordered_set<Row, RowHashF, RowEqF> seen;
    std::vector<Row> deduped;
    for (Row& r : projected) {
      if (seen.insert(r).second) deduped.push_back(std::move(r));
    }
    projected = std::move(deduped);
  }

  if (core.has_head_keys) {
    SortRowsByHeadKeys(&projected, core.order);
  }

  ApplyLimit(stmt, &projected);
  return projected;
}

Result<std::vector<Row>> EvalChainRows(State* st, const CheckedChain& chain,
                                       const Scope* parent) {
  XNF_ASSIGN_OR_RETURN(std::vector<Row> rows,
                       EvalCore(st, chain.cores[0], parent));
  for (size_t i = 0; i + 1 < chain.cores.size(); ++i) {
    XNF_ASSIGN_OR_RETURN(std::vector<Row> right,
                         EvalCore(st, chain.cores[i + 1], parent));
    switch (chain.ops[i]) {
      case SelectStmt::SetOp::kUnionAll: {
        for (Row& r : right) rows.push_back(std::move(r));
        break;
      }
      case SelectStmt::SetOp::kUnion: {
        std::unordered_set<Row, RowHashF, RowEqF> seen;
        std::vector<Row> out;
        for (Row& r : rows) {
          if (seen.insert(r).second) out.push_back(std::move(r));
        }
        for (Row& r : right) {
          if (seen.insert(r).second) out.push_back(std::move(r));
        }
        rows = std::move(out);
        break;
      }
      case SelectStmt::SetOp::kIntersect:
      case SelectStmt::SetOp::kExcept: {
        bool is_except = chain.ops[i] == SelectStmt::SetOp::kExcept;
        std::unordered_set<Row, RowHashF, RowEqF> right_set(
            std::make_move_iterator(right.begin()),
            std::make_move_iterator(right.end()));
        std::unordered_set<Row, RowHashF, RowEqF> emitted;
        std::vector<Row> out;
        for (Row& r : rows) {
          bool in_right = right_set.count(r) > 0;
          if (in_right == is_except) continue;
          if (!emitted.insert(r).second) continue;
          out.push_back(std::move(r));
        }
        rows = std::move(out);
        break;
      }
    }
  }
  return rows;
}

}  // namespace

Result<SelectShape> CheckSelect(State* st, const sql::SelectStmt& stmt,
                                const Scope* parent) {
  XNF_ASSIGN_OR_RETURN(CheckedChain chain, CheckChain(st, stmt, parent));
  SelectShape shape;
  shape.names = std::move(chain.names);
  shape.types = std::move(chain.types);
  return shape;
}

Result<SelectOut> EvalSelect(State* st, const sql::SelectStmt& stmt,
                             const Scope* parent) {
  XNF_ASSIGN_OR_RETURN(CheckedChain chain, CheckChain(st, stmt, parent));
  SelectOut out;
  out.names = chain.names;
  out.types = chain.types;
  XNF_ASSIGN_OR_RETURN(out.rows, EvalChainRows(st, chain, parent));
  if (chain.cores.size() == 1) {
    const CheckedCore& core = chain.cores[0];
    if (core.has_head_keys && !core.leaves.empty()) {
      std::set<int> covered;
      for (const OrderKeyC& k : core.order) {
        out.order_keys.emplace_back(k.head_index, k.ascending);
        covered.insert(k.head_index);
      }
      out.full_order = covered.size() == core.head.size();
    }
  }
  return out;
}

// ------------------------------------------------------------- statements

namespace {

Result<int64_t> ExecInsert(State* st, const sql::InsertStmt& stmt) {
  auto it = st->tables.find(ToLower(stmt.table));
  if (it == st->tables.end()) {
    return Status::NotFound("table '" + stmt.table + "' not found");
  }
  RefTable& table = it->second;
  const Schema& schema = table.schema;

  std::vector<size_t> positions;
  if (stmt.columns.empty()) {
    for (size_t i = 0; i < schema.size(); ++i) positions.push_back(i);
  } else {
    for (const std::string& c : stmt.columns) {
      XNF_ASSIGN_OR_RETURN(size_t i, schema.Resolve("", c));
      positions.push_back(i);
    }
  }

  std::vector<Row> rows;
  if (stmt.select != nullptr) {
    XNF_ASSIGN_OR_RETURN(SelectOut out, EvalSelect(st, *stmt.select, nullptr));
    if (out.names.size() != positions.size()) {
      return Status::InvalidArgument("INSERT ... SELECT column count mismatch");
    }
    rows = std::move(out.rows);
  } else {
    // Constant expressions: checked and evaluated over an empty scope, like
    // the engine's CompileScalar with no source — column references fail to
    // resolve and subqueries are rejected.
    std::vector<Entry> entries;
    Row empty_row;
    Scope scope;
    scope.entries = &entries;
    scope.row = &empty_row;
    for (const auto& value_row : stmt.rows) {
      if (value_row.size() != positions.size()) {
        return Status::InvalidArgument("INSERT value count mismatch");
      }
      Row row;
      row.reserve(value_row.size());
      for (const sql::ExprPtr& e : value_row) {
        XNF_RETURN_IF_ERROR(CheckScalar(st, *e, scope, true).status());
        XNF_ASSIGN_OR_RETURN(Value v,
                             Eval(st, *e, scope, nullptr));
        row.push_back(std::move(v));
      }
      rows.push_back(std::move(row));
    }
  }

  // Apply statement-atomically: each row is coerced, constraint-checked,
  // and checked against the primary keys of existing rows and of the rows
  // inserted so far; any failure leaves the table untouched.
  auto pk = schema.PrimaryKeyIndex();
  std::vector<Row> staged;
  for (Row& src : rows) {
    Row full(schema.size(), Value::Null());
    for (size_t i = 0; i < positions.size(); ++i) {
      full[positions[i]] = std::move(src[i]);
    }
    XNF_RETURN_IF_ERROR(schema.CheckAndCoerceRow(&full));
    if (pk.has_value()) {
      auto collides = [&](const std::vector<Row>& existing) {
        for (const Row& r : existing) {
          if (r[*pk].GroupEquals(full[*pk])) return true;
        }
        return false;
      };
      if (collides(table.rows) || collides(staged)) {
        return Status::AlreadyExists("duplicate key in unique index");
      }
    }
    staged.push_back(std::move(full));
  }
  int64_t inserted = static_cast<int64_t>(staged.size());
  for (Row& r : staged) {
    table.rows.push_back(std::move(r));
    table.rids.push_back(table.next_rid++);
  }
  return inserted;
}

Result<int64_t> ExecUpdate(State* st, const sql::UpdateStmt& stmt) {
  std::string key = ToLower(stmt.table);
  auto it = st->tables.find(key);
  if (it == st->tables.end()) {
    return Status::NotFound("table '" + stmt.table + "' not found");
  }
  RefTable& table = it->second;

  std::vector<Entry> entries;
  entries.push_back(Entry{key, table.schema, 0});
  Scope scope;
  scope.entries = &entries;
  if (stmt.where) {
    XNF_RETURN_IF_ERROR(CheckScalar(st, *stmt.where, scope, true).status());
  }
  struct Asg {
    size_t column;
    const Expr* expr;
  };
  std::vector<Asg> assignments;
  for (const auto& [col, expr] : stmt.assignments) {
    XNF_ASSIGN_OR_RETURN(size_t i, table.schema.Resolve("", col));
    XNF_RETURN_IF_ERROR(CheckScalar(st, *expr, scope, true).status());
    assignments.push_back(Asg{i, expr.get()});
  }

  // Phase 1: the WHERE predicate is evaluated on every row (its errors fire
  // even for rows that would not match); assignment expressions are
  // evaluated only for matched rows, against the original values.
  std::vector<std::pair<size_t, Row>> planned;
  for (size_t ri = 0; ri < table.rows.size(); ++ri) {
    const Row& row = table.rows[ri];
    scope.row = &row;
    if (stmt.where) {
      XNF_ASSIGN_OR_RETURN(
          bool keep, EvalPred(st, *stmt.where, scope, nullptr));
      if (!keep) continue;
    }
    Row updated = row;
    for (const Asg& a : assignments) {
      XNF_ASSIGN_OR_RETURN(Value v,
                           Eval(st, *a.expr, scope, nullptr));
      updated[a.column] = std::move(v);
    }
    planned.emplace_back(ri, std::move(updated));
  }

  // Phase 2: apply atomically over a staged copy; primary-key collisions
  // are checked against the in-progress state, like sequential unique-index
  // maintenance.
  std::vector<Row> staged = table.rows;
  auto pk = table.schema.PrimaryKeyIndex();
  for (auto& [ri, new_row] : planned) {
    XNF_RETURN_IF_ERROR(table.schema.CheckAndCoerceRow(&new_row));
    if (pk.has_value()) {
      for (size_t j = 0; j < staged.size(); ++j) {
        if (j == ri) continue;
        if (staged[j][*pk].GroupEquals(new_row[*pk])) {
          return Status::AlreadyExists("duplicate key in unique index");
        }
      }
    }
    staged[ri] = std::move(new_row);
  }
  table.rows = std::move(staged);
  return static_cast<int64_t>(planned.size());
}

Result<int64_t> ExecDelete(State* st, const sql::DeleteStmt& stmt) {
  std::string key = ToLower(stmt.table);
  auto it = st->tables.find(key);
  if (it == st->tables.end()) {
    return Status::NotFound("table '" + stmt.table + "' not found");
  }
  RefTable& table = it->second;
  std::vector<Entry> entries;
  entries.push_back(Entry{key, table.schema, 0});
  Scope scope;
  scope.entries = &entries;
  if (stmt.where) {
    XNF_RETURN_IF_ERROR(CheckScalar(st, *stmt.where, scope, true).status());
  }
  std::vector<char> victim(table.rows.size(), stmt.where == nullptr);
  if (stmt.where) {
    for (size_t ri = 0; ri < table.rows.size(); ++ri) {
      scope.row = &table.rows[ri];
      XNF_ASSIGN_OR_RETURN(
          bool keep, EvalPred(st, *stmt.where, scope, nullptr));
      victim[ri] = keep;
    }
  }
  std::vector<Row> rows;
  std::vector<int64_t> rids;
  int64_t removed = 0;
  for (size_t ri = 0; ri < table.rows.size(); ++ri) {
    if (victim[ri]) {
      ++removed;
      continue;
    }
    rows.push_back(std::move(table.rows[ri]));
    rids.push_back(table.rids[ri]);
  }
  table.rows = std::move(rows);
  table.rids = std::move(rids);
  return removed;
}

bool NameExists(const State& st, const std::string& key) {
  return st.tables.count(key) > 0 || st.views.count(key) > 0;
}

Result<RefOutcome> DispatchSql(State* st, sql::Statement& stmt) {
  RefOutcome out;
  switch (stmt.kind) {
    case sql::Statement::Kind::kSelect: {
      XNF_ASSIGN_OR_RETURN(SelectOut sel,
                           EvalSelect(st, *stmt.select, nullptr));
      out.kind = RefOutcome::Kind::kRows;
      out.rows = std::move(sel.rows);
      out.order_keys = std::move(sel.order_keys);
      out.full_order = sel.full_order;
      return out;
    }
    case sql::Statement::Kind::kCreateTable: {
      std::string key = ToLower(stmt.create_table->name);
      if (NameExists(*st, key)) {
        return Status::AlreadyExists("object '" + stmt.create_table->name +
                                     "' already exists");
      }
      Schema schema;
      for (const sql::ColumnDef& c : stmt.create_table->columns) {
        Column col(ToLower(c.name), c.type);
        col.not_null = c.not_null;
        col.primary_key = c.primary_key;
        schema.AddColumn(std::move(col));
      }
      RefTable table;
      table.schema = schema.WithQualifier(key);
      bool has_pk = table.schema.PrimaryKeyIndex().has_value();
      st->tables.emplace(key, std::move(table));
      st->table_order.push_back(key);
      auto& indexes = st->table_indexes[key];
      if (has_pk) indexes.insert(key + "_pk");
      return out;
    }
    case sql::Statement::Kind::kCreateIndex: {
      const sql::CreateIndexStmt& ci = *stmt.create_index;
      std::string tkey = ToLower(ci.table);
      auto it = st->tables.find(tkey);
      if (it == st->tables.end()) {
        return Status::NotFound("table '" + ci.table + "' not found");
      }
      std::string iname = ToLower(ci.name);
      auto& names = st->table_indexes[tkey];
      if (names.count(iname) > 0) {
        return Status::AlreadyExists("index '" + ci.name +
                                     "' already exists");
      }
      std::vector<size_t> cols;
      for (const std::string& c : ci.columns) {
        XNF_ASSIGN_OR_RETURN(size_t i, it->second.schema.Resolve("", c));
        cols.push_back(i);
      }
      if (ci.unique) {
        // Backfill over existing rows fails on duplicate keys, discarding
        // the index.
        std::unordered_set<Row, RowHashF, RowEqF> seen;
        for (const Row& r : it->second.rows) {
          Row key_row;
          for (size_t i : cols) key_row.push_back(r[i]);
          if (!seen.insert(std::move(key_row)).second) {
            return Status::AlreadyExists("duplicate key in unique index");
          }
        }
      }
      names.insert(iname);
      return out;
    }
    case sql::Statement::Kind::kCreateView: {
      const sql::CreateViewStmt& cv = *stmt.create_view;
      std::string key = ToLower(cv.name);
      if (cv.is_xnf) {
        XNF_RETURN_IF_ERROR(CreateXnfView(st, cv.name, cv.definition));
        return out;
      }
      // The body is validated before the name, matching the engine (which
      // builds the view body before the catalog's existence check).
      sql::Parser body(cv.definition);
      XNF_ASSIGN_OR_RETURN(std::unique_ptr<SelectStmt> select,
                           body.ParseSelect());
      XNF_RETURN_IF_ERROR(CheckSelect(st, *select, nullptr).status());
      if (NameExists(*st, key)) {
        return Status::AlreadyExists("object '" + cv.name +
                                     "' already exists");
      }
      RefView view;
      view.is_xnf = false;
      view.definition = cv.definition;
      st->views.emplace(key, std::move(view));
      return out;
    }
    case sql::Statement::Kind::kInsert: {
      XNF_ASSIGN_OR_RETURN(out.affected, ExecInsert(st, *stmt.insert));
      out.kind = RefOutcome::Kind::kAffected;
      return out;
    }
    case sql::Statement::Kind::kUpdate: {
      XNF_ASSIGN_OR_RETURN(out.affected, ExecUpdate(st, *stmt.update));
      out.kind = RefOutcome::Kind::kAffected;
      return out;
    }
    case sql::Statement::Kind::kDelete: {
      XNF_ASSIGN_OR_RETURN(out.affected, ExecDelete(st, *stmt.del));
      out.kind = RefOutcome::Kind::kAffected;
      return out;
    }
    case sql::Statement::Kind::kDrop: {
      const std::string key = ToLower(stmt.drop->name);
      if (stmt.drop->is_view) {
        if (st->views.erase(key) == 0) {
          return Status::NotFound("view '" + stmt.drop->name + "' not found");
        }
        return out;
      }
      if (st->tables.erase(key) == 0) {
        return Status::NotFound("table '" + stmt.drop->name + "' not found");
      }
      st->table_indexes.erase(key);
      st->table_order.erase(
          std::remove(st->table_order.begin(), st->table_order.end(), key),
          st->table_order.end());
      return out;
    }
    case sql::Statement::Kind::kExplain:
      // The fuzz generator never emits EXPLAIN; the engine renders plan
      // text the reference has no counterpart for.
      return Status::NotSupported("EXPLAIN is not supported by the reference");
  }
  return Status::Internal("unhandled statement kind");
}

}  // namespace

RefOutcome ExecuteSqlStatement(State* st, const std::string& text) {
  sql::Parser parser(text);
  Result<sql::Statement> parsed = parser.ParseStatement();
  if (!parsed.ok()) return RefOutcome::Error(parsed.status());
  if (!parser.AtEnd()) {
    return RefOutcome::Error(parser.MakeError("unexpected trailing input"));
  }
  Result<RefOutcome> out = DispatchSql(st, *parsed);
  if (!out.ok()) return RefOutcome::Error(out.status());
  return std::move(*out);
}

}  // namespace xnf::testing::refi
