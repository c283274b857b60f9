#include "qgm/builder.h"

#include <algorithm>

#include "common/str_util.h"
#include "sql/parser.h"

namespace xnf::qgm {

namespace {

bool IsAggName(const std::string& lower_name) {
  return lower_name == "count" || lower_name == "sum" || lower_name == "avg" ||
         lower_name == "min" || lower_name == "max";
}

bool IsComparison(sql::BinOp op) {
  switch (op) {
    case sql::BinOp::kEq:
    case sql::BinOp::kNe:
    case sql::BinOp::kLt:
    case sql::BinOp::kLe:
    case sql::BinOp::kGt:
    case sql::BinOp::kGe:
      return true;
    default:
      return false;
  }
}

Type WidenNumeric(Type a, Type b) {
  if (a == Type::kDouble || b == Type::kDouble) return Type::kDouble;
  return Type::kInt;
}

}  // namespace

Result<Type> BinaryResultType(sql::BinOp op, Type left, Type right) {
  auto numeric = [](Type t) {
    return t == Type::kInt || t == Type::kDouble || t == Type::kNull;
  };
  switch (op) {
    case sql::BinOp::kAnd:
    case sql::BinOp::kOr:
      return Type::kBool;
    case sql::BinOp::kEq:
    case sql::BinOp::kNe:
    case sql::BinOp::kLt:
    case sql::BinOp::kLe:
    case sql::BinOp::kGt:
    case sql::BinOp::kGe: {
      // Comparable: same family, or either side NULL-typed.
      bool ok = left == Type::kNull || right == Type::kNull ||
                (numeric(left) && numeric(right)) || left == right;
      if (!ok) {
        return Status::InvalidArgument(
            std::string("cannot compare ") + TypeName(left) + " with " +
            TypeName(right));
      }
      return Type::kBool;
    }
    case sql::BinOp::kAdd:
    case sql::BinOp::kSub:
    case sql::BinOp::kMul:
    case sql::BinOp::kDiv:
    case sql::BinOp::kMod:
      if (!numeric(left) || !numeric(right)) {
        return Status::InvalidArgument(
            std::string("arithmetic requires numeric operands, got ") +
            TypeName(left) + " and " + TypeName(right));
      }
      if (left == Type::kNull && right == Type::kNull) return Type::kInt;
      if (left == Type::kNull) return right;
      if (right == Type::kNull) return left;
      return WidenNumeric(left, right);
    case sql::BinOp::kConcat:
      if ((left != Type::kString && left != Type::kNull) ||
          (right != Type::kString && right != Type::kNull)) {
        return Status::InvalidArgument("|| requires string operands");
      }
      return Type::kString;
  }
  return Status::Internal("unhandled binary operator");
}

// --- scopes ---------------------------------------------------------------

struct Builder::Scope {
  struct Entry {
    std::string alias;  // "" when the source carries its own qualifiers
    Schema schema;
    int quantifier = -1;
  };
  std::vector<Entry> entries;
  Scope* parent = nullptr;
  // Sink for correlated references that resolve above this scope: each new
  // binding expression (in the parent scope's terms) is appended here; the
  // reference becomes kParam(index). Null only for root scopes.
  std::vector<ExprPtr>* bindings = nullptr;
};

struct Builder::ExprCtx {
  Scope* scope = nullptr;
  QueryGraph* graph = nullptr;
  Box* box = nullptr;        // box under construction (for aggs/subqueries)
  bool allow_aggs = false;   // true in SELECT list / HAVING / ORDER BY
  bool in_agg = false;       // inside an aggregate argument
  bool allow_paths = false;  // EXISTS path / COUNT(path) build kPath
};

// --- entry points ----------------------------------------------------------

Result<QueryGraph> Builder::Build(const sql::SelectStmt& stmt) {
  QueryGraph graph;
  XNF_ASSIGN_OR_RETURN(graph.root,
                       BuildSelectChain(stmt, &graph, nullptr, nullptr));
  return graph;
}

Result<ExprPtr> Builder::BuildScalar(const sql::Expr& expr,
                                     const ScalarScope& scope,
                                     std::vector<ExprPtr>* outer_refs) {
  std::function<Status(const sql::Expr&)> admit =
      [&](const sql::Expr& e) -> Status {
    if (e.subquery != nullptr) {
      return Status::NotSupported("subqueries are not supported here");
    }
    if (e.kind == sql::Expr::Kind::kParam && !scope.allow_params) {
      return Status::NotSupported("parameters are not supported here");
    }
    for (const sql::ExprPtr& a : e.args) {
      if (a) XNF_RETURN_IF_ERROR(admit(*a));
    }
    return Status::Ok();
  };
  XNF_RETURN_IF_ERROR(admit(expr));

  auto fill = [](const std::vector<ScalarSource>& sources, Scope* out) {
    for (size_t i = 0; i < sources.size(); ++i) {
      std::string alias = ToLower(sources[i].alias);
      out->entries.push_back(Scope::Entry{
          alias, sources[i].schema->WithQualifier(alias), static_cast<int>(i)});
    }
  };
  Scope outer;
  fill(scope.outer, &outer);
  std::vector<ExprPtr> refs;
  Scope local;
  fill(scope.sources, &local);
  if (!scope.outer.empty()) {
    local.parent = &outer;
    local.bindings = &refs;
  }
  QueryGraph graph;
  Box box;
  box.kind = Box::Kind::kSelect;
  ExprCtx ctx;
  ctx.scope = &local;
  ctx.graph = &graph;
  ctx.box = &box;
  ctx.allow_paths = scope.allow_paths;
  XNF_ASSIGN_OR_RETURN(ExprPtr out, BuildExpr(expr, &ctx));
  if (outer_refs != nullptr) *outer_refs = std::move(refs);
  return out;
}

namespace {

// Merges the schemas of two set-operation branches: same arity, types
// widened (int/double) or errored.
Result<Schema> MergeSetOpSchemas(const Schema& left, const Schema& right) {
  if (left.size() != right.size()) {
    return Status::InvalidArgument(
        "set operation branches have different numbers of columns");
  }
  Schema out = left;
  for (size_t c = 0; c < out.size(); ++c) {
    Type a = out.column(c).type;
    Type b = right.column(c).type;
    if (a == b || b == Type::kNull) continue;
    if (a == Type::kNull) {
      out.column(c).type = b;
    } else if ((a == Type::kInt || a == Type::kDouble) &&
               (b == Type::kInt || b == Type::kDouble)) {
      out.column(c).type = Type::kDouble;
    } else {
      return Status::InvalidArgument(
          "set operation branch column types differ");
    }
  }
  return out;
}

}  // namespace

Result<int> Builder::BuildSelectChain(const sql::SelectStmt& stmt,
                                      QueryGraph* graph, Scope* parent,
                                      std::vector<ExprPtr>* bindings) {
  // Left-associative chain of set operations (UNION [ALL] / INTERSECT /
  // EXCEPT); each link becomes one kUnion box over two inputs.
  XNF_ASSIGN_OR_RETURN(int left,
                       BuildSelectBox(stmt, graph, parent, bindings));
  const sql::SelectStmt* link = &stmt;
  while (link->union_next != nullptr) {
    const sql::SelectStmt* next = link->union_next.get();
    XNF_ASSIGN_OR_RETURN(int right,
                         BuildSelectBox(*next, graph, parent, bindings));
    auto box = std::make_unique<Box>();
    box->kind = Box::Kind::kUnion;
    box->union_inputs = {left, right};
    switch (link->set_op) {
      case sql::SelectStmt::SetOp::kUnionAll:
        box->set_op = Box::SetOpKind::kUnionAll;
        box->union_all = true;
        break;
      case sql::SelectStmt::SetOp::kUnion:
        box->set_op = Box::SetOpKind::kUnionDistinct;
        break;
      case sql::SelectStmt::SetOp::kIntersect:
        box->set_op = Box::SetOpKind::kIntersect;
        break;
      case sql::SelectStmt::SetOp::kExcept:
        box->set_op = Box::SetOpKind::kExcept;
        break;
    }
    XNF_ASSIGN_OR_RETURN(
        box->values_schema,
        MergeSetOpSchemas(graph->box(left)->OutputSchema(),
                          graph->box(right)->OutputSchema()));
    left = graph->AddBox(std::move(box));
    link = next;
  }
  return left;
}

// --- FROM clause -----------------------------------------------------------

Status Builder::AddNamedSource(const std::string& name,
                               const std::string& alias, QueryGraph* graph,
                               Box* box, Scope* scope) {
  std::string key = ToLower(name);
  std::string effective_alias = ToLower(alias.empty() ? name : alias);

  // (1) Extra resolver (temp tables / XNF view components).
  if (extra_) {
    XNF_ASSIGN_OR_RETURN(const ResultSet* ext, extra_(key));
    if (ext != nullptr) {
      auto values = std::make_unique<Box>();
      values->kind = Box::Kind::kValues;
      values->values_schema = ext->schema;
      values->values_ext = ext;
      int vb = graph->AddBox(std::move(values));
      Quantifier q;
      q.input_box = vb;
      q.alias = effective_alias;
      q.schema = ext->schema.WithQualifier(effective_alias);
      box->quantifiers.push_back(std::move(q));
      scope->entries.push_back(Scope::Entry{
          effective_alias, box->quantifiers.back().schema,
          static_cast<int>(box->quantifiers.size() - 1)});
      return Status::Ok();
    }
  }

  // (2) Base table.
  if (TableInfo* table = catalog_->GetTable(key); table != nullptr) {
    Quantifier q;
    q.input_box = -1;
    q.base_table = key;
    q.alias = effective_alias;
    q.schema = table->schema.WithQualifier(effective_alias);
    box->quantifiers.push_back(std::move(q));
    scope->entries.push_back(
        Scope::Entry{effective_alias, box->quantifiers.back().schema,
                     static_cast<int>(box->quantifiers.size() - 1)});
    return Status::Ok();
  }

  // (3) SQL view: parse and expand in place (view merging happens later in
  // the rewrite phase).
  if (const ViewInfo* view = catalog_->GetView(key); view != nullptr) {
    if (view->is_xnf) {
      return Status::InvalidArgument(
          "'" + name +
          "' is an XNF composite-object view; reference it with OUT OF or as "
          "view.component");
    }
    for (const std::string& v : view_stack_) {
      if (v == key) {
        return Status::InvalidArgument("cyclic view definition involving '" +
                                       name + "'");
      }
    }
    sql::Parser parser(view->definition);
    XNF_ASSIGN_OR_RETURN(std::unique_ptr<sql::SelectStmt> body,
                         parser.ParseSelect());
    view_stack_.push_back(key);
    Result<int> sub = BuildSelectChain(*body, graph, nullptr, nullptr);
    view_stack_.pop_back();
    if (!sub.ok()) return sub.status();
    Quantifier q;
    q.input_box = *sub;
    q.alias = effective_alias;
    q.schema = graph->box(*sub)->OutputSchema().WithQualifier(effective_alias);
    box->quantifiers.push_back(std::move(q));
    scope->entries.push_back(
        Scope::Entry{effective_alias, box->quantifiers.back().schema,
                     static_cast<int>(box->quantifiers.size() - 1)});
    return Status::Ok();
  }

  return Status::NotFound("table or view '" + name + "' not found");
}

Status Builder::AddTableRef(const sql::TableRef& ref, QueryGraph* graph,
                            Box* box, Scope* scope) {
  switch (ref.kind) {
    case sql::TableRef::Kind::kNamed:
      return AddNamedSource(ref.name, ref.alias, graph, box, scope);
    case sql::TableRef::Kind::kSubquery: {
      XNF_ASSIGN_OR_RETURN(
          int sub, BuildSelectChain(*ref.subquery, graph, nullptr, nullptr));
      std::string alias = ToLower(ref.alias);
      Quantifier q;
      q.input_box = sub;
      q.alias = alias;
      q.schema = graph->box(sub)->OutputSchema().WithQualifier(alias);
      box->quantifiers.push_back(std::move(q));
      scope->entries.push_back(
          Scope::Entry{alias, box->quantifiers.back().schema,
                       static_cast<int>(box->quantifiers.size() - 1)});
      return Status::Ok();
    }
    case sql::TableRef::Kind::kJoin: {
      if (ref.join_type == sql::JoinType::kInner) {
        // Flatten: both sides become quantifiers, ON becomes predicates.
        XNF_RETURN_IF_ERROR(AddTableRef(*ref.left, graph, box, scope));
        XNF_RETURN_IF_ERROR(AddTableRef(*ref.right, graph, box, scope));
        ExprCtx ctx;
        ctx.scope = scope;
        ctx.graph = graph;
        ctx.box = box;
        XNF_ASSIGN_OR_RETURN(ExprPtr on, BuildExpr(*ref.on, &ctx));
        SplitConjuncts(std::move(on), &box->predicates);
        return Status::Ok();
      }
      // LEFT OUTER JOIN: build a dedicated nested box.
      auto sub = std::make_unique<Box>();
      sub->kind = Box::Kind::kSelect;
      Scope sub_scope;
      sub_scope.parent = nullptr;
      XNF_RETURN_IF_ERROR(AddTableRef(*ref.left, graph, sub.get(), &sub_scope));
      sub->left_outer_from = static_cast<int>(sub->quantifiers.size());
      XNF_RETURN_IF_ERROR(
          AddTableRef(*ref.right, graph, sub.get(), &sub_scope));
      ExprCtx ctx;
      ctx.scope = &sub_scope;
      ctx.graph = graph;
      ctx.box = sub.get();
      XNF_ASSIGN_OR_RETURN(ExprPtr on, BuildExpr(*ref.on, &ctx));
      SplitConjuncts(std::move(on), &sub->outer_join_predicates);
      // Head: all columns of all quantifiers, keeping their qualifiers so
      // the enclosing query can still address them as alias.column.
      for (size_t qi = 0; qi < sub->quantifiers.size(); ++qi) {
        const Schema& s = sub->quantifiers[qi].schema;
        for (size_t c = 0; c < s.size(); ++c) {
          HeadExpr h;
          h.expr = Expr::InputRef(static_cast<int>(qi), static_cast<int>(c),
                                  s.column(c).type);
          h.name = s.column(c).name;
          h.type = s.column(c).type;
          sub->head.push_back(std::move(h));
        }
      }
      // Output schema qualifiers follow the nested quantifiers.
      int sub_index = graph->AddBox(std::move(sub));
      Box* sub_box = graph->box(sub_index);
      Schema joined;
      for (const Quantifier& q : sub_box->quantifiers) {
        for (const Column& c : q.schema.columns()) joined.AddColumn(c);
      }
      Quantifier q;
      q.input_box = sub_index;
      q.alias = "";  // columns keep their own qualifiers
      q.schema = joined;
      box->quantifiers.push_back(std::move(q));
      scope->entries.push_back(
          Scope::Entry{"", box->quantifiers.back().schema,
                       static_cast<int>(box->quantifiers.size() - 1)});
      return Status::Ok();
    }
  }
  return Status::Internal("unhandled table ref kind");
}

// --- SELECT box ------------------------------------------------------------

Result<int> Builder::BuildSelectBox(const sql::SelectStmt& stmt,
                                    QueryGraph* graph, Scope* parent,
                                    std::vector<ExprPtr>* bindings) {
  auto box = std::make_unique<Box>();
  box->kind = Box::Kind::kSelect;
  Scope scope;
  scope.parent = parent;
  scope.bindings = bindings;

  for (const auto& ref : stmt.from) {
    XNF_RETURN_IF_ERROR(AddTableRef(*ref, graph, box.get(), &scope));
  }

  ExprCtx where_ctx;
  where_ctx.scope = &scope;
  where_ctx.graph = graph;
  where_ctx.box = box.get();
  where_ctx.allow_aggs = false;
  if (stmt.where) {
    XNF_ASSIGN_OR_RETURN(ExprPtr where, BuildExpr(*stmt.where, &where_ctx));
    SplitConjuncts(std::move(where), &box->predicates);
  }

  // GROUP BY keys.
  ExprCtx group_ctx = where_ctx;
  for (const auto& g : stmt.group_by) {
    XNF_ASSIGN_OR_RETURN(ExprPtr key, BuildExpr(*g, &group_ctx));
    box->group_by.push_back(std::move(key));
  }

  // SELECT list.
  ExprCtx head_ctx = where_ctx;
  head_ctx.allow_aggs = true;
  for (const auto& item : stmt.items) {
    if (item.star) {
      std::string qualifier = ToLower(item.star_table);
      bool matched = false;
      for (size_t qi = 0; qi < box->quantifiers.size(); ++qi) {
        const Quantifier& q = box->quantifiers[qi];
        const Schema& s = q.schema;
        for (size_t c = 0; c < s.size(); ++c) {
          if (!qualifier.empty() &&
              !EqualsIgnoreCase(s.column(c).table, qualifier)) {
            continue;
          }
          matched = true;
          HeadExpr h;
          h.expr = Expr::InputRef(static_cast<int>(qi), static_cast<int>(c),
                                  s.column(c).type);
          h.name = s.column(c).name;
          h.type = s.column(c).type;
          box->head.push_back(std::move(h));
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
    HeadExpr h;
    XNF_ASSIGN_OR_RETURN(h.expr, BuildExpr(*item.expr, &head_ctx));
    h.type = h.expr->type;
    if (!item.alias.empty()) {
      h.name = ToLower(item.alias);
    } else if (item.expr->kind == sql::Expr::Kind::kColumnRef) {
      h.name = ToLower(item.expr->column);
    } else {
      h.name = "col" + std::to_string(box->head.size() + 1);
    }
    box->head.push_back(std::move(h));
  }

  // HAVING.
  if (stmt.having) {
    ExprCtx having_ctx = head_ctx;
    XNF_ASSIGN_OR_RETURN(box->having, BuildExpr(*stmt.having, &having_ctx));
  }

  bool grouped = !box->group_by.empty() || !box->aggs.empty();
  if (grouped) {
    for (const HeadExpr& h : box->head) {
      XNF_RETURN_IF_ERROR(ValidateGroupedExpr(*h.expr, *box, "SELECT list"));
    }
    if (box->having) {
      XNF_RETURN_IF_ERROR(ValidateGroupedExpr(*box->having, *box, "HAVING"));
    }
  } else if (box->having) {
    return Status::InvalidArgument("HAVING without GROUP BY or aggregates");
  }

  // ORDER BY: try head alias/position first, else expression over inputs.
  for (const auto& o : stmt.order_by) {
    OrderKey key;
    key.ascending = o.ascending;
    bool resolved = false;
    if (o.expr->kind == sql::Expr::Kind::kColumnRef && o.expr->table.empty()) {
      std::string name = ToLower(o.expr->column);
      for (size_t i = 0; i < box->head.size(); ++i) {
        if (box->head[i].name == name) {
          key.head_index = static_cast<int>(i);
          resolved = true;
          break;
        }
      }
    } else if (o.expr->kind == sql::Expr::Kind::kLiteral &&
               o.expr->literal.is_int()) {
      int64_t pos = o.expr->literal.AsInt();
      if (pos < 1 || pos > static_cast<int64_t>(box->head.size())) {
        return Status::InvalidArgument("ORDER BY position out of range");
      }
      key.head_index = static_cast<int>(pos - 1);
      resolved = true;
    }
    if (!resolved) {
      ExprCtx order_ctx = head_ctx;
      XNF_ASSIGN_OR_RETURN(key.expr, BuildExpr(*o.expr, &order_ctx));
      if (grouped) {
        // Must match a head expression in grouped queries.
        for (size_t i = 0; i < box->head.size(); ++i) {
          if (ExprEquals(*box->head[i].expr, *key.expr)) {
            key.head_index = static_cast<int>(i);
            key.expr.reset();
            break;
          }
        }
        if (key.head_index < 0) {
          return Status::NotSupported(
              "ORDER BY expression must appear in the SELECT list of a "
              "grouped query");
        }
      }
    }
    box->order_by.push_back(std::move(key));
  }

  box->distinct = stmt.distinct;
  box->limit = stmt.limit;
  box->offset = stmt.offset;
  return graph->AddBox(std::move(box));
}

Status Builder::ValidateGroupedExpr(const Expr& expr, const Box& box,
                                    const char* where) const {
  // Valid if the subtree equals a grouping key.
  for (const ExprPtr& g : box.group_by) {
    if (ExprEquals(*g, expr)) return Status::Ok();
  }
  if (expr.kind == Expr::Kind::kInputRef) {
    return Status::InvalidArgument(
        std::string("column in ") + where +
        " must appear in GROUP BY or inside an aggregate");
  }
  for (const ExprPtr& a : expr.args) {
    if (a) XNF_RETURN_IF_ERROR(ValidateGroupedExpr(*a, box, where));
  }
  return Status::Ok();
}

// --- expressions -----------------------------------------------------------

Result<ExprPtr> Builder::ResolveColumn(const std::string& table,
                                       const std::string& column,
                                       ExprCtx* ctx) {
  std::string tbl = ToLower(table);
  std::string col = ToLower(column);
  Scope* scope = ctx->scope;

  // Local resolution.
  std::optional<std::pair<int, size_t>> found;  // quantifier, column
  Type found_type = Type::kNull;
  for (const Scope::Entry& entry : scope->entries) {
    if (!tbl.empty()) {
      if (!entry.alias.empty() && !EqualsIgnoreCase(entry.alias, tbl)) {
        continue;
      }
      // For anonymous entries (flattened outer joins) the schema's own
      // column qualifiers discriminate.
      auto idx = entry.alias.empty() ? entry.schema.Resolve(tbl, col)
                                     : entry.schema.Resolve("", col);
      if (!idx.ok()) {
        if (idx.status().code() == StatusCode::kNotFound) continue;
        return idx.status();
      }
      if (found.has_value()) {
        return Status::InvalidArgument("ambiguous column '" + table + "." +
                                       column + "'");
      }
      found = {entry.quantifier, *idx};
      found_type = entry.schema.column(*idx).type;
    } else {
      auto idx = entry.schema.Find(col);
      if (!idx.has_value()) continue;
      if (found.has_value()) {
        return Status::InvalidArgument("ambiguous column '" + column + "'");
      }
      // Ambiguity within one entry.
      size_t count = 0;
      for (const Column& c : entry.schema.columns()) {
        if (EqualsIgnoreCase(c.name, col)) ++count;
      }
      if (count > 1) {
        return Status::InvalidArgument("ambiguous column '" + column + "'");
      }
      found = {entry.quantifier, *idx};
      found_type = entry.schema.column(*idx).type;
    }
  }
  if (found.has_value()) {
    return Expr::InputRef(found->first, static_cast<int>(found->second),
                          found_type);
  }

  // Correlated resolution in the enclosing scope.
  if (scope->parent != nullptr) {
    ExprCtx outer_ctx = *ctx;
    outer_ctx.scope = scope->parent;
    // The parent's box is unknown here; correlated bindings may only be
    // simple column references, which don't need the box. Pass through.
    XNF_ASSIGN_OR_RETURN(ExprPtr outer, ResolveColumn(table, column,
                                                      &outer_ctx));
    if (scope->bindings == nullptr) {
      return Status::Internal("correlated reference without binding sink");
    }
    // Reuse an existing identical binding when present.
    for (size_t i = 0; i < scope->bindings->size(); ++i) {
      if (ExprEquals(*(*scope->bindings)[i], *outer)) {
        auto param = std::make_unique<Expr>(Expr::Kind::kParam);
        param->param_index = static_cast<int>(i);
        param->type = outer->type;
        return ExprPtr(std::move(param));
      }
    }
    auto param = std::make_unique<Expr>(Expr::Kind::kParam);
    param->param_index = static_cast<int>(scope->bindings->size());
    param->type = outer->type;
    scope->bindings->push_back(std::move(outer));
    return ExprPtr(std::move(param));
  }

  return Status::NotFound("column '" +
                          (table.empty() ? column : table + "." + column) +
                          "' not found");
}

Result<ExprPtr> Builder::BuildAggCall(const sql::Expr& expr, ExprCtx* ctx) {
  if (!ctx->allow_aggs) {
    return Status::InvalidArgument("aggregate '" + expr.column +
                                   "' is not allowed here");
  }
  if (ctx->in_agg) {
    return Status::InvalidArgument("nested aggregates are not allowed");
  }
  AggSpec spec;
  std::string name = ToLower(expr.column);
  bool star =
      expr.args.size() == 1 && expr.args[0]->kind == sql::Expr::Kind::kStar;
  if (name == "count") {
    spec.func = star ? AggFunc::kCountStar : AggFunc::kCount;
    spec.result_type = Type::kInt;
  } else if (name == "sum" || name == "avg" || name == "min" ||
             name == "max") {
    if (star) {
      return Status::InvalidArgument(name + "(*) is not valid");
    }
    spec.func = name == "sum"   ? AggFunc::kSum
                : name == "avg" ? AggFunc::kAvg
                : name == "min" ? AggFunc::kMin
                                : AggFunc::kMax;
  } else {
    return Status::Internal("not an aggregate: " + name);
  }
  if (!star) {
    if (expr.args.size() != 1) {
      return Status::InvalidArgument(name + " takes exactly one argument");
    }
    ExprCtx arg_ctx = *ctx;
    arg_ctx.in_agg = true;
    arg_ctx.allow_aggs = false;
    XNF_ASSIGN_OR_RETURN(spec.arg, BuildExpr(*expr.args[0], &arg_ctx));
    switch (spec.func) {
      case AggFunc::kSum:
        spec.result_type =
            spec.arg->type == Type::kDouble ? Type::kDouble : Type::kInt;
        break;
      case AggFunc::kAvg:
        spec.result_type = Type::kDouble;
        break;
      case AggFunc::kMin:
      case AggFunc::kMax:
        spec.result_type = spec.arg->type;
        break;
      default:
        break;
    }
  }
  spec.distinct = expr.distinct_arg;

  // Deduplicate identical aggregate specs.
  Box* box = ctx->box;
  for (size_t i = 0; i < box->aggs.size(); ++i) {
    const AggSpec& existing = box->aggs[i];
    bool same_arg =
        (existing.arg == nullptr && spec.arg == nullptr) ||
        (existing.arg != nullptr && spec.arg != nullptr &&
         ExprEquals(*existing.arg, *spec.arg));
    if (existing.func == spec.func && existing.distinct == spec.distinct &&
        same_arg) {
      auto ref = std::make_unique<Expr>(Expr::Kind::kAggRef);
      ref->agg_index = static_cast<int>(i);
      ref->type = existing.result_type;
      return ExprPtr(std::move(ref));
    }
  }
  auto ref = std::make_unique<Expr>(Expr::Kind::kAggRef);
  ref->agg_index = static_cast<int>(box->aggs.size());
  ref->type = spec.result_type;
  box->aggs.push_back(std::move(spec));
  return ExprPtr(std::move(ref));
}

Result<ExprPtr> Builder::BuildExpr(const sql::Expr& expr, ExprCtx* ctx) {
  using K = sql::Expr::Kind;
  switch (expr.kind) {
    case K::kLiteral:
      return Expr::Lit(expr.literal);
    case K::kColumnRef:
      return ResolveColumn(expr.table, expr.column, ctx);
    case K::kStar:
      return Status::InvalidArgument("'*' is only valid inside COUNT(*)");
    case K::kParam: {
      auto e = std::make_unique<Expr>(Expr::Kind::kParam);
      e->param_index = expr.param_index;
      // A '?' is untyped until bound; a literal the statement cache made a
      // parameter keeps its literal's type (the shape key pins it).
      e->type = expr.literal.type();
      return ExprPtr(std::move(e));
    }
    case K::kBinary: {
      XNF_ASSIGN_OR_RETURN(ExprPtr l, BuildExpr(*expr.args[0], ctx));
      XNF_ASSIGN_OR_RETURN(ExprPtr r, BuildExpr(*expr.args[1], ctx));
      XNF_ASSIGN_OR_RETURN(Type t,
                           BinaryResultType(expr.bin_op, l->type, r->type));
      return Expr::Binary(expr.bin_op, std::move(l), std::move(r), t);
    }
    case K::kUnary: {
      XNF_ASSIGN_OR_RETURN(ExprPtr inner, BuildExpr(*expr.args[0], ctx));
      auto e = std::make_unique<Expr>(Expr::Kind::kUnary);
      e->un_op = expr.un_op;
      e->type = expr.un_op == sql::UnOp::kNot ? Type::kBool : inner->type;
      if (expr.un_op == sql::UnOp::kNeg && inner->type != Type::kInt &&
          inner->type != Type::kDouble && inner->type != Type::kNull) {
        return Status::InvalidArgument("unary '-' requires a numeric operand");
      }
      e->args.push_back(std::move(inner));
      return ExprPtr(std::move(e));
    }
    case K::kFuncCall: {
      std::string name = ToLower(expr.column);
      if (ctx->allow_paths && name == "count" && expr.args.size() == 1 &&
          expr.args[0]->kind == K::kPath) {
        auto e = std::make_unique<Expr>(Expr::Kind::kPath);
        e->func_name = name;
        e->path = expr.args[0]->path.get();
        e->type = Type::kInt;
        return ExprPtr(std::move(e));
      }
      if (IsAggName(name)) return BuildAggCall(expr, ctx);
      auto e = std::make_unique<Expr>(Expr::Kind::kFuncCall);
      e->func_name = name;
      for (const auto& a : expr.args) {
        XNF_ASSIGN_OR_RETURN(ExprPtr arg, BuildExpr(*a, ctx));
        e->args.push_back(std::move(arg));
      }
      auto arity = [&](size_t n) -> Status {
        if (e->args.size() != n) {
          return Status::InvalidArgument(name + " takes " + std::to_string(n) +
                                         " argument(s)");
        }
        return Status::Ok();
      };
      if (name == "abs" || name == "floor" || name == "ceil" ||
          name == "round") {
        XNF_RETURN_IF_ERROR(arity(1));
        e->type = name == "abs" ? e->args[0]->type : Type::kInt;
        if (name == "abs" && e->args[0]->type == Type::kNull) {
          e->type = Type::kInt;
        }
      } else if (name == "mod") {
        XNF_RETURN_IF_ERROR(arity(2));
        e->type = Type::kInt;
      } else if (name == "lower" || name == "upper" || name == "trim") {
        XNF_RETURN_IF_ERROR(arity(1));
        e->type = Type::kString;
      } else if (name == "length") {
        XNF_RETURN_IF_ERROR(arity(1));
        e->type = Type::kInt;
      } else if (name == "substr") {
        if (e->args.size() != 2 && e->args.size() != 3) {
          return Status::InvalidArgument("substr takes 2 or 3 arguments");
        }
        e->type = Type::kString;
      } else if (name == "coalesce") {
        if (e->args.empty()) {
          return Status::InvalidArgument("coalesce needs arguments");
        }
        Type t = Type::kNull;
        for (const ExprPtr& a : e->args) {
          if (t == Type::kNull) {
            t = a->type;
          } else if (a->type != Type::kNull && a->type != t) {
            if ((t == Type::kInt || t == Type::kDouble) &&
                (a->type == Type::kInt || a->type == Type::kDouble)) {
              t = Type::kDouble;
            } else {
              return Status::InvalidArgument(
                  "coalesce arguments have mixed types");
            }
          }
        }
        e->type = t;
      } else {
        return Status::NotFound("unknown function '" + name + "'");
      }
      return ExprPtr(std::move(e));
    }
    case K::kIsNull: {
      XNF_ASSIGN_OR_RETURN(ExprPtr inner, BuildExpr(*expr.args[0], ctx));
      auto e = std::make_unique<Expr>(Expr::Kind::kIsNull);
      e->negated = expr.negated;
      e->type = Type::kBool;
      e->args.push_back(std::move(inner));
      return ExprPtr(std::move(e));
    }
    case K::kLike: {
      XNF_ASSIGN_OR_RETURN(ExprPtr text, BuildExpr(*expr.args[0], ctx));
      XNF_ASSIGN_OR_RETURN(ExprPtr pattern, BuildExpr(*expr.args[1], ctx));
      auto e = std::make_unique<Expr>(Expr::Kind::kLike);
      e->negated = expr.negated;
      e->type = Type::kBool;
      e->args.push_back(std::move(text));
      e->args.push_back(std::move(pattern));
      return ExprPtr(std::move(e));
    }
    case K::kBetween: {
      // a BETWEEN lo AND hi  ==>  a >= lo AND a <= hi  (negated: OR form)
      XNF_ASSIGN_OR_RETURN(ExprPtr a, BuildExpr(*expr.args[0], ctx));
      XNF_ASSIGN_OR_RETURN(ExprPtr lo, BuildExpr(*expr.args[1], ctx));
      XNF_ASSIGN_OR_RETURN(ExprPtr hi, BuildExpr(*expr.args[2], ctx));
      XNF_ASSIGN_OR_RETURN(
          Type t1, BinaryResultType(sql::BinOp::kGe, a->type, lo->type));
      XNF_ASSIGN_OR_RETURN(
          Type t2, BinaryResultType(sql::BinOp::kLe, a->type, hi->type));
      (void)t1;
      (void)t2;
      ExprPtr a2 = a->Clone();
      ExprPtr low = Expr::Binary(expr.negated ? sql::BinOp::kLt
                                              : sql::BinOp::kGe,
                                 std::move(a), std::move(lo), Type::kBool);
      ExprPtr high = Expr::Binary(expr.negated ? sql::BinOp::kGt
                                               : sql::BinOp::kLe,
                                  std::move(a2), std::move(hi), Type::kBool);
      return Expr::Binary(expr.negated ? sql::BinOp::kOr : sql::BinOp::kAnd,
                          std::move(low), std::move(high), Type::kBool);
    }
    case K::kInList: {
      auto e = std::make_unique<Expr>(Expr::Kind::kInList);
      e->negated = expr.negated;
      e->type = Type::kBool;
      for (const auto& a : expr.args) {
        XNF_ASSIGN_OR_RETURN(ExprPtr item, BuildExpr(*a, ctx));
        e->args.push_back(std::move(item));
      }
      return ExprPtr(std::move(e));
    }
    case K::kInSubquery:
    case K::kExistsSubquery:
    case K::kScalarSubquery: {
      auto e = std::make_unique<Expr>(Expr::Kind::kSubquery);
      e->negated = expr.negated;
      if (expr.kind == K::kInSubquery) {
        e->subquery_kind = Expr::SubqueryKind::kIn;
        e->type = Type::kBool;
        XNF_ASSIGN_OR_RETURN(ExprPtr operand, BuildExpr(*expr.args[0], ctx));
        e->args.push_back(std::move(operand));
      } else if (expr.kind == K::kExistsSubquery) {
        e->subquery_kind = Expr::SubqueryKind::kExists;
        e->type = Type::kBool;
      } else {
        e->subquery_kind = Expr::SubqueryKind::kScalar;
      }
      BoxSubquery sub;
      std::vector<ExprPtr> bindings;
      XNF_ASSIGN_OR_RETURN(
          sub.box,
          BuildSelectChain(*expr.subquery, ctx->graph, ctx->scope, &bindings));
      sub.param_bindings = std::move(bindings);
      Schema sub_schema = ctx->graph->box(sub.box)->OutputSchema();
      if (expr.kind == K::kScalarSubquery || expr.kind == K::kInSubquery) {
        if (sub_schema.size() != 1) {
          return Status::InvalidArgument(
              "subquery must return exactly one column");
        }
        if (expr.kind == K::kScalarSubquery) {
          e->type = sub_schema.column(0).type;
        }
      }
      e->subquery_index = static_cast<int>(ctx->box->subqueries.size());
      ctx->box->subqueries.push_back(std::move(sub));
      return ExprPtr(std::move(e));
    }
    case K::kCase: {
      auto e = std::make_unique<Expr>(Expr::Kind::kCase);
      Type result = Type::kNull;
      size_t n = expr.args.size();
      bool has_else = n % 2 == 1;
      size_t pairs = n / 2;
      for (size_t i = 0; i < pairs; ++i) {
        XNF_ASSIGN_OR_RETURN(ExprPtr when, BuildExpr(*expr.args[2 * i], ctx));
        XNF_ASSIGN_OR_RETURN(ExprPtr then,
                             BuildExpr(*expr.args[2 * i + 1], ctx));
        if (result == Type::kNull) result = then->type;
        e->args.push_back(std::move(when));
        e->args.push_back(std::move(then));
      }
      if (has_else) {
        XNF_ASSIGN_OR_RETURN(ExprPtr els, BuildExpr(*expr.args[n - 1], ctx));
        if (result == Type::kNull) result = els->type;
        e->args.push_back(std::move(els));
      }
      e->type = result;
      return ExprPtr(std::move(e));
    }
    case K::kPath:
    case K::kExistsPath: {
      if (!ctx->allow_paths) {
        return Status::InvalidArgument(
            "path expressions are only valid in XNF contexts (SUCH THAT "
            "predicates and cursor definitions)");
      }
      if (expr.kind == K::kPath) {
        return Status::InvalidArgument(
            "a bare path expression is not a scalar; use COUNT(path) or "
            "EXISTS path");
      }
      auto e = std::make_unique<Expr>(Expr::Kind::kPath);
      e->negated = expr.negated;
      e->path = expr.path.get();
      e->type = Type::kBool;
      return ExprPtr(std::move(e));
    }
  }
  return Status::Internal("unhandled expression kind");
}

}  // namespace xnf::qgm
