#include "sql/ast.h"

namespace xnf::sql {

namespace {

std::unique_ptr<PathExpr> ClonePath(const PathExpr& p) {
  auto out = std::make_unique<PathExpr>();
  out->start = p.start;
  for (const PathStep& s : p.steps) {
    PathStep step;
    step.name = s.name;
    step.corr = s.corr;
    if (s.predicate) step.predicate = s.predicate->Clone();
    out->steps.push_back(std::move(step));
  }
  return out;
}

const char* BinOpName(BinOp op) {
  switch (op) {
    case BinOp::kEq:
      return "=";
    case BinOp::kNe:
      return "<>";
    case BinOp::kLt:
      return "<";
    case BinOp::kLe:
      return "<=";
    case BinOp::kGt:
      return ">";
    case BinOp::kGe:
      return ">=";
    case BinOp::kAdd:
      return "+";
    case BinOp::kSub:
      return "-";
    case BinOp::kMul:
      return "*";
    case BinOp::kDiv:
      return "/";
    case BinOp::kMod:
      return "%";
    case BinOp::kAnd:
      return "AND";
    case BinOp::kOr:
      return "OR";
    case BinOp::kConcat:
      return "||";
  }
  return "?";
}

}  // namespace

ExprPtr Expr::Clone() const {
  auto out = std::make_unique<Expr>(kind);
  out->literal = literal;
  out->table = table;
  out->column = column;
  out->bin_op = bin_op;
  out->un_op = un_op;
  out->negated = negated;
  out->distinct_arg = distinct_arg;
  out->param_index = param_index;
  out->literal_ordinal = literal_ordinal;
  for (const ExprPtr& a : args) {
    out->args.push_back(a ? a->Clone() : nullptr);
  }
  if (subquery) out->subquery = subquery->Clone();
  if (path) out->path = ClonePath(*path);
  return out;
}

std::string Expr::ToString() const {
  switch (kind) {
    case Kind::kLiteral:
      return literal.ToString();
    case Kind::kParam:
      return "?";
    case Kind::kColumnRef:
      return table.empty() ? column : table + "." + column;
    case Kind::kStar:
      return "*";
    case Kind::kBinary:
      return "(" + args[0]->ToString() + " " + BinOpName(bin_op) + " " +
             args[1]->ToString() + ")";
    case Kind::kUnary:
      return un_op == UnOp::kNot ? "(NOT " + args[0]->ToString() + ")"
                                 : "(-" + args[0]->ToString() + ")";
    case Kind::kFuncCall: {
      std::string s = column + "(";
      if (distinct_arg) s += "DISTINCT ";
      for (size_t i = 0; i < args.size(); ++i) {
        if (i > 0) s += ", ";
        s += args[i]->ToString();
      }
      return s + ")";
    }
    case Kind::kIsNull:
      return "(" + args[0]->ToString() + (negated ? " IS NOT NULL" : " IS NULL") +
             ")";
    case Kind::kLike:
      return "(" + args[0]->ToString() + (negated ? " NOT LIKE " : " LIKE ") +
             args[1]->ToString() + ")";
    case Kind::kBetween:
      return "(" + args[0]->ToString() + (negated ? " NOT BETWEEN " : " BETWEEN ") +
             args[1]->ToString() + " AND " + args[2]->ToString() + ")";
    case Kind::kInList: {
      std::string s = "(" + args[0]->ToString() + (negated ? " NOT IN (" : " IN (");
      for (size_t i = 1; i < args.size(); ++i) {
        if (i > 1) s += ", ";
        s += args[i]->ToString();
      }
      return s + "))";
    }
    case Kind::kInSubquery:
      return "(" + args[0]->ToString() + (negated ? " NOT IN (" : " IN (") +
             subquery->ToString() + "))";
    case Kind::kExistsSubquery:
      return std::string(negated ? "(NOT EXISTS (" : "(EXISTS (") +
             subquery->ToString() + "))";
    case Kind::kScalarSubquery:
      return "(" + subquery->ToString() + ")";
    case Kind::kCase: {
      std::string s = "CASE";
      size_t n = args.size();
      bool has_else = n % 2 == 1;
      size_t pairs = n / 2;
      for (size_t i = 0; i < pairs; ++i) {
        s += " WHEN " + args[2 * i]->ToString() + " THEN " +
             args[2 * i + 1]->ToString();
      }
      if (has_else) s += " ELSE " + args[n - 1]->ToString();
      return s + " END";
    }
    case Kind::kPath:
    case Kind::kExistsPath: {
      std::string s = kind == Kind::kExistsPath
                          ? std::string(negated ? "NOT EXISTS " : "EXISTS ")
                          : "";
      s += path->start;
      for (const PathStep& step : path->steps) {
        s += "->";
        if (step.predicate || !step.corr.empty()) {
          s += "(" + step.name;
          if (!step.corr.empty()) s += " " + step.corr;
          if (step.predicate) s += " WHERE " + step.predicate->ToString();
          s += ")";
        } else {
          s += step.name;
        }
      }
      return s;
    }
  }
  return "?";
}

std::unique_ptr<TableRef> TableRef::Clone() const {
  auto out = std::make_unique<TableRef>();
  out->kind = kind;
  out->name = name;
  out->alias = alias;
  if (subquery) out->subquery = subquery->Clone();
  out->join_type = join_type;
  if (left) out->left = left->Clone();
  if (right) out->right = right->Clone();
  if (on) out->on = on->Clone();
  return out;
}

std::unique_ptr<SelectStmt> SelectStmt::Clone() const {
  auto out = std::make_unique<SelectStmt>();
  out->distinct = distinct;
  for (const SelectItem& item : items) {
    SelectItem copy;
    copy.star = item.star;
    copy.star_table = item.star_table;
    if (item.expr) copy.expr = item.expr->Clone();
    copy.alias = item.alias;
    out->items.push_back(std::move(copy));
  }
  for (const auto& t : from) out->from.push_back(t->Clone());
  if (where) out->where = where->Clone();
  for (const auto& g : group_by) out->group_by.push_back(g->Clone());
  if (having) out->having = having->Clone();
  for (const auto& o : order_by) {
    OrderItem item;
    item.expr = o.expr->Clone();
    item.ascending = o.ascending;
    out->order_by.push_back(std::move(item));
  }
  out->limit = limit;
  out->offset = offset;
  out->union_all = union_all;
  out->set_op = set_op;
  if (union_next) out->union_next = union_next->Clone();
  return out;
}

namespace {

std::string TableRefToString(const TableRef& t) {
  switch (t.kind) {
    case TableRef::Kind::kNamed:
      return t.alias.empty() ? t.name : t.name + " " + t.alias;
    case TableRef::Kind::kSubquery:
      return "(" + t.subquery->ToString() + ") " + t.alias;
    case TableRef::Kind::kJoin:
      return TableRefToString(*t.left) +
             (t.join_type == JoinType::kLeft ? " LEFT JOIN " : " JOIN ") +
             TableRefToString(*t.right) + " ON " + t.on->ToString();
  }
  return "?";
}

}  // namespace

std::string SelectStmt::ToString() const {
  std::string s = "SELECT ";
  if (distinct) s += "DISTINCT ";
  for (size_t i = 0; i < items.size(); ++i) {
    if (i > 0) s += ", ";
    const SelectItem& item = items[i];
    if (item.star) {
      s += item.star_table.empty() ? "*" : item.star_table + ".*";
    } else {
      s += item.expr->ToString();
      if (!item.alias.empty()) s += " AS " + item.alias;
    }
  }
  if (!from.empty()) {
    s += " FROM ";
    for (size_t i = 0; i < from.size(); ++i) {
      if (i > 0) s += ", ";
      s += TableRefToString(*from[i]);
    }
  }
  if (where) s += " WHERE " + where->ToString();
  if (!group_by.empty()) {
    s += " GROUP BY ";
    for (size_t i = 0; i < group_by.size(); ++i) {
      if (i > 0) s += ", ";
      s += group_by[i]->ToString();
    }
  }
  if (having) s += " HAVING " + having->ToString();
  if (!order_by.empty()) {
    s += " ORDER BY ";
    for (size_t i = 0; i < order_by.size(); ++i) {
      if (i > 0) s += ", ";
      s += order_by[i].expr->ToString();
      if (!order_by[i].ascending) s += " DESC";
    }
  }
  if (limit.has_value()) s += " LIMIT " + std::to_string(*limit);
  if (offset.has_value()) s += " OFFSET " + std::to_string(*offset);
  if (union_next) {
    switch (set_op) {
      case SetOp::kUnionAll:
        s += " UNION ALL ";
        break;
      case SetOp::kUnion:
        s += " UNION ";
        break;
      case SetOp::kIntersect:
        s += " INTERSECT ";
        break;
      case SetOp::kExcept:
        s += " EXCEPT ";
        break;
    }
    s += union_next->ToString();
  }
  return s;
}

}  // namespace xnf::sql
