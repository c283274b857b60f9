#include "qgm/expr.h"

#include <functional>

namespace xnf::qgm {

ExprPtr Expr::Clone() const {
  auto out = std::make_unique<Expr>(kind);
  out->literal = literal;
  out->quantifier = quantifier;
  out->column = column;
  out->slot = slot;
  out->param_index = param_index;
  out->bin_op = bin_op;
  out->un_op = un_op;
  out->negated = negated;
  out->func_name = func_name;
  out->agg_index = agg_index;
  out->subquery_kind = subquery_kind;
  out->subquery_index = subquery_index;
  out->path = path;
  out->type = type;
  for (const ExprPtr& a : args) out->args.push_back(a ? a->Clone() : nullptr);
  return out;
}

std::string Expr::ToString() const {
  switch (kind) {
    case Kind::kLiteral:
      return literal.ToString();
    case Kind::kInputRef:
      return "q" + std::to_string(quantifier) + ".c" + std::to_string(column);
    case Kind::kParam:
      return "$" + std::to_string(param_index);
    case Kind::kBinary: {
      static const char* names[] = {"=",  "<>", "<", "<=", ">",  ">=", "+",
                                    "-",  "*",  "/", "%",  "AND", "OR", "||"};
      return "(" + args[0]->ToString() + " " +
             names[static_cast<int>(bin_op)] + " " + args[1]->ToString() + ")";
    }
    case Kind::kUnary:
      return un_op == sql::UnOp::kNot ? "NOT " + args[0]->ToString()
                                      : "-" + args[0]->ToString();
    case Kind::kFuncCall: {
      std::string s = func_name + "(";
      for (size_t i = 0; i < args.size(); ++i) {
        if (i) s += ", ";
        s += args[i]->ToString();
      }
      return s + ")";
    }
    case Kind::kAggRef:
      return "agg" + std::to_string(agg_index);
    case Kind::kIsNull:
      return args[0]->ToString() + (negated ? " IS NOT NULL" : " IS NULL");
    case Kind::kLike:
      return args[0]->ToString() + (negated ? " NOT LIKE " : " LIKE ") +
             args[1]->ToString();
    case Kind::kCase:
      return "CASE(...)";
    case Kind::kInList: {
      std::string s = args[0]->ToString() + (negated ? " NOT IN (" : " IN (");
      for (size_t i = 1; i < args.size(); ++i) {
        if (i > 1) s += ", ";
        s += args[i]->ToString();
      }
      return s + ")";
    }
    case Kind::kSubquery:
      return std::string(negated ? "NOT " : "") +
             (subquery_kind == SubqueryKind::kExists
                  ? "EXISTS"
                  : (subquery_kind == SubqueryKind::kIn ? "IN" : "SCALAR")) +
             "[sub" + std::to_string(subquery_index) + "]";
    case Kind::kPath: {
      std::string s = path->start;
      for (const sql::PathStep& step : path->steps) s += "->" + step.name;
      if (func_name == "count") return "COUNT(" + s + ")";
      return (negated ? "NOT EXISTS " : "EXISTS ") + s;
    }
  }
  return "?";
}

void VisitExpr(const Expr& expr, const std::function<void(const Expr&)>& fn) {
  fn(expr);
  for (const ExprPtr& a : expr.args) {
    if (a) VisitExpr(*a, fn);
  }
}

void VisitExprMutable(Expr* expr, const std::function<void(Expr*)>& fn) {
  fn(expr);
  for (ExprPtr& a : expr->args) {
    if (a) VisitExprMutable(a.get(), fn);
  }
}

bool ExprEquals(const Expr& a, const Expr& b) {
  if (a.kind != b.kind) return false;
  switch (a.kind) {
    case Expr::Kind::kLiteral:
      if (a.literal.is_null() != b.literal.is_null()) return false;
      if (a.literal.is_null()) break;
      if (a.literal.TotalOrderCompare(b.literal) != 0) return false;
      break;
    case Expr::Kind::kInputRef:
      if (a.quantifier != b.quantifier || a.column != b.column) return false;
      break;
    case Expr::Kind::kParam:
      if (a.param_index != b.param_index) return false;
      break;
    case Expr::Kind::kBinary:
      if (a.bin_op != b.bin_op) return false;
      break;
    case Expr::Kind::kUnary:
      if (a.un_op != b.un_op) return false;
      break;
    case Expr::Kind::kFuncCall:
      if (a.func_name != b.func_name) return false;
      break;
    case Expr::Kind::kAggRef:
      if (a.agg_index != b.agg_index) return false;
      break;
    case Expr::Kind::kIsNull:
    case Expr::Kind::kLike:
    case Expr::Kind::kInList:
      if (a.negated != b.negated) return false;
      break;
    case Expr::Kind::kCase:
      break;
    case Expr::Kind::kSubquery:
      return false;  // subqueries are never considered equal
    case Expr::Kind::kPath:
      if (a.path != b.path || a.negated != b.negated ||
          a.func_name != b.func_name) {
        return false;
      }
      break;
  }
  if (a.args.size() != b.args.size()) return false;
  for (size_t i = 0; i < a.args.size(); ++i) {
    if (!ExprEquals(*a.args[i], *b.args[i])) return false;
  }
  return true;
}

bool ReferencesQuantifier(const Expr& expr, int q) {
  bool found = false;
  VisitExpr(expr, [&](const Expr& e) {
    if (e.kind == Expr::Kind::kInputRef && e.quantifier == q) found = true;
  });
  return found;
}

bool HasInputRefs(const Expr& expr) {
  bool found = false;
  VisitExpr(expr, [&](const Expr& e) {
    if (e.kind == Expr::Kind::kInputRef) found = true;
  });
  return found;
}

void SplitConjuncts(ExprPtr expr, std::vector<ExprPtr>* out) {
  if (expr->kind == Expr::Kind::kBinary && expr->bin_op == sql::BinOp::kAnd) {
    SplitConjuncts(std::move(expr->args[0]), out);
    SplitConjuncts(std::move(expr->args[1]), out);
    return;
  }
  out->push_back(std::move(expr));
}

bool HasParam(const Expr& expr) {
  if (expr.kind == Expr::Kind::kParam) return true;
  for (const ExprPtr& a : expr.args) {
    if (a && HasParam(*a)) return true;
  }
  return false;
}

ExprPtr BindParams(const Expr& expr, const std::vector<Value>& params) {
  ExprPtr out = expr.Clone();
  VisitExprMutable(out.get(), [&](Expr* e) {
    if (e->kind != Expr::Kind::kParam || e->param_index < 0 ||
        static_cast<size_t>(e->param_index) >= params.size()) {
      return;
    }
    e->kind = Expr::Kind::kLiteral;
    e->literal = params[e->param_index];
    e->type = e->literal.type();
  });
  return out;
}

bool HasAggRef(const Expr& expr) {
  bool found = false;
  VisitExpr(expr, [&](const Expr& e) {
    if (e.kind == Expr::Kind::kAggRef) found = true;
  });
  return found;
}

bool HasSubquery(const Expr& expr) {
  if (expr.kind == Expr::Kind::kSubquery) return true;
  for (const ExprPtr& a : expr.args) {
    if (a && HasSubquery(*a)) return true;
  }
  return false;
}

bool HasPath(const Expr& expr) {
  if (expr.kind == Expr::Kind::kPath) return true;
  for (const ExprPtr& a : expr.args) {
    if (a && HasPath(*a)) return true;
  }
  return false;
}

}  // namespace xnf::qgm
