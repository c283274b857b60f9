#include "xnf/scalar_eval.h"

#include <cmath>
#include <optional>

#include "common/str_util.h"

namespace xnf::co {

namespace {

Value TriboolToValue(Tribool t) {
  switch (t) {
    case Tribool::kTrue:
      return Value::Bool(true);
    case Tribool::kFalse:
      return Value::Bool(false);
    case Tribool::kUnknown:
      return Value::Null();
  }
  return Value::Null();
}

Tribool ValueToTribool(const Value& v) {
  if (v.is_null()) return Tribool::kUnknown;
  return v.AsBool() ? Tribool::kTrue : Tribool::kFalse;
}

Tribool Not(Tribool t) {
  if (t == Tribool::kTrue) return Tribool::kFalse;
  if (t == Tribool::kFalse) return Tribool::kTrue;
  return Tribool::kUnknown;
}

bool IsPathNode(const sql::Expr& e) {
  using K = sql::Expr::Kind;
  if (e.kind == K::kPath || e.kind == K::kExistsPath) return true;
  // COUNT over a path expression (the path is a table, §3.5).
  return e.kind == K::kFuncCall && EqualsIgnoreCase(e.column, "count") &&
         e.args.size() == 1 && e.args[0]->kind == K::kPath;
}

}  // namespace

Result<Value> RowEvaluator::ResolveColumn(const sql::Expr& ref) const {
  for (const Resolved& r : resolved_) {
    if (r.ref == &ref) return (*bindings_[r.binding].row)[r.column];
  }
  std::string tbl = ToLower(ref.table);
  std::string col = ToLower(ref.column);
  std::optional<Resolved> found;
  for (size_t b = 0; b < bindings_.size(); ++b) {
    const Binding& binding = bindings_[b];
    if (!tbl.empty()) {
      if (binding.name != tbl) continue;
      XNF_ASSIGN_OR_RETURN(size_t i, binding.schema->Resolve("", col));
      found = Resolved{&ref, b, i};
      break;
    }
    auto i = binding.schema->Find(col);
    if (!i.has_value()) continue;
    if (found.has_value()) {
      return Status::InvalidArgument("ambiguous column '" + ref.column + "'");
    }
    found = Resolved{&ref, b, *i};
  }
  if (!found.has_value()) {
    return Status::NotFound(
        "column '" +
        (ref.table.empty() ? ref.column : ref.table + "." + ref.column) +
        "' not found");
  }
  resolved_.push_back(*found);
  return (*bindings_[found->binding].row)[found->column];
}

Result<bool> RowEvaluator::EvalPredicate(const sql::Expr& expr) const {
  XNF_ASSIGN_OR_RETURN(Value v, Eval(expr));
  if (v.is_null()) return false;
  if (!v.is_bool()) {
    return Status::InvalidArgument("predicate did not evaluate to a boolean");
  }
  return v.AsBool();
}

Result<Value> RowEvaluator::Eval(const sql::Expr& expr) const {
  using K = sql::Expr::Kind;
  if (IsPathNode(expr)) {
    if (path_hook_ == nullptr) {
      return Status::NotSupported(
          "path expressions are not available in this context");
    }
    return path_hook_(expr);
  }
  switch (expr.kind) {
    case K::kLiteral:
      return expr.literal;
    case K::kColumnRef:
      return ResolveColumn(expr);
    case K::kBinary: {
      XNF_ASSIGN_OR_RETURN(Value l, Eval(*expr.args[0]));
      if (expr.bin_op == sql::BinOp::kAnd || expr.bin_op == sql::BinOp::kOr) {
        Tribool lt = ValueToTribool(l);
        if (expr.bin_op == sql::BinOp::kAnd && lt == Tribool::kFalse) {
          return Value::Bool(false);
        }
        if (expr.bin_op == sql::BinOp::kOr && lt == Tribool::kTrue) {
          return Value::Bool(true);
        }
        XNF_ASSIGN_OR_RETURN(Value r, Eval(*expr.args[1]));
        Tribool rt = ValueToTribool(r);
        if (expr.bin_op == sql::BinOp::kAnd) {
          if (lt == Tribool::kTrue && rt == Tribool::kTrue) {
            return Value::Bool(true);
          }
          if (rt == Tribool::kFalse) return Value::Bool(false);
          return Value::Null();
        }
        if (lt == Tribool::kFalse && rt == Tribool::kFalse) {
          return Value::Bool(false);
        }
        if (rt == Tribool::kTrue) return Value::Bool(true);
        return Value::Null();
      }
      XNF_ASSIGN_OR_RETURN(Value r, Eval(*expr.args[1]));
      switch (expr.bin_op) {
        case sql::BinOp::kEq:
          return TriboolToValue(l.CompareEq(r));
        case sql::BinOp::kNe:
          return TriboolToValue(Not(l.CompareEq(r)));
        case sql::BinOp::kLt:
          return TriboolToValue(l.CompareLt(r));
        case sql::BinOp::kGe:
          return TriboolToValue(Not(l.CompareLt(r)));
        case sql::BinOp::kGt:
          return TriboolToValue(r.CompareLt(l));
        case sql::BinOp::kLe:
          return TriboolToValue(Not(r.CompareLt(l)));
        case sql::BinOp::kConcat:
          if (l.is_null() || r.is_null()) return Value::Null();
          if (!l.is_string() || !r.is_string()) {
            return Status::InvalidArgument("|| requires strings");
          }
          return Value::String(l.AsString() + r.AsString());
        default: {
          if (l.is_null() || r.is_null()) return Value::Null();
          if (!l.is_numeric() || !r.is_numeric()) {
            return Status::InvalidArgument(
                "arithmetic on non-numeric values");
          }
          bool ints = l.is_int() && r.is_int();
          switch (expr.bin_op) {
            case sql::BinOp::kAdd:
              return ints ? Value::Int(l.AsInt() + r.AsInt())
                          : Value::Double(l.AsDouble() + r.AsDouble());
            case sql::BinOp::kSub:
              return ints ? Value::Int(l.AsInt() - r.AsInt())
                          : Value::Double(l.AsDouble() - r.AsDouble());
            case sql::BinOp::kMul:
              return ints ? Value::Int(l.AsInt() * r.AsInt())
                          : Value::Double(l.AsDouble() * r.AsDouble());
            case sql::BinOp::kDiv:
              if ((ints && r.AsInt() == 0) ||
                  (!ints && r.AsDouble() == 0.0)) {
                return Status::InvalidArgument("division by zero");
              }
              return ints ? Value::Int(l.AsInt() / r.AsInt())
                          : Value::Double(l.AsDouble() / r.AsDouble());
            case sql::BinOp::kMod:
              if (!ints || r.AsInt() == 0) {
                return Status::InvalidArgument("invalid MOD operands");
              }
              return Value::Int(l.AsInt() % r.AsInt());
            default:
              return Status::Internal("unhandled binary operator");
          }
        }
      }
    }
    case K::kUnary: {
      XNF_ASSIGN_OR_RETURN(Value v, Eval(*expr.args[0]));
      if (expr.un_op == sql::UnOp::kNot) {
        return TriboolToValue(Not(ValueToTribool(v)));
      }
      if (v.is_null()) return Value::Null();
      if (v.is_int()) return Value::Int(-v.AsInt());
      if (v.is_double()) return Value::Double(-v.AsDouble());
      return Status::InvalidArgument("unary '-' on non-numeric value");
    }
    case K::kIsNull: {
      XNF_ASSIGN_OR_RETURN(Value v, Eval(*expr.args[0]));
      bool is_null = v.is_null();
      return Value::Bool(expr.negated ? !is_null : is_null);
    }
    case K::kLike: {
      XNF_ASSIGN_OR_RETURN(Value text, Eval(*expr.args[0]));
      XNF_ASSIGN_OR_RETURN(Value pattern, Eval(*expr.args[1]));
      if (text.is_null() || pattern.is_null()) return Value::Null();
      bool m = LikeMatch(text.AsString(), pattern.AsString());
      return Value::Bool(expr.negated ? !m : m);
    }
    case K::kBetween: {
      XNF_ASSIGN_OR_RETURN(Value a, Eval(*expr.args[0]));
      XNF_ASSIGN_OR_RETURN(Value lo, Eval(*expr.args[1]));
      XNF_ASSIGN_OR_RETURN(Value hi, Eval(*expr.args[2]));
      Tribool ge = Not(a.CompareLt(lo));
      Tribool le = Not(hi.CompareLt(a));
      Tribool both = (ge == Tribool::kTrue && le == Tribool::kTrue)
                         ? Tribool::kTrue
                         : ((ge == Tribool::kFalse || le == Tribool::kFalse)
                                ? Tribool::kFalse
                                : Tribool::kUnknown);
      if (expr.negated) both = Not(both);
      return TriboolToValue(both);
    }
    case K::kInList: {
      XNF_ASSIGN_OR_RETURN(Value v, Eval(*expr.args[0]));
      Tribool acc = Tribool::kFalse;
      for (size_t i = 1; i < expr.args.size(); ++i) {
        XNF_ASSIGN_OR_RETURN(Value item, Eval(*expr.args[i]));
        Tribool eq = v.CompareEq(item);
        if (eq == Tribool::kTrue) {
          acc = Tribool::kTrue;
          break;
        }
        if (eq == Tribool::kUnknown) acc = Tribool::kUnknown;
      }
      if (expr.negated) acc = Not(acc);
      return TriboolToValue(acc);
    }
    case K::kCase: {
      size_t n = expr.args.size();
      bool has_else = n % 2 == 1;
      size_t pairs = n / 2;
      for (size_t i = 0; i < pairs; ++i) {
        XNF_ASSIGN_OR_RETURN(Value cond, Eval(*expr.args[2 * i]));
        if (ValueToTribool(cond) == Tribool::kTrue) {
          return Eval(*expr.args[2 * i + 1]);
        }
      }
      if (has_else) return Eval(*expr.args[n - 1]);
      return Value::Null();
    }
    case K::kFuncCall: {
      std::string name = ToLower(expr.column);
      std::vector<Value> args;
      for (const sql::ExprPtr& a : expr.args) {
        XNF_ASSIGN_OR_RETURN(Value v, Eval(*a));
        args.push_back(std::move(v));
      }
      for (const Value& a : args) {
        if (a.is_null()) return Value::Null();
      }
      if (name == "abs") {
        if (args.size() != 1) {
          return Status::InvalidArgument("abs takes one argument");
        }
        if (args[0].is_int()) return Value::Int(std::llabs(args[0].AsInt()));
        return Value::Double(std::fabs(args[0].AsDouble()));
      }
      if (name == "lower") return Value::String(ToLower(args[0].AsString()));
      if (name == "upper") {
        std::string s = args[0].AsString();
        for (char& c : s) {
          c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
        }
        return Value::String(std::move(s));
      }
      if (name == "length") {
        return Value::Int(static_cast<int64_t>(args[0].AsString().size()));
      }
      if (name == "mod" && args.size() == 2) {
        if (!args[0].is_int() || !args[1].is_int() || args[1].AsInt() == 0) {
          return Status::InvalidArgument("invalid MOD operands");
        }
        return Value::Int(args[0].AsInt() % args[1].AsInt());
      }
      return Status::NotSupported("function '" + name +
                                  "' is not supported in this context");
    }
    case K::kStar:
    case K::kParam:
    case K::kInSubquery:
    case K::kExistsSubquery:
    case K::kScalarSubquery:
      return Status::NotSupported(
          "SQL subqueries and parameters are not supported in SUCH THAT "
          "predicates");
    case K::kPath:
    case K::kExistsPath:
      return Status::Internal("path node escaped the hook");  // unreachable
  }
  return Status::Internal("unhandled expression kind");
}

}  // namespace xnf::co
