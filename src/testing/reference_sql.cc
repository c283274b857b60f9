// Expression semantics of the reference interpreter: the engine's static
// pass (qgm/builder.cc) plus the runtime semantics of exec/eval.cc, both
// mirrored naively over the AST. Statements run CheckExpr (via CheckSelect,
// or CheckScalar for expressions outside a SELECT: DML, SUCH THAT, CO SET)
// over everything first, so build-time errors fire even when no row is ever
// evaluated — exactly like the engine, which builds and compiles every
// expression before executing.
//
// Behavioural agreement matters, shared code does not: the only engine code
// reused is the parser, Value/Schema, and qgm::BinaryResultType (a pure
// type-algebra table that both sides must agree on symbol for symbol).

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/schema.h"
#include "common/status.h"
#include "common/str_util.h"
#include "common/value.h"
#include "qgm/builder.h"
#include "sql/ast.h"
#include "testing/reference_internal.h"

namespace xnf::testing::refi {
namespace {

using sql::BinOp;
using sql::Expr;
using K = sql::Expr::Kind;

Value TriboolToValue(Tribool t) {
  if (t == Tribool::kTrue) return Value::Bool(true);
  if (t == Tribool::kFalse) return Value::Bool(false);
  return Value::Null();
}

Tribool Not3(Tribool t) {
  if (t == Tribool::kTrue) return Tribool::kFalse;
  if (t == Tribool::kFalse) return Tribool::kTrue;
  return Tribool::kUnknown;
}

Result<Tribool> ToTribool(const Value& v) {
  if (v.is_null()) return Tribool::kUnknown;
  if (!v.is_bool()) {
    return Status::InvalidArgument("expected a boolean value");
  }
  return v.AsBool() ? Tribool::kTrue : Tribool::kFalse;
}

bool IsAggName(const std::string& lower) {
  return lower == "count" || lower == "sum" || lower == "avg" ||
         lower == "min" || lower == "max";
}

// Three-valued comparison (the engine expresses Ne/Ge/Gt/Le through
// Not/swap over CompareEq/CompareLt).
Value CompareValues(BinOp op, const Value& l, const Value& r) {
  switch (op) {
    case BinOp::kEq:
      return TriboolToValue(l.CompareEq(r));
    case BinOp::kNe:
      return TriboolToValue(Not3(l.CompareEq(r)));
    case BinOp::kLt:
      return TriboolToValue(l.CompareLt(r));
    case BinOp::kGe:
      return TriboolToValue(Not3(l.CompareLt(r)));
    case BinOp::kGt:
      return TriboolToValue(r.CompareLt(l));
    case BinOp::kLe:
      return TriboolToValue(Not3(r.CompareLt(l)));
    default:
      return Value::Null();
  }
}

// NULL-strict arithmetic: int op int stays int, any double widens, division
// by zero (int or double) and non-int MOD operands are errors.
Result<Value> Arith(BinOp op, const Value& l, const Value& r) {
  if (l.is_null() || r.is_null()) return Value::Null();
  if (!l.is_numeric() || !r.is_numeric()) {
    return Status::InvalidArgument("arithmetic on non-numeric values");
  }
  bool ints = l.is_int() && r.is_int();
  switch (op) {
    case BinOp::kAdd:
      return ints ? Value::Int(WrappingAdd(l.AsInt(), r.AsInt()))
                  : Value::Double(l.AsDouble() + r.AsDouble());
    case BinOp::kSub:
      return ints ? Value::Int(WrappingSub(l.AsInt(), r.AsInt()))
                  : Value::Double(l.AsDouble() - r.AsDouble());
    case BinOp::kMul:
      return ints ? Value::Int(WrappingMul(l.AsInt(), r.AsInt()))
                  : Value::Double(l.AsDouble() * r.AsDouble());
    case BinOp::kDiv:
      if (ints) {
        if (r.AsInt() == 0) {
          return Status::InvalidArgument("division by zero");
        }
        return Value::Int(l.AsInt() / r.AsInt());
      }
      if (r.AsDouble() == 0.0) {
        return Status::InvalidArgument("division by zero");
      }
      return Value::Double(l.AsDouble() / r.AsDouble());
    case BinOp::kMod:
      if (!ints) return Status::InvalidArgument("MOD requires integers");
      if (r.AsInt() == 0) return Status::InvalidArgument("division by zero");
      return Value::Int(l.AsInt() % r.AsInt());
    default:
      return Status::Internal("not arithmetic");
  }
}

// Resolved column: the scope level holding it plus the offset into that
// level's combined row.
using ColRef = ResolvedCol;

// Resolution mirrors qgm::Builder::ResolveColumn: qualified references
// match entry aliases (anonymous entries discriminate by their columns' own
// qualifiers), unqualified references must be unique across and within
// entries, and unresolved names fall through to the parent scope.
Result<ColRef> ResolveRef(const Scope& scope, const std::string& table,
                          const std::string& column) {
  std::string tbl = ToLower(table);
  std::string col = ToLower(column);

  const Scope* level = &scope;
  while (level != nullptr) {
    bool found = false;
    ColRef out;
    for (const Entry& entry : *level->entries) {
      if (!tbl.empty()) {
        if (!entry.alias.empty() && !EqualsIgnoreCase(entry.alias, tbl)) {
          continue;
        }
        auto idx = entry.alias.empty() ? entry.schema.Resolve(tbl, col)
                                       : entry.schema.Resolve("", col);
        if (!idx.ok()) {
          if (idx.status().code() == StatusCode::kNotFound) continue;
          return idx.status();
        }
        if (found) {
          return Status::InvalidArgument("ambiguous column '" + table + "." +
                                         column + "'");
        }
        found = true;
        out = ColRef{level, entry.offset + *idx,
                     entry.schema.column(*idx).type};
      } else {
        auto idx = entry.schema.Find(col);
        if (!idx.has_value()) continue;
        if (found) {
          return Status::InvalidArgument("ambiguous column '" + column +
                                         "'");
        }
        size_t dup = 0;
        for (const Column& c : entry.schema.columns()) {
          if (EqualsIgnoreCase(c.name, col)) ++dup;
        }
        if (dup > 1) {
          return Status::InvalidArgument("ambiguous column '" + column +
                                         "'");
        }
        found = true;
        out = ColRef{level, entry.offset + *idx,
                     entry.schema.column(*idx).type};
      }
    }
    if (found) return out;
    level = level->parent;
  }
  return Status::NotFound(
      "column '" + (table.empty() ? column : table + "." + column) +
      "' not found");
}

// Aggregate evaluation over a group: the argument is re-evaluated per group
// row by swapping the row of the group's template scope. NULL inputs are
// skipped; DISTINCT keeps first occurrences under the total order.
Result<Value> EvalAggregate(State* st, const Expr& e, const GroupCtx& group) {
  std::string name = ToLower(e.column);
  bool star = e.args.size() == 1 && e.args[0]->kind == K::kStar;
  if (name == "count" && star) {
    return Value::Int(static_cast<int64_t>(group.rows->size()));
  }
  std::vector<Value> vals;
  vals.reserve(group.rows->size());
  for (const Row* r : *group.rows) {
    Scope row_scope;
    row_scope.entries = group.scope->entries;
    row_scope.row = r;
    row_scope.parent = group.scope->parent;
    XNF_ASSIGN_OR_RETURN(
        Value v, Eval(st, *e.args[0], row_scope, nullptr));
    if (!v.is_null()) vals.push_back(std::move(v));
  }
  if (e.distinct_arg) {
    std::vector<Value> unique;
    for (Value& v : vals) {
      bool seen = false;
      for (const Value& u : unique) {
        if (u.TotalOrderCompare(v) == 0) {
          seen = true;
          break;
        }
      }
      if (!seen) unique.push_back(std::move(v));
    }
    vals = std::move(unique);
  }
  if (name == "count") {
    return Value::Int(static_cast<int64_t>(vals.size()));
  }
  if (vals.empty()) return Value::Null();
  if (name == "sum") {
    Value acc = vals[0];
    for (size_t i = 1; i < vals.size(); ++i) {
      if (acc.is_int() && vals[i].is_int()) {
        acc = Value::Int(WrappingAdd(acc.AsInt(), vals[i].AsInt()));
      } else {
        acc = Value::Double(acc.AsDouble() + vals[i].AsDouble());
      }
    }
    return acc;
  }
  if (name == "avg") {
    double sum = 0;
    for (const Value& v : vals) sum += v.AsDouble();
    return Value::Double(sum / static_cast<double>(vals.size()));
  }
  // min / max
  bool want_min = name == "min";
  Value best = vals[0];
  for (size_t i = 1; i < vals.size(); ++i) {
    int c = vals[i].TotalOrderCompare(best);
    if ((want_min && c < 0) || (!want_min && c > 0)) best = vals[i];
  }
  return best;
}

}  // namespace

bool ExprEq(const Expr& a, const Expr& b) {
  if (a.kind != b.kind) return false;
  auto args_eq = [&]() {
    if (a.args.size() != b.args.size()) return false;
    for (size_t i = 0; i < a.args.size(); ++i) {
      if (!ExprEq(*a.args[i], *b.args[i])) return false;
    }
    return true;
  };
  switch (a.kind) {
    case K::kLiteral:
      return a.literal.type() == b.literal.type() &&
             a.literal.TotalOrderCompare(b.literal) == 0;
    case K::kColumnRef:
      return EqualsIgnoreCase(a.table, b.table) &&
             EqualsIgnoreCase(a.column, b.column);
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
      // Subqueries, paths, params: never considered structurally equal.
      return false;
  }
}

bool HasAggregate(const Expr& e) {
  if (e.kind == K::kFuncCall && IsAggName(ToLower(e.column))) return true;
  for (const sql::ExprPtr& a : e.args) {
    if (a != nullptr && HasAggregate(*a)) return true;
  }
  return false;
}

Result<Type> CheckExpr(State* st, const Expr& e, const Scope& scope,
                       const CheckOpts& opts) {
  switch (e.kind) {
    case K::kLiteral:
      return e.literal.type();
    case K::kColumnRef: {
      XNF_ASSIGN_OR_RETURN(
          ColRef c, ResolveRef(scope, e.table, e.column));
      return c.type;
    }
    case K::kStar:
      return Status::InvalidArgument("'*' is only valid inside COUNT(*)");
    case K::kParam:
      return Type::kNull;  // builds fine; fails only if evaluated
    case K::kBinary: {
      XNF_ASSIGN_OR_RETURN(Type l, CheckExpr(st, *e.args[0], scope, opts));
      XNF_ASSIGN_OR_RETURN(Type r, CheckExpr(st, *e.args[1], scope, opts));
      return qgm::BinaryResultType(e.bin_op, l, r);
    }
    case K::kUnary: {
      XNF_ASSIGN_OR_RETURN(Type t, CheckExpr(st, *e.args[0], scope, opts));
      if (e.un_op == sql::UnOp::kNot) return Type::kBool;
      if (t != Type::kInt && t != Type::kDouble && t != Type::kNull) {
        return Status::InvalidArgument("unary '-' requires a numeric operand");
      }
      return t;
    }
    case K::kFuncCall: {
      std::string name = ToLower(e.column);
      if (IsAggName(name)) {
        if (!opts.allow_aggs) {
          return Status::InvalidArgument("aggregate '" + e.column +
                                         "' is not allowed here");
        }
        if (opts.in_aggregate) {
          return Status::InvalidArgument("nested aggregates are not allowed");
        }
        bool star = e.args.size() == 1 && e.args[0]->kind == K::kStar;
        if (star) {
          if (name != "count") {
            return Status::InvalidArgument(name + "(*) is not valid");
          }
          return Type::kInt;
        }
        if (e.args.size() != 1) {
          return Status::InvalidArgument(name +
                                         " takes exactly one argument");
        }
        CheckOpts arg_opts = opts;
        arg_opts.allow_aggs = false;
        arg_opts.in_aggregate = true;
        XNF_ASSIGN_OR_RETURN(Type at,
                             CheckExpr(st, *e.args[0], scope, arg_opts));
        if (name == "count") return Type::kInt;
        if (name == "sum") {
          return at == Type::kDouble ? Type::kDouble : Type::kInt;
        }
        if (name == "avg") return Type::kDouble;
        return at;  // min / max
      }
      std::vector<Type> arg_types;
      for (const sql::ExprPtr& a : e.args) {
        XNF_ASSIGN_OR_RETURN(Type t, CheckExpr(st, *a, scope, opts));
        arg_types.push_back(t);
      }
      auto arity = [&](size_t n) -> Status {
        if (arg_types.size() != n) {
          return Status::InvalidArgument(name + " takes " +
                                         std::to_string(n) + " argument(s)");
        }
        return Status::Ok();
      };
      if (name == "abs") {
        XNF_RETURN_IF_ERROR(arity(1));
        return arg_types[0] == Type::kNull ? Type::kInt : arg_types[0];
      }
      if (name == "floor" || name == "ceil" || name == "round") {
        XNF_RETURN_IF_ERROR(arity(1));
        return Type::kInt;
      }
      if (name == "mod") {
        XNF_RETURN_IF_ERROR(arity(2));
        return Type::kInt;
      }
      if (name == "lower" || name == "upper" || name == "trim") {
        XNF_RETURN_IF_ERROR(arity(1));
        return Type::kString;
      }
      if (name == "length") {
        XNF_RETURN_IF_ERROR(arity(1));
        return Type::kInt;
      }
      if (name == "substr") {
        if (arg_types.size() != 2 && arg_types.size() != 3) {
          return Status::InvalidArgument("substr takes 2 or 3 arguments");
        }
        return Type::kString;
      }
      if (name == "coalesce") {
        if (arg_types.empty()) {
          return Status::InvalidArgument("coalesce needs arguments");
        }
        Type t = Type::kNull;
        for (Type at : arg_types) {
          if (t == Type::kNull) {
            t = at;
          } else if (at != Type::kNull && at != t) {
            if ((t == Type::kInt || t == Type::kDouble) &&
                (at == Type::kInt || at == Type::kDouble)) {
              t = Type::kDouble;
            } else {
              return Status::InvalidArgument(
                  "coalesce arguments have mixed types");
            }
          }
        }
        return t;
      }
      return Status::NotFound("unknown function '" + name + "'");
    }
    case K::kIsNull: {
      XNF_RETURN_IF_ERROR(CheckExpr(st, *e.args[0], scope, opts).status());
      return Type::kBool;
    }
    case K::kLike: {
      XNF_RETURN_IF_ERROR(CheckExpr(st, *e.args[0], scope, opts).status());
      XNF_RETURN_IF_ERROR(CheckExpr(st, *e.args[1], scope, opts).status());
      return Type::kBool;
    }
    case K::kBetween: {
      XNF_ASSIGN_OR_RETURN(Type a, CheckExpr(st, *e.args[0], scope, opts));
      XNF_ASSIGN_OR_RETURN(Type lo, CheckExpr(st, *e.args[1], scope, opts));
      XNF_ASSIGN_OR_RETURN(Type hi, CheckExpr(st, *e.args[2], scope, opts));
      XNF_RETURN_IF_ERROR(
          qgm::BinaryResultType(BinOp::kGe, a, lo).status());
      XNF_RETURN_IF_ERROR(
          qgm::BinaryResultType(BinOp::kLe, a, hi).status());
      return Type::kBool;
    }
    case K::kInList: {
      for (const sql::ExprPtr& a : e.args) {
        XNF_RETURN_IF_ERROR(CheckExpr(st, *a, scope, opts).status());
      }
      return Type::kBool;
    }
    case K::kInSubquery:
    case K::kExistsSubquery:
    case K::kScalarSubquery: {
      if (e.kind == K::kInSubquery) {
        XNF_RETURN_IF_ERROR(CheckExpr(st, *e.args[0], scope, opts).status());
      }
      XNF_ASSIGN_OR_RETURN(SelectShape sub,
                           CheckSelect(st, *e.subquery, &scope));
      if (e.kind != K::kExistsSubquery && sub.types.size() != 1) {
        return Status::InvalidArgument(
            "subquery must return exactly one column");
      }
      if (e.kind == K::kScalarSubquery) return sub.types[0];
      return Type::kBool;
    }
    case K::kCase: {
      Type result = Type::kNull;
      size_t n = e.args.size();
      bool has_else = n % 2 == 1;
      size_t pairs = n / 2;
      for (size_t i = 0; i < pairs; ++i) {
        XNF_RETURN_IF_ERROR(
            CheckExpr(st, *e.args[2 * i], scope, opts).status());
        XNF_ASSIGN_OR_RETURN(Type then,
                             CheckExpr(st, *e.args[2 * i + 1], scope, opts));
        if (result == Type::kNull) result = then;
      }
      if (has_else) {
        XNF_ASSIGN_OR_RETURN(Type els,
                             CheckExpr(st, *e.args[n - 1], scope, opts));
        if (result == Type::kNull) result = els;
      }
      return result;
    }
    case K::kPath:
    case K::kExistsPath:
      return Status::InvalidArgument(
          "path expressions are only valid in XNF contexts");
  }
  return Status::Internal("unhandled expression kind in CheckExpr");
}

Result<Type> CheckScalar(State* st, const Expr& e, const Scope& scope,
                         bool allow_params) {
  std::function<Status(const Expr&)> admit = [&](const Expr& x) -> Status {
    if (x.subquery != nullptr) {
      return Status::NotSupported("subqueries are not supported here");
    }
    if (x.kind == K::kParam && !allow_params) {
      return Status::NotSupported("parameters are not supported here");
    }
    for (const sql::ExprPtr& a : x.args) {
      if (a) XNF_RETURN_IF_ERROR(admit(*a));
    }
    return Status::Ok();
  };
  XNF_RETURN_IF_ERROR(admit(e));
  return CheckExpr(st, e, scope, CheckOpts());
}

Result<Value> Eval(State* st, const Expr& e, const Scope& scope,
                   const GroupCtx* group) {
  switch (e.kind) {
    case K::kLiteral:
      return e.literal;
    case K::kColumnRef: {
      XNF_ASSIGN_OR_RETURN(
          ColRef c, ResolveRef(scope, e.table, e.column));
      return (*c.level->row)[c.offset];
    }
    case K::kBinary: {
      if (e.bin_op == BinOp::kAnd || e.bin_op == BinOp::kOr) {
        XNF_ASSIGN_OR_RETURN(Value lv,
                             Eval(st, *e.args[0], scope, group));
        XNF_ASSIGN_OR_RETURN(Tribool l, ToTribool(lv));
        if (e.bin_op == BinOp::kAnd && l == Tribool::kFalse) {
          return Value::Bool(false);
        }
        if (e.bin_op == BinOp::kOr && l == Tribool::kTrue) {
          return Value::Bool(true);
        }
        XNF_ASSIGN_OR_RETURN(Value rv,
                             Eval(st, *e.args[1], scope, group));
        XNF_ASSIGN_OR_RETURN(Tribool r, ToTribool(rv));
        if (e.bin_op == BinOp::kAnd) {
          if (l == Tribool::kTrue && r == Tribool::kTrue) {
            return Value::Bool(true);
          }
          if (r == Tribool::kFalse) return Value::Bool(false);
          return Value::Null();
        }
        if (l == Tribool::kFalse && r == Tribool::kFalse) {
          return Value::Bool(false);
        }
        if (r == Tribool::kTrue) return Value::Bool(true);
        return Value::Null();
      }
      XNF_ASSIGN_OR_RETURN(Value l, Eval(st, *e.args[0], scope, group));
      XNF_ASSIGN_OR_RETURN(Value r, Eval(st, *e.args[1], scope, group));
      switch (e.bin_op) {
        case BinOp::kEq:
        case BinOp::kNe:
        case BinOp::kLt:
        case BinOp::kLe:
        case BinOp::kGt:
        case BinOp::kGe:
          return CompareValues(e.bin_op, l, r);
        case BinOp::kConcat:
          if (l.is_null() || r.is_null()) return Value::Null();
          if (!l.is_string() || !r.is_string()) {
            return Status::InvalidArgument("|| requires strings");
          }
          return Value::String(l.AsString() + r.AsString());
        default:
          return Arith(e.bin_op, l, r);
      }
    }
    case K::kUnary: {
      XNF_ASSIGN_OR_RETURN(Value v, Eval(st, *e.args[0], scope, group));
      if (e.un_op == sql::UnOp::kNot) {
        XNF_ASSIGN_OR_RETURN(Tribool t, ToTribool(v));
        return TriboolToValue(Not3(t));
      }
      if (v.is_null()) return Value::Null();
      if (v.is_int()) return Value::Int(-v.AsInt());
      if (v.is_double()) return Value::Double(-v.AsDouble());
      return Status::InvalidArgument("unary '-' on non-numeric value");
    }
    case K::kIsNull: {
      XNF_ASSIGN_OR_RETURN(Value v, Eval(st, *e.args[0], scope, group));
      bool is_null = v.is_null();
      return Value::Bool(e.negated ? !is_null : is_null);
    }
    case K::kLike: {
      XNF_ASSIGN_OR_RETURN(Value text, Eval(st, *e.args[0], scope, group));
      XNF_ASSIGN_OR_RETURN(Value pattern, Eval(st, *e.args[1], scope, group));
      if (text.is_null() || pattern.is_null()) return Value::Null();
      if (!text.is_string() || !pattern.is_string()) {
        return Status::InvalidArgument("LIKE requires strings");
      }
      bool m = LikeMatch(text.AsString(), pattern.AsString());
      return Value::Bool(e.negated ? !m : m);
    }
    case K::kBetween: {
      XNF_ASSIGN_OR_RETURN(Value a, Eval(st, *e.args[0], scope, group));
      XNF_ASSIGN_OR_RETURN(Value lo, Eval(st, *e.args[1], scope, group));
      XNF_ASSIGN_OR_RETURN(Value hi, Eval(st, *e.args[2], scope, group));
      Tribool ge = Not3(a.CompareLt(lo));
      Tribool le = Not3(hi.CompareLt(a));
      Tribool both = (ge == Tribool::kTrue && le == Tribool::kTrue)
                         ? Tribool::kTrue
                         : ((ge == Tribool::kFalse || le == Tribool::kFalse)
                                ? Tribool::kFalse
                                : Tribool::kUnknown);
      if (e.negated) both = Not3(both);
      return TriboolToValue(both);
    }
    case K::kInList: {
      XNF_ASSIGN_OR_RETURN(Value v, Eval(st, *e.args[0], scope, group));
      Tribool acc = Tribool::kFalse;
      for (size_t i = 1; i < e.args.size(); ++i) {
        XNF_ASSIGN_OR_RETURN(Value item, Eval(st, *e.args[i], scope, group));
        Tribool eq = v.CompareEq(item);
        if (eq == Tribool::kTrue) {
          acc = Tribool::kTrue;
          break;
        }
        if (eq == Tribool::kUnknown) acc = Tribool::kUnknown;
      }
      if (e.negated) acc = Not3(acc);
      return TriboolToValue(acc);
    }
    case K::kCase: {
      size_t n = e.args.size();
      bool has_else = n % 2 == 1;
      size_t pairs = n / 2;
      for (size_t i = 0; i < pairs; ++i) {
        XNF_ASSIGN_OR_RETURN(Value cond,
                             Eval(st, *e.args[2 * i], scope, group));
        Tribool t = cond.is_null()
                        ? Tribool::kUnknown
                        : (cond.is_bool() && cond.AsBool() ? Tribool::kTrue
                                                           : Tribool::kFalse);
        if (t == Tribool::kTrue) {
          return Eval(st, *e.args[2 * i + 1], scope, group);
        }
      }
      if (has_else) return Eval(st, *e.args[n - 1], scope, group);
      return Value::Null();
    }
    case K::kFuncCall: {
      std::string name = ToLower(e.column);
      if (IsAggName(name)) {
        if (group == nullptr) {
          return Status::InvalidArgument("aggregate '" + e.column +
                                         "' is not allowed here");
        }
        return EvalAggregate(st, e, *group);
      }
      std::vector<Value> args;
      args.reserve(e.args.size());
      for (const sql::ExprPtr& a : e.args) {
        XNF_ASSIGN_OR_RETURN(Value v, Eval(st, *a, scope, group));
        args.push_back(std::move(v));
      }
      // exec/eval.cc ApplyFunction.
      if (name == "coalesce") {
        for (Value& a : args) {
          if (!a.is_null()) return std::move(a);
        }
        return Value::Null();
      }
      for (const Value& a : args) {
        if (a.is_null()) return Value::Null();
      }
      if (name == "abs") {
        if (args[0].is_int()) return Value::Int(std::llabs(args[0].AsInt()));
        if (args[0].is_double()) {
          return Value::Double(std::fabs(args[0].AsDouble()));
        }
        return Status::InvalidArgument("abs on non-numeric value");
      }
      if (name == "mod") return Arith(BinOp::kMod, args[0], args[1]);
      if (name == "floor" || name == "ceil" || name == "round") {
        if (!args[0].is_numeric()) {
          return Status::InvalidArgument(name + " on non-numeric value");
        }
        double d = args[0].AsDouble();
        if (name == "floor") {
          return Value::Int(static_cast<int64_t>(std::floor(d)));
        }
        if (name == "ceil") {
          return Value::Int(static_cast<int64_t>(std::ceil(d)));
        }
        return Value::Int(static_cast<int64_t>(std::llround(d)));
      }
      if (name == "lower" || name == "upper" || name == "trim" ||
          name == "length" || name == "substr") {
        if (!args[0].is_string()) {
          return Status::InvalidArgument(name + " on non-string value");
        }
        if (name == "lower") return Value::String(ToLower(args[0].AsString()));
        if (name == "upper") {
          std::string s = args[0].AsString();
          for (char& c : s) {
            c = static_cast<char>(
                std::toupper(static_cast<unsigned char>(c)));
          }
          return Value::String(std::move(s));
        }
        if (name == "trim") {
          const std::string& s = args[0].AsString();
          size_t b = s.find_first_not_of(" \t\n\r");
          size_t en = s.find_last_not_of(" \t\n\r");
          if (b == std::string::npos) return Value::String("");
          return Value::String(s.substr(b, en - b + 1));
        }
        if (name == "length") {
          return Value::Int(static_cast<int64_t>(args[0].AsString().size()));
        }
        const std::string& s = args[0].AsString();
        int64_t start = args[1].AsInt();  // 1-based
        if (start < 1) start = 1;
        size_t from = static_cast<size_t>(start - 1);
        if (from >= s.size()) return Value::String("");
        size_t len = args.size() == 3
                         ? static_cast<size_t>(
                               std::max<int64_t>(0, args[2].AsInt()))
                         : std::string::npos;
        return Value::String(s.substr(from, len));
      }
      return Status::NotFound("unknown function '" + name + "'");
    }
    case K::kInSubquery:
    case K::kExistsSubquery:
    case K::kScalarSubquery: {
      XNF_ASSIGN_OR_RETURN(SelectOut sub, EvalSelect(st, *e.subquery,
                                                     &scope));
      if (e.kind == K::kExistsSubquery) {
        bool exists = !sub.rows.empty();
        return Value::Bool(e.negated ? !exists : exists);
      }
      if (e.kind == K::kScalarSubquery) {
        if (sub.rows.empty()) return Value::Null();
        if (sub.rows.size() > 1) {
          return Status::InvalidArgument(
              "scalar subquery returned more than one row");
        }
        return sub.rows[0][0];
      }
      XNF_ASSIGN_OR_RETURN(Value v, Eval(st, *e.args[0], scope, group));
      Tribool acc = Tribool::kFalse;
      for (const Row& r : sub.rows) {
        Tribool eq = v.CompareEq(r[0]);
        if (eq == Tribool::kTrue) {
          acc = Tribool::kTrue;
          break;
        }
        if (eq == Tribool::kUnknown) acc = Tribool::kUnknown;
      }
      if (e.negated) acc = Not3(acc);
      return TriboolToValue(acc);
    }
    case K::kStar:
    case K::kParam:
      return Status::InvalidArgument(
          e.kind == K::kStar ? "'*' is only valid inside COUNT(*)"
                             : "unbound statement parameter");
    case K::kPath:
    case K::kExistsPath:
      return Status::NotSupported(
          "path expressions are not available in this context");
  }
  return Status::Internal("unhandled expression kind in Eval");
}

Result<bool> EvalPred(State* st, const Expr& e, const Scope& scope,
                      const GroupCtx* group) {
  XNF_ASSIGN_OR_RETURN(Value v, Eval(st, e, scope, group));
  if (v.is_null()) return false;
  if (!v.is_bool()) {
    return Status::InvalidArgument("predicate did not evaluate to a boolean");
  }
  return v.AsBool();
}

Result<ResolvedCol> ResolveColumn(const Scope& scope, const std::string& table,
                                  const std::string& column) {
  return ResolveRef(scope, table, column);
}

}  // namespace xnf::testing::refi
