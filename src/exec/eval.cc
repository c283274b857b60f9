#include "exec/eval.h"

#include <algorithm>
#include <cmath>

#include "common/str_util.h"

namespace xnf::exec {

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

Result<Value> EvalComparison(sql::BinOp op, const Value& l, const Value& r) {
  switch (op) {
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
    default:
      return Status::Internal("not a comparison");
  }
}

Result<Value> EvalArithmetic(sql::BinOp op, const Value& l, const Value& r) {
  if (l.is_null() || r.is_null()) return Value::Null();
  if (!l.is_numeric() || !r.is_numeric()) {
    return Status::InvalidArgument("arithmetic on non-numeric values");
  }
  bool ints = l.is_int() && r.is_int();
  switch (op) {
    case sql::BinOp::kAdd:
      return ints ? Value::Int(WrappingAdd(l.AsInt(), r.AsInt()))
                  : Value::Double(l.AsDouble() + r.AsDouble());
    case sql::BinOp::kSub:
      return ints ? Value::Int(WrappingSub(l.AsInt(), r.AsInt()))
                  : Value::Double(l.AsDouble() - r.AsDouble());
    case sql::BinOp::kMul:
      return ints ? Value::Int(WrappingMul(l.AsInt(), r.AsInt()))
                  : Value::Double(l.AsDouble() * r.AsDouble());
    case sql::BinOp::kDiv:
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
    case sql::BinOp::kMod:
      if (!ints) return Status::InvalidArgument("MOD requires integers");
      if (r.AsInt() == 0) return Status::InvalidArgument("division by zero");
      return Value::Int(l.AsInt() % r.AsInt());
    default:
      return Status::Internal("not arithmetic");
  }
}

// Applies a scalar function to already-evaluated argument values. Shared by
// the scalar and batch evaluation paths (function arguments are always
// evaluated unconditionally, so batching them is semantics-preserving).
Result<Value> ApplyFunction(const qgm::Expr& expr, std::vector<Value> args) {
  const std::string& f = expr.func_name;
  if (f == "coalesce") {
    for (Value& a : args) {
      if (!a.is_null()) return std::move(a);
    }
    return Value::Null();
  }
  // Remaining functions are NULL-strict.
  for (const Value& a : args) {
    if (a.is_null()) return Value::Null();
  }
  if (f == "abs") {
    if (args[0].is_int()) return Value::Int(std::llabs(args[0].AsInt()));
    return Value::Double(std::fabs(args[0].AsDouble()));
  }
  if (f == "mod") return EvalArithmetic(sql::BinOp::kMod, args[0], args[1]);
  if (f == "floor") {
    return Value::Int(static_cast<int64_t>(std::floor(args[0].AsDouble())));
  }
  if (f == "ceil") {
    return Value::Int(static_cast<int64_t>(std::ceil(args[0].AsDouble())));
  }
  if (f == "round") {
    return Value::Int(static_cast<int64_t>(std::llround(args[0].AsDouble())));
  }
  if (f == "lower") return Value::String(ToLower(args[0].AsString()));
  if (f == "upper") {
    std::string s = args[0].AsString();
    for (char& c : s) c = static_cast<char>(std::toupper(
                          static_cast<unsigned char>(c)));
    return Value::String(std::move(s));
  }
  if (f == "trim") {
    const std::string& s = args[0].AsString();
    size_t b = s.find_first_not_of(" \t\n\r");
    size_t e = s.find_last_not_of(" \t\n\r");
    if (b == std::string::npos) return Value::String("");
    return Value::String(s.substr(b, e - b + 1));
  }
  if (f == "length") {
    return Value::Int(static_cast<int64_t>(args[0].AsString().size()));
  }
  if (f == "substr") {
    const std::string& s = args[0].AsString();
    int64_t start = args[1].AsInt();  // 1-based
    if (start < 1) start = 1;
    size_t from = static_cast<size_t>(start - 1);
    if (from >= s.size()) return Value::String("");
    size_t len = args.size() == 3
                     ? static_cast<size_t>(std::max<int64_t>(
                           0, args[2].AsInt()))
                     : std::string::npos;
    return Value::String(s.substr(from, len));
  }
  return Status::Internal("unknown function at eval time: " + f);
}

Result<std::vector<Row>> RunSubplan(CompiledSubquery* sub, EvalContext* ctx) {
  if (sub->bindings.empty() && sub->cached.has_value()) {
    return *sub->cached;
  }
  std::vector<Value> params;
  params.reserve(sub->bindings.size());
  for (const qgm::ExprPtr& b : sub->bindings) {
    XNF_ASSIGN_OR_RETURN(Value v, EvalExpr(*b, ctx));
    params.push_back(std::move(v));
  }
  ExecContext sub_exec;
  sub_exec.catalog = ctx->exec->catalog;
  sub_exec.params = &params;
  XNF_ASSIGN_OR_RETURN(ResultSet rs, RunPlan(sub->plan.get(), &sub_exec));
  if (sub->bindings.empty()) {
    sub->cached = rs.rows;
  }
  return std::move(rs.rows);
}

}  // namespace

Result<Value> EvalExpr(const qgm::Expr& expr, EvalContext* ctx) {
  using K = qgm::Expr::Kind;
  switch (expr.kind) {
    case K::kLiteral:
      return expr.literal;
    case K::kInputRef: {
      if (expr.slot < 0 ||
          static_cast<size_t>(expr.slot) >= ctx->row->size()) {
        return Status::Internal("unresolved or out-of-range input slot");
      }
      return (*ctx->row)[expr.slot];
    }
    case K::kParam: {
      if (ctx->exec->params == nullptr ||
          static_cast<size_t>(expr.param_index) >= ctx->exec->params->size()) {
        return Status::Internal("missing correlation parameter");
      }
      return (*ctx->exec->params)[expr.param_index];
    }
    case K::kBinary: {
      if (expr.bin_op == sql::BinOp::kAnd || expr.bin_op == sql::BinOp::kOr) {
        XNF_ASSIGN_OR_RETURN(Value lv, EvalExpr(*expr.args[0], ctx));
        Tribool l = ValueToTribool(lv);
        // Short circuit.
        if (expr.bin_op == sql::BinOp::kAnd && l == Tribool::kFalse) {
          return Value::Bool(false);
        }
        if (expr.bin_op == sql::BinOp::kOr && l == Tribool::kTrue) {
          return Value::Bool(true);
        }
        XNF_ASSIGN_OR_RETURN(Value rv, EvalExpr(*expr.args[1], ctx));
        Tribool r = ValueToTribool(rv);
        if (expr.bin_op == sql::BinOp::kAnd) {
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
      XNF_ASSIGN_OR_RETURN(Value l, EvalExpr(*expr.args[0], ctx));
      XNF_ASSIGN_OR_RETURN(Value r, EvalExpr(*expr.args[1], ctx));
      switch (expr.bin_op) {
        case sql::BinOp::kEq:
        case sql::BinOp::kNe:
        case sql::BinOp::kLt:
        case sql::BinOp::kLe:
        case sql::BinOp::kGt:
        case sql::BinOp::kGe:
          return EvalComparison(expr.bin_op, l, r);
        case sql::BinOp::kConcat:
          if (l.is_null() || r.is_null()) return Value::Null();
          if (!l.is_string() || !r.is_string()) {
            return Status::InvalidArgument("|| requires strings");
          }
          return Value::String(l.AsString() + r.AsString());
        default:
          return EvalArithmetic(expr.bin_op, l, r);
      }
    }
    case K::kUnary: {
      XNF_ASSIGN_OR_RETURN(Value v, EvalExpr(*expr.args[0], ctx));
      if (expr.un_op == sql::UnOp::kNot) {
        return TriboolToValue(Not(ValueToTribool(v)));
      }
      if (v.is_null()) return Value::Null();
      if (v.is_int()) return Value::Int(-v.AsInt());
      if (v.is_double()) return Value::Double(-v.AsDouble());
      return Status::InvalidArgument("unary '-' on non-numeric value");
    }
    case K::kFuncCall: {
      std::vector<Value> args;
      args.reserve(expr.args.size());
      for (const qgm::ExprPtr& a : expr.args) {
        XNF_ASSIGN_OR_RETURN(Value v, EvalExpr(*a, ctx));
        args.push_back(std::move(v));
      }
      return ApplyFunction(expr, std::move(args));
    }
    case K::kAggRef:
      return Status::Internal(
          "aggregate reference evaluated outside aggregation");
    case K::kIsNull: {
      XNF_ASSIGN_OR_RETURN(Value v, EvalExpr(*expr.args[0], ctx));
      bool is_null = v.is_null();
      return Value::Bool(expr.negated ? !is_null : is_null);
    }
    case K::kLike: {
      XNF_ASSIGN_OR_RETURN(Value text, EvalExpr(*expr.args[0], ctx));
      XNF_ASSIGN_OR_RETURN(Value pattern, EvalExpr(*expr.args[1], ctx));
      if (text.is_null() || pattern.is_null()) return Value::Null();
      if (!text.is_string() || !pattern.is_string()) {
        return Status::InvalidArgument("LIKE requires strings");
      }
      bool m = LikeMatch(text.AsString(), pattern.AsString());
      return Value::Bool(expr.negated ? !m : m);
    }
    case K::kCase: {
      size_t n = expr.args.size();
      bool has_else = n % 2 == 1;
      size_t pairs = n / 2;
      for (size_t i = 0; i < pairs; ++i) {
        XNF_ASSIGN_OR_RETURN(Value cond, EvalExpr(*expr.args[2 * i], ctx));
        if (ValueToTribool(cond) == Tribool::kTrue) {
          return EvalExpr(*expr.args[2 * i + 1], ctx);
        }
      }
      if (has_else) return EvalExpr(*expr.args[n - 1], ctx);
      return Value::Null();
    }
    case K::kInList: {
      XNF_ASSIGN_OR_RETURN(Value v, EvalExpr(*expr.args[0], ctx));
      Tribool acc = Tribool::kFalse;
      for (size_t i = 1; i < expr.args.size(); ++i) {
        XNF_ASSIGN_OR_RETURN(Value item, EvalExpr(*expr.args[i], ctx));
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
    case K::kPath:
      if (ctx->path_hook == nullptr) {
        return Status::Internal("path expression without a path hook");
      }
      return (*ctx->path_hook)(expr);
    case K::kSubquery: {
      if (ctx->subqueries == nullptr ||
          static_cast<size_t>(expr.subquery_index) >=
              ctx->subqueries->subqueries.size()) {
        return Status::Internal("missing subquery environment");
      }
      CompiledSubquery* sub =
          ctx->subqueries->subqueries[expr.subquery_index].get();
      XNF_ASSIGN_OR_RETURN(std::vector<Row> rows, RunSubplan(sub, ctx));
      switch (expr.subquery_kind) {
        case qgm::Expr::SubqueryKind::kExists: {
          bool exists = !rows.empty();
          return Value::Bool(expr.negated ? !exists : exists);
        }
        case qgm::Expr::SubqueryKind::kIn: {
          XNF_ASSIGN_OR_RETURN(Value v, EvalExpr(*expr.args[0], ctx));
          Tribool acc = Tribool::kFalse;
          for (const Row& r : rows) {
            Tribool eq = v.CompareEq(r[0]);
            if (eq == Tribool::kTrue) {
              acc = Tribool::kTrue;
              break;
            }
            if (eq == Tribool::kUnknown) acc = Tribool::kUnknown;
          }
          if (expr.negated) acc = Not(acc);
          return TriboolToValue(acc);
        }
        case qgm::Expr::SubqueryKind::kScalar: {
          if (rows.empty()) return Value::Null();
          if (rows.size() > 1) {
            return Status::InvalidArgument(
                "scalar subquery returned more than one row");
          }
          return rows[0][0];
        }
      }
      return Status::Internal("unhandled subquery kind");
    }
  }
  return Status::Internal("unhandled expression kind at eval");
}

Result<bool> EvalPredicate(const qgm::Expr& expr, EvalContext* ctx) {
  XNF_ASSIGN_OR_RETURN(Value v, EvalExpr(expr, ctx));
  return PredicateOutcome(v);
}

Result<bool> PredicateOutcome(const Value& v) {
  if (v.is_null()) return false;
  if (!v.is_bool()) {
    return Status::InvalidArgument("predicate did not evaluate to a boolean");
  }
  return v.AsBool();
}

namespace {

// Scalar-per-row fallback for node kinds with conditional evaluation or
// subquery semantics.
Result<std::vector<Value>> EvalRowWise(const qgm::Expr& expr,
                                       const std::vector<const Row*>& rows,
                                       EvalContext* ctx) {
  std::vector<Value> out;
  out.reserve(rows.size());
  EvalContext local = *ctx;
  for (const Row* r : rows) {
    local.row = r;
    XNF_ASSIGN_OR_RETURN(Value v, EvalExpr(expr, &local));
    out.push_back(std::move(v));
  }
  return out;
}

}  // namespace

Result<std::vector<Value>> EvalExprBatch(const qgm::Expr& expr,
                                         const std::vector<const Row*>& rows,
                                         EvalContext* ctx) {
  using K = qgm::Expr::Kind;
  const size_t n = rows.size();
  std::vector<Value> out;
  switch (expr.kind) {
    case K::kLiteral:
      out.assign(n, expr.literal);
      return out;
    case K::kInputRef: {
      if (n > 0 && (expr.slot < 0 ||
                    static_cast<size_t>(expr.slot) >= rows[0]->size())) {
        return Status::Internal("unresolved or out-of-range input slot");
      }
      out.reserve(n);
      for (const Row* r : rows) out.push_back((*r)[expr.slot]);
      return out;
    }
    case K::kParam: {
      if (ctx->exec->params == nullptr ||
          static_cast<size_t>(expr.param_index) >= ctx->exec->params->size()) {
        return Status::Internal("missing correlation parameter");
      }
      out.assign(n, (*ctx->exec->params)[expr.param_index]);
      return out;
    }
    case K::kBinary: {
      if (expr.bin_op == sql::BinOp::kAnd || expr.bin_op == sql::BinOp::kOr) {
        // Short-circuit semantics (the right side must not be evaluated for
        // rows where the left side decides): scalar per row.
        return EvalRowWise(expr, rows, ctx);
      }
      XNF_ASSIGN_OR_RETURN(std::vector<Value> l,
                           EvalExprBatch(*expr.args[0], rows, ctx));
      XNF_ASSIGN_OR_RETURN(std::vector<Value> r,
                           EvalExprBatch(*expr.args[1], rows, ctx));
      out.reserve(n);
      switch (expr.bin_op) {
        case sql::BinOp::kEq:
        case sql::BinOp::kNe:
        case sql::BinOp::kLt:
        case sql::BinOp::kLe:
        case sql::BinOp::kGt:
        case sql::BinOp::kGe:
          for (size_t i = 0; i < n; ++i) {
            XNF_ASSIGN_OR_RETURN(Value v,
                                 EvalComparison(expr.bin_op, l[i], r[i]));
            out.push_back(std::move(v));
          }
          return out;
        case sql::BinOp::kConcat:
          for (size_t i = 0; i < n; ++i) {
            if (l[i].is_null() || r[i].is_null()) {
              out.push_back(Value::Null());
              continue;
            }
            if (!l[i].is_string() || !r[i].is_string()) {
              return Status::InvalidArgument("|| requires strings");
            }
            out.push_back(Value::String(l[i].AsString() + r[i].AsString()));
          }
          return out;
        default:
          for (size_t i = 0; i < n; ++i) {
            XNF_ASSIGN_OR_RETURN(Value v,
                                 EvalArithmetic(expr.bin_op, l[i], r[i]));
            out.push_back(std::move(v));
          }
          return out;
      }
    }
    case K::kUnary: {
      XNF_ASSIGN_OR_RETURN(std::vector<Value> vs,
                           EvalExprBatch(*expr.args[0], rows, ctx));
      out.reserve(n);
      for (Value& v : vs) {
        if (expr.un_op == sql::UnOp::kNot) {
          out.push_back(TriboolToValue(Not(ValueToTribool(v))));
          continue;
        }
        if (v.is_null()) {
          out.push_back(Value::Null());
        } else if (v.is_int()) {
          out.push_back(Value::Int(-v.AsInt()));
        } else if (v.is_double()) {
          out.push_back(Value::Double(-v.AsDouble()));
        } else {
          return Status::InvalidArgument("unary '-' on non-numeric value");
        }
      }
      return out;
    }
    case K::kIsNull: {
      XNF_ASSIGN_OR_RETURN(std::vector<Value> vs,
                           EvalExprBatch(*expr.args[0], rows, ctx));
      out.reserve(n);
      for (const Value& v : vs) {
        bool is_null = v.is_null();
        out.push_back(Value::Bool(expr.negated ? !is_null : is_null));
      }
      return out;
    }
    case K::kLike: {
      XNF_ASSIGN_OR_RETURN(std::vector<Value> text,
                           EvalExprBatch(*expr.args[0], rows, ctx));
      XNF_ASSIGN_OR_RETURN(std::vector<Value> pattern,
                           EvalExprBatch(*expr.args[1], rows, ctx));
      out.reserve(n);
      for (size_t i = 0; i < n; ++i) {
        if (text[i].is_null() || pattern[i].is_null()) {
          out.push_back(Value::Null());
          continue;
        }
        if (!text[i].is_string() || !pattern[i].is_string()) {
          return Status::InvalidArgument("LIKE requires strings");
        }
        bool m = LikeMatch(text[i].AsString(), pattern[i].AsString());
        out.push_back(Value::Bool(expr.negated ? !m : m));
      }
      return out;
    }
    case K::kFuncCall: {
      // Function arguments are evaluated unconditionally in the scalar path
      // too, so evaluating them column-wise is semantics-preserving.
      std::vector<std::vector<Value>> arg_cols;
      arg_cols.reserve(expr.args.size());
      for (const qgm::ExprPtr& a : expr.args) {
        XNF_ASSIGN_OR_RETURN(std::vector<Value> col,
                             EvalExprBatch(*a, rows, ctx));
        arg_cols.push_back(std::move(col));
      }
      out.reserve(n);
      for (size_t i = 0; i < n; ++i) {
        std::vector<Value> args;
        args.reserve(arg_cols.size());
        for (std::vector<Value>& col : arg_cols) {
          args.push_back(std::move(col[i]));
        }
        XNF_ASSIGN_OR_RETURN(Value v, ApplyFunction(expr, std::move(args)));
        out.push_back(std::move(v));
      }
      return out;
    }
    case K::kCase:     // WHEN arms evaluate conditionally
    case K::kInList:   // list items evaluate until the first match
    case K::kSubquery: // CompiledSubquery binding/caching is per outer row
    case K::kPath:     // the hook walks the path of the current row
    case K::kAggRef:   // reports the proper error through the scalar path
      return EvalRowWise(expr, rows, ctx);
  }
  return Status::Internal("unhandled expression kind at batch eval");
}

Status EvalPredicateBatch(const qgm::Expr& pred,
                          const std::vector<const Row*>& rows,
                          EvalContext* ctx, std::vector<char>* keep) {
  // Compact to the still-alive rows so a predicate is never evaluated on a
  // row an earlier conjunct already rejected (the scalar loop's behaviour).
  std::vector<const Row*> alive;
  std::vector<size_t> alive_index;
  alive.reserve(rows.size());
  alive_index.reserve(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    if ((*keep)[i]) {
      alive.push_back(rows[i]);
      alive_index.push_back(i);
    }
  }
  if (alive.empty()) return Status::Ok();

  if (qgm::HasSubquery(pred) || qgm::HasPath(pred)) {
    EvalContext local = *ctx;
    for (size_t j = 0; j < alive.size(); ++j) {
      local.row = alive[j];
      XNF_ASSIGN_OR_RETURN(bool ok, EvalPredicate(pred, &local));
      if (!ok) (*keep)[alive_index[j]] = 0;
    }
    return Status::Ok();
  }

  XNF_ASSIGN_OR_RETURN(std::vector<Value> vals,
                       EvalExprBatch(pred, alive, ctx));
  for (size_t j = 0; j < alive.size(); ++j) {
    XNF_ASSIGN_OR_RETURN(bool ok, PredicateOutcome(vals[j]));
    if (!ok) (*keep)[alive_index[j]] = 0;
  }
  return Status::Ok();
}

}  // namespace xnf::exec
