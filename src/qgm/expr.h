#ifndef XNF_QGM_EXPR_H_
#define XNF_QGM_EXPR_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/value.h"
#include "sql/ast.h"

namespace xnf::qgm {

struct Expr;
using ExprPtr = std::unique_ptr<Expr>;

// Aggregate function kinds.
enum class AggFunc { kCount, kCountStar, kSum, kAvg, kMin, kMax };

// A fully resolved scalar expression. Column references are
// (quantifier index, column index) pairs within the owning SELECT box; after
// planning, `slot` additionally holds the flat offset into the operator's
// input row. Correlated references to enclosing queries are kParam.
struct Expr {
  enum class Kind {
    kLiteral,    // literal value
    kInputRef,   // quantifier/column (+ slot after planning)
    kParam,      // correlation parameter (index into ExecContext params)
    kBinary,
    kUnary,
    kFuncCall,   // scalar function (abs, lower, upper, length, mod, ...)
    kAggRef,     // reference to the owning box's aggregate #agg_index
    kIsNull,
    kLike,
    kCase,       // when/then pairs, optional trailing else
    kInList,     // args[0] IN args[1..]  (negated flag)
    kSubquery,   // EXISTS / IN / scalar subquery (see SubqueryKind)
    kPath,       // XNF path: [NOT] EXISTS path (BOOL) or, with func_name
                 // "count", COUNT(path) (INT); see EvalContext::path_hook
  };
  enum class SubqueryKind { kExists, kIn, kScalar };

  Kind kind;
  Value literal;                      // kLiteral
  int quantifier = -1;                // kInputRef
  int column = -1;                    // kInputRef
  int slot = -1;                      // kInputRef, filled by the planner
  int param_index = -1;               // kParam
  sql::BinOp bin_op = sql::BinOp::kEq;
  sql::UnOp un_op = sql::UnOp::kNot;
  bool negated = false;               // kIsNull / kLike / kInList / kSubquery
  std::string func_name;              // kFuncCall
  int agg_index = -1;                 // kAggRef
  SubqueryKind subquery_kind = SubqueryKind::kExists;  // kSubquery
  int subquery_index = -1;            // kSubquery: index into box's subqueries
  const sql::PathExpr* path = nullptr;  // kPath; owned by the source AST
  Type type = Type::kNull;            // derived output type
  std::vector<ExprPtr> args;

  explicit Expr(Kind k) : kind(k) {}

  static ExprPtr Lit(Value v) {
    auto e = std::make_unique<Expr>(Kind::kLiteral);
    e->type = v.type();
    e->literal = std::move(v);
    return e;
  }
  static ExprPtr InputRef(int q, int c, Type t) {
    auto e = std::make_unique<Expr>(Kind::kInputRef);
    e->quantifier = q;
    e->column = c;
    e->type = t;
    return e;
  }
  static ExprPtr Binary(sql::BinOp op, ExprPtr l, ExprPtr r, Type t) {
    auto e = std::make_unique<Expr>(Kind::kBinary);
    e->bin_op = op;
    e->args.push_back(std::move(l));
    e->args.push_back(std::move(r));
    e->type = t;
    return e;
  }

  ExprPtr Clone() const;
  std::string ToString() const;
};

// One aggregate computed by a SELECT box (e.g. SUM(e.sal)).
struct AggSpec {
  AggFunc func = AggFunc::kCount;
  ExprPtr arg;          // null for COUNT(*)
  bool distinct = false;
  Type result_type = Type::kInt;
};

// Calls `fn` on every node of `expr` (pre-order).
void VisitExpr(const Expr& expr, const std::function<void(const Expr&)>& fn);
void VisitExprMutable(Expr* expr, const std::function<void(Expr*)>& fn);

// Structural equality (used for GROUP BY validation and CSE).
bool ExprEquals(const Expr& a, const Expr& b);

// True if any kInputRef in `expr` references quantifier `q`.
bool ReferencesQuantifier(const Expr& expr, int q);

// True if the expression contains any kInputRef at all.
bool HasInputRefs(const Expr& expr);

// Appends the conjuncts of an AND tree to `out`, left operand first.
void SplitConjuncts(ExprPtr expr, std::vector<ExprPtr>* out);

// True if the expression reads a parameter (kParam).
bool HasParam(const Expr& expr);

// A copy of `expr` with every kParam whose index `params` covers replaced by
// the bound value as a literal. Consumers that read literals while compiling
// (the columnar filter kernels, cluster-tag pruning) see a parameterized
// plan exactly as they would see the literal text.
ExprPtr BindParams(const Expr& expr, const std::vector<Value>& params);

// True if the expression contains an aggregate reference, subquery or path.
bool HasAggRef(const Expr& expr);
bool HasSubquery(const Expr& expr);
bool HasPath(const Expr& expr);

}  // namespace xnf::qgm

#endif  // XNF_QGM_EXPR_H_
