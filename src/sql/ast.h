#ifndef XNF_SQL_AST_H_
#define XNF_SQL_AST_H_

#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/value.h"

namespace xnf::sql {

struct Expr;
struct SelectStmt;
using ExprPtr = std::unique_ptr<Expr>;

enum class BinOp {
  kEq,
  kNe,
  kLt,
  kLe,
  kGt,
  kGe,
  kAdd,
  kSub,
  kMul,
  kDiv,
  kMod,
  kAnd,
  kOr,
  kConcat,
};

enum class UnOp { kNot, kNeg };

// One step of an XNF path expression (§3.5 of the paper). A step names either
// a relationship or a component table; parenthesized steps carry a
// correlation name and a qualification predicate:
//   d->employment->(Xemp e WHERE e.sal < 2000)->projmanagement->Xproj
struct PathStep {
  std::string name;      // relationship or node name
  std::string corr;      // correlation variable, "" if none
  ExprPtr predicate;     // qualification, null if none
};

// A path expression. `start` is either a correlation variable bound by the
// enclosing SUCH THAT / cursor context, or a component table name (the
// "all roots" form, e.g. Xdept->employment->Xemp).
struct PathExpr {
  std::string start;
  std::vector<PathStep> steps;
};

// Scalar / predicate expression tree shared by SQL and XNF.
struct Expr {
  enum class Kind {
    kLiteral,         // value
    kColumnRef,       // [table.]column
    kStar,            // * (only inside COUNT(*))
    kBinary,          // args[0] op args[1]
    kUnary,           // op args[0]
    kFuncCall,        // name(args...); aggregates COUNT/SUM/AVG/MIN/MAX too
    kIsNull,          // args[0] IS [NOT] NULL         (negated flag)
    kLike,            // args[0] [NOT] LIKE args[1]    (negated flag)
    kBetween,         // args[0] BETWEEN args[1] AND args[2] (negated flag)
    kInList,          // args[0] IN (args[1..])        (negated flag)
    kInSubquery,      // args[0] IN (SELECT ...)       (negated flag)
    kExistsSubquery,  // EXISTS (SELECT ...)           (negated flag)
    kScalarSubquery,  // (SELECT single value)
    kCase,            // CASE WHEN a THEN b [WHEN..] [ELSE e] END; args hold
                      // when/then pairs then optional else
    kPath,            // XNF path expression (valid in XNF contexts only)
    kExistsPath,      // EXISTS <path expression>      (negated flag)
    kParam,           // ? prepared-statement parameter
  };

  Kind kind;
  Value literal;                  // kLiteral
  std::string table;              // kColumnRef qualifier ("" if none)
  std::string column;             // kColumnRef name / kFuncCall name
  BinOp bin_op = BinOp::kEq;      // kBinary
  UnOp un_op = UnOp::kNot;        // kUnary
  bool negated = false;           // IS NOT NULL / NOT IN / NOT LIKE / ...
  bool distinct_arg = false;      // COUNT(DISTINCT x)
  // kParam: index into the statement's parameter vector. A '?' counts
  // '?'s in occurrence order; a literal the statement cache turned into a
  // parameter uses its literal ordinal and keeps its value in `literal`,
  // which types the parameter at plan time (see sql/shape.h).
  int param_index = -1;
  // kLiteral parsed from source text: the token's literal ordinal (see
  // Token::literal_ordinal); -1 for literals built by code.
  int literal_ordinal = -1;
  std::vector<ExprPtr> args;
  std::unique_ptr<SelectStmt> subquery;  // kIn/kExists/kScalarSubquery
  std::unique_ptr<PathExpr> path;        // kPath / kExistsPath

  explicit Expr(Kind k) : kind(k) {}

  static ExprPtr Lit(Value v) {
    auto e = std::make_unique<Expr>(Kind::kLiteral);
    e->literal = std::move(v);
    return e;
  }
  static ExprPtr ColRef(std::string tbl, std::string col) {
    auto e = std::make_unique<Expr>(Kind::kColumnRef);
    e->table = std::move(tbl);
    e->column = std::move(col);
    return e;
  }
  static ExprPtr Binary(BinOp op, ExprPtr l, ExprPtr r) {
    auto e = std::make_unique<Expr>(Kind::kBinary);
    e->bin_op = op;
    e->args.push_back(std::move(l));
    e->args.push_back(std::move(r));
    return e;
  }

  // Deep copy (needed when one parsed view body is instantiated many times).
  ExprPtr Clone() const;

  // Diagnostic rendering, approximately re-parsable.
  std::string ToString() const;
};

enum class JoinType { kInner, kLeft };

// FROM-clause item: base table / view reference, derived table, or join.
struct TableRef {
  enum class Kind { kNamed, kSubquery, kJoin };
  Kind kind = Kind::kNamed;

  // kNamed
  std::string name;
  // alias applies to kNamed and kSubquery; "" = default
  std::string alias;
  // kSubquery
  std::unique_ptr<SelectStmt> subquery;
  // kJoin
  JoinType join_type = JoinType::kInner;
  std::unique_ptr<TableRef> left;
  std::unique_ptr<TableRef> right;
  ExprPtr on;

  std::unique_ptr<TableRef> Clone() const;
};

struct SelectItem {
  bool star = false;        // SELECT * or qualifier.*
  std::string star_table;   // qualifier for qualified star ("" = all)
  ExprPtr expr;             // when !star
  std::string alias;        // output column name ("" = derive)
};

struct OrderItem {
  ExprPtr expr;
  bool ascending = true;
};

// SELECT statement. Set-operation chains (UNION [ALL] / INTERSECT /
// EXCEPT, left-associative) via `union_next`; `set_op` is the operator
// linking this statement to `union_next`.
struct SelectStmt {
  enum class SetOp { kUnionAll, kUnion, kIntersect, kExcept };

  bool distinct = false;
  std::vector<SelectItem> items;
  std::vector<std::unique_ptr<TableRef>> from;
  ExprPtr where;
  std::vector<ExprPtr> group_by;
  ExprPtr having;
  std::vector<OrderItem> order_by;
  std::optional<int64_t> limit;
  std::optional<int64_t> offset;
  bool union_all = false;  // kept in sync with set_op for convenience
  SetOp set_op = SetOp::kUnion;
  std::unique_ptr<SelectStmt> union_next;

  std::unique_ptr<SelectStmt> Clone() const;
  std::string ToString() const;
};

struct ColumnDef {
  std::string name;
  Type type = Type::kInt;
  bool not_null = false;
  bool primary_key = false;
};

// Physical layout requested by CREATE TABLE ... USING {row|column};
// kDefault means no clause (the engine default applies).
enum class StorageClause { kDefault, kRow, kColumn };

struct CreateTableStmt {
  std::string name;
  std::vector<ColumnDef> columns;
  StorageClause storage = StorageClause::kDefault;
  // CREATE TABLE ... CLUSTER BY col: co-cluster rows sharing this column's
  // value into the same row groups (columnar tables only). Empty = none.
  std::string cluster_by;
};

struct CreateIndexStmt {
  std::string name;
  std::string table;
  std::vector<std::string> columns;
  bool unique = false;
  bool ordered = false;  // CREATE [UNIQUE] [ORDERED] INDEX
};

// CREATE VIEW captures the raw definition text (after AS) so the catalog can
// store and re-parse it; `is_xnf` marks composite-object views.
struct CreateViewStmt {
  std::string name;
  std::string definition;
  bool is_xnf = false;
};

struct InsertStmt {
  std::string table;
  std::vector<std::string> columns;          // empty = all, in schema order
  std::vector<std::vector<ExprPtr>> rows;    // VALUES form
  std::unique_ptr<SelectStmt> select;        // INSERT ... SELECT form
};

struct UpdateStmt {
  std::string table;
  std::vector<std::pair<std::string, ExprPtr>> assignments;
  ExprPtr where;
};

struct DeleteStmt {
  std::string table;
  ExprPtr where;
};

struct DropStmt {
  bool is_view = false;
  std::string name;
};

// EXPLAIN [ANALYZE] <select or XNF statement>. SQL bodies are parsed in
// place; XNF bodies ("OUT OF ...") are captured verbatim and handed to the
// XNF parser by the execution layer (mirroring CREATE VIEW ... AS OUT OF).
struct ExplainStmt {
  bool analyze = false;
  std::unique_ptr<SelectStmt> select;  // null when the body is XNF
  std::string xnf_text;                // non-empty when the body is XNF
};

// Tagged union of all parsed SQL statements. XNF statements live in
// xnf/ast.h and are produced by the XNF parser.
struct Statement {
  enum class Kind {
    kSelect,
    kCreateTable,
    kCreateIndex,
    kCreateView,
    kInsert,
    kUpdate,
    kDelete,
    kDrop,
    kExplain,
  };
  Kind kind;
  std::unique_ptr<SelectStmt> select;
  std::unique_ptr<CreateTableStmt> create_table;
  std::unique_ptr<CreateIndexStmt> create_index;
  std::unique_ptr<CreateViewStmt> create_view;
  std::unique_ptr<InsertStmt> insert;
  std::unique_ptr<UpdateStmt> update;
  std::unique_ptr<DeleteStmt> del;
  std::unique_ptr<DropStmt> drop;
  std::unique_ptr<ExplainStmt> explain;
};

}  // namespace xnf::sql

#endif  // XNF_SQL_AST_H_
