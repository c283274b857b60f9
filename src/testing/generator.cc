#include "testing/generator.h"

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

// Grammar-driven statement generator. The grammar is deliberately *policed*:
// every construct it can emit is one whose behaviour is identical across the
// engine's configuration matrix (DOP, batch/scalar, CSE on/off, indexes
// on/off) and computable by the naive reference interpreter. The policies
// that keep false divergences out:
//
//  - Expressions are strictly typed. Arithmetic only over numeric operands,
//    string functions only over strings, CASE branches share a type. The
//    batch evaluator evaluates all branches eagerly, so an error-raising
//    expression in an untaken branch would diverge from the scalar path;
//    typed generation plus literal divisors in 1..4 rules that out.
//  - SUM/AVG aggregate only INT columns: integer addition is associative, so
//    morsel-parallel accumulation order can't perturb the result the way
//    floating-point summation would.
//  - ORDER BY uses only output aliases (c0..cN) or positions; LIMIT/OFFSET
//    appear only under an ORDER BY covering every output position, so the
//    selected prefix is a deterministic multiset.
//  - SQL UPDATE never assigns the primary key (row identity would then
//    depend on scan order); INSERTed keys come from a per-table sequence,
//    with deliberate duplicate/NULL keys for error-path agreement.
//  - XNF node queries always project the key column `a` (plus any foreign
//    key the edges need), so CSE temp narrowing and the no-CSE inline path
//    match rows identically. SUCH THAT / CO SET expressions use the
//    subquery-free SQL scalar dialect (what DML SET/WHERE compiles) with
//    references qualified by the restriction correlation.
//  - Scalar subqueries are always aggregated, so they yield exactly one row
//    under every plan shape.
namespace xnf::testing {
namespace {

// splitmix64: tiny, high-quality, and — unlike <random> distributions —
// bit-identical on every platform, which keeps seed artifacts replayable.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}

  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  // Inclusive range.
  int Int(int lo, int hi) {
    return lo + static_cast<int>(Next() % static_cast<uint64_t>(hi - lo + 1));
  }
  bool Chance(int percent) { return Int(0, 99) < percent; }
  template <typename T>
  const T& Pick(const std::vector<T>& v) {
    return v[Next() % v.size()];
  }

 private:
  uint64_t state_;
};

struct ColInfo {
  std::string name;
  char type;  // 'i' int, 'd' double, 's' string
};

struct TableModel {
  std::string name;
  std::vector<ColInfo> cols;  // pk "a" first
  std::string fk_col;         // "" when the table has no foreign key
  int fk_parent = -1;         // index into tables
  int64_t next_pk = 0;
};

struct LinkModel {
  std::string name;  // l{p}_{c}(pa INT, cb INT)
  int parent = 0;
  int child = 0;
};

struct SqlViewModel {
  std::string name;
  int arity = 0;  // columns c0..c{arity-1}, all INT
};

struct XnfNodeModel {
  std::string name;
  int table = -1;
  bool updatable = false;
  std::vector<ColInfo> cols;
};

struct XnfViewModel {
  std::string name;
  std::vector<XnfNodeModel> nodes;
};

// Generation context for predicates/expressions: the full SQL dialect, or
// the subquery-free scalar dialect of SUCH THAT / CO SET.
enum class Ctx { kSql, kSuchThat };

struct Src {
  std::string alias;
  std::vector<ColInfo> cols;
};

class Generator {
 public:
  Generator(uint64_t seed, const GenOptions& opt) : rng_(seed), opt_(opt) {
    opt_.tables = std::min(std::max(opt_.tables, 2), 4);
    opt_.link_tables = std::min(std::max(opt_.link_tables, 0), opt_.tables - 1);
    opt_.rows_per_table = std::max(opt_.rows_per_table, 4);
  }

  FuzzCase Run() {
    EmitSchema();
    EmitData();
    for (int i = 0; i < opt_.statements; ++i) EmitStatement();
    return std::move(out_);
  }

 private:
  void Emit(std::string stmt) { out_.statements.push_back(std::move(stmt)); }
  std::string FreshAlias() { return "q" + std::to_string(alias_n_++); }

  // ---------------------------------------------------------------- schema

  void EmitSchema() {
    for (int i = 0; i < opt_.tables; ++i) {
      TableModel t;
      // Generated names must never carry the reserved "sqlxnf_" prefix —
      // the engine rejects such CREATEs (system-view namespace), which
      // would turn every generated script into an error-path test.
      t.name = "t" + std::to_string(i);
      t.cols = {{"a", 'i'}, {"b", 'i'}, {"c", 'i'}, {"d", 'd'}, {"s", 's'}};
      std::string ddl = "CREATE TABLE " + t.name +
                        " (a INT PRIMARY KEY, b INT, c INT, d DOUBLE, "
                        "s VARCHAR";
      if (i > 0) {
        t.fk_col = "r" + std::to_string(i - 1);
        t.fk_parent = i - 1;
        t.cols.push_back({t.fk_col, 'i'});
        ddl += ", " + t.fk_col + " INT";
      }
      ddl += ")";
      // Mix explicit storage clauses into every matrix member: a USING
      // clause overrides the engine's default layout, so row-default
      // engines also exercise columnar tables (and vice versa). Weighted
      // toward columnar — the kernel scan and its column batches run only
      // there.
      if (rng_.Chance(40)) {
        ddl += rng_.Chance(60) ? " USING column" : " USING row";
      }
      tables_.push_back(std::move(t));
      Emit(std::move(ddl));
    }
    for (int i = 0; i < opt_.link_tables; ++i) {
      LinkModel l;
      l.parent = i;
      l.child = i + 1;
      l.name = "l" + std::to_string(i) + "_" + std::to_string(i + 1);
      std::string ddl = "CREATE TABLE " + l.name + " (pa INT, cb INT)";
      if (rng_.Chance(30)) ddl += " USING column";
      Emit(std::move(ddl));
      links_.push_back(std::move(l));
    }
    // Some upfront secondary indexes so index-assisted plans have material
    // to work with from the first statement.
    for (const TableModel& t : tables_) {
      if (!rng_.Chance(60)) continue;
      const ColInfo& col = rng_.Pick(t.cols);
      std::string kind = rng_.Chance(30) ? "ORDERED INDEX" : "INDEX";
      Emit("CREATE " + kind + " ix" + std::to_string(index_n_++) + " ON " +
           t.name + " (" + col.name + ")");
    }
  }

  std::string IntOrNull(int null_pct, int lo, int hi) {
    if (rng_.Chance(null_pct)) return "NULL";
    return std::to_string(rng_.Int(lo, hi));
  }

  std::string FkValue(const TableModel& parent) {
    int roll = rng_.Int(0, 99);
    if (roll < 10) return "NULL";
    if (roll < 20) return std::to_string(9000 + rng_.Int(0, 99));  // orphan
    return std::to_string(
        rng_.Int(0, static_cast<int>(parent.next_pk) - 1));
  }

  std::string StrLit() {
    static const std::vector<std::string> kWords = {"ant", "bee",  "cat",
                                                    "dog", "ewe",  "fox",
                                                    "gnu", "Heron"};
    return "'" + rng_.Pick(kWords) + "'";
  }

  void EmitData() {
    for (TableModel& t : tables_) {
      int emitted = 0;
      while (emitted < opt_.rows_per_table) {
        int chunk = std::min(opt_.rows_per_table - emitted, rng_.Int(3, 6));
        std::string stmt = "INSERT INTO " + t.name + " VALUES ";
        for (int r = 0; r < chunk; ++r) {
          if (r > 0) stmt += ", ";
          stmt += "(" + std::to_string(t.next_pk++);
          stmt += ", " + IntOrNull(10, 0, 9);
          stmt += ", " + IntOrNull(10, 0, 9);
          stmt += rng_.Chance(10)
                      ? ", NULL"
                      : ", " + std::to_string(rng_.Int(0, 9)) + ".5";
          stmt += rng_.Chance(10) ? ", NULL" : ", " + StrLit();
          if (t.fk_parent >= 0) {
            stmt += ", " + FkValue(tables_[t.fk_parent]);
          }
          stmt += ")";
        }
        Emit(std::move(stmt));
        emitted += chunk;
      }
    }
    for (const LinkModel& l : links_) {
      std::string stmt = "INSERT INTO " + l.name + " VALUES ";
      int rows = opt_.rows_per_table;
      for (int r = 0; r < rows; ++r) {
        if (r > 0) stmt += ", ";
        stmt += "(" + FkValue(tables_[l.parent]) + ", " +
                FkValue(tables_[l.child]) + ")";
      }
      Emit(std::move(stmt));
    }
  }

  // ----------------------------------------------------------- expressions

  std::vector<std::pair<std::string, char>> ColsOfType(
      const std::vector<Src>& scope, char type) {
    std::vector<std::pair<std::string, char>> out;
    for (const Src& s : scope) {
      for (const ColInfo& c : s.cols) {
        if (c.type == type) out.push_back({s.alias + "." + c.name, type});
      }
    }
    return out;
  }

  // A qualified reference to a column of the given type, or a literal when
  // the scope has none.
  std::string ColRef(const std::vector<Src>& scope, char type) {
    auto cols = ColsOfType(scope, type);
    if (cols.empty()) {
      if (type == 's') return StrLit();
      if (type == 'd') return std::to_string(rng_.Int(0, 9)) + ".5";
      return std::to_string(rng_.Int(0, 9));
    }
    return rng_.Pick(cols).first;
  }

  std::string IntExpr(const std::vector<Src>& scope, int depth, Ctx ctx) {
    int roll = rng_.Int(0, 99);
    if (depth <= 0 || roll < 35) return ColRef(scope, 'i');
    if (roll < 55) return std::to_string(rng_.Int(0, 9));
    if (roll < 75) {
      static const std::vector<std::string> kOps = {" + ", " - ", " * "};
      return "(" + IntExpr(scope, depth - 1, ctx) + rng_.Pick(kOps) +
             IntExpr(scope, depth - 1, ctx) + ")";
    }
    if (roll < 82) {
      // Literal divisor: division by zero stays impossible, so batch
      // evaluation of untaken branches can't raise where scalar wouldn't.
      std::string op = rng_.Chance(50) ? " / " : " % ";
      return "(" + IntExpr(scope, depth - 1, ctx) + op +
             std::to_string(rng_.Int(1, 4)) + ")";
    }
    if (roll < 88) return "abs(" + IntExpr(scope, depth - 1, ctx) + ")";
    if (roll < 93) {
      return "CASE WHEN " + Predicate(scope, depth - 1, ctx) + " THEN " +
             IntExpr(scope, depth - 1, ctx) + " ELSE " +
             IntExpr(scope, depth - 1, ctx) + " END";
    }
    if (roll < 96) return "length(" + StrExpr(scope, depth - 1, ctx) + ")";
    if (ctx == Ctx::kSql) return ScalarSubquery(scope);
    return "mod(" + IntExpr(scope, depth - 1, ctx) + ", " +
           std::to_string(rng_.Int(1, 4)) + ")";
  }

  std::string NumExpr(const std::vector<Src>& scope, int depth, Ctx ctx) {
    int roll = rng_.Int(0, 99);
    if (roll < 55) return IntExpr(scope, depth, ctx);
    if (roll < 80) return ColRef(scope, 'd');
    if (roll < 90) {
      return "(" + ColRef(scope, 'd') + " + " + std::to_string(rng_.Int(0, 9)) +
             ")";
    }
    static const std::vector<std::string> kFns = {"floor", "ceil", "round"};
    return rng_.Pick(kFns) + "(" + ColRef(scope, 'd') + ")";
  }

  std::string StrExpr(const std::vector<Src>& scope, int depth, Ctx ctx) {
    int roll = rng_.Int(0, 99);
    if (depth <= 0 || roll < 50) return ColRef(scope, 's');
    if (roll < 70) return StrLit();
    if (roll < 85) {
      std::string fn = rng_.Chance(50) ? "lower" : "upper";
      return fn + "(" + StrExpr(scope, depth - 1, ctx) + ")";
    }
    if (rng_.Chance(50)) {
      return "substr(" + StrExpr(scope, depth - 1, ctx) + ", " +
             std::to_string(rng_.Int(1, 3)) + ", " +
             std::to_string(rng_.Int(1, 3)) + ")";
    }
    return "coalesce(" + ColRef(scope, 's') + ", " + StrLit() + ")";
  }

  std::string TypedExpr(const std::vector<Src>& scope, int depth, Ctx ctx,
                        char type) {
    switch (type) {
      case 'd':
        return NumExpr(scope, depth, ctx);
      case 's':
        return StrExpr(scope, depth, ctx);
      default:
        return IntExpr(scope, depth, ctx);
    }
  }

  std::string CmpOp() {
    static const std::vector<std::string> kOps = {" = ",  " <> ", " < ",
                                                  " <= ", " > ",  " >= "};
    return rng_.Pick(kOps);
  }

  std::string Predicate(const std::vector<Src>& scope, int depth, Ctx ctx) {
    int roll = rng_.Int(0, 99);
    if (depth <= 0) roll = rng_.Int(0, 59);  // leaf forms only
    if (roll < 35) {
      return "(" + IntExpr(scope, depth - 1, ctx) + CmpOp() +
             IntExpr(scope, depth - 1, ctx) + ")";
    }
    if (roll < 42) {
      return "(" + NumExpr(scope, depth - 1, ctx) + CmpOp() +
             NumExpr(scope, depth - 1, ctx) + ")";
    }
    if (roll < 50) {
      return "(" + StrExpr(scope, depth - 1, ctx) + CmpOp() +
             StrExpr(scope, depth - 1, ctx) + ")";
    }
    if (roll < 58) {
      std::string not_part = rng_.Chance(30) ? " IS NOT NULL" : " IS NULL";
      char type = rng_.Chance(50) ? 'i' : (rng_.Chance(50) ? 'd' : 's');
      return "(" + ColRef(scope, type) + not_part + ")";
    }
    if (roll < 64) {
      int lo = rng_.Int(0, 5);
      std::string not_part = rng_.Chance(25) ? " NOT BETWEEN " : " BETWEEN ";
      return "(" + IntExpr(scope, depth - 1, ctx) + not_part +
             std::to_string(lo) + " AND " + std::to_string(lo + rng_.Int(0, 4)) +
             ")";
    }
    if (roll < 70) {
      std::string list;
      int n = rng_.Int(1, 4);
      for (int i = 0; i < n; ++i) {
        if (i > 0) list += ", ";
        list += std::to_string(rng_.Int(0, 9));
      }
      std::string not_part = rng_.Chance(25) ? " NOT IN (" : " IN (";
      return "(" + ColRef(scope, 'i') + not_part + list + "))";
    }
    if (roll < 76) {
      static const std::vector<std::string> kPatterns = {
          "'a%'", "'%e%'", "'c_t'", "'%o_'", "'%'", "'bee'"};
      std::string not_part = rng_.Chance(25) ? " NOT LIKE " : " LIKE ";
      return "(" + ColRef(scope, 's') + not_part + rng_.Pick(kPatterns) + ")";
    }
    if (roll < 94 || ctx == Ctx::kSuchThat) {
      int form = rng_.Int(0, 2);
      if (form == 0) return "(NOT " + Predicate(scope, depth - 1, ctx) + ")";
      std::string op = form == 1 ? " AND " : " OR ";
      return "(" + Predicate(scope, depth - 1, ctx) + op +
             Predicate(scope, depth - 1, ctx) + ")";
    }
    return SubqueryPredicate(scope);
  }

  // EXISTS / IN (SELECT ...) — possibly correlated with the outer scope.
  std::string SubqueryPredicate(const std::vector<Src>& scope) {
    const TableModel& t = rng_.Pick(tables_);
    std::string alias = FreshAlias();
    std::vector<Src> inner = {{alias, t.cols}};
    std::string where;
    bool correlate = rng_.Chance(50) && !scope.empty();
    if (correlate) {
      where = " WHERE " + alias + "." + rng_.Pick(t.cols).name + " = " +
              ColRef(scope, 'i');
      if (rng_.Chance(40)) {
        where += " AND " + Predicate(inner, 1, Ctx::kSql);
      }
    } else if (rng_.Chance(70)) {
      where = " WHERE " + Predicate(inner, 1, Ctx::kSql);
    }
    if (rng_.Chance(50)) {
      std::string not_part = rng_.Chance(30) ? "NOT EXISTS" : "EXISTS";
      return "(" + not_part + " (SELECT 1 FROM " + t.name + " " + alias +
             where + "))";
    }
    std::vector<std::string> int_cols;
    for (const ColInfo& c : t.cols) {
      if (c.type == 'i') int_cols.push_back(c.name);
    }
    std::string not_part = rng_.Chance(30) ? " NOT IN " : " IN ";
    return "(" + ColRef(scope, 'i') + not_part + "(SELECT " + alias + "." +
           rng_.Pick(int_cols) + " FROM " + t.name + " " + alias + where +
           "))";
  }

  // Scalar subqueries always aggregate, so every plan shape sees one row.
  std::string ScalarSubquery(const std::vector<Src>& scope) {
    const TableModel& t = rng_.Pick(tables_);
    std::string alias = FreshAlias();
    std::vector<Src> inner = {{alias, t.cols}};
    std::string agg = rng_.Chance(50)
                          ? "COUNT(*)"
                          : (rng_.Chance(50) ? "SUM(" : "MIN(") + alias +
                                ".b)";
    std::string where;
    if (rng_.Chance(60) && !scope.empty()) {
      where = " WHERE " + alias + ".b = " + ColRef(scope, 'i');
    }
    return "(SELECT " + agg + " FROM " + t.name + " " + alias + where + ")";
  }

  // ---------------------------------------------------------------- SELECT

  struct SelectText {
    std::string text;
    int arity = 0;
  };

  // A FROM source: base table, or (at top level) a SQL view.
  Src PickSource(std::string* name_out, bool allow_view) {
    if (allow_view && !sql_views_.empty() && rng_.Chance(25)) {
      const SqlViewModel& v = rng_.Pick(sql_views_);
      Src s;
      s.alias = FreshAlias();
      for (int i = 0; i < v.arity; ++i) {
        s.cols.push_back({"c" + std::to_string(i), 'i'});
      }
      *name_out = v.name;
      return s;
    }
    const TableModel& t = rng_.Pick(tables_);
    *name_out = t.name;
    return {FreshAlias(), t.cols};
  }

  std::string ItemsFor(const std::vector<Src>& scope, int* arity_out,
                       Ctx ctx) {
    int n = rng_.Int(1, 4);
    std::string items;
    for (int i = 0; i < n; ++i) {
      if (i > 0) items += ", ";
      char type = rng_.Chance(60) ? 'i' : (rng_.Chance(40) ? 'd' : 's');
      items += TypedExpr(scope, 2, ctx, type) + " AS c" + std::to_string(i);
    }
    *arity_out = n;
    return items;
  }

  // ORDER BY over output aliases/positions; LIMIT only under a total order.
  std::string OrderSuffix(int arity, bool grouped_keys_only, int key_count) {
    std::string suffix;
    if (rng_.Chance(grouped_keys_only ? 50 : 40)) {
      int max_pos = grouped_keys_only ? key_count : arity;
      if (max_pos == 0) return suffix;
      bool full = rng_.Chance(50) && !grouped_keys_only;
      suffix += " ORDER BY ";
      if (full) {
        for (int i = 0; i < arity; ++i) {
          if (i > 0) suffix += ", ";
          suffix += rng_.Chance(50) ? std::to_string(i + 1)
                                    : "c" + std::to_string(i);
          if (rng_.Chance(35)) suffix += " DESC";
        }
        if (rng_.Chance(50)) {
          suffix += " LIMIT " + std::to_string(rng_.Int(1, 10));
          if (rng_.Chance(40)) {
            suffix += " OFFSET " + std::to_string(rng_.Int(0, 5));
          }
        }
      } else {
        int pos = rng_.Int(1, max_pos);
        suffix += rng_.Chance(50) ? std::to_string(pos)
                                  : "c" + std::to_string(pos - 1);
        if (rng_.Chance(35)) suffix += " DESC";
      }
    }
    return suffix;
  }

  SelectText SimpleSelect(bool allow_order) {
    std::string name;
    Src src = PickSource(&name, /*allow_view=*/true);
    std::vector<Src> scope = {src};
    SelectText out;
    std::string distinct = rng_.Chance(20) ? "DISTINCT " : "";
    if (rng_.Chance(15) && distinct.empty()) {
      out.arity = static_cast<int>(src.cols.size());
      out.text = "SELECT * FROM " + name + " " + src.alias;
    } else {
      out.text = "SELECT " + distinct + ItemsFor(scope, &out.arity, Ctx::kSql) +
                 " FROM " + name + " " + src.alias;
    }
    if (rng_.Chance(70)) {
      out.text += " WHERE " + Predicate(scope, 2, Ctx::kSql);
    }
    if (allow_order) out.text += OrderSuffix(out.arity, false, 0);
    return out;
  }

  SelectText JoinSelect(bool allow_order) {
    // Two or three sources; join predicates follow the fk chains when the
    // picked tables are adjacent, else a generic equi-join on b.
    int n = rng_.Int(2, 3);
    std::vector<int> tbl;
    std::vector<Src> scope;
    for (int i = 0; i < n; ++i) {
      int idx = rng_.Int(0, static_cast<int>(tables_.size()) - 1);
      tbl.push_back(idx);
      scope.push_back({FreshAlias(), tables_[idx].cols});
    }
    auto join_pred = [&](int i, int j) {
      const TableModel& ti = tables_[tbl[i]];
      const TableModel& tj = tables_[tbl[j]];
      if (tj.fk_parent == tbl[i]) {
        return scope[j].alias + "." + tj.fk_col + " = " + scope[i].alias +
               ".a";
      }
      if (ti.fk_parent == tbl[j]) {
        return scope[i].alias + "." + ti.fk_col + " = " + scope[j].alias +
               ".a";
      }
      return scope[i].alias + ".b = " + scope[j].alias + ".b";
    };
    SelectText out;
    std::string items = ItemsFor(scope, &out.arity, Ctx::kSql);
    bool explicit_join = rng_.Chance(50);
    if (explicit_join) {
      std::string from = tables_[tbl[0]].name + " " + scope[0].alias;
      for (int i = 1; i < n; ++i) {
        std::string kind = rng_.Chance(35) ? " LEFT JOIN " : " JOIN ";
        from += kind + tables_[tbl[i]].name + " " + scope[i].alias + " ON " +
                join_pred(i - 1, i);
      }
      out.text = "SELECT " + items + " FROM " + from;
      if (rng_.Chance(50)) {
        std::vector<Src> where_scope = {scope[0]};  // NULL-safe for LEFT JOIN
        out.text += " WHERE " + Predicate(where_scope, 2, Ctx::kSql);
      }
    } else {
      std::string from;
      for (int i = 0; i < n; ++i) {
        if (i > 0) from += ", ";
        from += tables_[tbl[i]].name + " " + scope[i].alias;
      }
      std::string where = join_pred(0, 1);
      if (n == 3) where += " AND " + join_pred(1, 2);
      if (rng_.Chance(50)) where += " AND " + Predicate(scope, 2, Ctx::kSql);
      out.text = "SELECT " + items + " FROM " + from + " WHERE " + where;
    }
    if (allow_order) out.text += OrderSuffix(out.arity, false, 0);
    return out;
  }

  SelectText GroupedSelect(bool allow_order) {
    std::string name;
    Src src = PickSource(&name, /*allow_view=*/false);
    std::vector<Src> scope = {src};
    int keys = rng_.Chance(30) ? 0 : rng_.Int(1, 2);  // 0 -> scalar aggregate
    std::vector<std::string> key_exprs;
    for (int k = 0; k < keys; ++k) {
      char type = rng_.Chance(70) ? 'i' : 's';
      key_exprs.push_back(ColRef(scope, type));
    }
    auto agg_expr = [&]() -> std::string {
      int roll = rng_.Int(0, 99);
      // SUM/AVG over INT columns only: integer accumulation is exact under
      // any morsel order; float accumulation would not be.
      if (roll < 20) return "COUNT(*)";
      if (roll < 32) return "COUNT(" + ColRef(scope, 'i') + ")";
      if (roll < 42) return "COUNT(DISTINCT " + ColRef(scope, 'i') + ")";
      if (roll < 62) return "SUM(" + ColRef(scope, 'i') + ")";
      if (roll < 72) return "AVG(" + ColRef(scope, 'i') + ")";
      char type = rng_.Chance(60) ? 'i' : (rng_.Chance(50) ? 'd' : 's');
      return (rng_.Chance(50) ? "MIN(" : "MAX(") + ColRef(scope, type) + ")";
    };
    int aggs = rng_.Int(1, 2);
    std::string items;
    int pos = 0;
    for (const std::string& k : key_exprs) {
      if (pos > 0) items += ", ";
      items += k + " AS c" + std::to_string(pos++);
    }
    std::vector<std::string> agg_texts;
    for (int a = 0; a < aggs; ++a) {
      if (pos > 0) items += ", ";
      agg_texts.push_back(agg_expr());
      items += agg_texts.back() + " AS c" + std::to_string(pos++);
    }
    SelectText out;
    out.arity = pos;
    out.text = "SELECT " + items + " FROM " + name + " " + src.alias;
    if (rng_.Chance(50)) {
      out.text += " WHERE " + Predicate(scope, 2, Ctx::kSql);
    }
    if (keys > 0) {
      out.text += " GROUP BY ";
      for (int k = 0; k < keys; ++k) {
        if (k > 0) out.text += ", ";
        out.text += key_exprs[k];
      }
      if (rng_.Chance(40)) {
        out.text += " HAVING " + rng_.Pick(agg_texts) + CmpOp() +
                    std::to_string(rng_.Int(0, 20));
      }
      if (allow_order) out.text += OrderSuffix(out.arity, true, keys);
    }
    return out;
  }

  SelectText SetOpSelect() {
    int arity = rng_.Int(1, 2);
    auto branch = [&]() {
      const TableModel& t = rng_.Pick(tables_);
      std::string alias = FreshAlias();
      std::vector<Src> scope = {{alias, t.cols}};
      std::string items;
      for (int i = 0; i < arity; ++i) {
        if (i > 0) items += ", ";
        items += IntExpr(scope, 1, Ctx::kSql) + " AS c" + std::to_string(i);
      }
      std::string text = "SELECT " + items + " FROM " + t.name + " " + alias;
      if (rng_.Chance(70)) text += " WHERE " + Predicate(scope, 1, Ctx::kSql);
      return text;
    };
    static const std::vector<std::string> kOps = {
        " UNION ", " UNION ALL ", " INTERSECT ", " EXCEPT "};
    SelectText out;
    out.arity = arity;
    out.text = branch() + rng_.Pick(kOps) + branch();
    if (rng_.Chance(20)) out.text += rng_.Pick(kOps) + branch();
    return out;
  }

  // Inner query for a derived table: items are always aliased c0..cN (a
  // star projection would leak base column names the outer query doesn't
  // track).
  SelectText AliasedInnerSelect() {
    if (rng_.Chance(40)) return GroupedSelect(false);
    std::string name;
    Src src = PickSource(&name, /*allow_view=*/false);
    std::vector<Src> scope = {src};
    SelectText out;
    out.text = "SELECT " + ItemsFor(scope, &out.arity, Ctx::kSql) + " FROM " +
               name + " " + src.alias;
    if (rng_.Chance(70)) {
      out.text += " WHERE " + Predicate(scope, 2, Ctx::kSql);
    }
    return out;
  }

  SelectText DerivedSelect(bool allow_order) {
    // Outer query over an uncorrelated derived table.
    SelectText inner = AliasedInnerSelect();
    std::string alias = FreshAlias();
    Src src{alias, {}};
    for (int i = 0; i < inner.arity; ++i) {
      // Derived-table output types are not tracked; treat every column as
      // int-comparable only where safe: restrict to IS NULL and direct
      // projection, which are type-agnostic.
      src.cols.push_back({"c" + std::to_string(i), 'i'});
    }
    SelectText out;
    out.arity = inner.arity;
    std::string items;
    for (int i = 0; i < inner.arity; ++i) {
      if (i > 0) items += ", ";
      items += alias + ".c" + std::to_string(i) + " AS c" + std::to_string(i);
    }
    out.text = "SELECT " + items + " FROM (" + inner.text + ") " + alias;
    if (rng_.Chance(40)) {
      out.text += " WHERE " + alias + ".c0 IS NOT NULL";
    }
    if (allow_order) out.text += OrderSuffix(out.arity, false, 0);
    return out;
  }

  SelectText GenSelect(bool allow_order) {
    // Joins and aggregations lead: they are the consumers of the zero-copy
    // column-batch scan path (build/probe/accumulate over views), so the
    // matrix's columnar members get maximum coverage there.
    int roll = rng_.Int(0, 99);
    if (roll < 25) return SimpleSelect(allow_order);
    if (roll < 55) return JoinSelect(allow_order);
    if (roll < 80) return GroupedSelect(allow_order);
    if (roll < 90) return SetOpSelect();
    return DerivedSelect(allow_order);
  }

  // ------------------------------------------------------------------- DML

  void EmitInsert() {
    TableModel& t = tables_[rng_.Next() % tables_.size()];
    int roll = rng_.Int(0, 99);
    if (roll < 60) {
      int rows = rng_.Int(1, 3);
      std::string stmt = "INSERT INTO " + t.name + " VALUES ";
      for (int r = 0; r < rows; ++r) {
        if (r > 0) stmt += ", ";
        stmt += "(" + std::to_string(t.next_pk++) + ", " + IntOrNull(10, 0, 9) +
                ", " + IntOrNull(10, 0, 9) + ", " +
                (rng_.Chance(10) ? "NULL"
                                 : std::to_string(rng_.Int(0, 9)) + ".5") +
                ", " + (rng_.Chance(10) ? "NULL" : StrLit());
        if (t.fk_parent >= 0) stmt += ", " + FkValue(tables_[t.fk_parent]);
        stmt += ")";
      }
      Emit(std::move(stmt));
    } else if (roll < 75) {
      // Column-list form; unspecified columns become NULL.
      std::string stmt = "INSERT INTO " + t.name + " (a, b) VALUES (" +
                         std::to_string(t.next_pk++) + ", " +
                         IntOrNull(15, 0, 9) + ")";
      Emit(std::move(stmt));
    } else if (roll < 85) {
      // Deliberate duplicate key: both sides must report the same failure
      // (or the same success, if that key was deleted earlier).
      std::string stmt = "INSERT INTO " + t.name + " (a, b) VALUES (" +
                         std::to_string(rng_.Int(
                             0, static_cast<int>(t.next_pk) - 1)) +
                         ", 1)";
      Emit(std::move(stmt));
    } else if (roll < 92) {
      Emit("INSERT INTO " + t.name + " (a) VALUES (NULL)");  // NOT NULL pk
    } else {
      // INSERT ... SELECT with keys offset far above the pk sequence (and
      // the 9000+ orphan band).
      const TableModel& s = rng_.Pick(tables_);
      std::string alias = FreshAlias();
      int64_t offset = 20000 + 1000 * static_cast<int64_t>(stmt_n_);
      Emit("INSERT INTO " + t.name + " (a, b) SELECT " + alias + ".a + " +
           std::to_string(offset) + ", " + alias + ".b FROM " + s.name + " " +
           alias + " WHERE " + alias + ".a < " + std::to_string(rng_.Int(2, 8)));
    }
  }

  void EmitUpdate() {
    const TableModel& t = rng_.Pick(tables_);
    std::vector<Src> scope = {{t.name, t.cols}};
    std::string stmt = "UPDATE " + t.name + " SET ";
    int n = rng_.Int(1, 2);
    std::vector<const ColInfo*> targets;
    for (const ColInfo& c : t.cols) {
      if (c.name != "a") targets.push_back(&c);  // never rewrite the pk
    }
    for (int i = 0; i < n; ++i) {
      const ColInfo* c = targets[rng_.Next() % targets.size()];
      if (i > 0) stmt += ", ";
      if (rng_.Chance(15)) {
        stmt += c->name + " = NULL";
      } else {
        stmt += c->name + " = " + TypedExpr(scope, 2, Ctx::kSql, c->type);
      }
    }
    if (rng_.Chance(80)) {
      // Part of the time a primary-key equality, so indexed target finding
      // runs on both sides of use_indexes.
      if (rng_.Chance(35)) {
        stmt += " WHERE " + t.name + ".a = " +
                std::to_string(rng_.Int(0, static_cast<int>(t.next_pk) - 1));
      } else {
        stmt += " WHERE " + Predicate(scope, 2, Ctx::kSql);
      }
    }
    Emit(std::move(stmt));
  }

  void EmitDelete() {
    const TableModel& t = rng_.Pick(tables_);
    std::vector<Src> scope = {{t.name, t.cols}};
    std::string stmt = "DELETE FROM " + t.name;
    if (rng_.Chance(90)) {
      // Bias toward selective predicates so tables don't empty out early.
      if (rng_.Chance(50)) {
        stmt += " WHERE " + t.name + ".a = " +
                std::to_string(rng_.Int(0, static_cast<int>(t.next_pk) - 1));
      } else {
        stmt += " WHERE " + Predicate(scope, 1, Ctx::kSql) + " AND " +
                t.name + ".b = " + std::to_string(rng_.Int(0, 9));
      }
    }
    Emit(std::move(stmt));
  }

  // ------------------------------------------------------------------- DDL

  void EmitCreateIndex() {
    const TableModel& t = rng_.Pick(tables_);
    std::string kind = rng_.Chance(25) ? "ORDERED INDEX" : "INDEX";
    std::string cols = rng_.Pick(t.cols).name;
    if (rng_.Chance(30)) {
      cols += ", " + rng_.Pick(t.cols).name;  // duplicates allowed
    }
    std::string name = "ix" + std::to_string(index_n_++);
    Emit("CREATE " + kind + " " + name + " ON " + t.name + " (" + cols + ")");
    if (rng_.Chance(10)) {
      // Same name again on the same table: AlreadyExists on both sides.
      Emit("CREATE INDEX " + name + " ON " + t.name + " (b)");
    }
  }

  void EmitCreateView() {
    if (opt_.enable_xnf && rng_.Chance(35)) {
      EmitCreateXnfView();
      return;
    }
    std::string name = "v" + std::to_string(view_n_++);
    std::string src_name;
    Src src = PickSource(&src_name, /*allow_view=*/true);  // views over views
    std::vector<Src> scope = {src};
    int arity = rng_.Int(2, 3);
    std::string items;
    for (int i = 0; i < arity; ++i) {
      if (i > 0) items += ", ";
      items += IntExpr(scope, 1, Ctx::kSql) + " AS c" + std::to_string(i);
    }
    std::string body = "SELECT " + items + " FROM " + src_name + " " +
                       src.alias;
    if (rng_.Chance(60)) body += " WHERE " + Predicate(scope, 2, Ctx::kSql);
    Emit("CREATE VIEW " + name + " AS " + body);
    sql_views_.push_back({name, arity});
  }

  // --------------------------------------------------------------- XNF

  // A chain of nodes over consecutive base tables, linked by fk (or link
  // table) RELATEs; fk edges may add a second key equality or a residual
  // comparison. `updatable_only` keeps every node a base table or a
  // simple (pushdown-eligible) node query so CO UPDATE/DELETE apply.
  struct XnfChain {
    std::string items;                 // OUT OF body
    std::vector<XnfNodeModel> nodes;   // n0..nk
    std::vector<std::string> rels;     // e0..e{k-1}
  };

  XnfChain BuildChain(bool updatable_only) {
    XnfChain chain;
    int max_len = std::min(3, static_cast<int>(tables_.size()));
    int len = rng_.Int(2, max_len);
    int start = rng_.Int(0, static_cast<int>(tables_.size()) - len);
    for (int i = 0; i < len; ++i) {
      int tbl = start + i;
      const TableModel& t = tables_[tbl];
      XnfNodeModel node;
      node.name = "n" + std::to_string(i);
      node.table = tbl;
      int roll = rng_.Int(0, 99);
      if (!chain.items.empty()) chain.items += ", ";
      if (roll < 55) {
        node.updatable = true;
        node.cols = t.cols;
        chain.items += node.name + " AS " + t.name;
      } else {
        // Node query projecting the key, payload, and the fk the next edge
        // needs. A plain conjunctive WHERE keeps it "simple" (updatable);
        // DISTINCT makes it general (TAKE-only).
        bool general = !updatable_only && roll >= 90;
        node.updatable = !general;
        std::string alias = FreshAlias();
        std::string cols = alias + ".a AS a, " + alias + ".b AS b, " + alias +
                           ".c AS c";
        node.cols = {{"a", 'i'}, {"b", 'i'}, {"c", 'i'}};
        if (!t.fk_col.empty()) {
          cols += ", " + alias + "." + t.fk_col + " AS " + t.fk_col;
          node.cols.push_back({t.fk_col, 'i'});
        }
        std::string body = std::string("SELECT ") +
                           (general ? "DISTINCT " : "") + cols + " FROM " +
                           t.name + " " + alias;
        if (rng_.Chance(60)) {
          std::vector<Src> scope = {{alias, t.cols}};
          body += " WHERE " + Predicate(scope, 1, Ctx::kSql);
        }
        chain.items += node.name + " AS (" + body + ")";
      }
      chain.nodes.push_back(std::move(node));
    }
    for (int i = 0; i + 1 < len; ++i) {
      const TableModel& child_t = tables_[start + i + 1];
      std::string rel = "e" + std::to_string(i);
      const LinkModel* link = nullptr;
      for (const LinkModel& l : links_) {
        if (l.parent == start + i && l.child == start + i + 1) link = &l;
      }
      chain.items += ", " + rel + " AS (RELATE " + chain.nodes[i].name +
                     " p, " + chain.nodes[i + 1].name + " c";
      if (link != nullptr && rng_.Chance(35)) {
        chain.items += " USING " + link->name + " u WHERE p.a = u.pa AND "
                       "c.a = u.cb)";
      } else {
        if (rng_.Chance(20)) {
          chain.items += " WITH ATTRIBUTES p.b AS pb";
        }
        chain.items += " WHERE p.a = c." + child_t.fk_col;
        // Both sides of the node-join eligibility rule: a second key
        // equality keeps the edge a node join, a residual comparison sends
        // it to the edge query over the CSE temps.
        int shape = rng_.Int(0, 99);
        std::string col = rng_.Chance(50) ? "b" : "c";
        if (shape < 15) {
          chain.items += " AND p." + col + " = c." + col;
        } else if (shape < 30) {
          chain.items += " AND p." + col + " <= c." + col;
        }
        chain.items += ")";
      }
      chain.rels.push_back(std::move(rel));
    }
    return chain;
  }

  std::string Restrictions(const std::vector<XnfNodeModel>& nodes,
                           const std::vector<std::string>& rels) {
    std::string out;
    int n = rng_.Chance(50) ? rng_.Int(1, 2) : 0;
    for (int i = 0; i < n; ++i) {
      if (!rels.empty() && rng_.Chance(35)) {
        // Edge restriction over both endpoints. Generated chains always put
        // rel k between nodes k and k+1.
        size_t r = rng_.Next() % rels.size();
        std::vector<Src> scope = {{"rp", nodes[r].cols},
                                  {"rc", nodes[r + 1].cols}};
        out += " WHERE " + rels[r] + " (rp, rc) SUCH THAT " +
               Predicate(scope, 2, Ctx::kSuchThat);
      } else {
        const XnfNodeModel& node = nodes[rng_.Next() % nodes.size()];
        std::vector<Src> scope = {{"z", node.cols}};
        out += " WHERE " + node.name + " z SUCH THAT " +
               Predicate(scope, 2, Ctx::kSuchThat);
      }
    }
    return out;
  }

  void EmitCreateXnfView() {
    std::string vname = "xv" + std::to_string(view_n_++);
    XnfViewModel model;
    model.name = vname;
    std::string body;
    if (!xnf_views_.empty() && rng_.Chance(25)) {
      // View over an XNF view: import (splice or premade, depending on the
      // inner view's restrictions) and optionally restrict further.
      const XnfViewModel& inner = rng_.Pick(xnf_views_);
      body = "OUT OF " + inner.name;
      model.nodes = inner.nodes;
      std::vector<std::string> no_rels;
      body += Restrictions(model.nodes, no_rels);
      body += " TAKE *";
    } else {
      XnfChain chain = BuildChain(/*updatable_only=*/rng_.Chance(70));
      // Unique component names per view so imports can't collide.
      std::string tag = std::to_string(view_n_);
      for (XnfNodeModel& node : chain.nodes) {
        std::string old = node.name;
        node.name = "w" + tag + old;
        ReplaceWord(&chain.items, old, node.name);
      }
      for (std::string& rel : chain.rels) {
        std::string old = rel;
        rel = "w" + tag + old;
        ReplaceWord(&chain.items, old, rel);
      }
      body = "OUT OF " + chain.items;
      body += Restrictions(chain.nodes, chain.rels);
      body += " TAKE *";
      model.nodes = chain.nodes;
    }
    Emit("CREATE VIEW " + vname + " AS " + body);
    xnf_views_.push_back(std::move(model));
  }

  // Whole-word textual rename inside an OUT OF body (names are generated, so
  // a word boundary check on [a-z0-9_] is exact).
  static void ReplaceWord(std::string* text, const std::string& from,
                          const std::string& to) {
    auto is_word = [](char c) {
      return (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '_';
    };
    std::string out;
    size_t pos = 0;
    while (pos < text->size()) {
      size_t hit = text->find(from, pos);
      if (hit == std::string::npos) {
        out += text->substr(pos);
        break;
      }
      bool left_ok = hit == 0 || !is_word((*text)[hit - 1]);
      size_t end = hit + from.size();
      bool right_ok = end >= text->size() || !is_word((*text)[end]);
      out += text->substr(pos, hit - pos);
      out += (left_ok && right_ok) ? to : from;
      pos = end;
    }
    *text = out;
  }

  void EmitXnfTake() {
    std::string stmt;
    if (!xnf_views_.empty() && rng_.Chance(25)) {
      const XnfViewModel& v = rng_.Pick(xnf_views_);
      stmt = "OUT OF " + v.name;
      std::vector<std::string> no_rels;
      stmt += Restrictions(v.nodes, no_rels);
      stmt += " TAKE *";
      Emit(std::move(stmt));
      return;
    }
    XnfChain chain = BuildChain(/*updatable_only=*/false);
    stmt = "OUT OF " + chain.items;
    stmt += Restrictions(chain.nodes, chain.rels);
    if (rng_.Chance(60)) {
      stmt += " TAKE *";
    } else {
      // Contiguous prefix of the chain (plus its rels) so everything taken
      // stays reachable; optionally project one node down to (a, b).
      int keep = rng_.Int(1, static_cast<int>(chain.nodes.size()));
      stmt += " TAKE ";
      for (int i = 0; i < keep; ++i) {
        if (i > 0) stmt += ", ";
        stmt += chain.nodes[i].name;
        if (rng_.Chance(30)) stmt += " (a, b)";
        if (i + 1 < keep) stmt += ", " + chain.rels[i];
      }
    }
    Emit(std::move(stmt));
  }

  void EmitCoUpdate() {
    std::string stmt;
    const std::vector<XnfNodeModel>* nodes = nullptr;
    XnfChain chain;
    if (!xnf_views_.empty() && rng_.Chance(25)) {
      const XnfViewModel& v = rng_.Pick(xnf_views_);
      stmt = "OUT OF " + v.name;
      std::vector<std::string> no_rels;
      stmt += Restrictions(v.nodes, no_rels);
      nodes = &v.nodes;
    } else {
      chain = BuildChain(/*updatable_only=*/true);
      stmt = "OUT OF " + chain.items;
      stmt += Restrictions(chain.nodes, chain.rels);
      nodes = &chain.nodes;
    }
    std::vector<const XnfNodeModel*> updatable;
    for (const XnfNodeModel& n : *nodes) {
      if (n.updatable) updatable.push_back(&n);
    }
    if (updatable.empty()) {
      // Restricted imports may have no updatable node; fall back to TAKE.
      Emit(stmt + " TAKE *");
      return;
    }
    const XnfNodeModel& target = *updatable[rng_.Next() % updatable.size()];
    std::vector<Src> scope = {{target.name, target.cols}};
    stmt += " UPDATE " + target.name + " SET ";
    if (rng_.Chance(8) && target.table >= 0 &&
        !tables_[target.table].fk_col.empty()) {
      // Assigning a relationship-defining column must fail atomically on
      // both sides (when the node is non-empty).
      stmt += tables_[target.table].fk_col + " = 1";
    } else {
      std::vector<std::string> cols;
      for (const ColInfo& c : target.cols) {
        if (c.name == "b" || c.name == "c") cols.push_back(c.name);
      }
      int n = rng_.Int(1, static_cast<int>(cols.size()));
      for (int i = 0; i < n; ++i) {
        if (i > 0) stmt += ", ";
        stmt += cols[i] + " = " +
                (rng_.Chance(12) ? "NULL"
                                 : IntExpr(scope, 2, Ctx::kSuchThat));
      }
    }
    Emit(std::move(stmt));
  }

  void EmitCoDelete() {
    std::string stmt;
    if (!xnf_views_.empty() && rng_.Chance(20)) {
      const XnfViewModel& v = rng_.Pick(xnf_views_);
      bool all_updatable = !v.nodes.empty();
      for (const XnfNodeModel& n : v.nodes) all_updatable &= n.updatable;
      if (!all_updatable) {
        EmitXnfTake();
        return;
      }
      stmt = "OUT OF " + v.name;
      std::vector<std::string> no_rels;
      stmt += Restrictions(v.nodes, no_rels);
    } else {
      XnfChain chain = BuildChain(/*updatable_only=*/true);
      stmt = "OUT OF " + chain.items;
      // Keep CO DELETE selective: always restrict so it doesn't wipe whole
      // tables in one statement.
      const XnfNodeModel& node = chain.nodes[rng_.Next() %
                                             chain.nodes.size()];
      std::vector<Src> scope = {{"z", node.cols}};
      stmt += " WHERE " + node.name + " z SUCH THAT (z.a % " +
              std::to_string(rng_.Int(3, 7)) + ") = 0";
      if (rng_.Chance(30)) stmt += Restrictions(chain.nodes, chain.rels);
    }
    stmt += " DELETE *";
    Emit(std::move(stmt));
  }

  // ------------------------------------------------------------ statements

  void EmitStatement() {
    ++stmt_n_;
    int roll = rng_.Int(0, 99);
    if (roll < 40) {
      Emit(GenSelect(/*allow_order=*/true).text);
    } else if (roll < 48) {
      if (opt_.enable_dml) EmitInsert();
      else Emit(GenSelect(true).text);
    } else if (roll < 55) {
      if (opt_.enable_dml) EmitUpdate();
      else Emit(GenSelect(true).text);
    } else if (roll < 60) {
      if (opt_.enable_dml) EmitDelete();
      else Emit(GenSelect(true).text);
    } else if (roll < 76) {
      if (opt_.enable_xnf) EmitXnfTake();
      else Emit(GenSelect(true).text);
    } else if (roll < 83) {
      if (opt_.enable_xnf) EmitCoUpdate();
      else Emit(GenSelect(true).text);
    } else if (roll < 88) {
      if (opt_.enable_xnf && opt_.enable_dml) EmitCoDelete();
      else Emit(GenSelect(true).text);
    } else if (roll < 94) {
      if (opt_.enable_ddl) EmitCreateView();
      else Emit(GenSelect(true).text);
    } else {
      if (opt_.enable_ddl) EmitCreateIndex();
      else Emit(GenSelect(true).text);
    }
  }

  Rng rng_;
  GenOptions opt_;
  FuzzCase out_;
  std::vector<TableModel> tables_;
  std::vector<LinkModel> links_;
  std::vector<SqlViewModel> sql_views_;
  std::vector<XnfViewModel> xnf_views_;
  int alias_n_ = 0;
  int view_n_ = 0;
  int index_n_ = 0;
  int stmt_n_ = 0;
};

}  // namespace

FuzzCase GenerateCase(uint64_t seed, const GenOptions& options) {
  return Generator(seed, options).Run();
}

}  // namespace xnf::testing
