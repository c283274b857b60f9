#ifndef XNF_COMMON_VALUE_H_
#define XNF_COMMON_VALUE_H_

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "common/status.h"

namespace xnf {

// Column data types supported by the engine. kNull is the type of the NULL
// literal before it is coerced to a column type.
enum class Type {
  kNull = 0,
  kBool,
  kInt,     // 64-bit signed
  kDouble,  // IEEE double
  kString,  // variable-length UTF-8 (treated as bytes)
};

// Returns "NULL" / "BOOL" / "INT" / "DOUBLE" / "STRING".
const char* TypeName(Type type);

// Three-valued logic result of SQL predicates: NULL is "unknown".
enum class Tribool { kFalse = 0, kTrue = 1, kUnknown = 2 };

// Wrapping two's-complement INT arithmetic, computed through uint64 so
// signed overflow is defined behavior. Every integer evaluator — the scalar
// row engine, the reference interpreter, and the columnar kernels — must go
// through these so overflowing expressions stay bit-identical across
// engines (the differential harness compares them directly).
inline int64_t WrappingAdd(int64_t a, int64_t b) {
  return static_cast<int64_t>(static_cast<uint64_t>(a) +
                              static_cast<uint64_t>(b));
}
inline int64_t WrappingSub(int64_t a, int64_t b) {
  return static_cast<int64_t>(static_cast<uint64_t>(a) -
                              static_cast<uint64_t>(b));
}
inline int64_t WrappingMul(int64_t a, int64_t b) {
  return static_cast<int64_t>(static_cast<uint64_t>(a) *
                              static_cast<uint64_t>(b));
}

// A single SQL value. NULL is represented by the monostate alternative and
// compares per SQL semantics (comparisons involving NULL yield kUnknown).
class Value {
 public:
  Value() : rep_(std::monostate{}) {}
  static Value Null() { return Value(); }
  static Value Bool(bool v) { return Value(Rep(v)); }
  static Value Int(int64_t v) { return Value(Rep(v)); }
  static Value Double(double v) { return Value(Rep(v)); }
  static Value String(std::string v) { return Value(Rep(std::move(v))); }

  bool is_null() const { return std::holds_alternative<std::monostate>(rep_); }
  bool is_bool() const { return std::holds_alternative<bool>(rep_); }
  bool is_int() const { return std::holds_alternative<int64_t>(rep_); }
  bool is_double() const { return std::holds_alternative<double>(rep_); }
  bool is_string() const { return std::holds_alternative<std::string>(rep_); }
  bool is_numeric() const { return is_int() || is_double(); }

  Type type() const;

  bool AsBool() const { return std::get<bool>(rep_); }
  int64_t AsInt() const { return std::get<int64_t>(rep_); }
  double AsDouble() const;  // widens kInt to double
  const std::string& AsString() const { return std::get<std::string>(rep_); }

  // SQL comparison with three-valued logic: returns kUnknown if either side
  // is NULL; otherwise compares numerically (int/double mixed OK) or
  // lexicographically for strings. Comparing incompatible types (e.g. INT
  // with STRING) yields kUnknown.
  Tribool CompareEq(const Value& other) const;
  Tribool CompareLt(const Value& other) const;

  // Total order used for sorting / grouping / keys: NULL sorts first, then by
  // type, then by value. Unlike SQL comparison this is never "unknown".
  // Returns <0, 0, >0.
  int TotalOrderCompare(const Value& other) const;

  // Equality in the grouping sense: NULL == NULL, types must match modulo
  // int/double numeric widening.
  bool GroupEquals(const Value& other) const {
    return TotalOrderCompare(other) == 0;
  }

  size_t Hash() const;

  // SQL-ish rendering: NULL, TRUE/FALSE, 42, 4.2, 'text'.
  std::string ToString() const;

  // Coerces this value to `target` (e.g. INT literal into DOUBLE column).
  // NULL coerces to any type. Fails for lossy/meaningless conversions.
  Result<Value> CoerceTo(Type target) const;

 private:
  using Rep = std::variant<std::monostate, bool, int64_t, double, std::string>;
  explicit Value(Rep rep) : rep_(std::move(rep)) {}

  Rep rep_;
};

// A tuple of values. Rows flow between executor operators by value.
using Row = std::vector<Value>;

// Hash of a full row (for hash joins / distinct / group by): kRowHashSeed
// folded with HashCombine over the values in order. Callers hashing a key
// that is a subset of a row's columns fold the same way, without building
// the key row.
constexpr size_t kRowHashSeed = 0x2545f4914f6cdd1dULL;
inline size_t HashCombine(size_t h, const Value& v) {
  return h ^ (v.Hash() + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2));
}
size_t HashRow(const Row& row);

// Total-order comparison of rows (lexicographic, NULLs first).
int CompareRows(const Row& a, const Row& b);

// True iff rows are equal under GroupEquals element-wise.
bool RowsEqual(const Row& a, const Row& b);

// Hash / equality functors over HashRow / RowsEqual, for unordered
// containers keyed by rows (join keys, DISTINCT, GROUP BY, index keys).
struct RowHash {
  size_t operator()(const Row& r) const { return HashRow(r); }
};
struct RowEq {
  bool operator()(const Row& a, const Row& b) const {
    return RowsEqual(a, b);
  }
};

// Renders "(v1, v2, ...)".
std::string RowToString(const Row& row);

}  // namespace xnf

#endif  // XNF_COMMON_VALUE_H_
