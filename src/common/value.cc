#include "common/value.h"

#include <cmath>
#include <cstdio>
#include <functional>

namespace xnf {

const char* TypeName(Type type) {
  switch (type) {
    case Type::kNull:
      return "NULL";
    case Type::kBool:
      return "BOOL";
    case Type::kInt:
      return "INT";
    case Type::kDouble:
      return "DOUBLE";
    case Type::kString:
      return "STRING";
  }
  return "UNKNOWN";
}

Type Value::type() const {
  if (is_null()) return Type::kNull;
  if (is_bool()) return Type::kBool;
  if (is_int()) return Type::kInt;
  if (is_double()) return Type::kDouble;
  return Type::kString;
}

double Value::AsDouble() const {
  if (is_int()) return static_cast<double>(std::get<int64_t>(rep_));
  return std::get<double>(rep_);
}

Tribool Value::CompareEq(const Value& other) const {
  if (is_null() || other.is_null()) return Tribool::kUnknown;
  if (is_numeric() && other.is_numeric()) {
    if (is_int() && other.is_int()) {
      return AsInt() == other.AsInt() ? Tribool::kTrue : Tribool::kFalse;
    }
    return AsDouble() == other.AsDouble() ? Tribool::kTrue : Tribool::kFalse;
  }
  if (is_string() && other.is_string()) {
    return AsString() == other.AsString() ? Tribool::kTrue : Tribool::kFalse;
  }
  if (is_bool() && other.is_bool()) {
    return AsBool() == other.AsBool() ? Tribool::kTrue : Tribool::kFalse;
  }
  return Tribool::kUnknown;
}

Tribool Value::CompareLt(const Value& other) const {
  if (is_null() || other.is_null()) return Tribool::kUnknown;
  if (is_numeric() && other.is_numeric()) {
    if (is_int() && other.is_int()) {
      return AsInt() < other.AsInt() ? Tribool::kTrue : Tribool::kFalse;
    }
    return AsDouble() < other.AsDouble() ? Tribool::kTrue : Tribool::kFalse;
  }
  if (is_string() && other.is_string()) {
    return AsString() < other.AsString() ? Tribool::kTrue : Tribool::kFalse;
  }
  if (is_bool() && other.is_bool()) {
    return static_cast<int>(AsBool()) < static_cast<int>(other.AsBool())
               ? Tribool::kTrue
               : Tribool::kFalse;
  }
  return Tribool::kUnknown;
}

int Value::TotalOrderCompare(const Value& other) const {
  // NULLs first.
  if (is_null() && other.is_null()) return 0;
  if (is_null()) return -1;
  if (other.is_null()) return 1;
  // Numeric values compare across int/double.
  if (is_numeric() && other.is_numeric()) {
    if (is_int() && other.is_int()) {
      int64_t a = AsInt(), b = other.AsInt();
      return a < b ? -1 : (a > b ? 1 : 0);
    }
    double a = AsDouble(), b = other.AsDouble();
    return a < b ? -1 : (a > b ? 1 : 0);
  }
  // Otherwise order by type tag, then by value.
  int ta = static_cast<int>(type()), tb = static_cast<int>(other.type());
  if (ta != tb) return ta < tb ? -1 : 1;
  if (is_bool()) {
    int a = AsBool(), b = other.AsBool();
    return a - b;
  }
  // strings
  int c = AsString().compare(other.AsString());
  return c < 0 ? -1 : (c > 0 ? 1 : 0);
}

size_t Value::Hash() const {
  if (is_null()) return 0x9e3779b97f4a7c15ULL;
  if (is_bool()) return std::hash<bool>{}(AsBool()) ^ 0x1;
  if (is_int()) {
    // Hash ints through double when integral-valued so that 1 and 1.0 land in
    // the same hash-join bucket (they compare equal).
    return std::hash<double>{}(static_cast<double>(AsInt()));
  }
  if (is_double()) return std::hash<double>{}(AsDouble());
  return std::hash<std::string>{}(AsString());
}

std::string Value::ToString() const {
  if (is_null()) return "NULL";
  if (is_bool()) return AsBool() ? "TRUE" : "FALSE";
  if (is_int()) return std::to_string(AsInt());
  if (is_double()) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%g", AsDouble());
    return buf;
  }
  return "'" + AsString() + "'";
}

Result<Value> Value::CoerceTo(Type target) const {
  if (is_null() || target == Type::kNull || type() == target) return *this;
  if (target == Type::kDouble && is_int()) {
    return Value::Double(static_cast<double>(AsInt()));
  }
  if (target == Type::kInt && is_double()) {
    double d = AsDouble();
    if (std::floor(d) == d) return Value::Int(static_cast<int64_t>(d));
    return Status::InvalidArgument("cannot coerce non-integral " + ToString() +
                                   " to INT");
  }
  return Status::InvalidArgument(std::string("cannot coerce ") +
                                 TypeName(type()) + " value " + ToString() +
                                 " to " + TypeName(target));
}

size_t HashRow(const Row& row) {
  size_t h = kRowHashSeed;
  for (const Value& v : row) h = HashCombine(h, v);
  return h;
}

int CompareRows(const Row& a, const Row& b) {
  size_t n = std::min(a.size(), b.size());
  for (size_t i = 0; i < n; ++i) {
    int c = a[i].TotalOrderCompare(b[i]);
    if (c != 0) return c;
  }
  if (a.size() != b.size()) return a.size() < b.size() ? -1 : 1;
  return 0;
}

bool RowsEqual(const Row& a, const Row& b) { return CompareRows(a, b) == 0; }

std::string RowToString(const Row& row) {
  std::string out = "(";
  for (size_t i = 0; i < row.size(); ++i) {
    if (i > 0) out += ", ";
    out += row[i].ToString();
  }
  out += ")";
  return out;
}

}  // namespace xnf
