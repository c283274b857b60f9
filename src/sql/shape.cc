#include "sql/shape.h"

#include <cctype>
#include <cstdlib>
#include <cstring>

#include "common/str_util.h"

namespace xnf::sql {

namespace {

// The lexer's character classes (sql/lexer.cc); the scan must split the
// text exactly where the lexer does, or literal ordinals would drift.
bool IsSpace(char c) { return std::isspace(static_cast<unsigned char>(c)); }
bool IsDigit(char c) { return std::isdigit(static_cast<unsigned char>(c)); }
bool IsIdentStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}
bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

// Literal tags start with \x01; a \x01 copied from the text is doubled, so
// no copied run can spell a tag.
constexpr char kTag = '\x01';

void AppendEscaped(std::string_view run, std::string* key) {
  for (char c : run) {
    key->push_back(c);
    if (c == kTag) key->push_back(kTag);
  }
}

// Parses a number token the way the lexer does (strtoll / strtod over the
// token's spelling).
Value NumberValue(std::string_view spelling, bool is_float) {
  char small[64];
  std::string large;
  const char* z;
  if (spelling.size() < sizeof(small)) {
    std::memcpy(small, spelling.data(), spelling.size());
    small[spelling.size()] = '\0';
    z = small;
  } else {
    large.assign(spelling);
    z = large.c_str();
  }
  return is_float ? Value::Double(std::strtod(z, nullptr))
                  : Value::Int(std::strtoll(z, nullptr, 10));
}

bool IsComparison(BinOp op) {
  return op == BinOp::kEq || op == BinOp::kNe || op == BinOp::kLt ||
         op == BinOp::kLe || op == BinOp::kGt || op == BinOp::kGe;
}

void MarkParams(Expr* e, std::vector<char>* is_param) {
  if (e->kind == Expr::Kind::kBinary && IsComparison(e->bin_op)) {
    for (int side = 0; side < 2; ++side) {
      Expr* lit = e->args[side].get();
      const Expr* other = e->args[1 - side].get();
      if (lit->kind != Expr::Kind::kLiteral || lit->literal_ordinal < 0 ||
          other->kind != Expr::Kind::kColumnRef ||
          static_cast<size_t>(lit->literal_ordinal) >= is_param->size()) {
        continue;
      }
      lit->kind = Expr::Kind::kParam;
      lit->param_index = lit->literal_ordinal;
      (*is_param)[lit->literal_ordinal] = 1;
    }
  }
  // Subqueries and path steps live outside `args`: they are not searched.
  for (ExprPtr& a : e->args) {
    if (a) MarkParams(a.get(), is_param);
  }
}

}  // namespace

StatementHead ScanShape(std::string_view text, Shape* shape,
                        std::string_view* first_word) {
  const size_t n = text.size();
  *first_word = {};
  // First word: past whitespace and comments, like the lexer's first token.
  size_t pos = 0;
  while (pos < n) {
    if (IsSpace(text[pos])) {
      ++pos;
    } else if (text[pos] == '-' && pos + 1 < n && text[pos + 1] == '-') {
      while (pos < n && text[pos] != '\n') ++pos;
    } else if (text[pos] == '/' && pos + 1 < n && text[pos + 1] == '*') {
      size_t end = text.find("*/", pos + 2);
      if (end == std::string_view::npos) return StatementHead::kOther;
      pos = end + 2;
    } else {
      break;
    }
  }
  if (pos >= n || !IsIdentStart(text[pos])) return StatementHead::kOther;
  size_t word_end = pos;
  while (word_end < n && IsIdentChar(text[word_end])) ++word_end;
  *first_word = text.substr(pos, word_end - pos);
  StatementHead head;
  if (EqualsIgnoreCase(*first_word, "select")) {
    head = StatementHead::kSelect;
  } else if (EqualsIgnoreCase(*first_word, "out")) {
    head = StatementHead::kXnf;
  } else {
    return StatementHead::kOther;
  }

  std::string& key = shape->key;
  key.clear();
  shape->literals.clear();
  pos = 0;
  while (pos < n) {
    const char c = text[pos];
    const bool next_digit = pos + 1 < n && IsDigit(text[pos + 1]);
    if (c == '-' && pos + 1 < n && text[pos + 1] == '-') {
      size_t end = text.find('\n', pos);
      if (end == std::string_view::npos) end = n;
      AppendEscaped(text.substr(pos, end - pos), &key);
      pos = end;
    } else if (c == '/' && pos + 1 < n && text[pos + 1] == '*') {
      size_t end = text.find("*/", pos + 2);
      if (end == std::string_view::npos) return StatementHead::kError;
      AppendEscaped(text.substr(pos, end + 2 - pos), &key);
      pos = end + 2;
    } else if (IsIdentStart(c)) {
      size_t end = pos;
      while (end < n && IsIdentChar(text[end])) ++end;
      key.append(text.data() + pos, end - pos);
      pos = end;
    } else if (c == '"') {
      size_t end = text.find('"', pos + 1);
      if (end == std::string_view::npos) return StatementHead::kError;
      AppendEscaped(text.substr(pos, end + 1 - pos), &key);
      pos = end + 1;
    } else if (IsDigit(c) || (c == '.' && next_digit)) {
      // Mirrors the lexer's LexNumber, exponent backtracking included.
      size_t end = pos;
      bool is_float = false;
      while (end < n && IsDigit(text[end])) ++end;
      if (end + 1 < n && text[end] == '.' && IsDigit(text[end + 1])) {
        is_float = true;
        ++end;
        while (end < n && IsDigit(text[end])) ++end;
      }
      if (end < n && (text[end] == 'e' || text[end] == 'E')) {
        size_t exp = end + 1;
        if (exp < n && (text[exp] == '+' || text[exp] == '-')) ++exp;
        if (exp < n && IsDigit(text[exp])) {
          is_float = true;
          end = exp;
          while (end < n && IsDigit(text[end])) ++end;
        }
      }
      shape->literals.push_back(
          NumberValue(text.substr(pos, end - pos), is_float));
      key.push_back(kTag);
      key.push_back(is_float ? 'f' : 'i');
      pos = end;
    } else if (c == '\'') {
      std::string value;
      size_t end = pos + 1;
      bool closed = false;
      while (end < n) {
        if (text[end] == '\'') {
          if (end + 1 < n && text[end + 1] == '\'') {
            value.push_back('\'');
            end += 2;
            continue;
          }
          closed = true;
          ++end;
          break;
        }
        value.push_back(text[end]);
        ++end;
      }
      if (!closed) return StatementHead::kError;
      shape->literals.push_back(Value::String(std::move(value)));
      key.push_back(kTag);
      key.push_back('s');
      pos = end;
    } else {
      key.push_back(c);
      if (c == kTag) key.push_back(kTag);
      ++pos;
    }
  }
  return head;
}

void ParameterizeWhere(SelectStmt* select, std::vector<char>* is_param) {
  if (select->where != nullptr) MarkParams(select->where.get(), is_param);
}

}  // namespace xnf::sql
