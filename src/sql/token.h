#ifndef XNF_SQL_TOKEN_H_
#define XNF_SQL_TOKEN_H_

#include <cstdint>
#include <string>
#include <vector>

namespace xnf::sql {

enum class TokenKind {
  kEnd = 0,
  kIdentifier,  // unquoted name or keyword (keywords matched by text)
  kInteger,
  kFloat,
  kString,  // 'quoted literal' with '' escape
  // punctuation / operators
  kLParen,
  kRParen,
  kComma,
  kDot,
  kSemicolon,
  kStar,
  kPlus,
  kMinus,
  kSlash,
  kPercent,
  kEq,       // =
  kNe,       // <> or !=
  kLt,       // <
  kLe,       // <=
  kGt,       // >
  kGe,       // >=
  kArrow,    // ->  (XNF path expressions)
  kConcat,   // ||
  kQuestion, // ?  (prepared-statement parameter)
};

struct Token {
  TokenKind kind = TokenKind::kEnd;
  std::string text;     // identifier text (original case) / literal spelling
  int64_t int_value = 0;
  double double_value = 0.0;
  size_t offset = 0;  // byte offset in the source
  // Literal tokens (integer, float, string): 0-based position among the
  // source's literal tokens, in lexical order. -1 for every other token.
  // The statement cache's shape scan numbers literals the same way.
  int literal_ordinal = -1;
  int line = 1;
  int column = 1;

  // Case-insensitive keyword/identifier match.
  bool Is(const char* keyword) const;
  bool IsKind(TokenKind k) const { return kind == k; }

  std::string Describe() const;
};

}  // namespace xnf::sql

#endif  // XNF_SQL_TOKEN_H_
