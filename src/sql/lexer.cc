#include "sql/lexer.h"

#include <cctype>
#include <cstdlib>

#include "common/str_util.h"

namespace xnf::sql {

bool Token::Is(const char* keyword) const {
  return kind == TokenKind::kIdentifier && EqualsIgnoreCase(text, keyword);
}

std::string Token::Describe() const {
  switch (kind) {
    case TokenKind::kEnd:
      return "<end of input>";
    case TokenKind::kIdentifier:
      return "'" + text + "'";
    case TokenKind::kInteger:
    case TokenKind::kFloat:
    case TokenKind::kString:
      return text;
    default:
      return "'" + text + "'";
  }
}

namespace {

bool IsIdentStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

class LexerImpl {
 public:
  explicit LexerImpl(const std::string& input) : input_(input) {}

  Result<std::vector<Token>> Run() {
    std::vector<Token> tokens;
    while (true) {
      XNF_RETURN_IF_ERROR(SkipWhitespaceAndComments());
      Token tok;
      tok.offset = pos_;
      tok.line = line_;
      tok.column = column_;
      if (pos_ >= input_.size()) {
        tok.kind = TokenKind::kEnd;
        tokens.push_back(tok);
        return tokens;
      }
      char c = input_[pos_];
      if (IsIdentStart(c)) {
        size_t start = pos_;
        while (pos_ < input_.size() && IsIdentChar(input_[pos_])) Advance();
        tok.kind = TokenKind::kIdentifier;
        tok.text = input_.substr(start, pos_ - start);
      } else if (c == '"') {
        Advance();
        size_t start = pos_;
        while (pos_ < input_.size() && input_[pos_] != '"') Advance();
        if (pos_ >= input_.size()) {
          return Error("unterminated quoted identifier");
        }
        tok.kind = TokenKind::kIdentifier;
        tok.text = input_.substr(start, pos_ - start);
        Advance();  // closing quote
      } else if (std::isdigit(static_cast<unsigned char>(c)) ||
                 (c == '.' && pos_ + 1 < input_.size() &&
                  std::isdigit(static_cast<unsigned char>(input_[pos_ + 1])))) {
        XNF_RETURN_IF_ERROR(LexNumber(&tok));
      } else if (c == '\'') {
        XNF_RETURN_IF_ERROR(LexString(&tok));
      } else {
        XNF_RETURN_IF_ERROR(LexSymbol(&tok));
      }
      if (tok.kind == TokenKind::kInteger || tok.kind == TokenKind::kFloat ||
          tok.kind == TokenKind::kString) {
        tok.literal_ordinal = literals_++;
      }
      tokens.push_back(std::move(tok));
    }
  }

 private:
  void Advance() {
    if (input_[pos_] == '\n') {
      ++line_;
      column_ = 1;
    } else {
      ++column_;
    }
    ++pos_;
  }

  Status SkipWhitespaceAndComments() {
    while (pos_ < input_.size()) {
      char c = input_[pos_];
      if (std::isspace(static_cast<unsigned char>(c))) {
        Advance();
      } else if (c == '-' && pos_ + 1 < input_.size() &&
                 input_[pos_ + 1] == '-') {
        while (pos_ < input_.size() && input_[pos_] != '\n') Advance();
      } else if (c == '/' && pos_ + 1 < input_.size() &&
                 input_[pos_ + 1] == '*') {
        Advance();
        Advance();
        while (pos_ + 1 < input_.size() &&
               !(input_[pos_] == '*' && input_[pos_ + 1] == '/')) {
          Advance();
        }
        if (pos_ + 1 >= input_.size()) {
          return Status::ParseError("unterminated block comment");
        }
        Advance();
        Advance();
      } else {
        break;
      }
    }
    return Status::Ok();
  }

  Status LexNumber(Token* tok) {
    size_t start = pos_;
    bool is_float = false;
    while (pos_ < input_.size() &&
           std::isdigit(static_cast<unsigned char>(input_[pos_]))) {
      Advance();
    }
    if (pos_ < input_.size() && input_[pos_] == '.' &&
        pos_ + 1 < input_.size() &&
        std::isdigit(static_cast<unsigned char>(input_[pos_ + 1]))) {
      is_float = true;
      Advance();
      while (pos_ < input_.size() &&
             std::isdigit(static_cast<unsigned char>(input_[pos_]))) {
        Advance();
      }
    }
    if (pos_ < input_.size() &&
        (input_[pos_] == 'e' || input_[pos_] == 'E')) {
      size_t save = pos_;
      Advance();
      if (pos_ < input_.size() && (input_[pos_] == '+' || input_[pos_] == '-')) {
        Advance();
      }
      if (pos_ < input_.size() &&
          std::isdigit(static_cast<unsigned char>(input_[pos_]))) {
        is_float = true;
        while (pos_ < input_.size() &&
               std::isdigit(static_cast<unsigned char>(input_[pos_]))) {
          Advance();
        }
      } else {
        pos_ = save;  // 'e' belongs to a following identifier
      }
    }
    tok->text = input_.substr(start, pos_ - start);
    if (is_float) {
      tok->kind = TokenKind::kFloat;
      tok->double_value = std::strtod(tok->text.c_str(), nullptr);
    } else {
      tok->kind = TokenKind::kInteger;
      tok->int_value = std::strtoll(tok->text.c_str(), nullptr, 10);
    }
    return Status::Ok();
  }

  Status LexString(Token* tok) {
    Advance();  // opening quote
    std::string out;
    while (pos_ < input_.size()) {
      char c = input_[pos_];
      if (c == '\'') {
        if (pos_ + 1 < input_.size() && input_[pos_ + 1] == '\'') {
          out += '\'';
          Advance();
          Advance();
          continue;
        }
        Advance();
        tok->kind = TokenKind::kString;
        tok->text = std::move(out);
        return Status::Ok();
      }
      out += c;
      Advance();
    }
    return Error("unterminated string literal");
  }

  Status LexSymbol(Token* tok) {
    char c = input_[pos_];
    auto two = [&](char second) {
      return pos_ + 1 < input_.size() && input_[pos_ + 1] == second;
    };
    switch (c) {
      case '(':
        tok->kind = TokenKind::kLParen;
        break;
      case ')':
        tok->kind = TokenKind::kRParen;
        break;
      case ',':
        tok->kind = TokenKind::kComma;
        break;
      case '.':
        tok->kind = TokenKind::kDot;
        break;
      case ';':
        tok->kind = TokenKind::kSemicolon;
        break;
      case '?':
        tok->kind = TokenKind::kQuestion;
        break;
      case '*':
        tok->kind = TokenKind::kStar;
        break;
      case '+':
        tok->kind = TokenKind::kPlus;
        break;
      case '%':
        tok->kind = TokenKind::kPercent;
        break;
      case '-':
        if (two('>')) {
          tok->kind = TokenKind::kArrow;
          tok->text = "->";
          Advance();
          Advance();
          return Status::Ok();
        }
        tok->kind = TokenKind::kMinus;
        break;
      case '/':
        tok->kind = TokenKind::kSlash;
        break;
      case '=':
        tok->kind = TokenKind::kEq;
        break;
      case '<':
        if (two('>')) {
          tok->kind = TokenKind::kNe;
          tok->text = "<>";
          Advance();
          Advance();
          return Status::Ok();
        }
        if (two('=')) {
          tok->kind = TokenKind::kLe;
          tok->text = "<=";
          Advance();
          Advance();
          return Status::Ok();
        }
        tok->kind = TokenKind::kLt;
        break;
      case '>':
        if (two('=')) {
          tok->kind = TokenKind::kGe;
          tok->text = ">=";
          Advance();
          Advance();
          return Status::Ok();
        }
        tok->kind = TokenKind::kGt;
        break;
      case '!':
        if (two('=')) {
          tok->kind = TokenKind::kNe;
          tok->text = "!=";
          Advance();
          Advance();
          return Status::Ok();
        }
        return Error("unexpected character '!'");
      case '|':
        if (two('|')) {
          tok->kind = TokenKind::kConcat;
          tok->text = "||";
          Advance();
          Advance();
          return Status::Ok();
        }
        return Error("unexpected character '|'");
      default:
        return Error(std::string("unexpected character '") + c + "'");
    }
    tok->text = std::string(1, c);
    Advance();
    return Status::Ok();
  }

  Status Error(const std::string& message) const {
    return Status::ParseError(message + " at line " + std::to_string(line_) +
                              ", column " + std::to_string(column_));
  }

  const std::string& input_;
  size_t pos_ = 0;
  int line_ = 1;
  int column_ = 1;
  int literals_ = 0;
};

}  // namespace

Result<std::vector<Token>> Lex(const std::string& input) {
  return LexerImpl(input).Run();
}

}  // namespace xnf::sql
