#ifndef XNF_SQL_SHAPE_H_
#define XNF_SQL_SHAPE_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/value.h"
#include "sql/ast.h"

namespace xnf::sql {

// The statement cache's view of a statement text. Two texts have one shape
// when they differ only in the values of their literal tokens: the key is
// the text with every literal replaced by a type tag (integer, float,
// string), so `pid = 5` and `pid = 5.0` are different shapes. The literal
// values are collected in lexical order, numbered exactly as the lexer
// numbers literal tokens (Token::literal_ordinal).
struct Shape {
  std::string key;
  std::vector<Value> literals;
};

// What the first word of a statement says about it.
enum class StatementHead {
  kOther,   // anything else (DDL, DML, EXPLAIN, transaction control, ...)
  kSelect,  // SELECT ...
  kXnf,     // OUT OF ...
  kError,   // SELECT / OUT OF text the lexer rejects (unterminated string,
            // comment or quoted identifier)
};

// One pass over `text`, without the lexer and without allocating once
// `shape`'s buffers have grown: reads the first word, and for SELECT and
// OUT OF statements fills `shape` (other statements stop after the first
// word, so they pay nothing for the cache). `first_word` receives the first
// word's text (empty when the statement does not start with a word).
StatementHead ScanShape(std::string_view text, Shape* shape,
                        std::string_view* first_word);

// The safe-position rule: turns every literal that is a direct operand of a
// comparison (= <> < <= > >=) whose other operand is a column reference,
// inside `select`'s own WHERE clause (not its subqueries, not UNION
// branches), into a statement parameter whose index is the literal's
// ordinal. Marks those ordinals in `is_param` (indexed by ordinal, sized by
// the caller to the statement's literal count). Every other literal stays
// baked into the compiled plan.
void ParameterizeWhere(SelectStmt* select, std::vector<char>* is_param);

}  // namespace xnf::sql

#endif  // XNF_SQL_SHAPE_H_
