// The statement cache's shape scan: keys, literal values and ordinals, and
// the safe-position rule that turns literals into parameters.

#include "sql/shape.h"

#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "sql/lexer.h"
#include "sql/parser.h"

namespace xnf::sql {
namespace {

struct Scanned {
  StatementHead head;
  std::string first_word;
  Shape shape;
};

Scanned Scan(const std::string& text) {
  Scanned out;
  std::string_view first;
  out.head = ScanShape(text, &out.shape, &first);
  out.first_word = std::string(first);
  return out;
}

std::string Key(const std::string& text) { return Scan(text).shape.key; }

TEST(ShapeScanTest, HeadFromFirstWord) {
  EXPECT_EQ(Scan("SELECT 1").head, StatementHead::kSelect);
  EXPECT_EQ(Scan("  -- lead\n/* c */ select a FROM t").head,
            StatementHead::kSelect);
  EXPECT_EQ(Scan("OUT OF a AS t TAKE *").head, StatementHead::kXnf);
  Scanned insert = Scan("INSERT INTO t VALUES (1, 'x')");
  EXPECT_EQ(insert.head, StatementHead::kOther);
  EXPECT_EQ(insert.first_word, "INSERT");
  // Other statements are not scanned past their first word.
  EXPECT_TRUE(insert.shape.key.empty());
  EXPECT_TRUE(insert.shape.literals.empty());
  EXPECT_EQ(Scan("(SELECT 1)").head, StatementHead::kOther);
  EXPECT_EQ(Scan("").head, StatementHead::kOther);
}

TEST(ShapeScanTest, LiteralTypesAreDifferentShapes) {
  const std::string i = Key("SELECT a FROM t WHERE pid = 5");
  EXPECT_EQ(i, Key("SELECT a FROM t WHERE pid = 77"));
  EXPECT_NE(i, Key("SELECT a FROM t WHERE pid = 5.0"));
  EXPECT_NE(i, Key("SELECT a FROM t WHERE pid = '5'"));
  EXPECT_EQ(Key("SELECT a FROM t WHERE pid = 5.0"),
            Key("SELECT a FROM t WHERE pid = 1e3"));
  // Identifiers with digits are not literals.
  EXPECT_NE(Key("SELECT t1.a FROM t1"), Key("SELECT t2.a FROM t2"));
}

TEST(ShapeScanTest, CollectsValuesInLexicalOrder) {
  Scanned s = Scan("SELECT 'it''s', 1.5 FROM t WHERE a = 7 AND b = '' LIMIT 3");
  ASSERT_EQ(s.shape.literals.size(), 5u);
  EXPECT_EQ(s.shape.literals[0].AsString(), "it's");
  EXPECT_DOUBLE_EQ(s.shape.literals[1].AsDouble(), 1.5);
  EXPECT_EQ(s.shape.literals[2].AsInt(), 7);
  EXPECT_EQ(s.shape.literals[3].AsString(), "");
  EXPECT_EQ(s.shape.literals[4].AsInt(), 3);
}

TEST(ShapeScanTest, KeywordsAndUnaryMinusStayInTheKey) {
  // NULL / TRUE are words, not literals; a unary minus is a token of its
  // own, so -5 is the literal 5 behind a minus.
  Scanned s = Scan("SELECT a FROM t WHERE b IS NULL AND c = -5");
  ASSERT_EQ(s.shape.literals.size(), 1u);
  EXPECT_EQ(s.shape.literals[0].AsInt(), 5);
  EXPECT_NE(s.shape.key.find("NULL"), std::string::npos);
  EXPECT_NE(s.shape.key.find("-"), std::string::npos);
  EXPECT_NE(Key("SELECT a FROM t WHERE c = -5"),
            Key("SELECT a FROM t WHERE c = 5"));
}

TEST(ShapeScanTest, QuotesAndCommentsAreCopiedNotScanned) {
  Scanned s = Scan(
      "SELECT \"col 1\" FROM t -- 42 'x\n WHERE /* 7 */ a = 1");
  ASSERT_EQ(s.shape.literals.size(), 1u);
  EXPECT_EQ(s.shape.literals[0].AsInt(), 1);
  EXPECT_NE(Key("SELECT a FROM t -- 1\n"), Key("SELECT a FROM t -- 2\n"));
}

TEST(ShapeScanTest, UnterminatedTokensAreErrors) {
  EXPECT_EQ(Scan("SELECT 'abc").head, StatementHead::kError);
  EXPECT_EQ(Scan("SELECT \"abc").head, StatementHead::kError);
  EXPECT_EQ(Scan("SELECT 1 /* open").head, StatementHead::kError);
}

// The scan numbers literals exactly as the lexer does.
TEST(ShapeScanTest, OrdinalsMatchTheLexer) {
  const std::string text =
      "SELECT 1, 'a''b', x1, .5, 2e, 3E+2 FROM t WHERE a->b = 4.0e-1 AND "
      "c = 'q' -- 9\n";
  Scanned s = Scan(text);
  Result<std::vector<Token>> tokens = Lex(text);
  ASSERT_TRUE(tokens.ok());
  std::vector<Value> lexed;
  for (const Token& t : *tokens) {
    if (t.literal_ordinal < 0) continue;
    EXPECT_EQ(t.literal_ordinal, static_cast<int>(lexed.size()));
    if (t.kind == TokenKind::kInteger) {
      lexed.push_back(Value::Int(t.int_value));
    } else if (t.kind == TokenKind::kFloat) {
      lexed.push_back(Value::Double(t.double_value));
    } else {
      lexed.push_back(Value::String(t.text));
    }
  }
  ASSERT_EQ(s.shape.literals.size(), lexed.size());
  for (size_t i = 0; i < lexed.size(); ++i) {
    EXPECT_EQ(s.shape.literals[i].type(), lexed[i].type()) << i;
    EXPECT_EQ(s.shape.literals[i].TotalOrderCompare(lexed[i]), 0) << i;
  }
}

// Parses `text` and applies the safe-position rule; returns the is_param
// vector.
std::vector<char> Parameterize(const std::string& text) {
  Parser parser(text);
  Result<Statement> stmt = parser.ParseStatement();
  EXPECT_TRUE(stmt.ok()) << stmt.status().ToString();
  if (!stmt.ok()) return {};
  std::vector<char> is_param(Scan(text).shape.literals.size(), 0);
  ParameterizeWhere(stmt->select.get(), &is_param);
  return is_param;
}

TEST(ParameterizeWhereTest, OnlyComparisonsWithAColumnBecomeParameters) {
  // select-list 1, WHERE a = 2 (param), 3 < b (param), c + 4 = 5 (baked:
  // arithmetic), d IN (6, 7), e LIKE '8', f = -9 (unary minus), 10 = 10,
  // ORDER BY 1, LIMIT 11.
  std::vector<char> p = Parameterize(
      "SELECT 1, a FROM t WHERE a = 2 AND 3 < b AND c + 4 = 5 AND "
      "d IN (6, 7) AND e LIKE '8' AND f = -9 AND 10 = 10 "
      "ORDER BY 1 LIMIT 11");
  std::vector<char> want = {0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0};
  EXPECT_EQ(p, want);
}

TEST(ParameterizeWhereTest, SubqueriesAndUnionsAreBaked) {
  std::vector<char> p = Parameterize(
      "SELECT a FROM t WHERE a = 1 AND b IN (SELECT x FROM u WHERE x = 2) "
      "UNION SELECT a FROM t WHERE a = 3");
  EXPECT_EQ(p, (std::vector<char>{1, 0, 0}));
  p = Parameterize("SELECT a FROM (SELECT a FROM t WHERE a = 1) s "
                   "WHERE s.a = 2 OR NOT (s.a <> 3)");
  EXPECT_EQ(p, (std::vector<char>{0, 1, 1}));
}

}  // namespace
}  // namespace xnf::sql
