// Warm vs. cold statement-cache differential: over a band of generated
// scripts, one session running the whole script (warm: its statement cache
// serves repeated shapes, across the script's DDL) must match, byte for
// byte, a fresh session per statement on a second database (cold: every
// statement compiles). Each SELECT and OUT OF ... TAKE runs three times —
// as generated, again (a hit), and with every integer literal moved by one
// (a hit on a parameter, or a baked-literal miss) — and every CREATE / DROP
// replays all earlier reads. At the end every table is dropped and created
// again with its columns reversed and all reads replay once more, so a plan
// kept across DDL would read the wrong column slots.

#include <cctype>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "api/database.h"
#include "api/session.h"
#include "gtest/gtest.h"
#include "testing/generator.h"

namespace xnf::testing {
namespace {

// One statement's outcome, rendered completely and in order: the error
// text, the column names and types with every row, the affected count, or
// the full CO rendering.
std::string Render(const Result<ExecResult>& r) {
  if (!r.ok()) return "error: " + r.status().ToString();
  std::string out;
  switch (r->kind) {
    case ExecResult::Kind::kRows:
      for (size_t c = 0; c < r->rows.schema.size(); ++c) {
        out += r->rows.schema.column(c).name + ":" +
               TypeName(r->rows.schema.column(c).type) + " ";
      }
      out += "\n";
      for (const Row& row : r->rows.rows) out += RowToString(row) + "\n";
      return out;
    case ExecResult::Kind::kAffected:
      return "affected " + std::to_string(r->affected);
    case ExecResult::Kind::kCo:
      return r->co.ToString();
    case ExecResult::Kind::kNone:
      return "none: " + r->message;
  }
  return out;
}

bool StartsWithWord(const std::string& text, const char* word) {
  size_t pos = 0;
  while (pos < text.size() &&
         std::isspace(static_cast<unsigned char>(text[pos]))) {
    ++pos;
  }
  const std::string w = word;
  if (text.size() - pos < w.size()) return false;
  for (size_t i = 0; i < w.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(text[pos + i])) != w[i]) {
      return false;
    }
  }
  return true;
}

bool IsRead(const std::string& stmt) {
  return StartsWithWord(stmt, "select") ||
         (StartsWithWord(stmt, "out") &&
          stmt.find(" TAKE ") != std::string::npos);
}

// Every integer literal outside quotes, plus one.
std::string Perturb(const std::string& stmt) {
  std::string out;
  bool quoted = false;
  for (size_t i = 0; i < stmt.size();) {
    const char c = stmt[i];
    if (c == '\'') quoted = !quoted;
    const bool starts_number =
        !quoted && std::isdigit(static_cast<unsigned char>(c)) &&
        (i == 0 || !(std::isalnum(static_cast<unsigned char>(stmt[i - 1])) ||
                     stmt[i - 1] == '_' || stmt[i - 1] == '.'));
    if (!starts_number) {
      out.push_back(c);
      ++i;
      continue;
    }
    size_t end = i;
    while (end < stmt.size() &&
           std::isdigit(static_cast<unsigned char>(stmt[end]))) {
      ++end;
    }
    if (end < stmt.size() && (stmt[end] == '.' || stmt[end] == 'e' ||
                              stmt[end] == 'E')) {
      out.append(stmt, i, end - i);  // a float: left as is
    } else {
      out += std::to_string(std::stoll(stmt.substr(i, end - i)) + 1);
    }
    i = end;
  }
  return out;
}

// `v` as SQL literal text.
std::string SqlLiteral(const Value& v) {
  if (v.is_null()) return "NULL";
  if (v.is_bool()) return v.AsBool() ? "TRUE" : "FALSE";
  if (!v.is_string()) return v.ToString();
  std::string out = "'";
  for (char c : v.AsString()) {
    out.push_back(c);
    if (c == '\'') out.push_back('\'');
  }
  return out + "'";
}

// Statements that rebuild every base table of `db` with its columns in
// reverse order and the same rows: the same names now sit in other slots,
// so a plan compiled before would read the wrong columns.
std::vector<std::string> ReverseColumns(Database* db) {
  std::vector<std::string> out;
  for (const std::string& name : db->catalog()->TableNames()) {
    const Schema& schema = db->catalog()->GetTable(name)->schema;
    Result<ResultSet> rows = db->Query("SELECT * FROM " + name);
    if (!rows.ok()) continue;
    std::string create = "CREATE TABLE " + name + " (";
    for (size_t c = schema.size(); c-- > 0;) {
      create += schema.column(c).name + " " + TypeName(schema.column(c).type);
      if (schema.column(c).primary_key) create += " PRIMARY KEY";
      create += c > 0 ? ", " : ")";
    }
    out.push_back("DROP TABLE " + name);
    out.push_back(create);
    for (const Row& row : rows->rows) {
      std::string insert = "INSERT INTO " + name + " VALUES (";
      for (size_t c = row.size(); c-- > 0;) {
        insert += SqlLiteral(row[c]) + (c > 0 ? ", " : ")");
      }
      out.push_back(insert);
    }
  }
  return out;
}

class WarmColdTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(WarmColdTest, WarmSessionMatchesFreshSessions) {
  FuzzCase fuzz = GenerateCase(GetParam());
  Database::Options options;
  options.threads = 1;
  Database warm_db(options), cold_db(options);
  std::unique_ptr<Session> warm = warm_db.OpenSession();
  int repeated_ok = 0;
  auto run = [&](const std::string& text) {
    const std::string w = Render(warm->Execute(text));
    std::unique_ptr<Session> cold = cold_db.OpenSession();
    const std::string c = Render(cold->Execute(text));
    EXPECT_EQ(w, c) << "seed " << GetParam() << ": " << text;
    return w.rfind("error: ", 0) != 0;
  };
  std::vector<std::string> reads;
  for (const std::string& stmt : fuzz.statements) {
    (void)run(stmt);
    if (IsRead(stmt)) {
      if (run(stmt)) ++repeated_ok;
      (void)run(Perturb(stmt));
      reads.push_back(stmt);
    } else if (StartsWithWord(stmt, "create") || StartsWithWord(stmt, "drop")) {
      for (const std::string& read : reads) (void)run(read);
    }
  }
  // DROP + CREATE with the columns reversed, then every read again: the
  // warm side must recompile rather than reuse plans bound to old slots.
  for (const std::string& stmt : ReverseColumns(&warm_db)) (void)run(stmt);
  for (const std::string& read : reads) (void)run(read);
  // The warm side really served hits: a read repeated right after it
  // compiled is one.
  if (repeated_ok > 0) {
    uint64_t hits = 0;
    for (const auto& s : warm_db.metrics()->Snapshot()) {
      if (s.name == "plan_cache.hits") hits = static_cast<uint64_t>(s.value);
    }
    EXPECT_GT(hits, 0u) << "seed " << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(Band, WarmColdTest,
                         ::testing::Range<uint64_t>(0, 40));

}  // namespace
}  // namespace xnf::testing
