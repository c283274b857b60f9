#include "sql/parser.h"

#include "common/str_util.h"
#include "sql/lexer.h"

namespace xnf::sql {

namespace {

// Words that terminate clauses; an identifier equal to one of these is never
// consumed as an implicit alias.
const char* const kReservedWords[] = {
    "select", "from",   "where",  "group",  "having", "order",  "limit",
    "union",  "intersect", "except", "join",   "left",   "right",  "inner",  "outer",  "on",
    "as",     "and",    "or",     "not",    "in",     "is",     "null",
    "like",   "between", "exists", "case",  "when",   "then",   "else",
    "end",    "distinct", "asc",  "desc",   "insert", "update", "delete",
    "create", "drop",   "set",    "values", "into",   "out",    "of",
    "take",   "relate", "such",   "that",   "with",   "attributes",
    "offset", "limit",
    "using",  "connect", "disconnect", "by",
};

}  // namespace

bool Parser::IsReservedWord(const Token& token) {
  if (token.kind != TokenKind::kIdentifier) return false;
  for (const char* w : kReservedWords) {
    if (EqualsIgnoreCase(token.text, w)) return true;
  }
  return false;
}

Parser::Parser(std::string input) : input_(std::move(input)) {
  auto lexed = Lex(input_);
  if (!lexed.ok()) {
    lex_status_ = lexed.status();
  } else {
    tokens_ = std::move(lexed).value();
  }
}

const Token& Parser::Peek(size_t ahead) const {
  size_t i = pos_ + ahead;
  if (i >= tokens_.size()) i = tokens_.empty() ? 0 : tokens_.size() - 1;
  static const Token kEndToken;
  if (tokens_.empty()) return kEndToken;
  return tokens_[i];
}

Token Parser::Consume() {
  Token t = Peek();
  if (pos_ + 1 < tokens_.size()) ++pos_;
  return t;
}

bool Parser::Accept(TokenKind kind) {
  if (Peek().kind == kind) {
    Consume();
    return true;
  }
  return false;
}

bool Parser::AcceptKeyword(const char* keyword) {
  if (Peek().Is(keyword)) {
    Consume();
    return true;
  }
  return false;
}

Status Parser::Expect(TokenKind kind, const char* what) {
  if (Peek().kind == kind) {
    Consume();
    return Status::Ok();
  }
  return MakeError(std::string("expected ") + what + ", found " +
                   Peek().Describe());
}

Status Parser::ExpectKeyword(const char* keyword) {
  if (Peek().Is(keyword)) {
    Consume();
    return Status::Ok();
  }
  return MakeError(std::string("expected '") + keyword + "', found " +
                   Peek().Describe());
}

bool Parser::AtEnd() const { return Peek().kind == TokenKind::kEnd; }

size_t Parser::CurrentOffset() const { return Peek().offset; }

void Parser::SkipToStatementEnd() {
  while (!AtEnd() && Peek().kind != TokenKind::kSemicolon) Consume();
}

Status Parser::MakeError(const std::string& message) const {
  const Token& t = Peek();
  return Status::ParseError(message + " at line " + std::to_string(t.line) +
                            ", column " + std::to_string(t.column));
}

Result<std::vector<Statement>> Parser::ParseScript() {
  std::vector<Statement> out;
  while (!AtEnd()) {
    if (Accept(TokenKind::kSemicolon)) continue;
    XNF_ASSIGN_OR_RETURN(Statement stmt, ParseStatement());
    out.push_back(std::move(stmt));
  }
  return out;
}

Result<Statement> Parser::ParseStatement() {
  XNF_RETURN_IF_ERROR(lex_status_);
  const Token& t = Peek();
  Result<Statement> result = [&]() -> Result<Statement> {
    if (t.Is("select")) {
      Statement stmt;
      stmt.kind = Statement::Kind::kSelect;
      XNF_ASSIGN_OR_RETURN(stmt.select, ParseSelect());
      return stmt;
    }
    if (t.Is("explain")) return ParseExplain();
    if (t.Is("create")) return ParseCreate();
    if (t.Is("insert")) return ParseInsert();
    if (t.Is("update")) return ParseUpdate();
    if (t.Is("delete")) return ParseDelete();
    if (t.Is("drop")) return ParseDrop();
    return MakeError("expected a statement, found " + t.Describe());
  }();
  if (!result.ok()) return result.status();
  Accept(TokenKind::kSemicolon);
  return result;
}

Result<Statement> Parser::ParseExplain() {
  XNF_RETURN_IF_ERROR(ExpectKeyword("explain"));
  Statement stmt;
  stmt.kind = Statement::Kind::kExplain;
  stmt.explain = std::make_unique<ExplainStmt>();
  stmt.explain->analyze = AcceptKeyword("analyze");
  if (Peek().Is("out")) {
    // XNF body: capture the statement text verbatim for the XNF parser.
    size_t start = CurrentOffset();
    SkipToStatementEnd();
    stmt.explain->xnf_text = input_.substr(start, CurrentOffset() - start);
    return stmt;
  }
  XNF_ASSIGN_OR_RETURN(stmt.explain->select, ParseSelect());
  return stmt;
}

Result<Type> Parser::ParseType() {
  Token t = Consume();
  if (t.kind != TokenKind::kIdentifier) {
    return MakeError("expected a type name, found " + t.Describe());
  }
  std::string name = ToLower(t.text);
  Type type;
  if (name == "int" || name == "integer" || name == "bigint" ||
      name == "smallint") {
    type = Type::kInt;
  } else if (name == "double" || name == "float" || name == "real" ||
             name == "decimal" || name == "numeric") {
    type = Type::kDouble;
  } else if (name == "varchar" || name == "char" || name == "text" ||
             name == "string") {
    type = Type::kString;
  } else if (name == "bool" || name == "boolean") {
    type = Type::kBool;
  } else {
    return MakeError("unknown type '" + t.text + "'");
  }
  // Optional length/precision, e.g. VARCHAR(40) or DECIMAL(10,2); ignored.
  if (Accept(TokenKind::kLParen)) {
    while (!AtEnd() && Peek().kind != TokenKind::kRParen) Consume();
    XNF_RETURN_IF_ERROR(Expect(TokenKind::kRParen, "')'"));
  }
  return type;
}

Result<Statement> Parser::ParseCreate() {
  XNF_RETURN_IF_ERROR(ExpectKeyword("create"));
  bool unique = AcceptKeyword("unique");
  bool ordered = AcceptKeyword("ordered");
  if (AcceptKeyword("table")) {
    if (unique || ordered) return MakeError("unexpected modifier before TABLE");
    auto ct = std::make_unique<CreateTableStmt>();
    Token name = Consume();
    if (name.kind != TokenKind::kIdentifier) {
      return MakeError("expected table name");
    }
    ct->name = name.text;
    XNF_RETURN_IF_ERROR(Expect(TokenKind::kLParen, "'('"));
    do {
      ColumnDef col;
      Token cn = Consume();
      if (cn.kind != TokenKind::kIdentifier) {
        return MakeError("expected column name");
      }
      col.name = cn.text;
      XNF_ASSIGN_OR_RETURN(col.type, ParseType());
      while (true) {
        if (AcceptKeyword("not")) {
          XNF_RETURN_IF_ERROR(ExpectKeyword("null"));
          col.not_null = true;
        } else if (AcceptKeyword("primary")) {
          XNF_RETURN_IF_ERROR(ExpectKeyword("key"));
          col.primary_key = true;
        } else {
          break;
        }
      }
      ct->columns.push_back(std::move(col));
    } while (Accept(TokenKind::kComma));
    XNF_RETURN_IF_ERROR(Expect(TokenKind::kRParen, "')'"));
    if (AcceptKeyword("using")) {
      if (AcceptKeyword("row")) {
        ct->storage = StorageClause::kRow;
      } else if (AcceptKeyword("column")) {
        ct->storage = StorageClause::kColumn;
      } else {
        return MakeError("expected ROW or COLUMN after USING");
      }
    }
    if (AcceptKeyword("cluster")) {
      XNF_RETURN_IF_ERROR(ExpectKeyword("by"));
      if (Peek().kind != TokenKind::kIdentifier) {
        return MakeError("expected a column name after CLUSTER BY");
      }
      ct->cluster_by = Consume().text;
    }
    Statement stmt;
    stmt.kind = Statement::Kind::kCreateTable;
    stmt.create_table = std::move(ct);
    return stmt;
  }
  if (AcceptKeyword("index")) {
    auto ci = std::make_unique<CreateIndexStmt>();
    ci->unique = unique;
    ci->ordered = ordered;
    Token name = Consume();
    if (name.kind != TokenKind::kIdentifier) {
      return MakeError("expected index name");
    }
    ci->name = name.text;
    XNF_RETURN_IF_ERROR(ExpectKeyword("on"));
    Token tbl = Consume();
    if (tbl.kind != TokenKind::kIdentifier) {
      return MakeError("expected table name");
    }
    ci->table = tbl.text;
    XNF_RETURN_IF_ERROR(Expect(TokenKind::kLParen, "'('"));
    do {
      Token col = Consume();
      if (col.kind != TokenKind::kIdentifier) {
        return MakeError("expected column name");
      }
      ci->columns.push_back(col.text);
    } while (Accept(TokenKind::kComma));
    XNF_RETURN_IF_ERROR(Expect(TokenKind::kRParen, "')'"));
    Statement stmt;
    stmt.kind = Statement::Kind::kCreateIndex;
    stmt.create_index = std::move(ci);
    return stmt;
  }
  if (AcceptKeyword("view")) {
    if (unique || ordered) return MakeError("unexpected modifier before VIEW");
    auto cv = std::make_unique<CreateViewStmt>();
    Token name = Consume();
    if (name.kind != TokenKind::kIdentifier) {
      return MakeError("expected view name");
    }
    cv->name = name.text;
    XNF_RETURN_IF_ERROR(ExpectKeyword("as"));
    size_t body_start = CurrentOffset();
    cv->is_xnf = Peek().Is("out");
    // Capture the definition text verbatim up to the statement terminator;
    // validation happens at execution time via the appropriate parser.
    SkipToStatementEnd();
    size_t body_end =
        AtEnd() ? input_.size() : Peek().offset;  // offset of ';' or end
    cv->definition = input_.substr(body_start, body_end - body_start);
    Statement stmt;
    stmt.kind = Statement::Kind::kCreateView;
    stmt.create_view = std::move(cv);
    return stmt;
  }
  return MakeError("expected TABLE, INDEX, or VIEW after CREATE");
}

Result<Statement> Parser::ParseInsert() {
  XNF_RETURN_IF_ERROR(ExpectKeyword("insert"));
  XNF_RETURN_IF_ERROR(ExpectKeyword("into"));
  auto ins = std::make_unique<InsertStmt>();
  Token name = Consume();
  if (name.kind != TokenKind::kIdentifier) {
    return MakeError("expected table name");
  }
  ins->table = name.text;
  if (Accept(TokenKind::kLParen)) {
    do {
      Token col = Consume();
      if (col.kind != TokenKind::kIdentifier) {
        return MakeError("expected column name");
      }
      ins->columns.push_back(col.text);
    } while (Accept(TokenKind::kComma));
    XNF_RETURN_IF_ERROR(Expect(TokenKind::kRParen, "')'"));
  }
  if (AcceptKeyword("values")) {
    do {
      XNF_RETURN_IF_ERROR(Expect(TokenKind::kLParen, "'('"));
      std::vector<ExprPtr> row;
      do {
        XNF_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
        row.push_back(std::move(e));
      } while (Accept(TokenKind::kComma));
      XNF_RETURN_IF_ERROR(Expect(TokenKind::kRParen, "')'"));
      ins->rows.push_back(std::move(row));
    } while (Accept(TokenKind::kComma));
  } else if (Peek().Is("select")) {
    XNF_ASSIGN_OR_RETURN(ins->select, ParseSelect());
  } else {
    return MakeError("expected VALUES or SELECT");
  }
  Statement stmt;
  stmt.kind = Statement::Kind::kInsert;
  stmt.insert = std::move(ins);
  return stmt;
}

Result<Statement> Parser::ParseUpdate() {
  XNF_RETURN_IF_ERROR(ExpectKeyword("update"));
  auto upd = std::make_unique<UpdateStmt>();
  Token name = Consume();
  if (name.kind != TokenKind::kIdentifier) {
    return MakeError("expected table name");
  }
  upd->table = name.text;
  XNF_RETURN_IF_ERROR(ExpectKeyword("set"));
  do {
    Token col = Consume();
    if (col.kind != TokenKind::kIdentifier) {
      return MakeError("expected column name");
    }
    XNF_RETURN_IF_ERROR(Expect(TokenKind::kEq, "'='"));
    XNF_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
    upd->assignments.emplace_back(col.text, std::move(e));
  } while (Accept(TokenKind::kComma));
  if (AcceptKeyword("where")) {
    XNF_ASSIGN_OR_RETURN(upd->where, ParseExpr());
  }
  Statement stmt;
  stmt.kind = Statement::Kind::kUpdate;
  stmt.update = std::move(upd);
  return stmt;
}

Result<Statement> Parser::ParseDelete() {
  XNF_RETURN_IF_ERROR(ExpectKeyword("delete"));
  XNF_RETURN_IF_ERROR(ExpectKeyword("from"));
  auto del = std::make_unique<DeleteStmt>();
  Token name = Consume();
  if (name.kind != TokenKind::kIdentifier) {
    return MakeError("expected table name");
  }
  del->table = name.text;
  if (AcceptKeyword("where")) {
    XNF_ASSIGN_OR_RETURN(del->where, ParseExpr());
  }
  Statement stmt;
  stmt.kind = Statement::Kind::kDelete;
  stmt.del = std::move(del);
  return stmt;
}

Result<Statement> Parser::ParseDrop() {
  XNF_RETURN_IF_ERROR(ExpectKeyword("drop"));
  auto drop = std::make_unique<DropStmt>();
  if (AcceptKeyword("table")) {
    drop->is_view = false;
  } else if (AcceptKeyword("view")) {
    drop->is_view = true;
  } else {
    return MakeError("expected TABLE or VIEW after DROP");
  }
  Token name = Consume();
  if (name.kind != TokenKind::kIdentifier) {
    return MakeError("expected object name");
  }
  drop->name = name.text;
  Statement stmt;
  stmt.kind = Statement::Kind::kDrop;
  stmt.drop = std::move(drop);
  return stmt;
}

Result<std::unique_ptr<SelectStmt>> Parser::ParseSelect() {
  XNF_RETURN_IF_ERROR(lex_status_);
  XNF_ASSIGN_OR_RETURN(std::unique_ptr<SelectStmt> head, ParseSelectCore());
  SelectStmt* tail = head.get();
  while (Peek().Is("union") || Peek().Is("intersect") || Peek().Is("except")) {
    SelectStmt::SetOp op;
    if (AcceptKeyword("union")) {
      op = AcceptKeyword("all") ? SelectStmt::SetOp::kUnionAll
                                : SelectStmt::SetOp::kUnion;
    } else if (AcceptKeyword("intersect")) {
      op = SelectStmt::SetOp::kIntersect;
    } else {
      XNF_RETURN_IF_ERROR(ExpectKeyword("except"));
      op = SelectStmt::SetOp::kExcept;
    }
    XNF_ASSIGN_OR_RETURN(std::unique_ptr<SelectStmt> next, ParseSelectCore());
    tail->set_op = op;
    tail->union_all = op == SelectStmt::SetOp::kUnionAll;
    tail->union_next = std::move(next);
    tail = tail->union_next.get();
  }
  return head;
}

Result<std::unique_ptr<SelectStmt>> Parser::ParseSelectCore() {
  XNF_RETURN_IF_ERROR(ExpectKeyword("select"));
  auto stmt = std::make_unique<SelectStmt>();
  stmt->distinct = AcceptKeyword("distinct");
  if (AcceptKeyword("all")) {
    // SELECT ALL is the default.
  }
  // Select list.
  do {
    SelectItem item;
    if (Peek().kind == TokenKind::kStar) {
      Consume();
      item.star = true;
    } else if (Peek().kind == TokenKind::kIdentifier &&
               Peek(1).kind == TokenKind::kDot &&
               Peek(2).kind == TokenKind::kStar) {
      item.star = true;
      item.star_table = Consume().text;
      Consume();  // '.'
      Consume();  // '*'
    } else {
      XNF_ASSIGN_OR_RETURN(item.expr, ParseExpr());
      if (AcceptKeyword("as")) {
        Token alias = Consume();
        if (alias.kind != TokenKind::kIdentifier) {
          return MakeError("expected alias after AS");
        }
        item.alias = alias.text;
      } else if (Peek().kind == TokenKind::kIdentifier &&
                 !IsReservedWord(Peek())) {
        item.alias = Consume().text;
      }
    }
    stmt->items.push_back(std::move(item));
  } while (Accept(TokenKind::kComma));

  if (AcceptKeyword("from")) {
    do {
      XNF_ASSIGN_OR_RETURN(std::unique_ptr<TableRef> ref, ParseTableRef());
      stmt->from.push_back(std::move(ref));
    } while (Accept(TokenKind::kComma));
  }
  if (AcceptKeyword("where")) {
    XNF_ASSIGN_OR_RETURN(stmt->where, ParseExpr());
  }
  if (AcceptKeyword("group")) {
    XNF_RETURN_IF_ERROR(ExpectKeyword("by"));
    do {
      XNF_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
      stmt->group_by.push_back(std::move(e));
    } while (Accept(TokenKind::kComma));
  }
  if (AcceptKeyword("having")) {
    XNF_ASSIGN_OR_RETURN(stmt->having, ParseExpr());
  }
  if (AcceptKeyword("order")) {
    XNF_RETURN_IF_ERROR(ExpectKeyword("by"));
    do {
      OrderItem item;
      XNF_ASSIGN_OR_RETURN(item.expr, ParseExpr());
      if (AcceptKeyword("desc")) {
        item.ascending = false;
      } else {
        AcceptKeyword("asc");
      }
      stmt->order_by.push_back(std::move(item));
    } while (Accept(TokenKind::kComma));
  }
  if (AcceptKeyword("limit")) {
    Token n = Consume();
    if (n.kind != TokenKind::kInteger) {
      return MakeError("expected integer after LIMIT");
    }
    stmt->limit = n.int_value;
    if (AcceptKeyword("offset")) {
      Token m = Consume();
      if (m.kind != TokenKind::kInteger) {
        return MakeError("expected integer after OFFSET");
      }
      stmt->offset = m.int_value;
    }
  }
  return stmt;
}

Result<std::unique_ptr<TableRef>> Parser::ParseTableRef() {
  XNF_ASSIGN_OR_RETURN(std::unique_ptr<TableRef> left, ParseTableRefPrimary());
  while (true) {
    JoinType jt;
    if (Peek().Is("join") || Peek().Is("inner")) {
      AcceptKeyword("inner");
      XNF_RETURN_IF_ERROR(ExpectKeyword("join"));
      jt = JoinType::kInner;
    } else if (Peek().Is("left")) {
      Consume();
      AcceptKeyword("outer");
      XNF_RETURN_IF_ERROR(ExpectKeyword("join"));
      jt = JoinType::kLeft;
    } else {
      break;
    }
    XNF_ASSIGN_OR_RETURN(std::unique_ptr<TableRef> right,
                         ParseTableRefPrimary());
    XNF_RETURN_IF_ERROR(ExpectKeyword("on"));
    XNF_ASSIGN_OR_RETURN(ExprPtr on, ParseExpr());
    auto join = std::make_unique<TableRef>();
    join->kind = TableRef::Kind::kJoin;
    join->join_type = jt;
    join->left = std::move(left);
    join->right = std::move(right);
    join->on = std::move(on);
    left = std::move(join);
  }
  return left;
}

Result<std::unique_ptr<TableRef>> Parser::ParseTableRefPrimary() {
  auto ref = std::make_unique<TableRef>();
  if (Accept(TokenKind::kLParen)) {
    if (!Peek().Is("select")) {
      return MakeError("expected SELECT in derived table");
    }
    ref->kind = TableRef::Kind::kSubquery;
    XNF_ASSIGN_OR_RETURN(ref->subquery, ParseSelect());
    XNF_RETURN_IF_ERROR(Expect(TokenKind::kRParen, "')'"));
  } else {
    Token name = Consume();
    if (name.kind != TokenKind::kIdentifier) {
      return MakeError("expected table name, found " + name.Describe());
    }
    ref->kind = TableRef::Kind::kNamed;
    ref->name = name.text;
    // Dotted reference to an XNF view component ("view.node"), the paper's
    // closure type (3): XNF to NF queries.
    if (Accept(TokenKind::kDot)) {
      Token component = Consume();
      if (component.kind != TokenKind::kIdentifier) {
        return MakeError("expected component name after '.'");
      }
      ref->name += "." + component.text;
    }
  }
  if (AcceptKeyword("as")) {
    Token alias = Consume();
    if (alias.kind != TokenKind::kIdentifier) {
      return MakeError("expected alias after AS");
    }
    ref->alias = alias.text;
  } else if (Peek().kind == TokenKind::kIdentifier && !IsReservedWord(Peek())) {
    ref->alias = Consume().text;
  }
  if (ref->kind == TableRef::Kind::kSubquery && ref->alias.empty()) {
    return MakeError("derived table requires an alias");
  }
  return ref;
}

// ------------------------- expressions -------------------------

Result<ExprPtr> Parser::ParseExpr() {
  XNF_RETURN_IF_ERROR(lex_status_);
  return ParseOr();
}

Result<ExprPtr> Parser::ParseOr() {
  XNF_ASSIGN_OR_RETURN(ExprPtr left, ParseAnd());
  while (AcceptKeyword("or")) {
    XNF_ASSIGN_OR_RETURN(ExprPtr right, ParseAnd());
    left = Expr::Binary(BinOp::kOr, std::move(left), std::move(right));
  }
  return left;
}

Result<ExprPtr> Parser::ParseAnd() {
  XNF_ASSIGN_OR_RETURN(ExprPtr left, ParseNot());
  while (Peek().Is("and")) {
    Consume();
    XNF_ASSIGN_OR_RETURN(ExprPtr right, ParseNot());
    left = Expr::Binary(BinOp::kAnd, std::move(left), std::move(right));
  }
  return left;
}

Result<ExprPtr> Parser::ParseNot() {
  if (AcceptKeyword("not")) {
    XNF_ASSIGN_OR_RETURN(ExprPtr inner, ParseNot());
    auto e = std::make_unique<Expr>(Expr::Kind::kUnary);
    e->un_op = UnOp::kNot;
    e->args.push_back(std::move(inner));
    return ExprPtr(std::move(e));
  }
  return ParsePredicate();
}

Result<ExprPtr> Parser::ParsePredicate() {
  XNF_ASSIGN_OR_RETURN(ExprPtr left, ParseAdditive());
  // comparison operators
  BinOp op;
  bool has_cmp = true;
  switch (Peek().kind) {
    case TokenKind::kEq:
      op = BinOp::kEq;
      break;
    case TokenKind::kNe:
      op = BinOp::kNe;
      break;
    case TokenKind::kLt:
      op = BinOp::kLt;
      break;
    case TokenKind::kLe:
      op = BinOp::kLe;
      break;
    case TokenKind::kGt:
      op = BinOp::kGt;
      break;
    case TokenKind::kGe:
      op = BinOp::kGe;
      break;
    default:
      has_cmp = false;
      op = BinOp::kEq;
      break;
  }
  if (has_cmp) {
    Consume();
    XNF_ASSIGN_OR_RETURN(ExprPtr right, ParseAdditive());
    return Expr::Binary(op, std::move(left), std::move(right));
  }
  if (Peek().Is("is")) {
    Consume();
    bool negated = AcceptKeyword("not");
    XNF_RETURN_IF_ERROR(ExpectKeyword("null"));
    auto e = std::make_unique<Expr>(Expr::Kind::kIsNull);
    e->negated = negated;
    e->args.push_back(std::move(left));
    return ExprPtr(std::move(e));
  }
  bool negated = false;
  if (Peek().Is("not") &&
      (Peek(1).Is("like") || Peek(1).Is("in") || Peek(1).Is("between"))) {
    Consume();
    negated = true;
  }
  if (AcceptKeyword("like")) {
    XNF_ASSIGN_OR_RETURN(ExprPtr pattern, ParseAdditive());
    auto e = std::make_unique<Expr>(Expr::Kind::kLike);
    e->negated = negated;
    e->args.push_back(std::move(left));
    e->args.push_back(std::move(pattern));
    return ExprPtr(std::move(e));
  }
  if (AcceptKeyword("between")) {
    XNF_ASSIGN_OR_RETURN(ExprPtr lo, ParseAdditive());
    XNF_RETURN_IF_ERROR(ExpectKeyword("and"));
    XNF_ASSIGN_OR_RETURN(ExprPtr hi, ParseAdditive());
    auto e = std::make_unique<Expr>(Expr::Kind::kBetween);
    e->negated = negated;
    e->args.push_back(std::move(left));
    e->args.push_back(std::move(lo));
    e->args.push_back(std::move(hi));
    return ExprPtr(std::move(e));
  }
  if (AcceptKeyword("in")) {
    XNF_RETURN_IF_ERROR(Expect(TokenKind::kLParen, "'('"));
    if (Peek().Is("select")) {
      auto e = std::make_unique<Expr>(Expr::Kind::kInSubquery);
      e->negated = negated;
      e->args.push_back(std::move(left));
      XNF_ASSIGN_OR_RETURN(e->subquery, ParseSelect());
      XNF_RETURN_IF_ERROR(Expect(TokenKind::kRParen, "')'"));
      return ExprPtr(std::move(e));
    }
    auto e = std::make_unique<Expr>(Expr::Kind::kInList);
    e->negated = negated;
    e->args.push_back(std::move(left));
    do {
      XNF_ASSIGN_OR_RETURN(ExprPtr item, ParseExpr());
      e->args.push_back(std::move(item));
    } while (Accept(TokenKind::kComma));
    XNF_RETURN_IF_ERROR(Expect(TokenKind::kRParen, "')'"));
    return ExprPtr(std::move(e));
  }
  if (negated) return MakeError("expected LIKE, IN, or BETWEEN after NOT");
  return left;
}

Result<ExprPtr> Parser::ParseAdditive() {
  XNF_ASSIGN_OR_RETURN(ExprPtr left, ParseMultiplicative());
  while (true) {
    BinOp op;
    if (Peek().kind == TokenKind::kPlus) {
      op = BinOp::kAdd;
    } else if (Peek().kind == TokenKind::kMinus) {
      op = BinOp::kSub;
    } else if (Peek().kind == TokenKind::kConcat) {
      op = BinOp::kConcat;
    } else {
      break;
    }
    Consume();
    XNF_ASSIGN_OR_RETURN(ExprPtr right, ParseMultiplicative());
    left = Expr::Binary(op, std::move(left), std::move(right));
  }
  return left;
}

Result<ExprPtr> Parser::ParseMultiplicative() {
  XNF_ASSIGN_OR_RETURN(ExprPtr left, ParseUnary());
  while (true) {
    BinOp op;
    if (Peek().kind == TokenKind::kStar) {
      op = BinOp::kMul;
    } else if (Peek().kind == TokenKind::kSlash) {
      op = BinOp::kDiv;
    } else if (Peek().kind == TokenKind::kPercent) {
      op = BinOp::kMod;
    } else {
      break;
    }
    Consume();
    XNF_ASSIGN_OR_RETURN(ExprPtr right, ParseUnary());
    left = Expr::Binary(op, std::move(left), std::move(right));
  }
  return left;
}

Result<ExprPtr> Parser::ParseUnary() {
  if (Accept(TokenKind::kMinus)) {
    XNF_ASSIGN_OR_RETURN(ExprPtr inner, ParseUnary());
    auto e = std::make_unique<Expr>(Expr::Kind::kUnary);
    e->un_op = UnOp::kNeg;
    e->args.push_back(std::move(inner));
    return ExprPtr(std::move(e));
  }
  Accept(TokenKind::kPlus);
  return ParsePrimary();
}

Result<ExprPtr> Parser::ParsePathTail(std::string start) {
  auto path = std::make_unique<PathExpr>();
  path->start = std::move(start);
  while (Accept(TokenKind::kArrow)) {
    PathStep step;
    if (Accept(TokenKind::kLParen)) {
      Token name = Consume();
      if (name.kind != TokenKind::kIdentifier) {
        return MakeError("expected node name in qualified path step");
      }
      step.name = name.text;
      if (Peek().kind == TokenKind::kIdentifier && !IsReservedWord(Peek())) {
        step.corr = Consume().text;
      }
      if (AcceptKeyword("where")) {
        XNF_ASSIGN_OR_RETURN(step.predicate, ParseExpr());
      }
      XNF_RETURN_IF_ERROR(Expect(TokenKind::kRParen, "')'"));
    } else {
      Token name = Consume();
      if (name.kind != TokenKind::kIdentifier) {
        return MakeError("expected name in path expression");
      }
      step.name = name.text;
    }
    path->steps.push_back(std::move(step));
  }
  if (path->steps.empty()) {
    return MakeError("path expression requires at least one '->' step");
  }
  auto e = std::make_unique<Expr>(Expr::Kind::kPath);
  e->path = std::move(path);
  return ExprPtr(std::move(e));
}

Result<ExprPtr> Parser::ParseFunctionCall(std::string name) {
  auto e = std::make_unique<Expr>(Expr::Kind::kFuncCall);
  e->column = ToLower(name);
  // consume '('
  XNF_RETURN_IF_ERROR(Expect(TokenKind::kLParen, "'('"));
  if (Accept(TokenKind::kRParen)) return ExprPtr(std::move(e));
  e->distinct_arg = AcceptKeyword("distinct");
  do {
    if (Peek().kind == TokenKind::kStar) {
      Consume();
      e->args.push_back(std::make_unique<Expr>(Expr::Kind::kStar));
    } else {
      XNF_ASSIGN_OR_RETURN(ExprPtr arg, ParseExpr());
      e->args.push_back(std::move(arg));
    }
  } while (Accept(TokenKind::kComma));
  XNF_RETURN_IF_ERROR(Expect(TokenKind::kRParen, "')'"));
  return ExprPtr(std::move(e));
}

Result<ExprPtr> Parser::ParsePrimary() {
  const Token& t = Peek();
  switch (t.kind) {
    case TokenKind::kInteger:
    case TokenKind::kFloat:
    case TokenKind::kString: {
      Token tok = Consume();
      ExprPtr e = Expr::Lit(tok.kind == TokenKind::kInteger
                                ? Value::Int(tok.int_value)
                            : tok.kind == TokenKind::kFloat
                                ? Value::Double(tok.double_value)
                                : Value::String(std::move(tok.text)));
      e->literal_ordinal = tok.literal_ordinal;
      return e;
    }
    case TokenKind::kQuestion: {
      Consume();
      auto e = std::make_unique<Expr>(Expr::Kind::kParam);
      e->param_index = param_count_++;
      return ExprPtr(std::move(e));
    }
    case TokenKind::kLParen: {
      Consume();
      if (Peek().Is("select")) {
        auto e = std::make_unique<Expr>(Expr::Kind::kScalarSubquery);
        XNF_ASSIGN_OR_RETURN(e->subquery, ParseSelect());
        XNF_RETURN_IF_ERROR(Expect(TokenKind::kRParen, "')'"));
        return ExprPtr(std::move(e));
      }
      XNF_ASSIGN_OR_RETURN(ExprPtr inner, ParseExpr());
      XNF_RETURN_IF_ERROR(Expect(TokenKind::kRParen, "')'"));
      return inner;
    }
    case TokenKind::kIdentifier:
      break;
    default:
      return MakeError("unexpected token " + t.Describe() +
                       " in expression");
  }

  // Identifier-led constructs.
  if (t.Is("null")) {
    Consume();
    return Expr::Lit(Value::Null());
  }
  if (t.Is("true")) {
    Consume();
    return Expr::Lit(Value::Bool(true));
  }
  if (t.Is("false")) {
    Consume();
    return Expr::Lit(Value::Bool(false));
  }
  if (t.Is("exists")) {
    Consume();
    if (Peek().kind == TokenKind::kLParen && Peek(1).Is("select")) {
      Consume();  // '('
      auto e = std::make_unique<Expr>(Expr::Kind::kExistsSubquery);
      XNF_ASSIGN_OR_RETURN(e->subquery, ParseSelect());
      XNF_RETURN_IF_ERROR(Expect(TokenKind::kRParen, "')'"));
      return ExprPtr(std::move(e));
    }
    // EXISTS <path expression>  (XNF form, §3.5). An optional layer of
    // parentheses around the path is tolerated.
    bool parenthesized = Accept(TokenKind::kLParen);
    Token start = Consume();
    if (start.kind != TokenKind::kIdentifier) {
      return MakeError("expected subquery or path expression after EXISTS");
    }
    XNF_ASSIGN_OR_RETURN(ExprPtr path_expr, ParsePathTail(start.text));
    if (parenthesized) {
      XNF_RETURN_IF_ERROR(Expect(TokenKind::kRParen, "')'"));
    }
    auto e = std::make_unique<Expr>(Expr::Kind::kExistsPath);
    e->path = std::move(path_expr->path);
    return ExprPtr(std::move(e));
  }
  if (t.Is("case")) {
    Consume();
    auto e = std::make_unique<Expr>(Expr::Kind::kCase);
    while (AcceptKeyword("when")) {
      XNF_ASSIGN_OR_RETURN(ExprPtr when, ParseExpr());
      XNF_RETURN_IF_ERROR(ExpectKeyword("then"));
      XNF_ASSIGN_OR_RETURN(ExprPtr then, ParseExpr());
      e->args.push_back(std::move(when));
      e->args.push_back(std::move(then));
    }
    if (e->args.empty()) return MakeError("CASE requires at least one WHEN");
    if (AcceptKeyword("else")) {
      XNF_ASSIGN_OR_RETURN(ExprPtr els, ParseExpr());
      e->args.push_back(std::move(els));
    }
    XNF_RETURN_IF_ERROR(ExpectKeyword("end"));
    return ExprPtr(std::move(e));
  }

  if (IsReservedWord(t)) {
    return MakeError("unexpected keyword " + t.Describe() + " in expression");
  }
  Token name = Consume();
  // Function call?
  if (Peek().kind == TokenKind::kLParen) {
    return ParseFunctionCall(name.text);
  }
  // Path expression? ident->...
  if (Peek().kind == TokenKind::kArrow) {
    return ParsePathTail(name.text);
  }
  // Qualified column: ident.ident (possibly followed by a path arrow, which
  // is not part of the column).
  if (Peek().kind == TokenKind::kDot) {
    Consume();
    Token col = Consume();
    if (col.kind != TokenKind::kIdentifier) {
      return MakeError("expected column name after '.'");
    }
    return Expr::ColRef(name.text, col.text);
  }
  return Expr::ColRef("", name.text);
}

}  // namespace xnf::sql
