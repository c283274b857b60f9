#include "api/session.h"

#include <cctype>

#include "sql/lexer.h"

namespace xnf {

Database::StatementContext::StatementContext(Database* db, Session* session)
    : db_(db) {
  // Route the statement through the session's transaction: its undo log
  // receives the pre-images, and the transaction manager resolves reads
  // against the session's snapshot. The destructor restores the default
  // session's state — the next statement may belong to a different session.
  if (session != nullptr) {
    db_->catalog_.set_undo_log(session->undo_.get());
    db_->txn_manager_.set_current(session->txn_);
  }
}

Database::StatementContext::~StatementContext() {
  // Between statements the default session's transaction stays installed as
  // the ambient catalog state: direct catalog-level APIs (co::Manipulator,
  // DmlExecutor row calls) keep the pre-session contract that they join the
  // transaction opened by Database::Execute("BEGIN").
  Session* ambient = db_->default_session_.get();
  db_->catalog_.set_undo_log(ambient != nullptr ? ambient->undo_.get()
                                                : nullptr);
  db_->txn_manager_.set_current(ambient != nullptr ? ambient->txn_ : nullptr);
}

std::unique_ptr<Session> Database::OpenSession() {
  std::lock_guard<std::mutex> lock(exec_mu_);
  return std::unique_ptr<Session>(new Session(this, next_session_id_++));
}

std::deque<Database::StatementProfile> Database::statement_history() const {
  std::lock_guard<std::mutex> lock(history_mu_);
  return history_;
}

Session::~Session() {
  // An open transaction dies with its session. During database teardown the
  // rollback is skipped: the WAL then records an unterminated transaction,
  // which recovery rolls back — identical to a crash.
  if (undo_ != nullptr && !db_->closing_) {
    (void)Execute("ROLLBACK");
  }
}

Result<ExecResult> Session::Execute(const std::string& text) {
  return db_->ExecuteOn(this, text);
}

Result<ExecResult> Session::ExecuteScript(const std::string& text) {
  // Splits on top-level ';' tokens; each statement runs on this session
  // (so BEGIN; ...; COMMIT scripts work).
  XNF_ASSIGN_OR_RETURN(auto tokens, sql::Lex(text));
  std::vector<std::string> statements;
  size_t start = 0;
  for (const sql::Token& t : tokens) {
    if (t.kind == sql::TokenKind::kSemicolon) {
      statements.push_back(text.substr(start, t.offset - start));
      start = t.offset + 1;
    } else if (t.kind == sql::TokenKind::kEnd) {
      statements.push_back(text.substr(start));
    }
  }
  ExecResult last;
  for (const std::string& stmt : statements) {
    bool blank = true;
    for (char c : stmt) {
      if (!std::isspace(static_cast<unsigned char>(c))) {
        blank = false;
        break;
      }
    }
    if (blank) continue;
    XNF_ASSIGN_OR_RETURN(last, Execute(stmt));
  }
  return last;
}

Result<ResultSet> Session::Query(const std::string& select_text) {
  XNF_ASSIGN_OR_RETURN(ExecResult result, Execute(select_text));
  if (result.kind != ExecResult::Kind::kRows) {
    return Status::InvalidArgument("statement did not produce rows");
  }
  return std::move(result.rows);
}

Result<ResultSet> Session::QueryPrepared(const std::string& select_text,
                                         const std::vector<Value>& params) {
  // Prepared texts live beside the shapes under their exact text; the
  // leading \x02 keeps the two key spaces apart.
  prepared_key_.assign(1, '\x02');
  prepared_key_ += select_text;
  static const std::vector<Value> kNoLiterals;
  XNF_RETURN_IF_ERROR(db_->open_error_);
  // One latch acquisition for lookup, compile and run, like any statement.
  std::unique_lock<std::mutex> lock = db_->LockLatch();
  StatementCache::Outcome outcome;
  CachedStatement* entry = cache_.Find(
      prepared_key_, kNoLiterals, db_->catalog_.version(), &outcome);
  db_->CountLookup(outcome);
  if (entry == nullptr) {
    XNF_ASSIGN_OR_RETURN(std::unique_ptr<PreparedQuery> prepared,
                         db_->PrepareLocked(select_text));
    // Rebind to this session: the cached plan must execute against this
    // session's snapshot, not the default session's.
    prepared->session_ = this;
    auto compiled = std::make_unique<CachedStatement>();
    compiled->version = prepared->version_;
    compiled->prepared = std::move(prepared);
    bool evicted = false;
    entry = cache_.Insert(prepared_key_, std::move(compiled), &evicted);
    db_->CountStore(evicted);
  }
  return entry->prepared->ExecuteLocked(params);
}

}  // namespace xnf
