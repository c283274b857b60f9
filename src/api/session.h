#ifndef XNF_API_SESSION_H_
#define XNF_API_SESSION_H_

#include <memory>
#include <string>
#include <vector>

#include "api/database.h"
#include "api/statement_cache.h"
#include "catalog/mvcc.h"
#include "catalog/undo_log.h"
#include "common/result_set.h"
#include "common/status.h"
#include "sql/shape.h"

namespace xnf {

// One caller's connection to the shared database: its own BEGIN/COMMIT/
// ROLLBACK state, its own MVCC snapshot while a transaction is open, and a
// per-session statement cache: every SELECT, OUT OF ... TAKE and
// QueryPrepared text compiles once per shape and reruns the plan. Obtained from
// Database::OpenSession(); Database::Execute() itself runs on a built-in
// default session, so single-connection code never sees this class.
//
// Sessions may live on different threads: the database serializes
// statements behind a global latch, so sessions interleave at statement
// boundaries, and a session whose transaction is open keeps reading from
// the snapshot it took at BEGIN (snapshot isolation; see DESIGN.md,
// "Transactions & MVCC"). A single session is NOT thread-safe — one
// thread at a time per session. Every session must be destroyed before
// its Database; a session destroyed with a transaction still open rolls
// it back.
class Session {
 public:
  ~Session();
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  // Executes one SQL/XNF statement on this session. A write outside an
  // explicit transaction autocommits and becomes visible to everyone at
  // once; inside BEGIN...COMMIT it stays invisible to other sessions
  // until COMMIT. An update/delete of a row that another live transaction
  // already wrote — or that committed a write to after this transaction's
  // snapshot — fails the statement with StatusCode::kSerialization
  // (first-updater-wins); the application retries the transaction.
  Result<ExecResult> Execute(const std::string& text);

  // Executes a ';'-separated script, returning the last result.
  Result<ExecResult> ExecuteScript(const std::string& text);

  // Convenience: SELECT returning rows.
  Result<ResultSet> Query(const std::string& select_text);

  // Prepared statements through the statement cache: compiles
  // `select_text` on first use, keyed by the exact text, and reuses the
  // plan afterwards (no per-call parse/plan). Parameters bind '?'
  // placeholders in order. A plan compiled before DDL is recompiled.
  Result<ResultSet> QueryPrepared(const std::string& select_text,
                                  const std::vector<Value>& params = {});

  // True while this session has an explicit transaction open.
  bool in_transaction() const { return undo_ != nullptr; }

  uint64_t id() const { return id_; }
  // Compiled statements this session holds: SELECT and OUT OF ... TAKE
  // shapes and QueryPrepared texts. Grows by one when a statement compiles
  // into a free slot; bounded by StatementCache::kCapacity.
  size_t prepared_cache_size() const { return cache_.size(); }
  Database* database() const { return db_; }

 private:
  friend class Database;
  Session(Database* db, uint64_t id) : db_(db), id_(id) {}

  Database* db_;
  uint64_t id_;
  // The open explicit transaction: its undo log (whose entries double as
  // the MVCC pre-image versions other snapshots read) and its
  // TransactionManager handle. Both null between transactions.
  std::unique_ptr<UndoLog> undo_;
  TransactionManager::Transaction* txn_ = nullptr;
  // Compiled statements by shape (see api/statement_cache.h), and the
  // scratch buffers the shape scan and the prepared-text key reuse.
  StatementCache cache_;
  sql::Shape shape_;
  std::string prepared_key_;
};

}  // namespace xnf

#endif  // XNF_API_SESSION_H_
