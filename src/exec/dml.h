#ifndef XNF_EXEC_DML_H_
#define XNF_EXEC_DML_H_

#include <memory>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "catalog/mvcc.h"
#include "catalog/undo_log.h"
#include "common/status.h"
#include "sql/ast.h"

namespace xnf::exec {

// Statement-level atomicity via undo-log savepoints. Construct before the
// first write of a statement: records a savepoint on the transaction's
// undo log, or installs a temporary statement-local log when no
// transaction is active. On failure call Abort() to roll every write of
// the statement back (earlier statements of an enclosing transaction stay
// applied); on success call Commit(). The destructor aborts if neither was
// called, so an early return cannot leave partial effects behind.
//
// On a durable database the savepoint also brackets the WAL statement:
// Commit() appends the fsynced commit marker (the durability point) before
// releasing the undo — if the marker fails, the statement rolls back in
// memory, keeping log and memory agreed. Abort() appends the kStmtAbort
// marker carrying the count of fully-applied ops (= undo entries since the
// savepoint) so recovery can reproduce the abort's rid-space side effects;
// see wal.h.
//
// Under MVCC the statement-local log doubles as a per-statement autocommit
// transaction: the constructor begins an ephemeral transaction when no
// explicit one is open, Commit() publishes it at a fresh epoch (harvesting
// pre-images if another snapshot still needs them — the WAL commit marker
// carries the same epoch), and Abort() ends it. Statements inside an
// explicit transaction leave the transaction open and only rebuild its
// MVCC write set after a savepoint rollback.
class StatementAtomicity {
 public:
  explicit StatementAtomicity(Catalog* catalog);
  ~StatementAtomicity();
  StatementAtomicity(const StatementAtomicity&) = delete;
  StatementAtomicity& operator=(const StatementAtomicity&) = delete;

  Status Commit();
  Status Abort();

 private:
  Catalog* catalog_;
  UndoLog* log_;                     // transaction log or local_.get()
  std::unique_ptr<UndoLog> local_;   // set when no transaction was active
  // The autocommit MVCC transaction this statement opened, or nullptr
  // (inside an explicit transaction, during WAL replay, or on a bare
  // Catalog).
  TransactionManager::Transaction* txn_ = nullptr;
  size_t mark_ = 0;
  bool done_ = false;
};

// Executes INSERT / UPDATE / DELETE statements against the catalog,
// maintaining all secondary indexes. Any mid-statement failure (unique-
// index violation, injected fault) rolls the statement's partial effects
// back via a StatementAtomicity savepoint; the row-level helpers are each
// atomic on their own (they compensate partial index changes internally),
// which is what lets the savepoint replay assume full-op granularity.
class DmlExecutor {
 public:
  explicit DmlExecutor(Catalog* catalog) : catalog_(catalog) {}

  // Returns the number of affected rows.
  Result<int64_t> Insert(const sql::InsertStmt& stmt);
  Result<int64_t> Update(const sql::UpdateStmt& stmt);
  Result<int64_t> Delete(const sql::DeleteStmt& stmt);

  // Low-level helpers shared with the XNF manipulation layer (§3.7 of the
  // paper propagates cache operations to base tables through these). A
  // call made outside any statement on a durable or MVCC catalog runs as
  // its own autocommit statement.
  Result<Rid> InsertRow(TableInfo* table, Row row);
  Status UpdateRow(TableInfo* table, Rid rid, Row new_row);
  Status DeleteRow(TableInfo* table, Rid rid);

 private:
  // The row ops proper, always inside the caller's statement (if any).
  Result<Rid> ApplyInsert(TableInfo* table, Row row);
  Status ApplyUpdate(TableInfo* table, Rid rid, Row new_row);
  Status ApplyDelete(TableInfo* table, Rid rid);

  Catalog* catalog_;
};

}  // namespace xnf::exec

#endif  // XNF_EXEC_DML_H_
