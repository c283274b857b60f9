#include "exec/dml.h"

#include <optional>

#include "catalog/undo_log.h"
#include "common/failpoint.h"
#include "storage/wal.h"
#include "common/str_util.h"
#include "exec/access.h"
#include "exec/eval.h"
#include "plan/planner.h"
#include "qgm/builder.h"
#include "qgm/rewrite.h"

namespace xnf::exec {

namespace {

// Compiles a DML expression over one table's row (slot = column index); a
// table-less scope (INSERT VALUES) compiles a constant.
Result<qgm::ExprPtr> CompileDml(const sql::Expr& expr,
                                const TableInfo* table) {
  qgm::ScalarScope scope;
  if (table != nullptr) scope.sources.push_back({table->name, &table->schema});
  scope.allow_params = true;
  return plan::CompileScalar(expr, scope);
}

// The value of an INSERT VALUES cell that is a literal or a negated numeric
// literal, taken without compiling; nullopt for any other cell, which is
// compiled and evaluated as a constant expression (and reports its own
// type errors).
std::optional<Value> LiteralCell(const sql::Expr& cell) {
  using K = sql::Expr::Kind;
  if (cell.kind == K::kLiteral) return cell.literal;
  if (cell.kind != K::kUnary || cell.un_op != sql::UnOp::kNeg ||
      cell.args[0]->kind != K::kLiteral) {
    return std::nullopt;
  }
  const Value& v = cell.args[0]->literal;
  if (v.is_null()) return Value::Null();
  if (v.is_int()) return Value::Int(-v.AsInt());
  if (v.is_double()) return Value::Double(-v.AsDouble());
  return std::nullopt;
}

// Runs a row-level op called directly — with no enclosing statement — on a
// durable or MVCC catalog as its own statement: a StatementAtomicity
// savepoint gives the WAL a bracketed record-marker pair and MVCC an
// autocommit transaction, committed if `op` succeeds and rolled back if it
// fails. Inside a statement, or on a catalog with neither, `op` just runs.
// `op` returns Status or Result<T>.
template <typename Op>
auto AsStatement(Catalog* catalog, Op&& op) -> decltype(op()) {
  if ((catalog->wal() == nullptr && catalog->txn_manager() == nullptr) ||
      catalog->undo_log() != nullptr) {
    return op();
  }
  StatementAtomicity statement(catalog);
  auto result = op();
  if (!result.ok()) {
    XNF_RETURN_IF_ERROR(statement.Abort());
    return result;
  }
  XNF_RETURN_IF_ERROR(statement.Commit());
  return result;
}

// The access path of an UPDATE / DELETE target search: the WHERE's
// conjuncts through the engine's one chooser.
Result<TableAccess> TargetAccess(const Catalog& catalog, const TableInfo& table,
                                 const sql::Expr* where) {
  std::vector<qgm::ExprPtr> conjuncts;
  if (where != nullptr) {
    XNF_ASSIGN_OR_RETURN(qgm::ExprPtr pred, CompileDml(*where, &table));
    qgm::SplitConjuncts(std::move(pred), &conjuncts);
  }
  return ChooseAccess(table, std::move(conjuncts),
                      catalog.exec_config().use_indexes);
}

}  // namespace

StatementAtomicity::StatementAtomicity(Catalog* catalog)
    : catalog_(catalog), log_(catalog->undo_log()) {
  if (log_ == nullptr) {
    local_ = std::make_unique<UndoLog>();
    log_ = local_.get();
    catalog_->set_undo_log(log_);
    // Autocommit under MVCC: the statement is its own transaction. Its
    // undo log is the local one, so other sessions' snapshots read the
    // statement's pre-images until Commit publishes them.
    if (TransactionManager* mgr = catalog_->txn_manager();
        mgr != nullptr && mgr->current() == nullptr) {
      txn_ = mgr->Begin(/*ephemeral=*/true);
      txn_->undo = log_;
      mgr->set_current(txn_);
    }
  }
  mark_ = log_->size();
}

StatementAtomicity::~StatementAtomicity() { (void)Abort(); }

Status StatementAtomicity::Commit() {
  if (done_) return Status::Ok();
  TransactionManager* mgr = catalog_->txn_manager();
  // The commit epoch is fixed before the marker is written so recovery
  // restores the same visibility horizon the live engine published.
  // Statements inside an explicit transaction carry epoch 0 — their
  // effects become visible only at the transaction's kTxnCommit marker.
  const uint64_t epoch =
      (txn_ != nullptr && mgr != nullptr) ? mgr->PrepareCommitEpoch() : 0;
  // Durability point first: if the marker (or its fsync) fails, abort so
  // the in-memory state matches what recovery will reconstruct.
  if (Wal* wal = catalog_->wal(); wal != nullptr) {
    Status st = wal->CommitStatement(epoch);
    if (!st.ok()) {
      Status abort = Abort();
      return abort.ok() ? st : abort;
    }
  }
  done_ = true;
  if (txn_ != nullptr && mgr != nullptr) {
    // Harvest pre-images before the local log discards them.
    mgr->Commit(txn_, epoch);
    txn_ = nullptr;
  }
  if (local_ != nullptr) {
    catalog_->set_undo_log(nullptr);
    local_->Commit();
  }
  return Status::Ok();
}

Status StatementAtomicity::Abort() {
  if (done_) return Status::Ok();
  done_ = true;
  // The applied-op count must be read before the rollback truncates the
  // undo log back to the savepoint.
  if (Wal* wal = catalog_->wal(); wal != nullptr) {
    wal->AbortStatement(log_->size() - mark_);
  }
  if (local_ != nullptr) catalog_->set_undo_log(nullptr);
  Status rolled = log_->RollbackTo(catalog_, mark_);
  if (TransactionManager* mgr = catalog_->txn_manager(); mgr != nullptr) {
    if (txn_ != nullptr) {
      // Autocommit: the statement's writes are fully undone above.
      mgr->Rollback(txn_);
      txn_ = nullptr;
    } else if (mgr->current() != nullptr) {
      // Explicit transaction: the savepoint rollback removed this
      // statement's undo entries; shrink the MVCC write set to match.
      mgr->OnStatementAbort(mgr->current());
    }
  }
  return rolled;
}

Result<Rid> DmlExecutor::InsertRow(TableInfo* table, Row row) {
  return AsStatement(catalog_,
                     [&] { return ApplyInsert(table, std::move(row)); });
}

Status DmlExecutor::UpdateRow(TableInfo* table, Rid rid, Row new_row) {
  return AsStatement(catalog_, [&] {
    return ApplyUpdate(table, rid, std::move(new_row));
  });
}

Status DmlExecutor::DeleteRow(TableInfo* table, Rid rid) {
  return AsStatement(catalog_, [&] { return ApplyDelete(table, rid); });
}

Result<Rid> DmlExecutor::ApplyInsert(TableInfo* table, Row row) {
  XNF_RETURN_IF_ERROR(table->schema.CheckAndCoerceRow(&row));
  XNF_FAILPOINT("dml.apply.insert");
  // Redo reaches the log before the op applies (see wal.h): a failed append
  // leaves nothing behind, and if the apply below fails the surplus record
  // is excluded by the abort marker's applied-op count.
  if (Wal* wal = catalog_->wal(); wal != nullptr) {
    XNF_RETURN_IF_ERROR(wal->AppendInsert(table->name, row));
  }
  XNF_ASSIGN_OR_RETURN(Rid rid, table->storage->Insert(row));
  for (size_t i = 0; i < table->indexes.size(); ++i) {
    Status st = table->indexes[i]->Insert(row, rid);
    if (!st.ok()) {
      // Compensate: each row-level op must be atomic on its own, because
      // undo entries are recorded only for fully-applied ops. Compensation
      // runs with failpoints suppressed — it must not fail.
      Failpoints::Suppressor suppress;
      for (size_t j = 0; j < i; ++j) {
        (void)table->indexes[j]->Erase(row, rid);
      }
      (void)table->storage->Delete(rid);
      // The compensation burned a rid slot; the abort marker must carry
      // that so replay reproduces the exact rid layout (see wal.h).
      if (Wal* wal = catalog_->wal(); wal != nullptr) {
        wal->NoteSurplusSideEffect();
      }
      return st;
    }
  }
  if (UndoLog* log = catalog_->undo_log(); log != nullptr) {
    log->RecordInsert(table->name, rid);
  }
  if (TransactionManager* mgr = catalog_->txn_manager(); mgr != nullptr) {
    mgr->OnWrite(UndoLog::Entry::Kind::kInsert, table->name, rid);
  }
  return rid;
}

Status DmlExecutor::ApplyUpdate(TableInfo* table, Rid rid, Row new_row) {
  XNF_RETURN_IF_ERROR(table->schema.CheckAndCoerceRow(&new_row));
  // First-updater-wins, before anything touches storage: if another
  // in-flight transaction wrote this rid, or a commit newer than our
  // snapshot did, the statement fails with a serialization error. A rid
  // that passes the check reads identically physical and snapshot-visible.
  if (TransactionManager* mgr = catalog_->txn_manager(); mgr != nullptr) {
    XNF_RETURN_IF_ERROR(mgr->CheckWrite(table->name, rid));
  }
  XNF_FAILPOINT("dml.apply.update");
  XNF_ASSIGN_OR_RETURN(Row old_row, table->storage->Read(rid));
  if (Wal* wal = catalog_->wal(); wal != nullptr) {
    XNF_RETURN_IF_ERROR(wal->AppendUpdate(table->name, rid, new_row));
  }
  // Reverts the completed old->new key transitions of indexes [0, upto).
  auto restore_indexes = [&](size_t upto) {
    Failpoints::Suppressor suppress;
    for (size_t j = 0; j < upto; ++j) {
      (void)table->indexes[j]->Erase(new_row, rid);
      (void)table->indexes[j]->Insert(old_row, rid);
    }
  };
  for (size_t i = 0; i < table->indexes.size(); ++i) {
    Status st = table->indexes[i]->Erase(old_row, rid);
    if (!st.ok()) {
      restore_indexes(i);
      return st;
    }
    st = table->indexes[i]->Insert(new_row, rid);
    if (!st.ok()) {
      {
        Failpoints::Suppressor suppress;
        (void)table->indexes[i]->Insert(old_row, rid);
      }
      restore_indexes(i);
      return st;
    }
  }
  // The heap write goes last; if it fails the indexes (already moved to the
  // new keys) must be restored too, or they would point at keys the heap
  // row never took.
  Status st = table->storage->Update(rid, new_row);
  if (!st.ok()) {
    restore_indexes(table->indexes.size());
    return st;
  }
  if (UndoLog* log = catalog_->undo_log(); log != nullptr) {
    log->RecordUpdate(table->name, rid, std::move(old_row));
  }
  if (TransactionManager* mgr = catalog_->txn_manager(); mgr != nullptr) {
    mgr->OnWrite(UndoLog::Entry::Kind::kUpdate, table->name, rid);
  }
  return Status::Ok();
}

Status DmlExecutor::ApplyDelete(TableInfo* table, Rid rid) {
  if (TransactionManager* mgr = catalog_->txn_manager(); mgr != nullptr) {
    XNF_RETURN_IF_ERROR(mgr->CheckWrite(table->name, rid));
  }
  XNF_FAILPOINT("dml.apply.delete");
  XNF_ASSIGN_OR_RETURN(Row row, table->storage->Read(rid));
  if (Wal* wal = catalog_->wal(); wal != nullptr) {
    XNF_RETURN_IF_ERROR(wal->AppendDelete(table->name, rid));
  }
  for (size_t i = 0; i < table->indexes.size(); ++i) {
    Status st = table->indexes[i]->Erase(row, rid);
    if (!st.ok()) {
      Failpoints::Suppressor suppress;
      for (size_t j = 0; j < i; ++j) {
        (void)table->indexes[j]->Insert(row, rid);
      }
      return st;
    }
  }
  Status st = table->storage->Delete(rid);
  if (!st.ok()) {
    // Re-add the already-erased index entries: the row is still live.
    Failpoints::Suppressor suppress;
    for (auto& index : table->indexes) (void)index->Insert(row, rid);
    return st;
  }
  if (UndoLog* log = catalog_->undo_log(); log != nullptr) {
    log->RecordDelete(table->name, rid, std::move(row));
  }
  if (TransactionManager* mgr = catalog_->txn_manager(); mgr != nullptr) {
    mgr->OnWrite(UndoLog::Entry::Kind::kDelete, table->name, rid);
  }
  return Status::Ok();
}

Result<int64_t> DmlExecutor::Insert(const sql::InsertStmt& stmt) {
  TableInfo* table = catalog_->GetTable(stmt.table);
  if (table == nullptr) {
    return Status::NotFound("table '" + stmt.table + "' not found");
  }
  if (table->is_system) {
    return Status::NotUpdatable("system view '" + stmt.table +
                                "' is read-only");
  }
  const Schema& schema = table->schema;

  // Column position mapping.
  std::vector<size_t> positions;
  if (stmt.columns.empty()) {
    for (size_t i = 0; i < schema.size(); ++i) positions.push_back(i);
  } else {
    for (const std::string& c : stmt.columns) {
      XNF_ASSIGN_OR_RETURN(size_t i, schema.Resolve("", c));
      positions.push_back(i);
    }
  }

  std::vector<Row> rows;
  if (stmt.select != nullptr) {
    qgm::Builder builder(catalog_);
    XNF_ASSIGN_OR_RETURN(qgm::QueryGraph graph, builder.Build(*stmt.select));
    if (catalog_->exec_config().use_rewrite) {
      XNF_ASSIGN_OR_RETURN(qgm::RewriteStats stats, qgm::Rewrite(&graph));
      (void)stats;
    }
    XNF_ASSIGN_OR_RETURN(ResultSet rs, plan::Execute(catalog_, graph));
    if (rs.schema.size() != positions.size()) {
      return Status::InvalidArgument(
          "INSERT ... SELECT column count mismatch");
    }
    rows = std::move(rs.rows);
  } else {
    ExecContext exec_ctx;
    exec_ctx.catalog = catalog_;
    Row no_columns;
    EvalContext ectx;
    ectx.row = &no_columns;
    ectx.exec = &exec_ctx;
    for (const auto& value_row : stmt.rows) {
      if (value_row.size() != positions.size()) {
        return Status::InvalidArgument("INSERT value count mismatch");
      }
      Row row;
      row.reserve(value_row.size());
      for (const sql::ExprPtr& e : value_row) {
        if (std::optional<Value> literal = LiteralCell(*e)) {
          row.push_back(*std::move(literal));
          continue;
        }
        XNF_ASSIGN_OR_RETURN(qgm::ExprPtr compiled, CompileDml(*e, nullptr));
        XNF_ASSIGN_OR_RETURN(Value v, EvalExpr(*compiled, &ectx));
        row.push_back(std::move(v));
      }
      rows.push_back(std::move(row));
    }
  }

  // Scatter into full-width rows and insert, atomically as a statement.
  StatementAtomicity statement(catalog_);
  int64_t inserted = 0;
  for (Row& src : rows) {
    Row full(schema.size(), Value::Null());
    for (size_t i = 0; i < positions.size(); ++i) {
      full[positions[i]] = std::move(src[i]);
    }
    Result<Rid> rid = InsertRow(table, std::move(full));
    if (!rid.ok()) {
      XNF_RETURN_IF_ERROR(statement.Abort());
      return rid.status();
    }
    ++inserted;
  }
  XNF_RETURN_IF_ERROR(statement.Commit());
  return inserted;
}

Result<int64_t> DmlExecutor::Update(const sql::UpdateStmt& stmt) {
  TableInfo* table = catalog_->GetTable(stmt.table);
  if (table == nullptr) {
    return Status::NotFound("table '" + stmt.table + "' not found");
  }
  if (table->is_system) {
    return Status::NotUpdatable("system view '" + stmt.table +
                                "' is read-only");
  }
  XNF_ASSIGN_OR_RETURN(TableAccess access,
                       TargetAccess(*catalog_, *table, stmt.where.get()));
  struct Assignment {
    size_t column;
    qgm::ExprPtr expr;
  };
  std::vector<Assignment> assignments;
  for (const auto& [col, expr] : stmt.assignments) {
    XNF_ASSIGN_OR_RETURN(size_t i, table->schema.Resolve("", col));
    XNF_ASSIGN_OR_RETURN(qgm::ExprPtr e, CompileDml(*expr, table));
    assignments.push_back(Assignment{i, std::move(e)});
  }

  // Phase 1: find the targets as visible at the statement's snapshot — rows
  // of uncommitted or later-committed transactions are neither matched nor
  // counted (their rids would fail CheckWrite anyway) — and plan every new
  // row. The assignments evaluate column-wise over the found rows, so they
  // see the original column values.
  ExecContext exec_ctx;
  exec_ctx.catalog = catalog_;
  std::vector<Row> rows;
  std::vector<Rid> rids;
  ScanStats scan_stats;
  XNF_RETURN_IF_ERROR(FindRows(*table, access, /*referenced=*/nullptr,
                               &exec_ctx, &rows, &rids, &scan_stats));
  if (!rows.empty()) {
    EvalContext ectx;
    ectx.exec = &exec_ctx;
    std::vector<const Row*> ptrs;
    ptrs.reserve(rows.size());
    for (const Row& r : rows) ptrs.push_back(&r);
    std::vector<std::vector<Value>> cols(assignments.size());
    for (size_t a = 0; a < assignments.size(); ++a) {
      XNF_ASSIGN_OR_RETURN(cols[a],
                           EvalExprBatch(*assignments[a].expr, ptrs, &ectx));
    }
    for (size_t j = 0; j < rows.size(); ++j) {
      for (size_t a = 0; a < assignments.size(); ++a) {
        rows[j][assignments[a].column] = std::move(cols[a][j]);
      }
    }
  }

  // Phase 2: apply under a statement savepoint. A failure mid-apply (index
  // fault, heap fault) rolls back the heap rows *and* all secondary-index
  // entries of the rows already updated, via the undo log.
  StatementAtomicity statement(catalog_);
  for (size_t j = 0; j < rids.size(); ++j) {
    Status st = UpdateRow(table, rids[j], std::move(rows[j]));
    if (!st.ok()) {
      XNF_RETURN_IF_ERROR(statement.Abort());
      return st;
    }
  }
  XNF_RETURN_IF_ERROR(statement.Commit());
  return static_cast<int64_t>(rids.size());
}

Result<int64_t> DmlExecutor::Delete(const sql::DeleteStmt& stmt) {
  TableInfo* table = catalog_->GetTable(stmt.table);
  if (table == nullptr) {
    return Status::NotFound("table '" + stmt.table + "' not found");
  }
  if (table->is_system) {
    return Status::NotUpdatable("system view '" + stmt.table +
                                "' is read-only");
  }
  XNF_ASSIGN_OR_RETURN(TableAccess access,
                       TargetAccess(*catalog_, *table, stmt.where.get()));
  // Only the rids are needed: a columnar scan decodes just what the WHERE
  // reads.
  ExecContext exec_ctx;
  exec_ctx.catalog = catalog_;
  const std::vector<char> no_columns(table->schema.size(), 0);
  std::vector<Row> rows;
  std::vector<Rid> victims;
  ScanStats scan_stats;
  XNF_RETURN_IF_ERROR(FindRows(*table, access, &no_columns, &exec_ctx, &rows,
                               &victims, &scan_stats));
  StatementAtomicity statement(catalog_);
  for (Rid rid : victims) {
    Status st = DeleteRow(table, rid);
    if (!st.ok()) {
      XNF_RETURN_IF_ERROR(statement.Abort());
      return st;
    }
  }
  XNF_RETURN_IF_ERROR(statement.Commit());
  return static_cast<int64_t>(victims.size());
}

}  // namespace xnf::exec
