#ifndef XNF_CATALOG_MVCC_H_
#define XNF_CATALOG_MVCC_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "catalog/undo_log.h"
#include "common/status.h"
#include "common/value.h"
#include "storage/table_storage.h"

namespace xnf {

class Index;
struct TableInfo;

// Multi-version concurrency control over the existing undo machinery (see
// DESIGN.md, "Transactions & MVCC").
//
// The engine executes one statement at a time (the Database statement
// latch), so sessions interleave at statement boundaries; MVCC's job is to
// make each transaction's *reads* ignore writes that other, still-open or
// later-committed transactions have already applied physically. The trick
// is that the undo log already stores exactly the data an older snapshot
// needs: every write records (table, rid, pre-image) before the
// transaction commits. So instead of versioning rows in storage, the
// TransactionManager derives a per-table *overlay* — rid -> visible image
// (or "not there yet") — from
//
//   (a) the undo entries of other in-flight transactions (their writes are
//       physically applied but uncommitted: everyone else must see the
//       pre-images), and
//   (b) committed deltas: pre-images harvested from a transaction's undo
//       log at commit, kept until no live snapshot predates the commit.
//
// Visibility rule: a snapshot taken at epoch S sees every write committed
// with epoch <= S and nothing else (plus the transaction's own writes).
// First-updater-wins guarantees at most one in-flight writer per rid, so
// per rid the version order is [committed deltas, ascending epoch][at most
// one uncommitted pre-image]; an overlay applies in-flight pre-images
// first, then committed deltas newer than the snapshot from newest to
// oldest, so the oldest relevant pre-image wins.
//
// Write-write conflicts are detected eagerly (first-updater-wins, which
// implies first-committer-wins): an update/delete of rid R fails with
// Status::Serialization if another in-flight transaction has written R, or
// if a transaction committed a write to R after the writer's snapshot.
// Inserts never conflict (rids are append-allocated, never reused).
//
// Threading: every method must be called under the Database statement
// latch. Overlays returned by BuildOverlay are immutable snapshots and may
// be read concurrently by parallel scan morsels within the statement.
class TransactionManager {
 public:
  struct Transaction {
    uint64_t id = 0;
    // The transaction sees commits with epoch <= snapshot.
    uint64_t snapshot = 0;
    // The transaction's undo log (not owned): the session's log for
    // explicit transactions, StatementAtomicity's local log for
    // autocommit. Its entries are the pre-images other snapshots read.
    const UndoLog* undo = nullptr;
    // Rids updated/deleted (not inserted) per table — the write set
    // checked by first-updater-wins.
    std::unordered_map<std::string, std::unordered_set<Rid, RidHash>> writes;
    // Tables with any undo entry (inserts included): physical reads of
    // these tables are unsafe for other transactions.
    std::unordered_set<std::string> touched;
    // True for the per-statement autocommit transaction created by
    // StatementAtomicity when no explicit transaction is open.
    bool ephemeral = false;
  };

  // A per-table visibility overlay for one snapshot: rid -> image visible
  // at the snapshot; nullopt = the row does not exist at the snapshot
  // (it was inserted later / by an uncommitted transaction). Rows absent
  // from the overlay are visible as stored. Sorted by rid for merge scans.
  struct Overlay {
    std::vector<std::pair<Rid, std::optional<Row>>> entries;
    bool empty() const { return entries.empty(); }
    // The image held for `rid`, or null when the overlay does not cover it.
    const std::optional<Row>* Find(Rid rid) const;
  };

  struct Stats {
    uint64_t txns_started = 0;
    uint64_t txns_committed = 0;
    uint64_t txns_rolled_back = 0;
    uint64_t conflicts = 0;
    uint64_t versions_harvested = 0;
    uint64_t versions_gced = 0;
  };

  TransactionManager() = default;
  TransactionManager(const TransactionManager&) = delete;
  TransactionManager& operator=(const TransactionManager&) = delete;

  // --- transaction lifecycle ---------------------------------------------

  // Starts a transaction with a snapshot at the current commit horizon.
  // `ephemeral` marks the autocommit transaction StatementAtomicity opens
  // for a single statement. The returned pointer stays valid until
  // Commit/Rollback.
  Transaction* Begin(bool ephemeral);

  // The epoch the next commit will carry. Taken before the WAL commit
  // marker is written so the marker records the same epoch recovery will
  // restore as the visibility horizon; consumed only by Commit.
  uint64_t PrepareCommitEpoch() const { return epoch_ + 1; }

  // Commits `txn` at `epoch` (from PrepareCommitEpoch): harvests the undo
  // log's pre-images into the committed version store if any other
  // transaction still holds an older snapshot, records the commit epochs
  // of its write set for conflict checks, advances the horizon, and ends
  // the transaction. The caller then discards the undo entries.
  void Commit(Transaction* txn, uint64_t epoch);

  // Ends `txn` without committing. The caller has already rolled the undo
  // log back, so there is nothing to harvest.
  void Rollback(Transaction* txn);

  // A statement inside `txn` aborted and RollbackTo truncated the undo
  // log back to the statement's savepoint: rebuild the write/touched sets
  // from the entries that remain.
  void OnStatementAbort(Transaction* txn);

  // --- statement context --------------------------------------------------
  //
  // The transaction whose statement is currently executing, or nullptr (a
  // snapshot-only read outside any transaction). Set by the Database
  // facade around each statement; reads resolve their snapshot and
  // self-visibility through it.
  Transaction* current() const { return current_; }
  void set_current(Transaction* txn) { current_ = txn; }

  // The snapshot epoch reads should use right now: the current
  // transaction's snapshot, or the commit horizon outside a transaction.
  uint64_t view_snapshot() const {
    return current_ != nullptr ? current_->snapshot : epoch_;
  }

  // --- write path ---------------------------------------------------------

  // First-updater-wins check for an update/delete of `rid`. Must be
  // called before the physical write.
  Status CheckWrite(const std::string& table, Rid rid);

  // Registers a successful write (kInsert entries update only the
  // touched set). No-op outside a transaction.
  void OnWrite(UndoLog::Entry::Kind kind, const std::string& table, Rid rid);

  // --- read path ----------------------------------------------------------

  // True iff reads of `table`'s physical state (columnar kernels, late
  // materialization) are exact at the current snapshot: no other in-flight
  // transaction has touched the table and no retained committed delta on it
  // is newer than the snapshot. Index reads go through LookupVisible, which
  // is exact at any snapshot.
  bool PhysicalReadsSafe(const std::string& table) const;

  // Builds the overlay for `table` at the current snapshot. Empty when
  // physical reads are safe.
  Overlay BuildOverlay(const std::string& table) const;

  // Pages [page_begin, page_end) of `table` as visible at the current
  // snapshot: physical rows merged with the overlay entries on those pages
  // in rid order (pre-images substituted, invisible rows skipped,
  // deleted-but-visible rows injected). With an empty overlay this is
  // exactly storage.ScanRange. Safe to call concurrently on disjoint
  // ranges with a shared overlay.
  static Status VisibleScanRange(
      const TableStorage& storage, const Overlay& overlay,
      uint32_t page_begin, uint32_t page_end,
      const std::function<bool(Rid, const Row&)>& fn);

  // --- DDL / maintenance --------------------------------------------------

  // DROP TABLE: refuses if another in-flight transaction touched the
  // table (its undo entries would dangle); otherwise discards the table's
  // retained versions.
  Status OnDropTable(const std::string& table);

  // True iff any in-flight transaction other than the current one has undo
  // entries on `table`. CREATE INDEX refuses then: the index would be
  // built from physically-applied uncommitted rows.
  bool OtherTransactionTouched(const std::string& table) const;

  // Drops committed versions no live snapshot can reach. Runs after every
  // transaction end; exposed for tests.
  void Gc();

  // Recovery: replayed commit markers carry the pre-crash commit epochs;
  // the horizon restarts above the largest one so post-recovery snapshots
  // order after every recovered commit.
  void set_epoch_floor(uint64_t epoch) {
    if (epoch > epoch_) epoch_ = epoch;
  }

  // --- introspection ------------------------------------------------------

  uint64_t epoch() const { return epoch_; }
  size_t active_transactions() const { return active_.size(); }
  // Min snapshot over active transactions; the horizon when none.
  uint64_t oldest_snapshot() const;
  size_t versions_retained() const;
  const Stats& stats() const { return stats_; }

 private:
  // A pre-image harvested at commit: at snapshots older than `epoch` the
  // rid reads as `old_row` (or as absent for kInsert).
  struct Delta {
    uint64_t epoch;
    UndoLog::Entry::Kind kind;
    Rid rid;
    Row old_row;
  };

  Transaction* current_ = nullptr;
  uint64_t epoch_ = 0;
  uint64_t next_id_ = 1;
  std::vector<std::unique_ptr<Transaction>> active_;
  // Per table, ascending commit epoch.
  std::unordered_map<std::string, std::vector<Delta>> committed_deltas_;
  // Per table: rid -> latest commit epoch that wrote it (first-committer-
  // wins vs. transactions whose snapshot predates the commit).
  std::unordered_map<std::string,
                     std::unordered_map<Rid, uint64_t, RidHash>>
      committed_writes_;
  Stats stats_;
};

// Free-standing read helpers for the exec/XNF layers: `table`'s overlay, a
// point read and an index equality read, all as visible at the current
// snapshot (scans are exec::FindRows). `mgr` may be null — reads are then
// physical. All take the plain storage path whenever physical reads are
// exact.
TransactionManager::Overlay OverlayFor(const TransactionManager* mgr,
                                       const TableInfo& table);
Result<Row> ReadVisible(const TransactionManager* mgr, const TableInfo& table,
                        Rid rid);

// Calls `fn(rid, row)` in rid order for every row visible at `overlay`'s
// snapshot whose `index` key equals `key` (index equality; NULL matches
// nothing): the index hits the overlay does not cover, read through
// ReadRids, merged with the overlay images whose key equals `key`. Equals
// a visible scan filtered by the key, in O(hits + overlay); with an empty
// overlay it is exactly ReadRids(index.Lookup(key)).
Status LookupVisible(const TableInfo& table, const Index& index,
                     const TransactionManager::Overlay& overlay,
                     const Row& key,
                     const std::function<bool(Rid, const Row&)>& fn);

}  // namespace xnf

#endif  // XNF_CATALOG_MVCC_H_
