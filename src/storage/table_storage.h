#ifndef XNF_STORAGE_TABLE_STORAGE_H_
#define XNF_STORAGE_TABLE_STORAGE_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "common/status.h"
#include "common/value.h"

namespace xnf {

class ColumnStore;

namespace serde {
class Reader;
}  // namespace serde

// Record identifier: page number + slot within the page. Stable across
// updates; invalidated by delete. For the columnar store the "page" is the
// row-group index and the "slot" is the row's offset within the group, so
// rids stay dense and page-range morsels work identically for both layouts.
struct Rid {
  uint32_t page = 0;
  uint32_t slot = 0;

  bool operator==(const Rid& other) const {
    return page == other.page && slot == other.slot;
  }
  bool operator<(const Rid& other) const {
    return page != other.page ? page < other.page : slot < other.slot;
  }
};

struct RidHash {
  size_t operator()(const Rid& r) const {
    return (static_cast<size_t>(r.page) << 32) ^ r.slot;
  }
};

// Physical layout of a base table. Selected per table with
// CREATE TABLE ... USING {row|column}; the catalog default applies
// otherwise.
enum class StorageKind { kRow, kColumn };

// "row" / "column".
const char* StorageKindName(StorageKind kind);

// Abstract physical storage of one table. The contract every engine layer
// (DML, undo log, index backfill, XNF cache fill, scans) is written
// against:
//
//   - Insert appends and returns a dense Rid; rids are assigned in append
//     order and Scan delivers live tuples in rid order, so scans over
//     different storage kinds are row-for-row identical streams.
//   - Delete tombstones (the rid stays addressable for Restore); Restore
//     revives a tombstoned rid with the supplied row (transaction
//     rollback).
//   - page_count() is the unit of ScanRange/PinRange: a morsel-driven
//     parallel scan splits [0, page_count()) and may run disjoint
//     ScanRange calls concurrently (implementations must be read-only
//     thread-safe there).
//   - Every accessor can fail under fault injection (the heap.* /
//     column.* failpoints and propagated bufferpool.* errors); a failed
//     call never leaves a partial page change behind.
class TableStorage {
 public:
  virtual ~TableStorage() = default;

  TableStorage() = default;
  TableStorage(const TableStorage&) = delete;
  TableStorage& operator=(const TableStorage&) = delete;
  TableStorage(TableStorage&&) = default;
  TableStorage& operator=(TableStorage&&) = default;

  virtual StorageKind kind() const = 0;

  // Non-null iff this table is columnar; the batch scan path downcasts
  // through here to reach the zero-copy column views.
  virtual const ColumnStore* AsColumnStore() const { return nullptr; }

  // Appends a row; returns its Rid.
  virtual Result<Rid> Insert(Row row) = 0;

  // Reads the row at `rid`. Fails with kNotFound for deleted/invalid rids.
  virtual Result<Row> Read(Rid rid) const = 0;

  // Reads the rows at `rids` in the given order, calling `fn(rid, row)` for
  // each; stops early if `fn` returns false. `row` is only valid for the
  // duration of the call. Fails like Read on the first dead rid or fault;
  // rows before it have been delivered. The default loops Read; storages
  // with cheaper batched access override it.
  virtual Status ReadRids(
      const std::vector<Rid>& rids,
      const std::function<bool(Rid, const Row&)>& fn) const {
    for (Rid rid : rids) {
      XNF_ASSIGN_OR_RETURN(Row row, Read(rid));
      if (!fn(rid, row)) break;
    }
    return Status::Ok();
  }

  // True iff `rid` refers to a live tuple.
  virtual bool IsLive(Rid rid) const = 0;

  // Replaces the row at `rid` in place.
  virtual Status Update(Rid rid, Row row) = 0;

  // Tombstones the row at `rid`.
  virtual Status Delete(Rid rid) = 0;

  // Revives a tombstoned slot with `row` (transaction rollback of a
  // delete). Fails if the slot never existed or is currently live.
  virtual Status Restore(Rid rid, Row row) = 0;

  // Calls `fn(rid, row)` for every live tuple in rid order; stops early if
  // `fn` returns false. Fails only if a page read fails (fault injection);
  // rows visited before the failure have been delivered.
  virtual Status Scan(const std::function<bool(Rid, const Row&)>& fn) const = 0;

  // Scan restricted to pages [page_begin, page_end) — the unit of a
  // morsel-driven parallel scan. ScanRange calls on disjoint ranges are
  // safe to run concurrently.
  virtual Status ScanRange(
      uint32_t page_begin, uint32_t page_end,
      const std::function<bool(Rid, const Row&)>& fn) const = 0;

  // Pins/unpins the buffer-pool pages backing [page_begin, page_end) so
  // concurrent scans cannot evict them mid-morsel; no-ops without a pool.
  virtual void PinRange(uint32_t page_begin, uint32_t page_end) const = 0;
  virtual void UnpinRange(uint32_t page_begin, uint32_t page_end) const = 0;

  virtual size_t live_count() const = 0;
  virtual size_t page_count() const = 0;
  virtual uint32_t file_id() const = 0;

  // Currently tombstoned slots (deleted, not yet restored). Observability
  // only — the sqlxnf_storage system view reports it per table.
  virtual size_t tombstone_count() const { return 0; }

  // --- durability hooks (see DESIGN.md, "Durability & recovery") ----------
  //
  // A *unit* is the checkpoint granule: a heap page for row tables, a row
  // group for columnar ones. Mutations mark units dirty; a checkpoint
  // serializes the dirty units into the page file and clears the marks.
  // Recovery restores units in ascending order into a freshly created
  // storage, then calls FinalizeRestore once.

  // Serializes unit `unit` (must be < page_count()) into `out`. The
  // defaults make a storage non-checkpointable (virtual system-view tables
  // never reach a page file): serialization errors out, nothing is ever
  // dirty.
  virtual Status SerializeUnit(uint32_t unit, std::string* out) const {
    (void)unit;
    (void)out;
    return Status::Internal("storage does not support checkpointing");
  }

  // Reconstructs unit `unit` from serialized bytes. Units arrive in
  // ascending order on an empty storage.
  virtual Status RestoreUnit(uint32_t unit, serde::Reader* in) {
    (void)unit;
    (void)in;
    return Status::Internal("storage does not support recovery");
  }

  // Rebuilds derived in-memory state (counters, open-group routing) after
  // the last RestoreUnit. The restored storage must then behave
  // identically to the original — including rid assignment for subsequent
  // inserts, which WAL replay depends on.
  virtual void FinalizeRestore() {}

  // Units mutated since the last ClearDirtyUnits, ascending.
  virtual std::vector<uint32_t> DirtyUnits() const { return {}; }
  virtual void ClearDirtyUnits() {}
};

}  // namespace xnf

#endif  // XNF_STORAGE_TABLE_STORAGE_H_
