#ifndef XNF_CATALOG_DURABILITY_H_
#define XNF_CATALOG_DURABILITY_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "common/metrics.h"
#include "common/status.h"
#include "storage/page_file.h"
#include "storage/wal.h"

namespace xnf {

// On-disk layout of one durable database (see DESIGN.md, "Durability &
// recovery"):
//
//   <data_dir>/MANIFEST    authoritative root: names the live page file,
//                          its valid byte count, and the live WAL, and
//                          records the storage layout (StorageLayout)
//   <data_dir>/pages-<k>   append-only checkpoint page file
//   <data_dir>/wal-<k>     write-ahead log since the last checkpoint
//
// DurableStore ties the pieces together:
//
//   Open      reads the manifest, restores the catalog + every table's
//             units from the page file's valid prefix, and hands back the
//             WAL records that recovery must replay on top. A missing or
//             empty data_dir initializes a fresh database.
//
//   Checkpoint (fuzzy, statement-boundary): serializes the catalog meta
//             page and all dirty units into the page file, fsyncs, rotates
//             to a fresh WAL, then atomically publishes the new state via
//             MANIFEST.tmp + fsync + rename + directory fsync. A failure at
//             any step truncates the partial append and leaves the previous
//             manifest authoritative, so a crashed checkpoint is invisible
//             to recovery. When the page file has grown past ~4x its last
//             full rewrite, the checkpoint compacts by rewriting every unit
//             into a fresh pages-<k+1> and deleting the old file.
//
// Failpoints: checkpoint.begin, page.flush (inside PageFile::Append),
// checkpoint.sync, checkpoint.manifest — plus wal.append / wal.fsync on the
// log itself.
class DurableStore {
 public:
  struct Options {
    bool wal_fsync = true;
    MetricsRegistry* metrics = nullptr;
  };

  struct RecoveryInfo {
    bool created = false;        // fresh data_dir, nothing to recover
    bool torn_wal_tail = false;  // WAL ended in a torn write (truncated)
    uint64_t wal_records = 0;    // records handed back for replay
    uint64_t units_restored = 0;
    uint64_t tables_restored = 0;
    // MVCC commit horizon at the checkpoint (0 for pre-MVCC checkpoints).
    // Recovery restarts the epoch counter above the max of this and every
    // replayed commit marker's epoch.
    uint64_t mvcc_epoch = 0;
  };

  // Opens (creating if needed) the durable store rooted at `data_dir`,
  // restores the checkpointed snapshot into `catalog`, and returns the WAL
  // records to replay. `catalog` must hold no table yet: an existing data
  // dir gives it the storage layout recorded in the MANIFEST, a fresh one
  // records the catalog's. On success the WAL is open for appending (the torn
  // tail, if any, already truncated away) but NOT yet attached to the
  // catalog — the caller replays first, then calls catalog->set_wal(wal()).
  static Result<std::unique_ptr<DurableStore>> Open(
      const std::string& data_dir, Catalog* catalog, const Options& options,
      std::vector<Wal::Record>* wal_records, RecoveryInfo* info);

  ~DurableStore() = default;

  DurableStore(const DurableStore&) = delete;
  DurableStore& operator=(const DurableStore&) = delete;

  // Runs the checkpoint protocol above. Must not be called with a
  // transaction open (the rotated WAL would lose its uncommitted records) —
  // the Database facade enforces that. A successful checkpoint replaces the
  // WAL object and re-attaches it to the catalog, which also clears any
  // poisoning: the snapshot captures the exact in-memory state, so the
  // fresh log is consistent with it by construction.
  Status Checkpoint();

  // Supplies the MVCC commit horizon serialized into each checkpoint's
  // catalog meta page. Unset writes 0.
  void set_epoch_source(std::function<uint64_t()> fn) {
    epoch_source_ = std::move(fn);
  }

  Wal* wal() const { return wal_.get(); }
  uint64_t wal_bytes() const { return wal_ ? wal_->bytes_written() : 0; }
  const std::string& data_dir() const { return data_dir_; }

 private:
  DurableStore(std::string data_dir, Catalog* catalog, const Options& options);

  // A secondary index read from the meta page: created only after the
  // table's units are restored, so CreateIndex's backfill sees the data.
  struct PendingIndex {
    std::string table;
    std::string name;
    uint8_t kind = 0;  // 0 hash, 1 ordered
    bool unique = false;
    std::vector<std::string> columns;
  };

  // Serializes the catalog meta page: next_file_id, every user table
  // (schema, layout, cluster column, file id, secondary indexes) and every
  // view. System views are process state, never persisted.
  std::string SerializeCatalogMeta() const;
  Status RestoreCatalogMeta(const std::string& bytes,
                            std::vector<PendingIndex>* pending);

  Status DoCheckpoint();

  Status WriteManifest(const std::string& pages_name, uint64_t pages_valid,
                       const std::string& wal_name, uint64_t next_file_seq);
  Status ReadManifest(bool* found);
  Status InitFresh();

  std::string PathOf(const std::string& name) const {
    return data_dir_ + "/" + name;
  }

  std::string data_dir_;
  Catalog* catalog_;
  Options options_;

  // Manifest state (mirrors the MANIFEST file).
  std::string pages_name_;
  uint64_t pages_valid_ = 0;
  std::string wal_name_;
  uint64_t next_file_seq_ = 1;
  // Zero when the manifest predates recorded layouts.
  StorageLayout layout_;

  std::unique_ptr<PageFile> pages_;
  std::unique_ptr<Wal> wal_;

  // MVCC epoch plumbing: the live horizon at checkpoint time (from the
  // Database's TransactionManager) and the horizon read back from the
  // restored checkpoint.
  std::function<uint64_t()> epoch_source_;
  uint64_t recovered_epoch_ = 0;

  // Compaction bookkeeping: the page file's size right after the last full
  // rewrite; growing past ~4x that triggers the next rewrite.
  uint64_t last_rewrite_bytes_ = 0;

  Counter* checkpoints_ = nullptr;
  Counter* checkpoint_failures_ = nullptr;
  Counter* compactions_ = nullptr;
};

}  // namespace xnf

#endif  // XNF_CATALOG_DURABILITY_H_
