#ifndef XNF_STORAGE_COLUMN_STORE_H_
#define XNF_STORAGE_COLUMN_STORE_H_

#include <cassert>
#include <cstdint>
#include <limits>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/schema.h"
#include "common/status.h"
#include "common/value.h"
#include "storage/buffer_pool.h"
#include "storage/table_storage.h"

namespace xnf {

class Counter;
class MetricsRegistry;

// Columnar implementation of TableStorage. Rows are grouped into fixed-size
// row groups of `rows_per_group` rows, sized as one executor vector rather
// than one heap page (the catalog's rule is in DESIGN.md "Column store
// layout"). An unclustered table fills its groups in append order, so
// Rid{group, offset} is dense and a scan visits rows in the order a heap
// holding the same inserts would; morsels are cut by group ranges. Within a
// group every column is a separate segment
// with its own buffer-pool page: page id = group * num_columns + column,
// tagged PageKind::kColumn. A scan that needs only k of n columns
// therefore touches k pages per group — the late-materialization win the
// fault counters measure.
//
// Per-column encodings:
//   - INT / BOOL segments store int64 arrays (BOOL as 0/1), DOUBLE
//     segments store double arrays.
//   - STRING columns are dictionary-encoded against a table-wide,
//     append-only, first-seen-order dictionary; segments store uint32
//     codes. When the dictionary reaches `max_dict_entries` the column
//     overflows: new distinct strings are stored per segment and addressed
//     with kOverflowBit-tagged codes (reads stay exact; only the
//     code-comparing fast path turns itself off).
//   - When a group fills, null-free numeric segments with at most one run
//     per two rows are RLE-compressed as (value, run end) pairs, so a point
//     read binary-searches the run ends. Updates decompress the group back
//     to plain ("unsealing") before writing.
//   - NULLs live in a per-segment bitmap; deletes in a per-group tombstone
//     bitmap (stored with the group's first column page).
//
// Failpoints: `column.append` fires before Insert mutates,
// `column.write` before Update/Delete/Restore, and `column.read` on every
// group or column-view read. Pool Touch errors propagate. A failed call
// never leaves a partial change behind.
class ColumnStore : public TableStorage {
 public:
  // The row-group size of a new database: one executor batch
  // (exec::kBatchSize, checked where both are visible), so a ColBatch never
  // outgrows a batch; StorageLayout::ForPageSize shrinks it only for tiny
  // heap pages (DESIGN.md "Column store layout").
  static constexpr uint32_t kMaxRowsPerGroup = 1024;

  struct Options {
    uint32_t rows_per_group = kMaxRowsPerGroup;  // rid.page = group index
    BufferPool* buffer_pool = nullptr;  // not owned; may be null
    uint32_t file_id = 0;
    // Per-column dictionary cap; pushing a column past it activates the
    // overflow fallback. Tests shrink this to force the corner.
    uint32_t max_dict_entries = 1u << 16;
    // Engine metrics (storage.column.* counters, shared across all columnar
    // tables); null = metrics off.
    MetricsRegistry* metrics = nullptr;
    // CLUSTER BY column index (-1 = unclustered). Clustered placement
    // routes each inserted row to the open row group of its cluster-key
    // value, so one composite object's node rows land in contiguous,
    // single-key groups and a scan filtered on the key can skip whole
    // groups by tag without touching their pages (see ClusterTag).
    int cluster_column = -1;
  };

  // `schema` supplies the per-column types the segments are laid out with.
  ColumnStore(Schema schema, Options options);

  ColumnStore(const ColumnStore&) = delete;
  ColumnStore& operator=(const ColumnStore&) = delete;

  StorageKind kind() const override { return StorageKind::kColumn; }
  const ColumnStore* AsColumnStore() const override { return this; }

  Result<Rid> Insert(Row row) override;
  Result<Row> Read(Rid rid) const override;
  bool IsLive(Rid rid) const override;
  Status Update(Rid rid, Row row) override;
  Status Delete(Rid rid) override;
  Status Restore(Rid rid, Row row) override;
  Status Scan(const std::function<bool(Rid, const Row&)>& fn) const override;
  Status ScanRange(uint32_t page_begin, uint32_t page_end,
                   const std::function<bool(Rid, const Row&)>& fn)
      const override;
  void PinRange(uint32_t page_begin, uint32_t page_end) const override;
  void UnpinRange(uint32_t page_begin, uint32_t page_end) const override;
  size_t live_count() const override { return live_count_; }
  size_t page_count() const override { return groups_.size(); }
  uint32_t file_id() const override { return options_.file_id; }
  size_t tombstone_count() const override { return tombstones_; }

  // Durability: one unit = one row group, serialized as *logical* decoded
  // values (plus tombstone bitmap, cluster tag, and open-group routing
  // key), never as physical encodings — dictionaries and RLE runs are
  // rebuilt on restore, so codes may differ but reads, rid assignment, and
  // clustered routing are bit-identical to the original.
  Status SerializeUnit(uint32_t unit, std::string* out) const override;
  Status RestoreUnit(uint32_t unit, serde::Reader* in) override;
  std::vector<uint32_t> DirtyUnits() const override;
  void ClearDirtyUnits() override;

  // --- Columnar access (the batch scan's zero-copy path) -----------------

  // Overflowed dictionary codes: (code & kOverflowBit) indexes the
  // segment's overflow list instead of the dictionary.
  static constexpr uint32_t kOverflowBit = 0x80000000u;

  // A decoded, read-only view of one column within one row group. For
  // plain segments the pointers alias segment storage (zero-copy); RLE
  // segments are expanded into the caller's scratch. Pointers stay valid
  // until the store is next mutated.
  struct ColumnView {
    Type type = Type::kNull;
    const int64_t* ints = nullptr;     // INT / BOOL (0/1) columns
    const double* doubles = nullptr;   // DOUBLE columns
    const uint32_t* codes = nullptr;   // STRING columns (dict codes)
    const std::vector<std::string>* dict = nullptr;      // for codes
    const std::vector<std::string>* overflow = nullptr;  // kOverflowBit codes
    const uint64_t* nulls = nullptr;   // bitmap, bit i set = row i NULL
    size_t rows = 0;

    bool IsNull(size_t i) const {
      return nulls != nullptr && ((nulls[i >> 6] >> (i & 63)) & 1) != 0;
    }
  };

  // Caller-owned decode buffer; reuse one per column across groups.
  struct ViewScratch {
    std::vector<int64_t> ints;
    std::vector<double> doubles;
  };

  struct GroupInfo {
    size_t rows = 0;                    // appended rows (incl. tombstoned)
    size_t live = 0;
    const uint64_t* tombstones = nullptr;  // bitmap; null = none
  };

  size_t num_columns() const { return schema_.size(); }
  const Schema& schema() const { return schema_; }

  // Reads a group's header (row count + tombstones): fires `column.read`
  // and touches the group's first column page. The scan path calls this
  // once per group even when no column is referenced (COUNT(*)).
  Status ReadGroupInfo(uint32_t group, GroupInfo* out) const;

  // Decodes one column of one group: fires `column.read` and touches that
  // column's page. `scratch` may be shared across calls for the same
  // column; when `decode_values` is false only type/nulls/rows are filled
  // (enough for IS NULL kernels — no RLE expansion).
  Status ViewColumn(uint32_t group, size_t column, ViewScratch* scratch,
                    ColumnView* out, bool decode_values = true) const;

  // Materializes one value out of a view (NULL-aware; strings decode
  // through the dictionary / overflow list).
  static Value ViewValue(const ColumnView& view, size_t i);

  // Read-path counters (storage.column.group_reads / .segment_views; null
  // when metrics are off). The scan morsel accumulates locally and flushes
  // through these once per morsel — a per-group atomic add in the read hot
  // path costs more than the whole metrics budget allows.
  Counter* group_reads_counter() const { return group_reads_; }
  Counter* segment_views_counter() const { return segment_views_; }

  // Dictionary introspection for the kernel planner: the code for `s` (if
  // the column ever stored it), the dictionary itself, and whether the
  // column overflowed (overflow disables code-comparison kernels).
  std::optional<uint32_t> DictCode(size_t column, const std::string& s) const;
  const std::vector<std::string>& Dictionary(size_t column) const;
  bool DictOverflowed(size_t column) const;

  // --- Clustered placement (CLUSTER BY) ----------------------------------

  // The CLUSTER BY column index, or -1 for an unclustered table.
  int cluster_column() const { return options_.cluster_column; }

  // The cluster tag of a group: the single cluster-key value every live row
  // in the group is known to hold. Returns false for unclustered tables,
  // unknown groups, and groups whose tag an in-place update invalidated
  // (such groups can no longer be pruned). Reads group metadata only — no
  // page touch, no failpoint — which is what makes tag-based group pruning
  // cheaper than reading the group.
  bool ClusterTag(uint32_t group, Value* out) const;

  // --- View leases (debug pin-lifetime checking) --------------------------
  //
  // A lease declares "column views of this group are live": ColBatch and
  // the scan morsel hold one per viewed group, and UnpinRange asserts (debug
  // builds) that unpinning never strips the last pin from a leased group —
  // i.e. no ColumnView outlives the pin that protects its pages from
  // eviction. Release builds compile these to nothing.
#ifndef NDEBUG
  void AcquireViewLease(uint32_t group) const;
  void ReleaseViewLease(uint32_t group) const;
#else
  void AcquireViewLease(uint32_t) const {}
  void ReleaseViewLease(uint32_t) const {}
#endif

  // Encoding statistics (tests, benchmarks).
  struct Compression {
    uint64_t rle_segments = 0;    // currently RLE-encoded segments
    uint64_t plain_segments = 0;  // materialized (non-RLE) segments
    uint64_t dict_entries = 0;    // across all column dictionaries
    uint64_t overflow_values = 0; // strings stored outside a dictionary
  };
  Compression CompressionStats() const;

 private:
  struct Segment {
    enum class Enc { kPlain, kRle };
    Enc enc = Enc::kPlain;
    std::vector<int64_t> ints;       // INT / BOOL, plain
    std::vector<double> doubles;     // DOUBLE, plain
    std::vector<uint32_t> codes;     // STRING (always plain)
    std::vector<std::string> overflow;
    std::vector<int64_t> rle_ints;   // RLE runs (values)
    std::vector<double> rle_doubles;
    std::vector<uint32_t> rle_ends;  // RLE runs (exclusive end slots)
    std::vector<uint64_t> nulls;     // empty = no NULLs in segment
  };
  struct Group {
    std::vector<Segment> cols;
    std::vector<uint64_t> tombstones;  // empty = no deletes in group
    uint32_t rows = 0;
    // Clustered tables: the cluster-key value this group was created for.
    // Invalidated (has_tag = false) when an in-place write stores a
    // different key value into the group.
    bool has_tag = false;
    Value tag;
  };
  struct Dict {
    std::vector<std::string> values;
    std::unordered_map<std::string, uint32_t> index;
    bool overflowed = false;
  };

  // Page ids are group-major; Insert refuses to create a group whose pages
  // would not fit uint32, so the 64-bit product here can never truncate
  // (wrapped ids would collide across groups in the buffer pool's
  // residency/pin maps).
  uint32_t PageFor(uint32_t group, size_t column) const {
    uint64_t page = static_cast<uint64_t>(group) * schema_.size() + column;
    assert(page <= std::numeric_limits<uint32_t>::max());
    return static_cast<uint32_t>(page);
  }
  Status TouchPage(uint32_t group, size_t column) const;
  Status TouchGroupPages(uint32_t group) const;  // all columns
  Status CheckRowTypes(const Row& row) const;
  void AppendToGroup(Group* g, const Row& row);
  void WriteInPlace(Group* g, uint32_t slot, const Row& row);
  void SealGroup(Group* g);    // attempt RLE on full, null-free segments
  void UnsealGroup(Group* g);  // expand RLE back to plain before writes
  uint32_t EncodeString(size_t column, const std::string& s, Segment* seg);
  Value ValueAt(const Group& g, size_t column, uint32_t slot) const;
  // Drops a clustered group's tag when an in-place write stores a different
  // cluster-key value into it (the group is then mixed-key and unprunable;
  // it stays routable through open_groups_ under its original key).
  void InvalidateTagOnWrite(Group* g, const Row& row) const;

  // Records a successful mutation of `group` for the next checkpoint.
  // Dirty tracking is unit-granular: the buffer-pool mirror marks the
  // group's first column page (where the group header lives).
  void MarkUnitDirty(uint32_t group) {
    dirty_units_.insert(group);
    if (options_.buffer_pool != nullptr) {
      options_.buffer_pool->MarkDirty(PageId{options_.file_id, PageFor(group, 0)},
                                      PageKind::kColumn);
    }
  }

  static bool GetBit(const std::vector<uint64_t>& bits, size_t i) {
    size_t w = i >> 6;
    return w < bits.size() && ((bits[w] >> (i & 63)) & 1) != 0;
  }
  // Bitmaps are empty (no bits set) or sized for a full group, so view
  // consumers can index any row without bounds checks.
  void SetBit(std::vector<uint64_t>* bits, size_t i, bool value) const;

  // Deterministic canonical ordering for cluster keys (open_groups_):
  // identical inserts always produce identical placement.
  struct ValueLess {
    bool operator()(const Value& a, const Value& b) const {
      return a.TotalOrderCompare(b) < 0;
    }
  };

  Schema schema_;
  Options options_;
  std::vector<Group> groups_;
  std::vector<Dict> dicts_;  // one per column; used by STRING columns only
  // Clustered tables: cluster-key value -> index of its open (unfilled)
  // group. Entries leave the map when their group fills.
  std::map<Value, uint32_t, ValueLess> open_groups_;
  size_t live_count_ = 0;
  size_t tombstones_ = 0;
  std::set<uint32_t> dirty_units_;
#ifndef NDEBUG
  mutable std::mutex lease_mu_;
  mutable std::unordered_map<uint32_t, int> view_leases_;  // group -> count
#endif
  // Resolved once at construction; null when metrics are off. Counters are
  // shared across all columnar tables (per-table detail lives in
  // sqlxnf_storage).
  Counter* appends_ = nullptr;
  Counter* group_reads_ = nullptr;
  Counter* segment_views_ = nullptr;
  Counter* rle_seals_ = nullptr;
  Counter* rle_unseals_ = nullptr;
  Counter* dict_overflows_ = nullptr;
};

}  // namespace xnf

#endif  // XNF_STORAGE_COLUMN_STORE_H_
