// The sqlxnf_* system views: engine observability exposed as plain
// relational tables. Each view is a per-statement snapshot (see
// Catalog::RegisterSystemView) filled from in-memory state — no buffer-pool
// traffic, no instrumentation recursion — and flows through the ordinary
// planner/executor, so it can be filtered, joined against user tables,
// ordered, and aggregated like any other table.

#include <cstdio>
#include <cstdlib>

#include "api/database.h"
#include "storage/column_store.h"

namespace xnf {

namespace {

// text_hash renders as a fixed-width hex string: INT columns are signed and
// a raw FNV value would print as a negative number half the time.
std::string HexHash(uint64_t h) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h));
  return std::string(buf);
}

}  // namespace

void Database::RegisterSystemViews() {
  auto must = [](Status s) {
    if (!s.ok()) {
      std::fprintf(stderr, "sqlxnf: system view registration failed: %s\n",
                   s.message().c_str());
      std::abort();
    }
  };

  // sqlxnf_metrics: one row per counter/gauge sample, plus three rows per
  // histogram (count, sum, then one histogram_bucket row per non-empty
  // bucket with its inclusive value range).
  {
    Schema schema;
    schema.AddColumn(Column("name", Type::kString));
    schema.AddColumn(Column("kind", Type::kString));
    schema.AddColumn(Column("bucket_lo", Type::kInt));
    schema.AddColumn(Column("bucket_hi", Type::kInt));
    schema.AddColumn(Column("value", Type::kInt));
    must(catalog_.RegisterSystemView(
        "sqlxnf_metrics", std::move(schema), [this] {
          std::vector<Row> rows;
          if (metrics_ == nullptr) return rows;
          for (const MetricsRegistry::Sample& s : metrics_->Snapshot()) {
            rows.push_back(
                {Value::String(s.name), Value::String(s.kind),
                 s.bucket_lo.has_value() ? Value::Int(*s.bucket_lo)
                                         : Value::Null(),
                 s.bucket_hi.has_value() ? Value::Int(*s.bucket_hi)
                                         : Value::Null(),
                 Value::Int(s.value)});
          }
          return rows;
        }));
  }

  // sqlxnf_statements: the retained statement ring, oldest first. The page
  // columns are whole-engine buffer-pool deltas over the statement.
  {
    Schema schema;
    schema.AddColumn(Column("seq", Type::kInt));
    schema.AddColumn(Column("kind", Type::kString));
    schema.AddColumn(Column("text_hash", Type::kString));
    schema.AddColumn(Column("latency_us", Type::kInt));
    schema.AddColumn(Column("rows", Type::kInt));
    schema.AddColumn(Column("heap_pages", Type::kInt));
    schema.AddColumn(Column("index_pages", Type::kInt));
    schema.AddColumn(Column("column_pages", Type::kInt));
    schema.AddColumn(Column("dop", Type::kInt));
    schema.AddColumn(Column("kernel_filters", Type::kInt));
    schema.AddColumn(Column("scan_filters", Type::kInt));
    schema.AddColumn(Column("error", Type::kString));
    must(catalog_.RegisterSystemView(
        "sqlxnf_statements", std::move(schema), [this] {
          std::vector<Row> rows;
          for (const StatementProfile& p : history_) {
            rows.push_back({Value::Int(static_cast<int64_t>(p.seq)),
                            Value::String(p.kind),
                            Value::String(HexHash(p.text_hash)),
                            Value::Int(p.latency_us), Value::Int(p.rows),
                            Value::Int(p.heap_pages),
                            Value::Int(p.index_pages),
                            Value::Int(p.column_pages), Value::Int(p.dop),
                            Value::Int(p.kernel_filters),
                            Value::Int(p.scan_filters),
                            Value::String(p.error)});
          }
          return rows;
        }));
  }

  // sqlxnf_storage: one row per user table. The compression columns are
  // NULL for row-engine tables — they only exist in the columnar layout.
  {
    Schema schema;
    schema.AddColumn(Column("name", Type::kString));
    schema.AddColumn(Column("engine", Type::kString));
    schema.AddColumn(Column("rows", Type::kInt));
    schema.AddColumn(Column("pages", Type::kInt));
    schema.AddColumn(Column("tombstones", Type::kInt));
    schema.AddColumn(Column("indexes", Type::kInt));
    schema.AddColumn(Column("rle_segments", Type::kInt));
    schema.AddColumn(Column("plain_segments", Type::kInt));
    schema.AddColumn(Column("dict_entries", Type::kInt));
    schema.AddColumn(Column("dict_overflow", Type::kInt));
    must(catalog_.RegisterSystemView(
        "sqlxnf_storage", std::move(schema), [this] {
          std::vector<Row> rows;
          // TableNames() covers base tables only; GetTable on a base table
          // never re-enters the system-view registry, so this fill cannot
          // self-deadlock.
          for (const std::string& name : catalog_.TableNames()) {
            const TableInfo* t = catalog_.GetTable(name);
            if (t == nullptr) continue;
            const TableStorage& st = *t->storage;
            Value rle = Value::Null();
            Value plain = Value::Null();
            Value dict = Value::Null();
            Value overflow = Value::Null();
            if (const ColumnStore* cs = st.AsColumnStore()) {
              ColumnStore::Compression c = cs->CompressionStats();
              rle = Value::Int(static_cast<int64_t>(c.rle_segments));
              plain = Value::Int(static_cast<int64_t>(c.plain_segments));
              dict = Value::Int(static_cast<int64_t>(c.dict_entries));
              overflow = Value::Int(static_cast<int64_t>(c.overflow_values));
            }
            rows.push_back(
                {Value::String(name), Value::String(StorageKindName(st.kind())),
                 Value::Int(static_cast<int64_t>(st.live_count())),
                 Value::Int(static_cast<int64_t>(st.page_count())),
                 Value::Int(static_cast<int64_t>(st.tombstone_count())),
                 Value::Int(static_cast<int64_t>(t->indexes.size())),
                 std::move(rle), std::move(plain), std::move(dict),
                 std::move(overflow)});
          }
          return rows;
        }));
  }

  // sqlxnf_transactions: one row with the MVCC engine state — the commit
  // horizon, live transactions, retained versions, and lifetime counters.
  // Always exactly one row. The fill runs under the statement
  // latch, so the numbers are a consistent instant. Plain reads resolve
  // against the committed horizon without registering a transaction, so
  // active_txns counts only open BEGIN blocks and in-flight DML statements.
  {
    Schema schema;
    schema.AddColumn(Column("epoch", Type::kInt));
    schema.AddColumn(Column("active_txns", Type::kInt));
    schema.AddColumn(Column("oldest_snapshot", Type::kInt));
    schema.AddColumn(Column("versions_retained", Type::kInt));
    schema.AddColumn(Column("txns_started", Type::kInt));
    schema.AddColumn(Column("txns_committed", Type::kInt));
    schema.AddColumn(Column("txns_rolled_back", Type::kInt));
    schema.AddColumn(Column("conflicts", Type::kInt));
    schema.AddColumn(Column("versions_harvested", Type::kInt));
    schema.AddColumn(Column("versions_gced", Type::kInt));
    must(catalog_.RegisterSystemView(
        "sqlxnf_transactions", std::move(schema), [this] {
          std::vector<Row> rows;
          const TransactionManager& mgr = txn_manager_;
          const TransactionManager::Stats& s = mgr.stats();
          rows.push_back(
              {Value::Int(static_cast<int64_t>(mgr.epoch())),
               Value::Int(static_cast<int64_t>(mgr.active_transactions())),
               Value::Int(static_cast<int64_t>(mgr.oldest_snapshot())),
               Value::Int(static_cast<int64_t>(mgr.versions_retained())),
               Value::Int(static_cast<int64_t>(s.txns_started)),
               Value::Int(static_cast<int64_t>(s.txns_committed)),
               Value::Int(static_cast<int64_t>(s.txns_rolled_back)),
               Value::Int(static_cast<int64_t>(s.conflicts)),
               Value::Int(static_cast<int64_t>(s.versions_harvested)),
               Value::Int(static_cast<int64_t>(s.versions_gced))});
          return rows;
        }));
  }

  // sqlxnf_bufferpool: per-PageKind access/fault/eviction/residency counts
  // plus a "total" row (the invariant heap+index+column == total is pinned
  // by a golden test).
  {
    Schema schema;
    schema.AddColumn(Column("kind", Type::kString));
    schema.AddColumn(Column("accesses", Type::kInt));
    schema.AddColumn(Column("faults", Type::kInt));
    schema.AddColumn(Column("evictions", Type::kInt));
    schema.AddColumn(Column("resident", Type::kInt));
    must(catalog_.RegisterSystemView(
        "sqlxnf_bufferpool", std::move(schema), [this] {
          std::vector<Row> rows;
          static constexpr PageKind kKinds[] = {
              PageKind::kHeap, PageKind::kIndex, PageKind::kColumn};
          for (PageKind kind : kKinds) {
            rows.push_back(
                {Value::String(PageKindName(kind)),
                 Value::Int(static_cast<int64_t>(buffer_pool_.accesses(kind))),
                 Value::Int(static_cast<int64_t>(buffer_pool_.faults(kind))),
                 Value::Int(
                     static_cast<int64_t>(buffer_pool_.evictions(kind))),
                 Value::Int(
                     static_cast<int64_t>(buffer_pool_.resident_pages(kind)))});
          }
          rows.push_back(
              {Value::String("total"),
               Value::Int(static_cast<int64_t>(buffer_pool_.accesses())),
               Value::Int(static_cast<int64_t>(buffer_pool_.faults())),
               Value::Int(static_cast<int64_t>(buffer_pool_.evictions())),
               Value::Int(static_cast<int64_t>(buffer_pool_.resident_pages()))});
          return rows;
        }));
  }
}

}  // namespace xnf
