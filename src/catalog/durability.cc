#include "catalog/durability.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <sstream>
#include <unordered_map>

#include "catalog/catalog.h"
#include "common/failpoint.h"
#include "common/serde.h"
#include "storage/index.h"

namespace xnf {
namespace {

constexpr char kManifestHeader[] = "sqlxnf-manifest-v1";
// A page file smaller than this never triggers compaction, whatever the
// growth ratio — rewriting a few KB buys nothing.
constexpr uint64_t kCompactFloorBytes = 64 * 1024;

Status IoError(const std::string& what, const std::string& path) {
  return Status::Internal("durability: " + what + " '" + path +
                          "': " + std::strerror(errno));
}

Status WriteFully(int fd, const std::string& data, const std::string& path) {
  size_t off = 0;
  while (off < data.size()) {
    ssize_t n = ::write(fd, data.data() + off, data.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return IoError("write", path);
    }
    off += static_cast<size_t>(n);
  }
  return Status::Ok();
}

// XNF_FAILPOINT returns from its enclosing function, which would skip the
// checkpoint's cleanup; funneling through a helper turns it into a Status.
Status FirePoint(const char* site) {
  XNF_FAILPOINT(site);
  return Status::Ok();
}

}  // namespace

DurableStore::DurableStore(std::string data_dir, Catalog* catalog,
                           const Options& options)
    : data_dir_(std::move(data_dir)), catalog_(catalog), options_(options) {
  if (options_.metrics != nullptr) {
    checkpoints_ = options_.metrics->counter("checkpoint.count");
    checkpoint_failures_ = options_.metrics->counter("checkpoint.failures");
    compactions_ = options_.metrics->counter("checkpoint.compactions");
  }
}

Result<std::unique_ptr<DurableStore>> DurableStore::Open(
    const std::string& data_dir, Catalog* catalog, const Options& options,
    std::vector<Wal::Record>* wal_records, RecoveryInfo* info) {
  // Recovery must reconstruct the pre-crash state deterministically, so no
  // fault schedule may perturb it (same contract as undo).
  Failpoints::Suppressor suppress;
  RecoveryInfo local;

  if (::mkdir(data_dir.c_str(), 0755) != 0 && errno != EEXIST) {
    return IoError("mkdir", data_dir);
  }
  std::unique_ptr<DurableStore> store(
      new DurableStore(data_dir, catalog, options));

  bool found = false;
  XNF_RETURN_IF_ERROR(store->ReadManifest(&found));
  if (!found) {
    local.created = true;
    XNF_RETURN_IF_ERROR(store->InitFresh());
  } else {
    // Checkpointed units are restored at the size they were written with,
    // and replay re-derives the rid of every logged insert from it, so the
    // data dir's layout wins over the opener's. A manifest that records
    // none predates the split of row groups from heap pages, when a group
    // held one page's rows.
    StorageLayout layout = store->layout_;
    if (layout.tuples_per_page == 0) {
      layout.tuples_per_page = catalog->layout().tuples_per_page;
      layout.rows_per_group = layout.tuples_per_page;
    }
    catalog->set_layout(layout);
    XNF_ASSIGN_OR_RETURN(
        PageFile::UnitMap units,
        PageFile::Load(store->PathOf(store->pages_name_),
                       store->pages_valid_));
    std::vector<PendingIndex> pending;
    auto meta = units.find({0, 0});
    if (meta != units.end()) {
      XNF_RETURN_IF_ERROR(
          store->RestoreCatalogMeta(meta->second.bytes, &pending));
    } else if (!units.empty()) {
      return Status::Internal(
          "durability: page file has units but no catalog meta page");
    }
    std::unordered_map<uint32_t, TableStorage*> by_file;
    for (const std::string& name : catalog->TableNames()) {
      TableStorage* storage = catalog->GetTable(name)->storage.get();
      by_file[storage->file_id()] = storage;
    }
    for (const auto& [key, unit] : units) {
      if (key.first == 0) continue;  // catalog meta, handled above
      auto it = by_file.find(key.first);
      // Units whose table is gone (dropped before the checkpoint, entry
      // superseded but not yet compacted away) are skipped, not errors.
      if (it == by_file.end()) continue;
      serde::Reader reader(unit.bytes);
      XNF_RETURN_IF_ERROR(it->second->RestoreUnit(key.second, &reader));
      ++local.units_restored;
    }
    for (const std::string& name : catalog->TableNames()) {
      TableInfo* table = catalog->GetTable(name);
      table->storage->FinalizeRestore();
      // Only the implicit PK index exists at this point (created empty by
      // CreateTableForRecovery); rebuild it from the restored rows.
      for (auto& index : table->indexes) {
        Status backfill = Status::Ok();
        XNF_RETURN_IF_ERROR(
            table->storage->Scan([&](Rid rid, const Row& row) {
              backfill = index->Insert(row, rid);
              return backfill.ok();
            }));
        XNF_RETURN_IF_ERROR(backfill);
      }
      ++local.tables_restored;
    }
    // Secondary indexes last: CreateIndex backfills from the data itself.
    for (const PendingIndex& pi : pending) {
      XNF_RETURN_IF_ERROR(catalog->CreateIndex(
          pi.name, pi.table, pi.columns, pi.unique,
          pi.kind == 0 ? Index::Kind::kHash : Index::Kind::kOrdered));
    }
  }

  XNF_ASSIGN_OR_RETURN(store->pages_,
                       PageFile::Open(store->PathOf(store->pages_name_),
                                      store->pages_valid_, options.metrics));
  // The restored prefix is the compaction baseline; without this a long
  // recovered history would trigger a rewrite on the first checkpoint even
  // if the file is mostly live data.
  store->last_rewrite_bytes_ = store->pages_valid_;

  bool torn = false;
  uint64_t wal_valid = 0;
  std::string wal_path = store->PathOf(store->wal_name_);
  XNF_ASSIGN_OR_RETURN(std::vector<Wal::Record> records,
                       Wal::Load(wal_path, &torn, &wal_valid));
  if (torn) {
    // Drop the torn tail before appends resume, or a future Load would stop
    // at the garbage and never reach the new records.
    if (::truncate(wal_path.c_str(), static_cast<off_t>(wal_valid)) != 0) {
      return IoError("truncate", wal_path);
    }
  }
  Wal::Options wal_opts;
  wal_opts.fsync = options.wal_fsync;
  wal_opts.metrics = options.metrics;
  XNF_ASSIGN_OR_RETURN(store->wal_, Wal::Open(wal_path, wal_opts));
  uint64_t max_seq = 0;
  for (const Wal::Record& r : records) max_seq = std::max(max_seq, r.stmt_seq);
  if (!records.empty()) store->wal_->set_next_seq(max_seq + 1);

  local.torn_wal_tail = torn;
  local.wal_records = records.size();
  local.mvcc_epoch = store->recovered_epoch_;
  if (wal_records != nullptr) *wal_records = std::move(records);
  if (info != nullptr) *info = local;
  return store;
}

Status DurableStore::Checkpoint() {
  Status st = DoCheckpoint();
  if (!st.ok()) CounterAdd(checkpoint_failures_);
  return st;
}

Status DurableStore::DoCheckpoint() {
  XNF_RETURN_IF_ERROR(FirePoint("checkpoint.begin"));

  const bool compact =
      pages_->size() >
      4 * std::max<uint64_t>(last_rewrite_bytes_, kCompactFloorBytes);

  uint64_t seq = next_file_seq_;
  const std::string new_wal_name = "wal-" + std::to_string(seq++);
  const std::string new_pages_name =
      compact ? "pages-" + std::to_string(seq++) : pages_name_;

  // Compaction rewrites every live unit into a fresh file; otherwise the
  // dirty units are appended to the live one.
  std::unique_ptr<PageFile> rewrite;
  PageFile* target = pages_.get();
  if (compact) {
    auto opened =
        PageFile::Open(PathOf(new_pages_name), 0, options_.metrics);
    if (!opened.ok()) return opened.status();
    rewrite = std::move(*opened);
    target = rewrite.get();
  }

  // Any failure below un-publishes the attempt: the manifest still names
  // the old prefix, so the next checkpoint (or recovery) starts clean.
  auto fail = [&](Status st) {
    Failpoints::Suppressor cleanup;
    if (compact) {
      rewrite.reset();
      ::unlink(PathOf(new_pages_name).c_str());
    } else {
      (void)pages_->TruncateTo(pages_valid_);
    }
    ::unlink(PathOf(new_wal_name).c_str());
    return st;
  };

  Status st =
      target->Append(0, 0, PageFile::kKindCatalog, SerializeCatalogMeta());
  if (!st.ok()) return fail(st);
  for (const std::string& name : catalog_->TableNames()) {
    TableStorage* storage = catalog_->GetTable(name)->storage.get();
    std::vector<uint32_t> units;
    if (compact) {
      units.resize(storage->page_count());
      for (uint32_t u = 0; u < units.size(); ++u) units[u] = u;
    } else {
      units = storage->DirtyUnits();
    }
    const uint8_t kind = storage->kind() == StorageKind::kColumn
                             ? PageFile::kKindColumnGroup
                             : PageFile::kKindHeapPage;
    for (uint32_t u : units) {
      std::string body;
      st = storage->SerializeUnit(u, &body);
      if (st.ok()) st = target->Append(storage->file_id(), u, kind, body);
      if (!st.ok()) return fail(st);
    }
  }
  st = FirePoint("checkpoint.sync");
  if (st.ok()) st = target->Sync();
  if (!st.ok()) return fail(st);

  // Fresh WAL for the post-checkpoint era. A stale file of the same name
  // (crash between a previous attempt's create and its manifest) must not
  // leak old records into it.
  ::unlink(PathOf(new_wal_name).c_str());
  Wal::Options wal_opts;
  wal_opts.fsync = options_.wal_fsync;
  wal_opts.metrics = options_.metrics;
  auto new_wal = Wal::Open(PathOf(new_wal_name), wal_opts);
  if (!new_wal.ok()) return fail(new_wal.status());

  st = WriteManifest(new_pages_name, target->size(), new_wal_name, seq);
  if (!st.ok()) return fail(st);

  // Published. Everything from here is bookkeeping on the new era; the old
  // WAL (and page file, if compacted) are garbage.
  {
    Failpoints::Suppressor cleanup;
    if (wal_name_ != new_wal_name) ::unlink(PathOf(wal_name_).c_str());
    if (compact) {
      std::string old_pages = PathOf(pages_name_);
      pages_ = std::move(rewrite);
      ::unlink(old_pages.c_str());
      last_rewrite_bytes_ = pages_->size();
      CounterAdd(compactions_);
    }
    pages_name_ = new_pages_name;
    pages_valid_ = pages_->size();
    wal_name_ = new_wal_name;
    next_file_seq_ = seq;
    wal_ = std::move(*new_wal);
    // Re-attaching also clears any poisoning: the snapshot captured the
    // exact in-memory state, so the fresh log agrees with it.
    catalog_->set_wal(wal_.get());
    for (const std::string& name : catalog_->TableNames()) {
      catalog_->GetTable(name)->storage->ClearDirtyUnits();
    }
    if (catalog_->buffer_pool() != nullptr) {
      catalog_->buffer_pool()->ClearDirty();
    }
  }
  CounterAdd(checkpoints_);
  return Status::Ok();
}

std::string DurableStore::SerializeCatalogMeta() const {
  std::string out;
  serde::PutU32(&out, catalog_->next_file_id());

  std::vector<std::string> tables = catalog_->TableNames();
  serde::PutU32(&out, static_cast<uint32_t>(tables.size()));
  for (const std::string& name : tables) {
    const TableInfo* table = catalog_->GetTable(name);
    const TableStorage* storage = table->storage.get();
    serde::PutString(&out, name);
    serde::PutU8(&out,
                 storage->kind() == StorageKind::kColumn ? 1 : 0);
    std::string cluster_by;
    if (const ColumnStore* cs = storage->AsColumnStore();
        cs != nullptr && cs->cluster_column() >= 0) {
      cluster_by =
          table->schema.column(static_cast<size_t>(cs->cluster_column()))
              .name;
    }
    serde::PutString(&out, cluster_by);
    serde::PutU32(&out, storage->file_id());

    serde::PutU32(&out, static_cast<uint32_t>(table->schema.size()));
    for (size_t c = 0; c < table->schema.size(); ++c) {
      const Column& col = table->schema.column(c);
      serde::PutString(&out, col.name);
      serde::PutU8(&out, static_cast<uint8_t>(col.type));
      serde::PutU8(&out, col.not_null ? 1 : 0);
      serde::PutU8(&out, col.primary_key ? 1 : 0);
    }

    // Secondary indexes only — the implicit PK index is re-created (and
    // re-filled) from the schema's PRIMARY KEY flag.
    size_t first = table->schema.PrimaryKeyIndex().has_value() ? 1 : 0;
    serde::PutU32(&out,
                  static_cast<uint32_t>(table->indexes.size() - first));
    for (size_t i = first; i < table->indexes.size(); ++i) {
      const Index& index = *table->indexes[i];
      serde::PutString(&out, index.name());
      serde::PutU8(&out, index.kind() == Index::Kind::kHash ? 0 : 1);
      serde::PutU8(&out, index.unique() ? 1 : 0);
      serde::PutU32(&out,
                    static_cast<uint32_t>(index.key_columns().size()));
      for (size_t k : index.key_columns()) {
        serde::PutString(&out, table->schema.column(k).name);
      }
    }
  }

  std::vector<std::string> views = catalog_->ViewNames();
  serde::PutU32(&out, static_cast<uint32_t>(views.size()));
  for (const std::string& name : views) {
    const ViewInfo* view = catalog_->GetView(name);
    serde::PutString(&out, view->name);
    serde::PutString(&out, view->definition);
    serde::PutU8(&out, view->is_xnf ? 1 : 0);
  }
  // Trailing so pre-MVCC checkpoints (without the field) still restore.
  serde::PutU64(&out, epoch_source_ ? epoch_source_() : 0);
  return out;
}

Status DurableStore::RestoreCatalogMeta(const std::string& bytes,
                                        std::vector<PendingIndex>* pending) {
  serde::Reader r(bytes);
  uint32_t next_file_id = 0;
  XNF_RETURN_IF_ERROR(r.GetU32(&next_file_id));

  uint32_t ntables = 0;
  XNF_RETURN_IF_ERROR(r.GetU32(&ntables));
  for (uint32_t t = 0; t < ntables; ++t) {
    std::string name, cluster_by;
    uint8_t kind_byte = 0;
    uint32_t file_id = 0, ncols = 0;
    XNF_RETURN_IF_ERROR(r.GetString(&name));
    XNF_RETURN_IF_ERROR(r.GetU8(&kind_byte));
    XNF_RETURN_IF_ERROR(r.GetString(&cluster_by));
    XNF_RETURN_IF_ERROR(r.GetU32(&file_id));
    XNF_RETURN_IF_ERROR(r.GetU32(&ncols));
    Schema schema;
    for (uint32_t c = 0; c < ncols; ++c) {
      Column col;
      uint8_t type = 0, not_null = 0, pk = 0;
      XNF_RETURN_IF_ERROR(r.GetString(&col.name));
      XNF_RETURN_IF_ERROR(r.GetU8(&type));
      XNF_RETURN_IF_ERROR(r.GetU8(&not_null));
      XNF_RETURN_IF_ERROR(r.GetU8(&pk));
      col.type = static_cast<Type>(type);
      col.not_null = not_null != 0;
      col.primary_key = pk != 0;
      schema.AddColumn(std::move(col));
    }
    XNF_RETURN_IF_ERROR(catalog_->CreateTableForRecovery(
        name, std::move(schema),
        kind_byte == 1 ? StorageKind::kColumn : StorageKind::kRow,
        cluster_by, file_id));

    uint32_t nindexes = 0;
    XNF_RETURN_IF_ERROR(r.GetU32(&nindexes));
    for (uint32_t i = 0; i < nindexes; ++i) {
      PendingIndex pi;
      pi.table = name;
      uint8_t unique = 0;
      uint32_t nkeys = 0;
      XNF_RETURN_IF_ERROR(r.GetString(&pi.name));
      XNF_RETURN_IF_ERROR(r.GetU8(&pi.kind));
      XNF_RETURN_IF_ERROR(r.GetU8(&unique));
      XNF_RETURN_IF_ERROR(r.GetU32(&nkeys));
      pi.unique = unique != 0;
      pi.columns.resize(nkeys);
      for (uint32_t k = 0; k < nkeys; ++k) {
        XNF_RETURN_IF_ERROR(r.GetString(&pi.columns[k]));
      }
      pending->push_back(std::move(pi));
    }
  }

  uint32_t nviews = 0;
  XNF_RETURN_IF_ERROR(r.GetU32(&nviews));
  for (uint32_t v = 0; v < nviews; ++v) {
    std::string name, definition;
    uint8_t is_xnf = 0;
    XNF_RETURN_IF_ERROR(r.GetString(&name));
    XNF_RETURN_IF_ERROR(r.GetString(&definition));
    XNF_RETURN_IF_ERROR(r.GetU8(&is_xnf));
    XNF_RETURN_IF_ERROR(
        catalog_->CreateView(name, std::move(definition), is_xnf != 0));
  }

  // MVCC commit horizon at checkpoint time; absent from pre-MVCC
  // checkpoints, which read as horizon 0.
  if (r.remaining() >= 8) {
    XNF_RETURN_IF_ERROR(r.GetU64(&recovered_epoch_));
  }

  // Last: table creation above bumped the counter past every live id, but
  // the checkpointed value also accounts for dropped tables whose ids must
  // never be reused.
  catalog_->set_next_file_id(
      std::max(catalog_->next_file_id(), next_file_id));
  return Status::Ok();
}

Status DurableStore::WriteManifest(const std::string& pages_name,
                                   uint64_t pages_valid,
                                   const std::string& wal_name,
                                   uint64_t next_file_seq) {
  XNF_RETURN_IF_ERROR(FirePoint("checkpoint.manifest"));
  std::string content = std::string(kManifestHeader) + "\n" +
                        "pages " + pages_name + "\n" +
                        "pages_valid " + std::to_string(pages_valid) + "\n" +
                        "wal " + wal_name + "\n" +
                        "seq " + std::to_string(next_file_seq) + "\n" +
                        "tuples_per_page " +
                        std::to_string(catalog_->layout().tuples_per_page) +
                        "\n" + "rows_per_group " +
                        std::to_string(catalog_->layout().rows_per_group) +
                        "\n";
  std::string tmp = PathOf("MANIFEST.tmp");
  std::string final_path = PathOf("MANIFEST");
  int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return IoError("open", tmp);
  Status st = WriteFully(fd, content, tmp);
  if (st.ok() && ::fsync(fd) != 0) st = IoError("fsync", tmp);
  ::close(fd);
  if (!st.ok()) {
    ::unlink(tmp.c_str());
    return st;
  }
  if (::rename(tmp.c_str(), final_path.c_str()) != 0) {
    Status err = IoError("rename", final_path);
    ::unlink(tmp.c_str());
    return err;
  }
  // The rename must itself be durable before the new era's files are
  // trusted: fsync the directory.
  int dfd = ::open(data_dir_.c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd >= 0) {
    ::fsync(dfd);
    ::close(dfd);
  }
  return Status::Ok();
}

Status DurableStore::ReadManifest(bool* found) {
  *found = false;
  std::ifstream in(PathOf("MANIFEST"));
  if (!in) return Status::Ok();
  std::string header;
  if (!std::getline(in, header) || header != kManifestHeader) {
    return Status::Internal("durability: bad manifest header in '" +
                            PathOf("MANIFEST") + "'");
  }
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream fields(line);
    std::string key, value;
    fields >> key >> value;
    if (key == "pages") {
      pages_name_ = value;
    } else if (key == "pages_valid") {
      pages_valid_ = std::stoull(value);
    } else if (key == "wal") {
      wal_name_ = value;
    } else if (key == "seq") {
      next_file_seq_ = std::stoull(value);
    } else if (key == "tuples_per_page") {
      layout_.tuples_per_page = static_cast<uint32_t>(std::stoul(value));
    } else if (key == "rows_per_group") {
      layout_.rows_per_group = static_cast<uint32_t>(std::stoul(value));
    } else {
      return Status::Internal("durability: unknown manifest key '" + key +
                              "'");
    }
  }
  if (pages_name_.empty() || wal_name_.empty()) {
    return Status::Internal("durability: manifest misses pages/wal entries");
  }
  if ((layout_.tuples_per_page == 0) != (layout_.rows_per_group == 0)) {
    return Status::Internal(
        "durability: manifest records only part of the storage layout");
  }
  *found = true;
  return Status::Ok();
}

Status DurableStore::InitFresh() {
  pages_name_ = "pages-1";
  pages_valid_ = 0;
  wal_name_ = "wal-2";
  next_file_seq_ = 3;
  return WriteManifest(pages_name_, pages_valid_, wal_name_, next_file_seq_);
}

}  // namespace xnf
