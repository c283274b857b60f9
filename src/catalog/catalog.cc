#include "catalog/catalog.h"

#include <algorithm>

#include "common/metrics.h"
#include "common/str_util.h"
#include "storage/virtual_table.h"

namespace xnf {

namespace {

constexpr char kSystemPrefix[] = "sqlxnf_";

}  // namespace

Index* TableInfo::FindIndexOn(const std::vector<size_t>& columns) const {
  for (const auto& idx : indexes) {
    if (idx->key_columns() == columns) return idx.get();
  }
  return nullptr;
}

bool Catalog::IsReservedName(const std::string& name) {
  std::string key = ToLower(name);
  return key.compare(0, sizeof(kSystemPrefix) - 1, kSystemPrefix) == 0;
}

Status Catalog::CreateTable(const std::string& name, Schema schema,
                            std::optional<StorageKind> storage,
                            const std::string& cluster_by) {
  return CreateTableWithFileId(name, std::move(schema),
                               storage.value_or(default_storage_), cluster_by,
                               next_file_id_);
}

Status Catalog::CreateTableForRecovery(const std::string& name, Schema schema,
                                       StorageKind storage,
                                       const std::string& cluster_by,
                                       uint32_t file_id) {
  return CreateTableWithFileId(name, std::move(schema), storage, cluster_by,
                               file_id);
}

Status Catalog::CreateTableWithFileId(const std::string& name, Schema schema,
                                      StorageKind kind,
                                      const std::string& cluster_by,
                                      uint32_t file_id) {
  std::string key = ToLower(name);
  if (IsReservedName(key)) {
    return Status::InvalidArgument(
        "the 'sqlxnf_' name prefix is reserved for system views");
  }
  if (NameExists(key)) {
    return Status::AlreadyExists("object '" + name + "' already exists");
  }
  auto info = std::make_unique<TableInfo>();
  info->name = key;
  info->schema = schema.WithQualifier(key);
  int cluster_column = -1;
  if (!cluster_by.empty()) {
    if (kind != StorageKind::kColumn) {
      return Status::InvalidArgument(
          "CLUSTER BY requires columnar storage (USING column)");
    }
    std::optional<size_t> idx = info->schema.Find(cluster_by);
    if (!idx.has_value()) {
      return Status::InvalidArgument("CLUSTER BY column '" + cluster_by +
                                     "' is not a column of '" + name + "'");
    }
    cluster_column = static_cast<int>(*idx);
  }
  if (kind == StorageKind::kColumn) {
    ColumnStore::Options opts;
    opts.rows_per_group = layout_.rows_per_group;
    opts.buffer_pool = buffer_pool_;
    opts.file_id = file_id;
    opts.metrics = metrics_;
    opts.cluster_column = cluster_column;
    info->storage = std::make_unique<ColumnStore>(info->schema, opts);
  } else {
    TableHeap::Options opts;
    opts.tuples_per_page = layout_.tuples_per_page;
    opts.buffer_pool = buffer_pool_;
    opts.file_id = file_id;
    opts.metrics = metrics_;
    info->storage = std::make_unique<TableHeap>(opts);
  }
  if (file_id >= next_file_id_) next_file_id_ = file_id + 1;
  // Primary keys get an implicit unique hash index.
  if (auto pk = info->schema.PrimaryKeyIndex(); pk.has_value()) {
    info->indexes.push_back(std::make_unique<HashIndex>(
        key + "_pk", std::vector<size_t>{*pk}, /*unique=*/true));
  }
  tables_.emplace(key, std::move(info));
  BumpVersion();
  return Status::Ok();
}

Status Catalog::DropTable(const std::string& name) {
  std::string key = ToLower(name);
  if (IsReservedName(key)) {
    return Status::InvalidArgument("system view '" + name +
                                   "' cannot be dropped");
  }
  if (tables_.erase(key) == 0) {
    return Status::NotFound("table '" + name + "' not found");
  }
  BumpVersion();
  return Status::Ok();
}

TableInfo* Catalog::GetTable(const std::string& name) const {
  std::string key = ToLower(name);
  auto it = tables_.find(key);
  if (it != tables_.end()) return it->second.get();
  return GetSystemView(key);
}

Status Catalog::CreateIndex(const std::string& index_name,
                            const std::string& table_name,
                            const std::vector<std::string>& column_names,
                            bool unique, Index::Kind kind) {
  if (IsReservedName(index_name)) {
    return Status::InvalidArgument(
        "the 'sqlxnf_' name prefix is reserved for system views");
  }
  TableInfo* table = GetTable(table_name);
  if (table == nullptr) {
    return Status::NotFound("table '" + table_name + "' not found");
  }
  if (table->is_system) {
    return Status::InvalidArgument("cannot create an index on system view '" +
                                   table_name + "'");
  }
  for (const auto& idx : table->indexes) {
    if (EqualsIgnoreCase(idx->name(), index_name)) {
      return Status::AlreadyExists("index '" + index_name +
                                   "' already exists");
    }
  }
  std::vector<size_t> cols;
  for (const std::string& c : column_names) {
    XNF_ASSIGN_OR_RETURN(size_t i, table->schema.Resolve("", c));
    cols.push_back(i);
  }
  std::unique_ptr<Index> index;
  if (kind == Index::Kind::kHash) {
    index = std::make_unique<HashIndex>(ToLower(index_name), cols, unique);
  } else {
    index = std::make_unique<OrderedIndex>(ToLower(index_name), cols, unique);
  }
  // Backfill from existing data. A failed backfill (unique violation,
  // injected fault) discards the half-built index entirely — it was never
  // published in table->indexes.
  Status backfill = Status::Ok();
  XNF_RETURN_IF_ERROR(table->storage->Scan([&](Rid rid, const Row& row) {
    backfill = index->Insert(row, rid);
    return backfill.ok();
  }));
  XNF_RETURN_IF_ERROR(backfill);
  table->indexes.push_back(std::move(index));
  BumpVersion();
  return Status::Ok();
}

Status Catalog::CreateView(const std::string& name, std::string definition,
                           bool is_xnf) {
  std::string key = ToLower(name);
  if (IsReservedName(key)) {
    return Status::InvalidArgument(
        "the 'sqlxnf_' name prefix is reserved for system views");
  }
  if (NameExists(key)) {
    return Status::AlreadyExists("object '" + name + "' already exists");
  }
  views_.emplace(key, ViewInfo{key, std::move(definition), is_xnf});
  BumpVersion();
  return Status::Ok();
}

Status Catalog::DropView(const std::string& name) {
  if (IsReservedName(name)) {
    return Status::InvalidArgument("system view '" + name +
                                   "' cannot be dropped");
  }
  if (views_.erase(ToLower(name)) == 0) {
    return Status::NotFound("view '" + name + "' not found");
  }
  BumpVersion();
  return Status::Ok();
}

const ViewInfo* Catalog::GetView(const std::string& name) const {
  auto it = views_.find(ToLower(name));
  return it == views_.end() ? nullptr : &it->second;
}

bool Catalog::NameExists(const std::string& name) const {
  std::string key = ToLower(name);
  if (tables_.count(key) > 0 || views_.count(key) > 0) return true;
  std::lock_guard<std::mutex> lock(system_mu_);
  return system_views_.count(key) > 0;
}

Status Catalog::RegisterSystemView(const std::string& name, Schema schema,
                                   SystemViewFill fill) {
  std::string key = ToLower(name);
  if (!IsReservedName(key)) {
    return Status::InvalidArgument(
        "system view names must carry the 'sqlxnf_' prefix");
  }
  std::lock_guard<std::mutex> lock(system_mu_);
  if (system_views_.count(key) > 0) {
    return Status::AlreadyExists("system view '" + name +
                                 "' already registered");
  }
  auto info = std::make_unique<TableInfo>();
  info->name = key;
  info->schema = schema.WithQualifier(key);
  info->is_system = true;
  SystemView& view = system_views_[key];
  view.info = std::move(info);
  view.fill = std::move(fill);
  return Status::Ok();
}

std::vector<std::string> Catalog::SystemViewNames() const {
  std::lock_guard<std::mutex> lock(system_mu_);
  std::vector<std::string> out;
  out.reserve(system_views_.size());
  for (const auto& [k, v] : system_views_) out.push_back(k);
  return out;  // std::map iterates sorted
}

TableInfo* Catalog::GetSystemView(const std::string& lower_name) const {
  std::lock_guard<std::mutex> lock(system_mu_);
  auto it = system_views_.find(lower_name);
  if (it == system_views_.end()) return nullptr;
  SystemView& view = it->second;
  if (view.filled_epoch != epoch_) {
    // Re-snapshot once per statement epoch: every resolution of this view
    // within one statement — including self-joins — sees the same rows.
    view.info->storage =
        std::make_unique<VirtualTable>(view.fill(), layout_.tuples_per_page);
    view.filled_epoch = epoch_;
  }
  return view.info.get();
}

std::vector<std::string> Catalog::TableNames() const {
  std::vector<std::string> out;
  out.reserve(tables_.size());
  for (const auto& [k, v] : tables_) out.push_back(k);
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::string> Catalog::ViewNames() const {
  std::vector<std::string> out;
  out.reserve(views_.size());
  for (const auto& [k, v] : views_) out.push_back(k);
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace xnf
