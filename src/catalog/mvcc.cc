#include "catalog/mvcc.h"

#include <algorithm>
#include <map>

#include "storage/index.h"

namespace xnf {

TransactionManager::Transaction* TransactionManager::Begin(bool ephemeral) {
  auto txn = std::make_unique<Transaction>();
  txn->id = next_id_++;
  txn->snapshot = epoch_;
  txn->ephemeral = ephemeral;
  Transaction* raw = txn.get();
  active_.push_back(std::move(txn));
  ++stats_.txns_started;
  return raw;
}

void TransactionManager::Commit(Transaction* txn, uint64_t epoch) {
  // Harvest pre-images only if some other transaction still holds a
  // snapshot older than this commit — otherwise the delta would be
  // garbage-collected immediately, so never create it (the single-session
  // fast path: commit is O(1) beyond the write-set walk).
  const bool others = active_.size() > 1;
  if (others && txn->undo != nullptr && !txn->undo->entries().empty()) {
    // First entry per rid wins: a transaction that writes a rid twice
    // recorded the pre-world image first.
    std::unordered_map<std::string, std::unordered_set<Rid, RidHash>> seen;
    for (const UndoLog::Entry& e : txn->undo->entries()) {
      if (!seen[e.table].insert(e.rid).second) continue;
      std::vector<Delta>& deltas = committed_deltas_[e.table];
      deltas.push_back(Delta{epoch, e.kind, e.rid, e.old_row});
      ++stats_.versions_harvested;
    }
  }
  if (others) {
    for (const auto& [table, rids] : txn->writes) {
      auto& writes = committed_writes_[table];
      for (Rid rid : rids) writes[rid] = epoch;
    }
  }
  epoch_ = epoch;
  ++stats_.txns_committed;
  if (current_ == txn) current_ = nullptr;
  active_.erase(std::find_if(active_.begin(), active_.end(),
                             [&](const auto& t) { return t.get() == txn; }));
  Gc();
}

void TransactionManager::Rollback(Transaction* txn) {
  ++stats_.txns_rolled_back;
  if (current_ == txn) current_ = nullptr;
  active_.erase(std::find_if(active_.begin(), active_.end(),
                             [&](const auto& t) { return t.get() == txn; }));
  Gc();
}

void TransactionManager::OnStatementAbort(Transaction* txn) {
  txn->writes.clear();
  txn->touched.clear();
  if (txn->undo == nullptr) return;
  for (const UndoLog::Entry& e : txn->undo->entries()) {
    txn->touched.insert(e.table);
    if (e.kind != UndoLog::Entry::Kind::kInsert) {
      txn->writes[e.table].insert(e.rid);
    }
  }
}

Status TransactionManager::CheckWrite(const std::string& table, Rid rid) {
  for (const auto& t : active_) {
    if (t.get() == current_) continue;
    auto it = t->writes.find(table);
    if (it != t->writes.end() && it->second.count(rid) != 0) {
      ++stats_.conflicts;
      return Status::Serialization(
          "write-write conflict on '" + table +
          "': row is written by a concurrent transaction");
    }
  }
  if (current_ != nullptr) {
    auto tw = committed_writes_.find(table);
    if (tw != committed_writes_.end()) {
      auto it = tw->second.find(rid);
      if (it != tw->second.end() && it->second > current_->snapshot) {
        ++stats_.conflicts;
        return Status::Serialization(
            "write-write conflict on '" + table +
            "': row was changed by a transaction committed after this "
            "snapshot");
      }
    }
  }
  return Status::Ok();
}

void TransactionManager::OnWrite(UndoLog::Entry::Kind kind,
                                 const std::string& table, Rid rid) {
  if (current_ == nullptr) return;
  current_->touched.insert(table);
  if (kind != UndoLog::Entry::Kind::kInsert) {
    current_->writes[table].insert(rid);
  }
}

bool TransactionManager::PhysicalReadsSafe(const std::string& table) const {
  for (const auto& t : active_) {
    if (t.get() == current_) continue;
    if (t->touched.count(table) != 0) return false;
  }
  auto it = committed_deltas_.find(table);
  if (it != committed_deltas_.end() && !it->second.empty() &&
      it->second.back().epoch > view_snapshot()) {
    return false;
  }
  return true;
}

TransactionManager::Overlay TransactionManager::BuildOverlay(
    const std::string& table) const {
  Overlay overlay;
  if (PhysicalReadsSafe(table)) return overlay;
  // Every pre-image the snapshot may need, highest precedence first:
  // committed deltas newer than the snapshot, oldest first (the oldest
  // relevant one is the visible image), then other in-flight transactions'
  // undo entries in log order (a transaction's first write of a rid
  // recorded its pre-image; rids never collide across in-flight
  // transactions, first-updater-wins). Null: absent before that write.
  std::vector<std::pair<Rid, const Row*>> images;
  auto add = [&](UndoLog::Entry::Kind kind, Rid rid, const Row& old_row) {
    images.emplace_back(
        rid, kind == UndoLog::Entry::Kind::kInsert ? nullptr : &old_row);
  };
  const uint64_t snapshot = view_snapshot();
  if (auto it = committed_deltas_.find(table); it != committed_deltas_.end()) {
    for (const Delta& d : it->second) {
      if (d.epoch > snapshot) add(d.kind, d.rid, d.old_row);
    }
  }
  for (const auto& t : active_) {
    if (t.get() == current_ || t->undo == nullptr) continue;
    for (const UndoLog::Entry& e : t->undo->entries()) {
      if (e.table == table) add(e.kind, e.rid, e.old_row);
    }
  }
  std::stable_sort(
      images.begin(), images.end(),
      [](const auto& a, const auto& b) { return a.first < b.first; });
  for (const auto& [rid, img] : images) {
    if (!overlay.entries.empty() && overlay.entries.back().first == rid) {
      continue;  // a higher-precedence image of this rid is already in
    }
    overlay.entries.emplace_back(
        rid, img != nullptr ? std::optional<Row>(*img) : std::nullopt);
  }
  return overlay;
}

const std::optional<Row>* TransactionManager::Overlay::Find(Rid rid) const {
  auto it = std::lower_bound(
      entries.begin(), entries.end(), rid,
      [](const auto& e, const Rid& r) { return e.first < r; });
  return it != entries.end() && it->first == rid ? &it->second : nullptr;
}

namespace {

// Merge core of VisibleScanRange: physical rows from `scan` interleaved
// with overlay entries in [lo, hi) by rid order.
Status MergeScan(
    const std::function<Status(const std::function<bool(Rid, const Row&)>&)>&
        scan,
    const std::vector<std::pair<Rid, std::optional<Row>>>& entries,
    size_t lo, size_t hi, const std::function<bool(Rid, const Row&)>& fn) {
  size_t idx = lo;
  bool stopped = false;
  Status st = scan([&](Rid rid, const Row& row) {
    // Inject overlay rows the physical scan skipped (visible at the
    // snapshot but deleted / absent now).
    while (idx < hi && entries[idx].first < rid) {
      if (entries[idx].second.has_value()) {
        if (!fn(entries[idx].first, *entries[idx].second)) {
          stopped = true;
          ++idx;
          return false;
        }
      }
      ++idx;
    }
    if (idx < hi && entries[idx].first == rid) {
      const std::optional<Row>& img = entries[idx].second;
      ++idx;
      if (!img.has_value()) return true;  // not yet visible: skip
      if (!fn(rid, *img)) {
        stopped = true;
        return false;
      }
      return true;
    }
    if (!fn(rid, row)) {
      stopped = true;
      return false;
    }
    return true;
  });
  XNF_RETURN_IF_ERROR(st);
  if (stopped) return Status::Ok();
  for (; idx < hi; ++idx) {
    if (entries[idx].second.has_value()) {
      if (!fn(entries[idx].first, *entries[idx].second)) break;
    }
  }
  return Status::Ok();
}

}  // namespace

Status TransactionManager::VisibleScanRange(
    const TableStorage& storage, const Overlay& overlay, uint32_t page_begin,
    uint32_t page_end, const std::function<bool(Rid, const Row&)>& fn) {
  if (overlay.empty()) return storage.ScanRange(page_begin, page_end, fn);
  const auto& entries = overlay.entries;
  auto lo = std::lower_bound(
      entries.begin(), entries.end(), Rid{page_begin, 0},
      [](const auto& e, const Rid& r) { return e.first < r; });
  auto hi = std::lower_bound(
      entries.begin(), entries.end(), Rid{page_end, 0},
      [](const auto& e, const Rid& r) { return e.first < r; });
  return MergeScan(
      [&](const std::function<bool(Rid, const Row&)>& cb) {
        return storage.ScanRange(page_begin, page_end, cb);
      },
      entries, static_cast<size_t>(lo - entries.begin()),
      static_cast<size_t>(hi - entries.begin()), fn);
}

Status TransactionManager::OnDropTable(const std::string& table) {
  for (const auto& t : active_) {
    if (t.get() == current_) continue;
    if (t->touched.count(table) != 0) {
      return Status::Serialization(
          "cannot drop '" + table +
          "': an open transaction has uncommitted changes on it");
    }
  }
  size_t dropped = 0;
  auto it = committed_deltas_.find(table);
  if (it != committed_deltas_.end()) {
    dropped += it->second.size();
    committed_deltas_.erase(it);
  }
  committed_writes_.erase(table);
  stats_.versions_gced += dropped;
  return Status::Ok();
}

bool TransactionManager::OtherTransactionTouched(
    const std::string& table) const {
  for (const auto& t : active_) {
    if (t.get() == current_) continue;
    if (t->touched.count(table) != 0) return true;
  }
  return false;
}

void TransactionManager::Gc() {
  const uint64_t horizon = oldest_snapshot();
  for (auto it = committed_deltas_.begin(); it != committed_deltas_.end();) {
    std::vector<Delta>& deltas = it->second;
    // Ascending epochs: drop the prefix no live snapshot predates.
    size_t keep = 0;
    while (keep < deltas.size() && deltas[keep].epoch <= horizon) ++keep;
    if (keep > 0) {
      stats_.versions_gced += keep;
      deltas.erase(deltas.begin(), deltas.begin() + keep);
    }
    it = deltas.empty() ? committed_deltas_.erase(it) : ++it;
  }
  for (auto it = committed_writes_.begin(); it != committed_writes_.end();) {
    auto& writes = it->second;
    for (auto w = writes.begin(); w != writes.end();) {
      w = w->second <= horizon ? writes.erase(w) : ++w;
    }
    it = writes.empty() ? committed_writes_.erase(it) : ++it;
  }
}

uint64_t TransactionManager::oldest_snapshot() const {
  uint64_t oldest = epoch_;
  for (const auto& t : active_) {
    oldest = std::min(oldest, t->snapshot);
  }
  return oldest;
}

size_t TransactionManager::versions_retained() const {
  size_t n = 0;
  for (const auto& [_, deltas] : committed_deltas_) n += deltas.size();
  return n;
}

TransactionManager::Overlay OverlayFor(const TransactionManager* mgr,
                                       const TableInfo& table) {
  return mgr != nullptr ? mgr->BuildOverlay(table.name)
                        : TransactionManager::Overlay{};
}

Result<Row> ReadVisible(const TransactionManager* mgr, const TableInfo& table,
                        Rid rid) {
  const TransactionManager::Overlay overlay = OverlayFor(mgr, table);
  const std::optional<Row>* img = overlay.Find(rid);
  if (img == nullptr) return table.storage->Read(rid);
  if (!img->has_value()) {
    return Status::NotFound("row is not visible at this snapshot");
  }
  return **img;
}

Status LookupVisible(const TableInfo& table, const Index& index,
                     const TransactionManager::Overlay& overlay,
                     const Row& key,
                     const std::function<bool(Rid, const Row&)>& fn) {
  std::vector<Rid> hits = index.Lookup(key);
  if (overlay.empty()) return table.storage->ReadRids(hits, fn);
  for (const Value& v : key) {
    if (v.is_null()) return Status::Ok();
  }
  // The overlay decides every rid it covers: read only the uncovered hits,
  // add the covered rows' visible images that match, emit by rid.
  std::erase_if(hits, [&](Rid rid) { return overlay.Find(rid) != nullptr; });
  std::map<Rid, Row> visible;
  XNF_RETURN_IF_ERROR(
      table.storage->ReadRids(hits, [&](Rid rid, const Row& row) {
        visible.emplace(rid, row);
        return true;
      }));
  for (const auto& [rid, img] : overlay.entries) {
    if (img.has_value() && RowsEqual(index.ExtractKey(*img), key)) {
      visible.emplace(rid, *img);
    }
  }
  for (const auto& [rid, row] : visible) {
    if (!fn(rid, row)) break;
  }
  return Status::Ok();
}

}  // namespace xnf
