#include "exec/operators.h"

#include <algorithm>
#include <functional>
#include <tuple>
#include <utility>

#include "catalog/mvcc.h"
#include "exec/parallel.h"

namespace xnf::exec {

Result<std::optional<Row>> Operator::Next() {
  if (carry_pos_ >= carry_.size()) {
    carry_.clear();
    carry_pos_ = 0;
    XNF_RETURN_IF_ERROR(NextBatch(&carry_));
    if (carry_.empty()) return std::optional<Row>();
  }
  return std::optional<Row>(std::move(carry_.rows[carry_pos_++]));
}

void Operator::ResetStats() {
  stats_ = OperatorStats{};
  std::vector<const Operator*> children;
  AppendChildren(&children);
  for (const Operator* child : children) {
    const_cast<Operator*>(child)->ResetStats();
  }
}

Result<ResultSet> RunPlan(Operator* root, ExecContext* ctx) {
  ResultSet out;
  out.schema = root->schema();
  const BufferPool* pool =
      ctx->catalog != nullptr ? ctx->catalog->buffer_pool() : nullptr;
  uint64_t faults_before = pool != nullptr ? pool->faults() : 0;
  uint64_t evictions_before = pool != nullptr ? pool->evictions() : 0;
  // The plan is closed on every path, including failed opens and drains:
  // operators holding resources (pins, build tables) release them, and the
  // per-operator close counter stays consistent with opens for EXPLAIN
  // ANALYZE of a failed statement.
  Status status = root->Open(ctx);
  if (status.ok()) {
    RowBatch batch;
    while (true) {
      status = root->NextBatch(&batch);
      if (!status.ok() || batch.empty()) break;
      out.stats.batches_produced++;
      out.stats.rows_produced += batch.size();
      out.rows.insert(out.rows.end(),
                      std::make_move_iterator(batch.rows.begin()),
                      std::make_move_iterator(batch.rows.end()));
    }
  }
  root->Close();
  XNF_RETURN_IF_ERROR(status);
  if (pool != nullptr) {
    out.stats.buffer_pool_faults = pool->faults() - faults_before;
    out.stats.buffer_pool_evictions = pool->evictions() - evictions_before;
  }
  out.stats.kernel_filters = ctx->scan_kernel_filters;
  out.stats.scan_filters = ctx->scan_pushed_filters;
  return out;
}

namespace {

// Evaluates subquery-free filters over `row`; true = keep. Scalar path for
// operators that assemble one candidate row at a time (join residuals).
Result<bool> PassesFilters(const std::vector<qgm::ExprPtr>& filters,
                           const Row& row, ExecContext* exec,
                           SubqueryEnv* env = nullptr) {
  EvalContext ectx;
  ectx.row = &row;
  ectx.exec = exec;
  ectx.subqueries = env;
  for (const qgm::ExprPtr& f : filters) {
    XNF_ASSIGN_OR_RETURN(bool ok, EvalPredicate(*f, &ectx));
    if (!ok) return false;
  }
  return true;
}

// Pointer view of a batch for the column-wise evaluators.
std::vector<const Row*> BatchPtrs(const RowBatch& batch) {
  std::vector<const Row*> ptrs;
  ptrs.reserve(batch.size());
  for (const Row& r : batch.rows) ptrs.push_back(&r);
  return ptrs;
}

// left ++ right with a single allocation.
Row ConcatRows(const Row& left, const Row& right) {
  Row out;
  out.reserve(left.size() + right.size());
  out.insert(out.end(), left.begin(), left.end());
  out.insert(out.end(), right.begin(), right.end());
  return out;
}

// Drains an already-open child into `out`.
Status DrainChild(Operator* child, std::vector<Row>* out) {
  RowBatch batch;
  while (true) {
    XNF_RETURN_IF_ERROR(child->NextBatch(&batch));
    if (batch.empty()) return Status::Ok();
    out->insert(out->end(), std::make_move_iterator(batch.rows.begin()),
                std::make_move_iterator(batch.rows.end()));
  }
}

// True iff every expression is a planner-resolved input reference with a
// slot inside [0, width) — the shape readable straight off column views.
bool SimpleSlots(const std::vector<qgm::ExprPtr>& exprs, size_t width,
                 std::vector<size_t>* slots) {
  slots->clear();
  slots->reserve(exprs.size());
  for (const qgm::ExprPtr& e : exprs) {
    if (e == nullptr || e->kind != qgm::Expr::Kind::kInputRef) return false;
    if (e->slot < 0 || static_cast<size_t>(e->slot) >= width) return false;
    slots->push_back(static_cast<size_t>(e->slot));
  }
  return true;
}

// True iff every slot is marked in the late scan's materialize bitmap. An
// unmarked column is a NULL placeholder in the scan's row output, so a
// consumer reading the real value from the view would diverge from the row
// engine; such plans fall back to pulling rows.
bool SlotsMaterialized(const std::vector<size_t>& slots, const LateScan& scan) {
  for (size_t s : slots) {
    if (s >= scan.materialize.size() || !scan.materialize[s]) return false;
  }
  return true;
}

}  // namespace

// --- ValuesOp ---------------------------------------------------------------

Status ValuesOp::OpenImpl(ExecContext*) {
  pos_ = 0;
  return Status::Ok();
}

Status ValuesOp::NextBatchImpl(RowBatch* out) {
  out->clear();
  const std::vector<Row>& rows = ext_ != nullptr ? ext_->rows : rows_;
  size_t end = std::min(rows.size(), pos_ + kBatchSize);
  out->rows.reserve(end - pos_);
  // Copies: the source rows are permanent (re-emitted on every run).
  for (; pos_ < end; ++pos_) out->rows.push_back(rows[pos_]);
  return Status::Ok();
}

// --- SeqScanOp --------------------------------------------------------------

Status SeqScanOp::OpenImpl(ExecContext* ctx) {
  ctx_ = ctx;
  buffered_.clear();
  pos_ = 0;
  // Re-open without an intervening Close (correlated subplans): fold the
  // previous execution's decode counts before the batches (and their pins)
  // are dropped.
  FlushLateStats();
  late_ = LateScan{};
  late_batch_ = 0;
  late_slot_ = 0;
  TableInfo* table = ctx->catalog->GetTable(table_name_);
  if (table == nullptr) {
    return Status::NotFound("table '" + table_name_ + "' vanished");
  }
  if (late_requested_) {
    // A batch-capable consumer asked for column batches. Taken only when
    // every pushed filter kernelized; otherwise fall through to FindRows
    // (the consumer pulls rows instead).
    ScanStats scan_stats;
    XNF_RETURN_IF_ERROR(TryLateFilterScan(
        *table, access_.filters,
        referenced_.has_value() ? &*referenced_ : nullptr, ctx, &late_,
        &scan_stats));
    if (late_.store != nullptr) {
      RecordDop(scan_stats.dop);
      RecordKernels(scan_stats.kernel_filters, scan_stats.total_filters);
      RecordLate();
      RecordCluster(scan_stats.groups_pruned, scan_stats.groups_total);
      ctx->scan_kernel_filters += scan_stats.kernel_filters;
      ctx->scan_pushed_filters += access_.filters.size();
      return Status::Ok();
    }
  }
  // Output order is page order at any DOP, so downstream operators see the
  // same stream either way.
  ScanStats scan_stats;
  XNF_RETURN_IF_ERROR(FindRows(
      *table, access_, referenced_.has_value() ? &*referenced_ : nullptr, ctx,
      &buffered_, /*rids=*/nullptr, &scan_stats));
  RecordDop(scan_stats.dop);
  RecordColumns(scan_stats.columns_decoded, scan_stats.columns_skipped);
  RecordCluster(scan_stats.groups_pruned, scan_stats.groups_total);
  if (scan_stats.columnar) {
    RecordKernels(scan_stats.kernel_filters, scan_stats.total_filters);
    ctx->scan_kernel_filters += scan_stats.kernel_filters;
  }
  ctx->scan_pushed_filters += access_.filters.size();
  return Status::Ok();
}

Status SeqScanOp::NextBatchImpl(RowBatch* out) {
  out->clear();
  if (late_.store != nullptr) {
    // Late path taken but a consumer is pulling rows anyway: materialize
    // the selected slots in batch (= group) order — exactly the gathering
    // scan's output stream.
    while (!out->full() && late_batch_ < late_.batches.size()) {
      ColBatch& b = late_.batches[late_batch_];
      const std::vector<char>& sel = b.sel();
      while (late_slot_ < b.rows() && !out->full()) {
        if (sel[late_slot_]) {
          Row row;
          XNF_RETURN_IF_ERROR(
              b.MaterializeRow(late_.materialize, late_slot_, &row));
          out->Add(std::move(row));
        }
        ++late_slot_;
      }
      if (late_slot_ >= b.rows()) {
        ++late_batch_;
        late_slot_ = 0;
      }
    }
    return Status::Ok();
  }
  size_t end = std::min(buffered_.size(), pos_ + kBatchSize);
  out->rows.reserve(end - pos_);
  // Moves: buffered_ is rebuilt by the next Open().
  for (; pos_ < end; ++pos_) out->rows.push_back(std::move(buffered_[pos_]));
  return Status::Ok();
}

void SeqScanOp::FlushLateStats() {
  if (late_.store == nullptr) return;
  uint64_t decoded = 0;
  for (const ColBatch& b : late_.batches) decoded += b.decoded_columns();
  const uint64_t total = late_.batches.size() * late_.store->num_columns();
  RecordColumns(decoded, total - decoded);
}

void SeqScanOp::CloseImpl() {
  // Dropping the batches releases their group pins; the pool must be
  // quiescent (pinned_pages() == 0) once the statement's plan is closed.
  FlushLateStats();
  late_ = LateScan{};
  late_batch_ = 0;
  late_slot_ = 0;
}

// --- IndexLookupOp ----------------------------------------------------------

namespace {

// The index an index operator was planned against, and its table; NotFound
// when DDL dropped either since planning.
Result<std::pair<TableInfo*, Index*>> FindPlannedIndex(
    const Catalog* catalog, const std::string& table_name,
    const std::string& index_name) {
  TableInfo* table = catalog->GetTable(table_name);
  if (table == nullptr) {
    return Status::NotFound("table '" + table_name + "' vanished");
  }
  for (const auto& idx : table->indexes) {
    if (idx->name() == index_name) {
      return std::make_pair(table, idx.get());
    }
  }
  return Status::NotFound("index '" + index_name + "' vanished");
}

}  // namespace

Status IndexLookupOp::OpenImpl(ExecContext* ctx) {
  buffered_.clear();
  pos_ = 0;
  TableInfo* table = ctx->catalog->GetTable(table_name_);
  if (table == nullptr) {
    return Status::NotFound("table '" + table_name_ + "' vanished");
  }
  ScanStats scan_stats;
  return FindRows(*table, access_, /*referenced=*/nullptr, ctx, &buffered_,
                  /*rids=*/nullptr, &scan_stats);
}

Status IndexLookupOp::NextBatchImpl(RowBatch* out) {
  out->clear();
  size_t end = std::min(buffered_.size(), pos_ + kBatchSize);
  out->rows.reserve(end - pos_);
  for (; pos_ < end; ++pos_) out->rows.push_back(std::move(buffered_[pos_]));
  return Status::Ok();
}

// --- FilterOp ---------------------------------------------------------------

Status FilterOp::OpenImpl(ExecContext* ctx) {
  ctx_ = ctx;
  if (env_) env_->ResetCaches();
  return child_->Open(ctx);
}

Status FilterOp::NextBatchImpl(RowBatch* out) {
  out->clear();
  EvalContext ectx;
  ectx.exec = ctx_;
  ectx.subqueries = env_.get();
  while (true) {
    input_.clear();
    XNF_RETURN_IF_ERROR(child_->NextBatch(&input_));
    if (input_.empty()) return Status::Ok();
    XNF_RETURN_IF_ERROR(
        FilterAppend(predicates_, &ectx, &input_.rows, &out->rows));
    if (!out->empty()) return Status::Ok();
  }
}

// --- ProjectOp --------------------------------------------------------------

Status ProjectOp::OpenImpl(ExecContext* ctx) {
  ctx_ = ctx;
  return child_->Open(ctx);
}

Status ProjectOp::NextBatchImpl(RowBatch* out) {
  out->clear();
  input_.clear();
  XNF_RETURN_IF_ERROR(child_->NextBatch(&input_));
  if (input_.empty()) return Status::Ok();
  EvalContext ectx;
  ectx.exec = ctx_;
  ectx.subqueries = env_.get();
  std::vector<const Row*> ptrs = BatchPtrs(input_);
  // Head expressions evaluate column-wise over the whole batch.
  std::vector<std::vector<Value>> cols;
  cols.reserve(exprs_.size());
  for (const qgm::ExprPtr& e : exprs_) {
    XNF_ASSIGN_OR_RETURN(std::vector<Value> col,
                         EvalExprBatch(*e, ptrs, &ectx));
    cols.push_back(std::move(col));
  }
  out->rows.reserve(input_.size());
  for (size_t i = 0; i < input_.size(); ++i) {
    Row row;
    row.reserve(exprs_.size());
    for (std::vector<Value>& col : cols) row.push_back(std::move(col[i]));
    out->rows.push_back(std::move(row));
  }
  return Status::Ok();
}

// --- NestedLoopJoinOp -------------------------------------------------------

Status NestedLoopJoinOp::OpenImpl(ExecContext* ctx) {
  ctx_ = ctx;
  current_left_.reset();
  left_batch_.clear();
  left_pos_ = 0;
  right_rows_.clear();
  right_pos_ = 0;
  matched_ = false;
  XNF_RETURN_IF_ERROR(left_->Open(ctx));
  XNF_RETURN_IF_ERROR(right_->Open(ctx));
  return DrainChild(right_.get(), &right_rows_);
}

Result<bool> NestedLoopJoinOp::AdvanceLeft() {
  if (left_pos_ >= left_batch_.size()) {
    left_batch_.clear();
    left_pos_ = 0;
    XNF_RETURN_IF_ERROR(left_->NextBatch(&left_batch_));
    if (left_batch_.empty()) {
      current_left_.reset();
      return false;
    }
  }
  current_left_ = std::move(left_batch_.rows[left_pos_++]);
  right_pos_ = 0;
  matched_ = false;
  return true;
}

Status NestedLoopJoinOp::NextBatchImpl(RowBatch* out) {
  out->clear();
  while (!out->full()) {
    if (!current_left_.has_value()) {
      XNF_ASSIGN_OR_RETURN(bool more, AdvanceLeft());
      if (!more) return Status::Ok();
    }
    while (right_pos_ < right_rows_.size() && !out->full()) {
      const Row& right = right_rows_[right_pos_++];
      Row combined = ConcatRows(*current_left_, right);
      XNF_ASSIGN_OR_RETURN(bool ok,
                           PassesFilters(predicates_, combined, ctx_));
      if (ok) {
        matched_ = true;
        out->Add(std::move(combined));
      }
    }
    if (right_pos_ >= right_rows_.size()) {
      // Left row exhausted.
      if (left_outer_ && !matched_) {
        if (out->full()) return Status::Ok();  // pad on the next call
        Row padded = std::move(*current_left_);
        padded.resize(padded.size() + right_->schema().size(), Value::Null());
        out->Add(std::move(padded));
      }
      current_left_.reset();
    }
  }
  return Status::Ok();
}

// --- HashJoinOp -------------------------------------------------------------

Status HashJoinOp::OpenImpl(ExecContext* ctx) {
  ctx_ = ctx;
  build_table_.clear();
  left_batch_.clear();
  left_key_cols_.clear();
  left_pos_ = 0;
  matches_ = nullptr;
  match_pos_ = 0;
  matched_ = false;
  build_mode_ = BuildMode::kRow;
  build_scan_ = nullptr;
  probe_scan_ = nullptr;
  ref_table_.clear();
  code_table_.clear();
  probe_code_map_.clear();
  code_identity_ = false;
  probe_batch_ = 0;
  probe_slot_ = 0;
  have_left_ = false;
  left_materialized_ = false;
  current_left_row_.clear();

  // Ask scan children for column batches where the key shapes allow reading
  // keys straight off column views (kInputRef slots inside the child
  // schema). Requesting is speculative: if the scan cannot take the late
  // path — row table, scalar remainder, late materialization off — it
  // produces rows as usual and the classic paths below run unchanged.
  SeqScanOp* right_scan = right_->AsSeqScan();
  std::vector<size_t> build_slots;
  if (right_scan != nullptr &&
      SimpleSlots(right_keys_, right_->schema().size(), &build_slots)) {
    right_scan->RequestLateScan();
  } else {
    right_scan = nullptr;
  }
  SeqScanOp* left_scan = left_->AsSeqScan();
  std::vector<size_t> probe_slots;
  if (left_scan != nullptr &&
      SimpleSlots(left_keys_, left_->schema().size(), &probe_slots)) {
    left_scan->RequestLateScan();
  } else {
    left_scan = nullptr;
  }

  XNF_RETURN_IF_ERROR(left_->Open(ctx));
  XNF_RETURN_IF_ERROR(right_->Open(ctx));
  right_width_ = right_->schema().size();

  if (left_scan != nullptr) {
    probe_scan_ = left_scan->late_scan();
    if (probe_scan_ != nullptr && !SlotsMaterialized(probe_slots, *probe_scan_))
      probe_scan_ = nullptr;  // pull rows instead (scan fallback)
  }
  if (right_scan != nullptr) {
    build_scan_ = right_scan->late_scan();
    if (build_scan_ != nullptr && !SlotsMaterialized(build_slots, *build_scan_))
      build_scan_ = nullptr;
  }
  if (build_scan_ != nullptr) {
    build_mode_ = BuildMode::kRef;
    code_build_slot_ = build_slots.empty() ? 0 : build_slots[0];
    code_probe_slot_ = probe_slots.empty() ? 0 : probe_slots[0];
    // Dict-code keys: single STRING key on both sides, both dictionaries
    // intact (no overflow segment — overflow codes are segment-local and
    // not comparable across segments, let alone tables).
    if (probe_scan_ != nullptr && build_slots.size() == 1 &&
        probe_slots.size() == 1) {
      const ColumnStore* bs = build_scan_->store;
      const ColumnStore* ps = probe_scan_->store;
      if (bs->schema().column(code_build_slot_).type == Type::kString &&
          ps->schema().column(code_probe_slot_).type == Type::kString &&
          !bs->DictOverflowed(code_build_slot_) &&
          !ps->DictOverflowed(code_probe_slot_)) {
        build_mode_ = BuildMode::kCode;
      }
    }
    return OpenBuildColumnar();
  }

  // kRow: stream build batches into the table; per-key match order = build
  // input order. Pre-sized from the build child's cardinality estimate so
  // the build rarely rehashes.
  build_table_.reserve(
      static_cast<size_t>(right_->EstimateRows(ctx->catalog)) + 1);
  EvalContext ectx;
  ectx.exec = ctx_;
  RowBatch batch;
  std::vector<std::vector<Value>> key_cols;
  while (true) {
    XNF_RETURN_IF_ERROR(right_->NextBatch(&batch));
    if (batch.empty()) break;
    std::vector<const Row*> ptrs = BatchPtrs(batch);
    key_cols.clear();
    key_cols.reserve(right_keys_.size());
    for (const qgm::ExprPtr& k : right_keys_) {
      XNF_ASSIGN_OR_RETURN(std::vector<Value> col,
                           EvalExprBatch(*k, ptrs, &ectx));
      key_cols.push_back(std::move(col));
    }
    for (size_t i = 0; i < batch.size(); ++i) {
      Row key;
      key.reserve(key_cols.size());
      bool has_null = false;  // NULL key components never match
      for (std::vector<Value>& col : key_cols) {
        if (col[i].is_null()) has_null = true;
        key.push_back(std::move(col[i]));
      }
      if (has_null) continue;
      build_table_[std::move(key)].push_back(std::move(batch.rows[i]));
    }
  }
  return Status::Ok();
}

Status HashJoinOp::OpenBuildColumnar() {
  if (build_mode_ == BuildMode::kCode) {
    const ColumnStore* bs = build_scan_->store;
    const ColumnStore* ps = probe_scan_->store;
    // Index build rows by their dictionary code. Batch order = group order
    // = build input order, so each per-code list keeps the serial row
    // build's match order. An empty build dictionary leaves the table
    // empty: every probe misses (outer rows still pad).
    code_table_.assign(bs->Dictionary(code_build_slot_).size(), {});
    for (size_t bi = 0; bi < build_scan_->batches.size(); ++bi) {
      ColBatch& b = build_scan_->batches[bi];
      const ColumnStore::ColumnView* v = nullptr;
      XNF_RETURN_IF_ERROR(b.View(code_build_slot_, /*need_values=*/true, &v));
      const std::vector<char>& sel = b.sel();
      for (size_t i = 0; i < b.rows(); ++i) {
        if (!sel[i] || v->IsNull(i)) continue;
        const uint32_t code = v->codes[i];
        if (code < code_table_.size()) {
          code_table_[code].push_back(
              {static_cast<uint32_t>(bi), static_cast<uint32_t>(i)});
        }
      }
    }
    // Probe-code -> build-code translation, one dictionary walk up front;
    // probes then compare 32-bit codes and never touch string payloads. A
    // self-join over the same column shares the dictionary outright.
    code_identity_ = ps == bs && code_probe_slot_ == code_build_slot_;
    if (!code_identity_) {
      const std::vector<std::string>& probe_dict =
          ps->Dictionary(code_probe_slot_);
      probe_code_map_.assign(probe_dict.size(), UINT32_MAX);
      for (size_t pc = 0; pc < probe_dict.size(); ++pc) {
        std::optional<uint32_t> bc =
            bs->DictCode(code_build_slot_, probe_dict[pc]);
        if (bc.has_value()) probe_code_map_[pc] = *bc;
      }
    }
    return Status::Ok();
  }
  // kRef: hash build rows by key values read from the column views; the
  // rows themselves stay inside the batches until a probe matches one.
  // Batch order = build input order keeps per-key match lists identical to
  // the serial row build.
  ref_table_.reserve(build_scan_->total_rows + 1);
  std::vector<const ColumnStore::ColumnView*> views(right_keys_.size());
  for (size_t bi = 0; bi < build_scan_->batches.size(); ++bi) {
    ColBatch& b = build_scan_->batches[bi];
    const std::vector<char>& sel = b.sel();
    for (size_t k = 0; k < right_keys_.size(); ++k) {
      XNF_RETURN_IF_ERROR(b.View(static_cast<size_t>(right_keys_[k]->slot),
                                 /*need_values=*/true, &views[k]));
    }
    for (size_t i = 0; i < b.rows(); ++i) {
      if (!sel[i]) continue;
      Row key;
      key.reserve(views.size());
      bool has_null = false;
      for (const ColumnStore::ColumnView* v : views) {
        Value val = ColumnStore::ViewValue(*v, i);
        if (val.is_null()) has_null = true;
        key.push_back(std::move(val));
      }
      if (has_null) continue;  // NULL key components never match
      auto [it, inserted] = ref_table_.try_emplace(std::move(key));
      (void)inserted;
      it->second.push_back(
          {static_cast<uint32_t>(bi), static_cast<uint32_t>(i)});
    }
  }
  return Status::Ok();
}

Result<bool> HashJoinOp::AdvanceLeft() {
  if (left_pos_ >= left_batch_.size()) {
    left_batch_.clear();
    left_pos_ = 0;
    XNF_RETURN_IF_ERROR(left_->NextBatch(&left_batch_));
    if (left_batch_.empty()) {
      have_left_ = false;
      return false;
    }
    // Probe keys column-wise for the whole batch.
    std::vector<const Row*> ptrs = BatchPtrs(left_batch_);
    EvalContext ectx;
    ectx.exec = ctx_;
    left_key_cols_.clear();
    left_key_cols_.reserve(left_keys_.size());
    for (const qgm::ExprPtr& k : left_keys_) {
      XNF_ASSIGN_OR_RETURN(std::vector<Value> col,
                           EvalExprBatch(*k, ptrs, &ectx));
      left_key_cols_.push_back(std::move(col));
    }
  }
  size_t i = left_pos_++;
  current_left_row_ = std::move(left_batch_.rows[i]);
  left_materialized_ = true;
  have_left_ = true;
  matched_ = false;
  matches_ = nullptr;
  ref_matches_ = nullptr;
  match_pos_ = 0;
  Row key;
  key.reserve(left_key_cols_.size());
  bool has_null = false;
  for (std::vector<Value>& col : left_key_cols_) {
    if (col[i].is_null()) has_null = true;
    key.push_back(std::move(col[i]));
  }
  if (!has_null) LookupMatches(key);
  return true;
}

void HashJoinOp::LookupMatches(const Row& key) {
  if (build_mode_ == BuildMode::kRef) {
    auto it = ref_table_.find(key);
    if (it != ref_table_.end()) ref_matches_ = &it->second;
  } else {
    auto it = build_table_.find(key);
    if (it != build_table_.end()) matches_ = &it->second;
  }
}

Result<bool> HashJoinOp::AdvanceLeftColumnar() {
  while (probe_batch_ < probe_scan_->batches.size()) {
    ColBatch& b = probe_scan_->batches[probe_batch_];
    const std::vector<char>& sel = b.sel();
    while (probe_slot_ < b.rows() && !sel[probe_slot_]) ++probe_slot_;
    if (probe_slot_ >= b.rows()) {
      ++probe_batch_;
      probe_slot_ = 0;
      continue;
    }
    const size_t i = probe_slot_++;
    probe_row_batch_ = probe_batch_;
    probe_row_slot_ = i;
    have_left_ = true;
    left_materialized_ = false;  // decoded only if a match / pad needs it
    matched_ = false;
    matches_ = nullptr;
    ref_matches_ = nullptr;
    match_pos_ = 0;
    if (build_mode_ == BuildMode::kCode) {
      const ColumnStore::ColumnView* v = nullptr;
      XNF_RETURN_IF_ERROR(b.View(code_probe_slot_, /*need_values=*/true, &v));
      if (!v->IsNull(i)) {
        const uint32_t code = v->codes[i];
        uint32_t bc = UINT32_MAX;
        if (code_identity_) {
          bc = code;
        } else if (code < probe_code_map_.size()) {
          bc = probe_code_map_[code];
        }
        if (bc < code_table_.size() && !code_table_[bc].empty()) {
          ref_matches_ = &code_table_[bc];
        }
      }
      return true;
    }
    Row key;
    key.reserve(left_keys_.size());
    bool has_null = false;
    for (const qgm::ExprPtr& k : left_keys_) {
      const ColumnStore::ColumnView* v = nullptr;
      XNF_RETURN_IF_ERROR(
          b.View(static_cast<size_t>(k->slot), /*need_values=*/true, &v));
      Value val = ColumnStore::ViewValue(*v, i);
      if (val.is_null()) has_null = true;
      key.push_back(std::move(val));
    }
    if (!has_null) LookupMatches(key);
    return true;
  }
  have_left_ = false;
  return false;
}

Status HashJoinOp::EnsureLeftRow() {
  if (left_materialized_) return Status::Ok();
  ColBatch& b = probe_scan_->batches[probe_row_batch_];
  XNF_RETURN_IF_ERROR(b.MaterializeRow(probe_scan_->materialize,
                                       probe_row_slot_, &current_left_row_));
  left_materialized_ = true;
  return Status::Ok();
}

size_t HashJoinOp::NumMatches() const {
  if (matches_ != nullptr) return matches_->size();
  if (ref_matches_ != nullptr) return ref_matches_->size();
  return 0;
}

Result<Row> HashJoinOp::MatchRow(size_t i) {
  if (matches_ != nullptr) return (*matches_)[i];
  const BuildRef& r = (*ref_matches_)[i];
  ColBatch& b = build_scan_->batches[r.batch];
  Row row;
  XNF_RETURN_IF_ERROR(
      b.MaterializeRow(build_scan_->materialize, r.row, &row));
  return row;
}

Status HashJoinOp::NextBatchImpl(RowBatch* out) {
  out->clear();
  while (!out->full()) {
    if (!have_left_) {
      XNF_ASSIGN_OR_RETURN(
          bool more,
          probe_scan_ != nullptr ? AdvanceLeftColumnar() : AdvanceLeft());
      if (!more) return Status::Ok();
    }
    const size_t n_matches = NumMatches();
    while (match_pos_ < n_matches && !out->full()) {
      const size_t mi = match_pos_++;
      XNF_RETURN_IF_ERROR(EnsureLeftRow());
      XNF_ASSIGN_OR_RETURN(Row right, MatchRow(mi));
      Row combined = ConcatRows(current_left_row_, right);
      XNF_ASSIGN_OR_RETURN(bool ok, PassesFilters(residual_, combined, ctx_));
      if (ok) {
        matched_ = true;
        out->Add(std::move(combined));
      }
    }
    if (match_pos_ >= n_matches) {
      if (left_outer_ && !matched_) {
        if (out->full()) return Status::Ok();  // pad on the next call
        XNF_RETURN_IF_ERROR(EnsureLeftRow());
        Row padded = std::move(current_left_row_);
        padded.resize(padded.size() + right_width_, Value::Null());
        out->Add(std::move(padded));
      }
      have_left_ = false;
    }
  }
  return Status::Ok();
}

// --- IndexNLJoinOp ----------------------------------------------------------

Status IndexNLJoinOp::OpenImpl(ExecContext* ctx) {
  ctx_ = ctx;
  current_left_.reset();
  left_batch_.clear();
  left_key_cols_.clear();
  left_pos_ = 0;
  matched_.clear();
  match_pos_ = 0;
  XNF_ASSIGN_OR_RETURN(auto found, FindPlannedIndex(ctx->catalog, table_name_,
                                                    index_name_));
  std::tie(table_, index_) = found;
  overlay_ = OverlayFor(ctx->catalog->txn_manager(), *table_);
  return left_->Open(ctx);
}

Result<bool> IndexNLJoinOp::AdvanceLeft() {
  if (left_pos_ >= left_batch_.size()) {
    left_batch_.clear();
    left_pos_ = 0;
    XNF_RETURN_IF_ERROR(left_->NextBatch(&left_batch_));
    if (left_batch_.empty()) {
      current_left_.reset();
      return false;
    }
    std::vector<const Row*> ptrs = BatchPtrs(left_batch_);
    EvalContext ectx;
    ectx.exec = ctx_;
    left_key_cols_.clear();
    left_key_cols_.reserve(keys_.size());
    for (const qgm::ExprPtr& k : keys_) {
      XNF_ASSIGN_OR_RETURN(std::vector<Value> col,
                           EvalExprBatch(*k, ptrs, &ectx));
      left_key_cols_.push_back(std::move(col));
    }
  }
  size_t i = left_pos_++;
  current_left_ = std::move(left_batch_.rows[i]);
  Row key;
  key.reserve(left_key_cols_.size());
  for (std::vector<Value>& col : left_key_cols_) {
    key.push_back(std::move(col[i]));
  }
  matched_.clear();
  match_pos_ = 0;
  XNF_RETURN_IF_ERROR(LookupVisible(*table_, *index_, overlay_, key,
                                    [&](Rid, const Row& row) {
                                      matched_.push_back(row);
                                      return true;
                                    }));
  return true;
}

Status IndexNLJoinOp::NextBatchImpl(RowBatch* out) {
  out->clear();
  while (!out->full()) {
    if (!current_left_.has_value()) {
      XNF_ASSIGN_OR_RETURN(bool more, AdvanceLeft());
      if (!more) return Status::Ok();
    }
    while (match_pos_ < matched_.size() && !out->full()) {
      Row combined = ConcatRows(*current_left_, matched_[match_pos_++]);
      XNF_ASSIGN_OR_RETURN(bool ok, PassesFilters(residual_, combined, ctx_));
      if (ok) out->Add(std::move(combined));
    }
    if (match_pos_ >= matched_.size()) current_left_.reset();
  }
  return Status::Ok();
}

// --- AggregateOp ------------------------------------------------------------

Status AggregateOp::Accumulate(AggState* state, const qgm::AggSpec& spec,
                               const Row& input, EvalContext* ectx) {
  if (spec.func == qgm::AggFunc::kCountStar) {
    ++state->count;
    return Status::Ok();
  }
  EvalContext local = *ectx;
  local.row = &input;
  XNF_ASSIGN_OR_RETURN(Value v, EvalExpr(*spec.arg, &local));
  return AccumulateValue(state, spec, std::move(v));
}

Status AggregateOp::AccumulateValue(AggState* state, const qgm::AggSpec& spec,
                                    Value v) {
  if (v.is_null()) return Status::Ok();  // NULLs ignored by aggregates
  if (spec.distinct) {
    for (const Value& seen : state->distinct_seen) {
      if (seen.TotalOrderCompare(v) == 0) return Status::Ok();
    }
    state->distinct_seen.push_back(v);
  }
  switch (spec.func) {
    case qgm::AggFunc::kCount:
      ++state->count;
      break;
    case qgm::AggFunc::kSum:
      if (state->sum.is_null()) {
        state->sum = v;
      } else {
        XNF_ASSIGN_OR_RETURN(
            state->sum, [&]() -> Result<Value> {
              if (state->sum.is_int() && v.is_int()) {
                return Value::Int(WrappingAdd(state->sum.AsInt(), v.AsInt()));
              }
              return Value::Double(state->sum.AsDouble() + v.AsDouble());
            }());
      }
      break;
    case qgm::AggFunc::kAvg:
      state->avg_sum += v.AsDouble();
      ++state->avg_count;
      break;
    case qgm::AggFunc::kMin:
      if (state->min.is_null() || v.TotalOrderCompare(state->min) < 0) {
        state->min = v;
      }
      break;
    case qgm::AggFunc::kMax:
      if (state->max.is_null() || v.TotalOrderCompare(state->max) > 0) {
        state->max = v;
      }
      break;
    case qgm::AggFunc::kCountStar:
      break;
  }
  return Status::Ok();
}

Result<Value> AggregateOp::Finalize(const AggState& state,
                                    const qgm::AggSpec& spec) const {
  switch (spec.func) {
    case qgm::AggFunc::kCount:
    case qgm::AggFunc::kCountStar:
      return Value::Int(state.count);
    case qgm::AggFunc::kSum:
      return state.sum;
    case qgm::AggFunc::kAvg:
      if (state.avg_count == 0) return Value::Null();
      return Value::Double(state.avg_sum / static_cast<double>(state.avg_count));
    case qgm::AggFunc::kMin:
      return state.min;
    case qgm::AggFunc::kMax:
      return state.max;
  }
  return Status::Internal("unhandled aggregate");
}

AggregateOp::Group* AggregateOp::FindOrAddGroup(GroupIndex* index, Row key,
                                                bool* added) {
  auto [it, inserted] = index->try_emplace(std::move(key), groups_.size());
  *added = inserted;
  if (inserted) {
    groups_.emplace_back();
    groups_.back().states.resize(aggs_.size());
  }
  return &groups_[it->second];
}

void AggregateOp::AddScalarDefaultGroup() {
  // Scalar aggregation over an empty input yields one all-default group.
  if (!scalar_ || !groups_.empty()) return;
  groups_.emplace_back();
  Group& g = groups_.back();
  g.representative.resize(child_->schema().size(), Value::Null());
  g.states.resize(aggs_.size());
}

Status AggregateOp::AccumulateColumnar(LateScan* scan) {
  GroupIndex index;
  std::vector<const ColumnStore::ColumnView*> key_views(group_keys_.size());
  std::vector<const ColumnStore::ColumnView*> arg_views(aggs_.size());
  for (ColBatch& b : scan->batches) {
    for (size_t k = 0; k < group_keys_.size(); ++k) {
      XNF_RETURN_IF_ERROR(b.View(static_cast<size_t>(group_keys_[k]->slot),
                                 /*need_values=*/true, &key_views[k]));
    }
    for (size_t a = 0; a < aggs_.size(); ++a) {
      arg_views[a] = nullptr;
      if (aggs_[a].func == qgm::AggFunc::kCountStar) continue;
      XNF_RETURN_IF_ERROR(b.View(static_cast<size_t>(aggs_[a].arg->slot),
                                 /*need_values=*/true, &arg_views[a]));
    }
    const std::vector<char>& sel = b.sel();
    for (size_t i = 0; i < b.rows(); ++i) {
      if (!sel[i]) continue;
      Row key;
      key.reserve(key_views.size());
      for (const ColumnStore::ColumnView* v : key_views) {
        key.push_back(ColumnStore::ViewValue(*v, i));
      }
      bool added = false;
      Group* group = FindOrAddGroup(&index, std::move(key), &added);
      if (added) {
        // Only each group's first row is ever materialized — exactly the
        // row the row stream would have copied as the representative.
        XNF_RETURN_IF_ERROR(
            b.MaterializeRow(scan->materialize, i, &group->representative));
      }
      for (size_t a = 0; a < aggs_.size(); ++a) {
        if (aggs_[a].func == qgm::AggFunc::kCountStar) {
          ++group->states[a].count;
          continue;
        }
        XNF_RETURN_IF_ERROR(AccumulateValue(
            &group->states[a], aggs_[a],
            ColumnStore::ViewValue(*arg_views[a], i)));
      }
    }
  }
  return Status::Ok();
}

Status AggregateOp::OpenImpl(ExecContext* ctx) {
  groups_.clear();
  pos_ = 0;
  if (env_) env_->ResetCaches();

  // Columnar path: when the child is a scan and every group key and
  // aggregate argument is a plain column reference, accumulate straight
  // off the scan's column batches (group/slot order = the row stream's
  // order, so first-seen group order, wrapping int sums, and double add
  // order are all preserved bit-for-bit).
  SeqScanOp* scan = child_->AsSeqScan();
  std::vector<size_t> touched_slots;
  bool shapes_ok =
      scan != nullptr &&
      SimpleSlots(group_keys_, child_->schema().size(), &touched_slots);
  if (shapes_ok) {
    for (const qgm::AggSpec& spec : aggs_) {
      if (spec.func == qgm::AggFunc::kCountStar) continue;
      if (spec.arg == nullptr ||
          spec.arg->kind != qgm::Expr::Kind::kInputRef || spec.arg->slot < 0 ||
          static_cast<size_t>(spec.arg->slot) >= child_->schema().size()) {
        shapes_ok = false;
        break;
      }
      touched_slots.push_back(static_cast<size_t>(spec.arg->slot));
    }
  }
  if (shapes_ok) scan->RequestLateScan();

  XNF_RETURN_IF_ERROR(child_->Open(ctx));

  if (shapes_ok) {
    LateScan* late = scan->late_scan();
    if (late != nullptr && SlotsMaterialized(touched_slots, *late)) {
      XNF_RETURN_IF_ERROR(AccumulateColumnar(late));
      AddScalarDefaultGroup();
      return Status::Ok();
    }
    // Late path not taken (or bitmap mismatch): the scan's NextBatch
    // materializes rows, so the classic drain below runs unchanged.
  }

  GroupIndex index;

  EvalContext ectx;
  ectx.exec = ctx;
  ectx.subqueries = env_.get();

  RowBatch batch;
  while (true) {
    XNF_RETURN_IF_ERROR(child_->NextBatch(&batch));
    if (batch.empty()) break;
    std::vector<const Row*> ptrs = BatchPtrs(batch);
    // Group keys column-wise over the batch.
    std::vector<std::vector<Value>> key_cols;
    key_cols.reserve(group_keys_.size());
    for (const qgm::ExprPtr& k : group_keys_) {
      XNF_ASSIGN_OR_RETURN(std::vector<Value> col,
                           EvalExprBatch(*k, ptrs, &ectx));
      key_cols.push_back(std::move(col));
    }
    for (size_t i = 0; i < batch.size(); ++i) {
      const Row& row = batch[i];
      Row key;
      key.reserve(key_cols.size());
      for (std::vector<Value>& col : key_cols) {
        key.push_back(std::move(col[i]));
      }
      bool added = false;
      Group* group = FindOrAddGroup(&index, std::move(key), &added);
      if (added) group->representative = row;
      for (size_t a = 0; a < aggs_.size(); ++a) {
        XNF_RETURN_IF_ERROR(
            Accumulate(&group->states[a], aggs_[a], row, &ectx));
      }
    }
  }

  AddScalarDefaultGroup();
  return Status::Ok();
}

Status AggregateOp::NextBatchImpl(RowBatch* out) {
  out->clear();
  while (pos_ < groups_.size() && !out->full()) {
    Group& g = groups_[pos_++];
    // Moves: groups_ is rebuilt by the next Open().
    Row row = std::move(g.representative);
    row.reserve(row.size() + aggs_.size());
    for (size_t a = 0; a < aggs_.size(); ++a) {
      XNF_ASSIGN_OR_RETURN(Value v, Finalize(g.states[a], aggs_[a]));
      row.push_back(std::move(v));
    }
    out->Add(std::move(row));
  }
  return Status::Ok();
}

// --- SortOp -----------------------------------------------------------------

Status SortOp::OpenImpl(ExecContext* ctx) {
  rows_.clear();
  pos_ = 0;
  XNF_RETURN_IF_ERROR(child_->Open(ctx));
  XNF_RETURN_IF_ERROR(DrainChild(child_.get(), &rows_));
  // Sort keys column-wise over the whole input.
  EvalContext ectx;
  ectx.exec = ctx;
  ectx.subqueries = env_.get();
  std::vector<const Row*> ptrs;
  ptrs.reserve(rows_.size());
  for (const Row& r : rows_) ptrs.push_back(&r);
  std::vector<std::vector<Value>> key_cols;
  key_cols.reserve(keys_.size());
  for (const Key& k : keys_) {
    XNF_ASSIGN_OR_RETURN(std::vector<Value> col,
                         EvalExprBatch(*k.expr, ptrs, &ectx));
    key_cols.push_back(std::move(col));
  }
  std::vector<size_t> order(rows_.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [this, &key_cols](size_t a, size_t b) {
                     for (size_t k = 0; k < keys_.size(); ++k) {
                       int c = key_cols[k][a].TotalOrderCompare(key_cols[k][b]);
                       if (c != 0) return keys_[k].ascending ? c < 0 : c > 0;
                     }
                     return false;
                   });
  std::vector<Row> sorted;
  sorted.reserve(rows_.size());
  for (size_t i : order) sorted.push_back(std::move(rows_[i]));
  rows_ = std::move(sorted);
  return Status::Ok();
}

Status SortOp::NextBatchImpl(RowBatch* out) {
  out->clear();
  size_t end = std::min(rows_.size(), pos_ + kBatchSize);
  out->rows.reserve(end - pos_);
  for (; pos_ < end; ++pos_) out->rows.push_back(std::move(rows_[pos_]));
  return Status::Ok();
}

// --- DistinctOp -------------------------------------------------------------

Status DistinctOp::OpenImpl(ExecContext* ctx) {
  seen_.clear();
  return child_->Open(ctx);
}

Status DistinctOp::NextBatchImpl(RowBatch* out) {
  out->clear();
  while (true) {
    input_.clear();
    XNF_RETURN_IF_ERROR(child_->NextBatch(&input_));
    if (input_.empty()) return Status::Ok();
    for (Row& row : input_.rows) {
      if (seen_.insert(row).second) out->Add(std::move(row));
    }
    if (!out->empty()) return Status::Ok();
  }
}

// --- LimitOp ----------------------------------------------------------------

Status LimitOp::OpenImpl(ExecContext* ctx) {
  produced_ = 0;
  skipped_ = 0;
  return child_->Open(ctx);
}

Status LimitOp::NextBatchImpl(RowBatch* out) {
  out->clear();
  while (produced_ < limit_) {
    input_.clear();
    XNF_RETURN_IF_ERROR(child_->NextBatch(&input_));
    if (input_.empty()) return Status::Ok();
    size_t i = 0;
    while (i < input_.size() && skipped_ < offset_) {
      ++skipped_;
      ++i;
    }
    for (; i < input_.size() && produced_ < limit_; ++i) {
      out->Add(std::move(input_.rows[i]));
      ++produced_;
    }
    if (!out->empty()) return Status::Ok();
  }
  return Status::Ok();
}

// --- UnionOp ----------------------------------------------------------------

Status UnionOp::OpenImpl(ExecContext* ctx) {
  ctx_ = ctx;
  current_ = 0;
  seen_.clear();
  for (auto& c : children_) XNF_RETURN_IF_ERROR(c->Open(ctx));
  return Status::Ok();
}

Status UnionOp::NextBatchImpl(RowBatch* out) {
  out->clear();
  while (current_ < children_.size()) {
    input_.clear();
    XNF_RETURN_IF_ERROR(children_[current_]->NextBatch(&input_));
    if (input_.empty()) {
      ++current_;
      continue;
    }
    for (Row& row : input_.rows) {
      if (distinct_ && !seen_.insert(row).second) continue;
      out->Add(std::move(row));
    }
    if (!out->empty()) return Status::Ok();
  }
  return Status::Ok();
}

// --- IntersectExceptOp ------------------------------------------------------

Status IntersectExceptOp::OpenImpl(ExecContext* ctx) {
  right_rows_.clear();
  emitted_.clear();
  XNF_RETURN_IF_ERROR(left_->Open(ctx));
  XNF_RETURN_IF_ERROR(right_->Open(ctx));
  RowBatch batch;
  while (true) {
    XNF_RETURN_IF_ERROR(right_->NextBatch(&batch));
    if (batch.empty()) break;
    for (Row& row : batch.rows) right_rows_.insert(std::move(row));
  }
  return Status::Ok();
}

Status IntersectExceptOp::NextBatchImpl(RowBatch* out) {
  out->clear();
  while (true) {
    input_.clear();
    XNF_RETURN_IF_ERROR(left_->NextBatch(&input_));
    if (input_.empty()) return Status::Ok();
    for (Row& row : input_.rows) {
      bool in_right = right_rows_.count(row) > 0;
      if (in_right == is_except_) continue;  // filtered out
      if (!emitted_.insert(row).second) continue;  // distinct semantics
      out->Add(std::move(row));
    }
    if (!out->empty()) return Status::Ok();
  }
}

// --- Plan introspection (EXPLAIN) -------------------------------------------
//
// detail() strings feed the golden EXPLAIN tests: they must be deterministic
// functions of the plan alone (no pointers, no volatile state). Cardinality
// estimates are deliberately crude — fixed selectivity per predicate — since
// the planner is rule-based; they exist so EXPLAIN can show *why* a plan
// shape was chosen, not to drive costing.

namespace {

std::string ExprList(const std::vector<qgm::ExprPtr>& exprs) {
  std::string out;
  for (const qgm::ExprPtr& e : exprs) {
    if (!out.empty()) out += ", ";
    out += e->ToString();
  }
  return out;
}

// One predicate filters roughly two thirds of its input.
uint64_t Shrink(uint64_t rows, size_t num_predicates) {
  for (size_t i = 0; i < num_predicates; ++i) rows /= 3;
  return rows == 0 && num_predicates > 0 ? 1 : rows;
}

uint64_t TableRows(const Catalog* catalog, const std::string& table_name) {
  if (catalog == nullptr) return 0;
  TableInfo* table = catalog->GetTable(table_name);
  return table == nullptr ? 0 : table->storage->live_count();
}

bool IndexIsUnique(const Catalog* catalog, const std::string& table_name,
                   const std::string& index_name) {
  if (catalog == nullptr) return false;
  auto found = FindPlannedIndex(catalog, table_name, index_name);
  return found.ok() && found->second->unique();
}

}  // namespace

std::string ValuesOp::detail() const {
  size_t n = ext_ != nullptr ? ext_->rows.size() : rows_.size();
  return std::to_string(n) + " row(s)";
}

uint64_t ValuesOp::EstimateRowsImpl(const Catalog*) const {
  return ext_ != nullptr ? ext_->rows.size() : rows_.size();
}

std::string SeqScanOp::detail() const {
  std::string out = table_name_;
  // Row storage is the default and stays unannotated so existing EXPLAIN
  // output is unchanged.
  if (storage_kind_ == StorageKind::kColumn) out += " storage=column";
  if (!cluster_column_.empty()) out += " cluster=" + cluster_column_;
  if (!access_.filters.empty()) {
    out += " filter=[" + ExprList(access_.filters) + "]";
  }
  return out;
}

uint64_t SeqScanOp::EstimateRowsImpl(const Catalog* catalog) const {
  return Shrink(TableRows(catalog, table_name_), access_.filters.size());
}

std::string IndexLookupOp::detail() const {
  std::string out = table_name_ + " via " + access_.index->name();
  out += " key=[" + access_.key->ToString() + "]";
  if (!access_.filters.empty()) {
    out += " filter=[" + ExprList(access_.filters) + "]";
  }
  return out;
}

uint64_t IndexLookupOp::EstimateRowsImpl(const Catalog* catalog) const {
  uint64_t rows = TableRows(catalog, table_name_);
  uint64_t matched = access_.index->unique()
                         ? (rows > 0 ? 1 : 0)
                         : rows / 10 + (rows > 0 ? 1 : 0);
  return Shrink(matched, access_.filters.size());
}

std::string FilterOp::detail() const { return ExprList(predicates_); }

uint64_t FilterOp::EstimateRowsImpl(const Catalog* catalog) const {
  return Shrink(child_->EstimateRows(catalog), predicates_.size());
}

std::string ProjectOp::detail() const { return ExprList(exprs_); }

uint64_t ProjectOp::EstimateRowsImpl(const Catalog* catalog) const {
  return child_->EstimateRows(catalog);
}

std::string NestedLoopJoinOp::detail() const {
  std::string out;
  if (!predicates_.empty()) out = "on=[" + ExprList(predicates_) + "]";
  if (left_outer_) out += out.empty() ? "left outer" : " left outer";
  return out;
}

uint64_t NestedLoopJoinOp::EstimateRowsImpl(const Catalog* catalog) const {
  uint64_t left = left_->EstimateRows(catalog);
  uint64_t right = right_->EstimateRows(catalog);
  // Saturate instead of overflowing on pathological cross products.
  uint64_t product =
      (left != 0 && right > UINT64_MAX / left) ? UINT64_MAX : left * right;
  uint64_t rows = Shrink(product, predicates_.size());
  return left_outer_ ? std::max(rows, left) : rows;
}

std::string HashJoinOp::detail() const {
  std::string out = "keys=[";
  for (size_t i = 0; i < left_keys_.size(); ++i) {
    if (i > 0) out += ", ";
    out += left_keys_[i]->ToString() + " = " + right_keys_[i]->ToString();
  }
  out += "]";
  if (!residual_.empty()) out += " residual=[" + ExprList(residual_) + "]";
  if (left_outer_) out += " left outer";
  return out;
}

uint64_t HashJoinOp::EstimateRowsImpl(const Catalog* catalog) const {
  uint64_t left = left_->EstimateRows(catalog);
  uint64_t right = right_->EstimateRows(catalog);
  // Equi-join heuristic: |L ⋈ R| ≈ |L|·|R| / max(|L|,|R|) = max side wins.
  uint64_t rows = Shrink(std::max(left, right), residual_.size());
  return left_outer_ ? std::max(rows, left) : rows;
}

std::string IndexNLJoinOp::detail() const {
  std::string out = table_name_ + " via " + index_name_;
  out += " key=[" + ExprList(keys_) + "]";
  if (!residual_.empty()) out += " residual=[" + ExprList(residual_) + "]";
  return out;
}

uint64_t IndexNLJoinOp::EstimateRowsImpl(const Catalog* catalog) const {
  uint64_t left = left_->EstimateRows(catalog);
  uint64_t per_probe =
      IndexIsUnique(catalog, table_name_, index_name_) ? 1 : 10;
  uint64_t product =
      (left != 0 && per_probe > UINT64_MAX / left) ? UINT64_MAX
                                                   : left * per_probe;
  return Shrink(product, residual_.size());
}

std::string AggregateOp::detail() const {
  std::string out;
  if (!group_keys_.empty()) out = "group=[" + ExprList(group_keys_) + "]";
  if (!aggs_.empty()) {
    if (!out.empty()) out += " ";
    out += "aggs=" + std::to_string(aggs_.size());
  }
  return out;
}

uint64_t AggregateOp::EstimateRowsImpl(const Catalog* catalog) const {
  if (scalar_) return 1;
  uint64_t child = child_->EstimateRows(catalog);
  return child / 4 + (child > 0 ? 1 : 0);
}

std::string SortOp::detail() const {
  std::string out;
  for (const Key& k : keys_) {
    if (!out.empty()) out += ", ";
    out += k.expr->ToString() + (k.ascending ? " asc" : " desc");
  }
  return out;
}

uint64_t SortOp::EstimateRowsImpl(const Catalog* catalog) const {
  return child_->EstimateRows(catalog);
}

uint64_t DistinctOp::EstimateRowsImpl(const Catalog* catalog) const {
  uint64_t child = child_->EstimateRows(catalog);
  return child / 2 + (child > 0 ? 1 : 0);
}

std::string LimitOp::detail() const {
  std::string out = "limit=" + std::to_string(limit_);
  if (offset_ > 0) out += " offset=" + std::to_string(offset_);
  return out;
}

uint64_t LimitOp::EstimateRowsImpl(const Catalog* catalog) const {
  return std::min(child_->EstimateRows(catalog),
                  static_cast<uint64_t>(limit_ < 0 ? 0 : limit_));
}

std::string UnionOp::detail() const { return distinct_ ? "distinct" : "all"; }

uint64_t UnionOp::EstimateRowsImpl(const Catalog* catalog) const {
  uint64_t sum = 0;
  for (const auto& c : children_) sum += c->EstimateRows(catalog);
  return sum;
}

uint64_t IntersectExceptOp::EstimateRowsImpl(const Catalog* catalog) const {
  uint64_t left = left_->EstimateRows(catalog);
  return left / 2 + (left > 0 ? 1 : 0);
}

}  // namespace xnf::exec
