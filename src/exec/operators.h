#ifndef XNF_EXEC_OPERATORS_H_
#define XNF_EXEC_OPERATORS_H_

#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "catalog/mvcc.h"
#include "exec/access.h"
#include "exec/eval.h"
#include "exec/operator.h"
#include "exec/parallel.h"
#include "qgm/qgm.h"
#include "storage/index.h"

namespace xnf::exec {

// Literal / borrowed row source.
class ValuesOp : public Operator {
 public:
  ValuesOp(Schema schema, std::vector<Row> rows)
      : Operator(std::move(schema)), rows_(std::move(rows)) {}
  ValuesOp(Schema schema, const ResultSet* ext)
      : Operator(std::move(schema)), ext_(ext) {}

  std::string label() const override { return "Values"; }
  std::string detail() const override;

 protected:
  Status OpenImpl(ExecContext* ctx) override;
  Status NextBatchImpl(RowBatch* out) override;
  uint64_t EstimateRowsImpl(const Catalog* catalog) const override;

 private:
  std::vector<Row> rows_;
  const ResultSet* ext_ = nullptr;
  size_t pos_ = 0;
};

// Full scan of a base table with optional pushed-down filters (compiled with
// slots over the table row alone; must be subquery-free). Open finds the
// rows through FindRows, morsel-parallel when the database has a worker
// pool, unless a consumer takes column batches (RequestLateScan).
class SeqScanOp : public Operator {
 public:
  SeqScanOp(Schema schema, std::string table_name,
            std::vector<qgm::ExprPtr> filters)
      : Operator(std::move(schema)), table_name_(std::move(table_name)) {
    access_.filters = std::move(filters);
  }

  std::string label() const override { return "SeqScan"; }
  std::string detail() const override;

  // Planner decision: per-table-column bitmap of columns the rest of the
  // plan may read (filters included). Columnar scans skip decoding columns
  // outside the set and emit NULL placeholders there; row scans ignore it.
  void set_referenced(std::vector<char> referenced) {
    referenced_ = std::move(referenced);
  }

  // Storage layout of the scanned table (EXPLAIN annotation).
  void set_storage_kind(StorageKind kind) { storage_kind_ = kind; }

  // CLUSTER BY column name of the scanned table (EXPLAIN annotation).
  void set_cluster_column(std::string name) {
    cluster_column_ = std::move(name);
  }

  SeqScanOp* AsSeqScan() override { return this; }

  // Consumer protocol for zero-copy column batches. A parent that can
  // process ColBatches (hash join, aggregation) calls RequestLateScan()
  // before Open; if the scan could take the late path, late_scan() returns
  // the batches after Open and the parent reads column views directly.
  // NextBatch still works either way — when the late path was taken it
  // materializes rows from the batches, so a parent may request late
  // speculatively and fall back to pulling rows.
  void RequestLateScan() { late_requested_ = true; }
  LateScan* late_scan() { return late_.store != nullptr ? &late_ : nullptr; }

  void CloseImpl() override;

 protected:
  Status OpenImpl(ExecContext* ctx) override;
  Status NextBatchImpl(RowBatch* out) override;
  uint64_t EstimateRowsImpl(const Catalog* catalog) const override;

 private:
  // Folds the late batches' decode counts into the operator's columnar
  // stats (called once per execution, before the batches are dropped).
  void FlushLateStats();

  std::string table_name_;
  TableAccess access_;  // a scan: no index, the pushed filters
  std::optional<std::vector<char>> referenced_;
  StorageKind storage_kind_ = StorageKind::kRow;
  std::string cluster_column_;
  ExecContext* ctx_ = nullptr;
  std::vector<Row> buffered_;  // materialized at Open (heap scan is callback)
  size_t pos_ = 0;
  bool late_requested_ = false;
  LateScan late_;       // store != nullptr iff the late path was taken
  size_t late_batch_ = 0;  // NextBatch fallback cursor over late_.batches
  size_t late_slot_ = 0;
};

// Index probe chosen by ChooseAccess (key: constants or correlation
// params) plus its residual filters, run by FindRows: exact at the
// statement's snapshot, rid order.
class IndexLookupOp : public Operator {
 public:
  IndexLookupOp(Schema schema, std::string table_name, TableAccess access)
      : Operator(std::move(schema)),
        table_name_(std::move(table_name)),
        access_(std::move(access)) {}

  std::string label() const override { return "IndexLookup"; }
  std::string detail() const override;

 protected:
  Status OpenImpl(ExecContext* ctx) override;
  Status NextBatchImpl(RowBatch* out) override;
  uint64_t EstimateRowsImpl(const Catalog* catalog) const override;

 private:
  std::string table_name_;
  TableAccess access_;
  std::vector<Row> buffered_;
  size_t pos_ = 0;
};

// Residual predicate filter. Predicates are evaluated batch-wise;
// subquery-bearing predicates fall back to scalar evaluation per row via the
// shared SubqueryEnv.
class FilterOp : public Operator {
 public:
  FilterOp(OperatorPtr child, std::vector<qgm::ExprPtr> predicates,
           std::shared_ptr<SubqueryEnv> env)
      : Operator(child->schema()),
        child_(std::move(child)),
        predicates_(std::move(predicates)),
        env_(std::move(env)) {}

  void CloseImpl() override { child_->Close(); }
  std::string label() const override { return "Filter"; }
  std::string detail() const override;
  void AppendChildren(std::vector<const Operator*>* out) const override {
    out->push_back(child_.get());
  }

 protected:
  Status OpenImpl(ExecContext* ctx) override;
  Status NextBatchImpl(RowBatch* out) override;
  uint64_t EstimateRowsImpl(const Catalog* catalog) const override;

 private:
  OperatorPtr child_;
  std::vector<qgm::ExprPtr> predicates_;
  std::shared_ptr<SubqueryEnv> env_;
  ExecContext* ctx_ = nullptr;
  RowBatch input_;  // reused per-call staging batch
};

// Projection (the SELECT-box head). Head expressions are evaluated
// column-wise over each input batch.
class ProjectOp : public Operator {
 public:
  ProjectOp(Schema schema, OperatorPtr child, std::vector<qgm::ExprPtr> exprs,
            std::shared_ptr<SubqueryEnv> env)
      : Operator(std::move(schema)),
        child_(std::move(child)),
        exprs_(std::move(exprs)),
        env_(std::move(env)) {}

  void CloseImpl() override { child_->Close(); }
  std::string label() const override { return "Project"; }
  std::string detail() const override;
  void AppendChildren(std::vector<const Operator*>* out) const override {
    out->push_back(child_.get());
  }

 protected:
  Status OpenImpl(ExecContext* ctx) override;
  Status NextBatchImpl(RowBatch* out) override;
  uint64_t EstimateRowsImpl(const Catalog* catalog) const override;

 private:
  OperatorPtr child_;
  std::vector<qgm::ExprPtr> exprs_;
  std::shared_ptr<SubqueryEnv> env_;
  ExecContext* ctx_ = nullptr;
  RowBatch input_;
};

// Nested-loop join; supports inner and left-outer. The output row is the
// concatenation left ++ right; predicates see that layout.
class NestedLoopJoinOp : public Operator {
 public:
  NestedLoopJoinOp(Schema schema, OperatorPtr left, OperatorPtr right,
                   std::vector<qgm::ExprPtr> predicates, bool left_outer)
      : Operator(std::move(schema)),
        left_(std::move(left)),
        right_(std::move(right)),
        predicates_(std::move(predicates)),
        left_outer_(left_outer) {}

  void CloseImpl() override {
    left_->Close();
    right_->Close();
  }
  std::string label() const override { return "NestedLoopJoin"; }
  std::string detail() const override;
  void AppendChildren(std::vector<const Operator*>* out) const override {
    out->push_back(left_.get());
    out->push_back(right_.get());
  }

 protected:
  Status OpenImpl(ExecContext* ctx) override;
  Status NextBatchImpl(RowBatch* out) override;
  uint64_t EstimateRowsImpl(const Catalog* catalog) const override;

 private:
  // Pulls the next left row into current_left_; sets done when exhausted.
  Result<bool> AdvanceLeft();

  OperatorPtr left_;
  OperatorPtr right_;
  std::vector<qgm::ExprPtr> predicates_;
  bool left_outer_;
  ExecContext* ctx_ = nullptr;
  RowBatch left_batch_;
  size_t left_pos_ = 0;
  std::optional<Row> current_left_;
  std::vector<Row> right_rows_;  // materialized once at Open
  size_t right_pos_ = 0;
  bool matched_ = false;
};

// Hash equi-join; build side = right. Residual predicates see left ++ right.
// Probe keys are computed column-wise per left batch.
class HashJoinOp : public Operator {
 public:
  HashJoinOp(Schema schema, OperatorPtr left, OperatorPtr right,
             std::vector<qgm::ExprPtr> left_keys,
             std::vector<qgm::ExprPtr> right_keys,
             std::vector<qgm::ExprPtr> residual, bool left_outer)
      : Operator(std::move(schema)),
        left_(std::move(left)),
        right_(std::move(right)),
        left_keys_(std::move(left_keys)),
        right_keys_(std::move(right_keys)),
        residual_(std::move(residual)),
        left_outer_(left_outer) {}

  void CloseImpl() override {
    left_->Close();
    right_->Close();
    // The scan children's batches are gone after Close; drop everything
    // that referenced them (rebuilt by the next Open).
    build_scan_ = nullptr;
    probe_scan_ = nullptr;
    ref_table_.clear();
    code_table_.clear();
    probe_code_map_.clear();
    matches_ = nullptr;
    ref_matches_ = nullptr;
  }
  std::string label() const override { return "HashJoin"; }
  std::string detail() const override;
  void AppendChildren(std::vector<const Operator*>* out) const override {
    out->push_back(left_.get());
    out->push_back(right_.get());
  }

 protected:
  Status OpenImpl(ExecContext* ctx) override;
  Status NextBatchImpl(RowBatch* out) override;
  uint64_t EstimateRowsImpl(const Catalog* catalog) const override;

 private:
  // Row build table: key -> build rows in build-input order. The per-key
  // vector makes the match order an explicit invariant (input order)
  // instead of relying on unordered_multimap iteration.
  using BuildTable = std::unordered_map<Row, std::vector<Row>, RowHash, RowEq>;

  // A build row kept in place inside a scan's column batch: decoded only
  // when a probe actually matches it.
  struct BuildRef {
    uint32_t batch = 0;
    uint32_t row = 0;
  };
  using RefTable =
      std::unordered_map<Row, std::vector<BuildRef>, RowHash, RowEq>;

  // How the build side is held. kRow: materialized rows (the classic path,
  // and the only one for non-scan build children). kRef: key values are
  // decoded from the build scan's column views, but the rows themselves
  // stay in the batches until a probe matches. kCode: single STRING key on
  // both sides of the join with unoverflowed dictionaries — the table is
  // indexed by the build side's dictionary code, probes translate their
  // code through a probe-dict -> build-dict map, and string payloads are
  // never compared at all.
  enum class BuildMode { kRow, kRef, kCode };

  // Pulls the next left row + its probe matches; false at end of stream.
  Result<bool> AdvanceLeft();
  // Same, reading the probe key straight from the left scan's column
  // batches and deferring row materialization until a match (or outer pad)
  // needs it.
  Result<bool> AdvanceLeftColumnar();
  // Points matches_ (kRow) or ref_matches_ (kRef) at the build entries for
  // a non-NULL probe key; leaves both null when nothing matches.
  void LookupMatches(const Row& key);
  // Builds kRef / kCode tables over the right scan's column batches.
  Status OpenBuildColumnar();
  // Materializes current_left_row_ if AdvanceLeftColumnar deferred it.
  Status EnsureLeftRow();
  size_t NumMatches() const;
  Result<Row> MatchRow(size_t i);

  OperatorPtr left_;
  OperatorPtr right_;
  std::vector<qgm::ExprPtr> left_keys_;
  std::vector<qgm::ExprPtr> right_keys_;
  std::vector<qgm::ExprPtr> residual_;
  bool left_outer_;
  ExecContext* ctx_ = nullptr;
  BuildTable build_table_;  // kRow
  BuildMode build_mode_ = BuildMode::kRow;
  LateScan* build_scan_ = nullptr;  // owned by right_'s SeqScan
  LateScan* probe_scan_ = nullptr;  // owned by left_'s SeqScan
  RefTable ref_table_;              // kRef
  std::vector<std::vector<BuildRef>> code_table_;  // kCode: build code -> refs
  std::vector<uint32_t> probe_code_map_;  // kCode: probe code -> build code
  bool code_identity_ = false;  // kCode self-join: codes shared, skip the map
  size_t code_build_slot_ = 0;  // kCode: key column in the build schema
  size_t code_probe_slot_ = 0;  // kCode: key column in the probe schema
  RowBatch left_batch_;
  std::vector<std::vector<Value>> left_key_cols_;  // one column per key expr
  size_t left_pos_ = 0;
  size_t probe_batch_ = 0;  // columnar probe cursor
  size_t probe_slot_ = 0;
  size_t probe_row_batch_ = 0;  // position of the current probe row
  size_t probe_row_slot_ = 0;
  bool have_left_ = false;
  bool left_materialized_ = false;
  Row current_left_row_;
  const std::vector<Row>* matches_ = nullptr;
  const std::vector<BuildRef>* ref_matches_ = nullptr;
  size_t match_pos_ = 0;
  bool matched_ = false;
  size_t right_width_ = 0;
};

// Index nested-loop join: for each left row, evaluates `keys` (over the left
// row, column-wise per batch) and probes `index_name` on `table_name` through
// LookupVisible, so matches are the rows visible at the statement's snapshot,
// in rid order. Output = left ++ table row.
class IndexNLJoinOp : public Operator {
 public:
  IndexNLJoinOp(Schema schema, OperatorPtr left, std::string table_name,
                std::string index_name, std::vector<qgm::ExprPtr> keys,
                std::vector<qgm::ExprPtr> residual)
      : Operator(std::move(schema)),
        left_(std::move(left)),
        table_name_(std::move(table_name)),
        index_name_(std::move(index_name)),
        keys_(std::move(keys)),
        residual_(std::move(residual)) {}

  void CloseImpl() override { left_->Close(); }
  std::string label() const override { return "IndexNLJoin"; }
  std::string detail() const override;
  void AppendChildren(std::vector<const Operator*>* out) const override {
    out->push_back(left_.get());
  }

 protected:
  Status OpenImpl(ExecContext* ctx) override;
  Status NextBatchImpl(RowBatch* out) override;
  uint64_t EstimateRowsImpl(const Catalog* catalog) const override;

 private:
  Result<bool> AdvanceLeft();

  OperatorPtr left_;
  std::string table_name_;
  std::string index_name_;
  std::vector<qgm::ExprPtr> keys_;
  std::vector<qgm::ExprPtr> residual_;
  ExecContext* ctx_ = nullptr;
  TableInfo* table_ = nullptr;
  Index* index_ = nullptr;
  RowBatch left_batch_;
  std::vector<std::vector<Value>> left_key_cols_;
  size_t left_pos_ = 0;
  std::optional<Row> current_left_;
  // The inner table's overlay at the statement's snapshot, built once per
  // Open: every probe is an exact LookupVisible, concurrent writers or not.
  TransactionManager::Overlay overlay_;
  // The current left row's visible inner matches, in rid order.
  std::vector<Row> matched_;
  size_t match_pos_ = 0;
};

// Hash aggregation. Output layout: representative input row ++ one value per
// AggSpec — head expressions then address aggregates at slot
// (input_width + agg_index). Input is drained batch-wise at Open with
// column-wise group-key evaluation.
class AggregateOp : public Operator {
 public:
  AggregateOp(Schema schema, OperatorPtr child,
              std::vector<qgm::ExprPtr> group_keys,
              std::vector<qgm::AggSpec> aggs,
              std::shared_ptr<SubqueryEnv> env, bool scalar)
      : Operator(std::move(schema)),
        child_(std::move(child)),
        group_keys_(std::move(group_keys)),
        aggs_(std::move(aggs)),
        env_(std::move(env)),
        scalar_(scalar) {}

  void CloseImpl() override { child_->Close(); }
  std::string label() const override { return "Aggregate"; }
  std::string detail() const override;
  void AppendChildren(std::vector<const Operator*>* out) const override {
    out->push_back(child_.get());
  }

 protected:
  Status OpenImpl(ExecContext* ctx) override;
  Status NextBatchImpl(RowBatch* out) override;
  uint64_t EstimateRowsImpl(const Catalog* catalog) const override;

 private:
  struct AggState {
    int64_t count = 0;
    Value sum;          // running sum (int or double)
    Value min;
    Value max;
    double avg_sum = 0;
    int64_t avg_count = 0;
    std::vector<Value> distinct_seen;  // small-set distinct tracking
  };
  struct Group {
    Row representative;
    std::vector<AggState> states;
  };
  // Group key -> index into groups_ (first-seen order).
  using GroupIndex = std::unordered_map<Row, size_t, RowHash, RowEq>;

  // The group for `key`, appended with fresh states on first sight; then
  // `*added` is set and the caller fills in the representative row.
  Group* FindOrAddGroup(GroupIndex* index, Row key, bool* added);
  // Scalar aggregation (no GROUP BY) over an empty input still yields one
  // all-default group.
  void AddScalarDefaultGroup();

  Status Accumulate(AggState* state, const qgm::AggSpec& spec,
                    const Row& input, EvalContext* ectx);
  // The arg-value half of Accumulate, shared by the row path (value from
  // EvalExpr) and the columnar path (value from a column view).
  Status AccumulateValue(AggState* state, const qgm::AggSpec& spec, Value v);
  // Accumulates straight off the child scan's column batches: group keys
  // and agg arguments are read from column views, and only each group's
  // first row is materialized (the representative).
  Status AccumulateColumnar(LateScan* scan);
  Result<Value> Finalize(const AggState& state, const qgm::AggSpec& spec) const;

  OperatorPtr child_;
  std::vector<qgm::ExprPtr> group_keys_;
  std::vector<qgm::AggSpec> aggs_;
  std::shared_ptr<SubqueryEnv> env_;
  bool scalar_;
  std::vector<Group> groups_;
  size_t pos_ = 0;
};

// Materializing sort. Sort keys are computed column-wise over the whole
// input at Open.
class SortOp : public Operator {
 public:
  struct Key {
    qgm::ExprPtr expr;  // over child rows
    bool ascending = true;
  };

  SortOp(OperatorPtr child, std::vector<Key> keys,
         std::shared_ptr<SubqueryEnv> env)
      : Operator(child->schema()),
        child_(std::move(child)),
        keys_(std::move(keys)),
        env_(std::move(env)) {}

  void CloseImpl() override { child_->Close(); }
  std::string label() const override { return "Sort"; }
  std::string detail() const override;
  void AppendChildren(std::vector<const Operator*>* out) const override {
    out->push_back(child_.get());
  }

 protected:
  Status OpenImpl(ExecContext* ctx) override;
  Status NextBatchImpl(RowBatch* out) override;
  uint64_t EstimateRowsImpl(const Catalog* catalog) const override;

 private:
  OperatorPtr child_;
  std::vector<Key> keys_;
  std::shared_ptr<SubqueryEnv> env_;
  std::vector<Row> rows_;
  size_t pos_ = 0;
};

// Hash-based duplicate elimination over whole rows.
class DistinctOp : public Operator {
 public:
  explicit DistinctOp(OperatorPtr child) : Operator(child->schema()),
                                           child_(std::move(child)) {}

  void CloseImpl() override { child_->Close(); }
  std::string label() const override { return "Distinct"; }
  void AppendChildren(std::vector<const Operator*>* out) const override {
    out->push_back(child_.get());
  }

 protected:
  Status OpenImpl(ExecContext* ctx) override;
  Status NextBatchImpl(RowBatch* out) override;
  uint64_t EstimateRowsImpl(const Catalog* catalog) const override;

 private:
  OperatorPtr child_;
  std::unordered_set<Row, RowHash, RowEq> seen_;
  RowBatch input_;
};

class LimitOp : public Operator {
 public:
  LimitOp(OperatorPtr child, int64_t limit, int64_t offset = 0)
      : Operator(child->schema()),
        child_(std::move(child)),
        limit_(limit),
        offset_(offset) {}

  void CloseImpl() override { child_->Close(); }
  std::string label() const override { return "Limit"; }
  std::string detail() const override;
  void AppendChildren(std::vector<const Operator*>* out) const override {
    out->push_back(child_.get());
  }

 protected:
  Status OpenImpl(ExecContext* ctx) override;
  Status NextBatchImpl(RowBatch* out) override;
  uint64_t EstimateRowsImpl(const Catalog* catalog) const override;

 private:
  OperatorPtr child_;
  int64_t limit_;
  int64_t offset_;
  int64_t skipped_ = 0;
  int64_t produced_ = 0;
  RowBatch input_;
};

// Concatenation of children (UNION ALL); with `distinct` dedups.
class UnionOp : public Operator {
 public:
  UnionOp(Schema schema, std::vector<OperatorPtr> children, bool distinct)
      : Operator(std::move(schema)),
        children_(std::move(children)),
        distinct_(distinct) {}

  void CloseImpl() override {
    for (auto& c : children_) c->Close();
  }
  std::string label() const override { return "Union"; }
  std::string detail() const override;
  void AppendChildren(std::vector<const Operator*>* out) const override {
    for (const auto& c : children_) out->push_back(c.get());
  }

 protected:
  Status OpenImpl(ExecContext* ctx) override;
  Status NextBatchImpl(RowBatch* out) override;
  uint64_t EstimateRowsImpl(const Catalog* catalog) const override;

 private:
  std::vector<OperatorPtr> children_;
  bool distinct_;
  ExecContext* ctx_ = nullptr;
  size_t current_ = 0;
  std::unordered_set<Row, RowHash, RowEq> seen_;
  RowBatch input_;
};

// SQL INTERSECT / EXCEPT with distinct semantics: deduplicated left rows
// that are (kIntersect) or are not (kExcept) present in the right input.
class IntersectExceptOp : public Operator {
 public:
  IntersectExceptOp(Schema schema, OperatorPtr left, OperatorPtr right,
                    bool is_except)
      : Operator(std::move(schema)),
        left_(std::move(left)),
        right_(std::move(right)),
        is_except_(is_except) {}

  void CloseImpl() override {
    left_->Close();
    right_->Close();
  }
  std::string label() const override {
    return is_except_ ? "Except" : "Intersect";
  }
  void AppendChildren(std::vector<const Operator*>* out) const override {
    out->push_back(left_.get());
    out->push_back(right_.get());
  }

 protected:
  Status OpenImpl(ExecContext* ctx) override;
  Status NextBatchImpl(RowBatch* out) override;
  uint64_t EstimateRowsImpl(const Catalog* catalog) const override;

 private:
  OperatorPtr left_;
  OperatorPtr right_;
  bool is_except_;
  std::unordered_set<Row, RowHash, RowEq> right_rows_;
  std::unordered_set<Row, RowHash, RowEq> emitted_;
  RowBatch input_;
};

}  // namespace xnf::exec

#endif  // XNF_EXEC_OPERATORS_H_
