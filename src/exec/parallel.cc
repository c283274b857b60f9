#include "exec/parallel.h"

#include <algorithm>
#include <array>
#include <functional>
#include <optional>
#include <utility>

#include "catalog/mvcc.h"
#include "common/metrics.h"
#include "common/thread_pool.h"
#include "exec/access.h"
#include "exec/eval.h"
#include "exec/kernels.h"
#include "storage/column_store.h"

namespace xnf::exec {
namespace {

// One morsel's output: rows (+ rids) from a gathering scan, or column
// batches from the batch scan, plus the decode / pruning counters.
struct MorselOut {
  std::vector<Row> rows;
  std::vector<Rid> rids;
  std::vector<ColBatch> batches;
  uint64_t columns_decoded = 0;
  uint64_t columns_skipped = 0;
  uint64_t groups_pruned = 0;  // clustered tables: groups skipped by tag
  uint64_t groups_total = 0;
};

// Scans pages [begin, end), staging rows in kBatchSize chunks and running
// the filters batch-wise — the same kernel sequence as the serial scan, so
// per-morsel output equals the corresponding slice of a serial scan. With
// an MVCC overlay the physical rows are merged with the snapshot's version
// images first; the overlay is immutable, so concurrent morsels share it.
Status ScanMorsel(const TableStorage& storage,
                  const TransactionManager::Overlay* overlay, uint32_t begin,
                  uint32_t end, const std::vector<qgm::ExprPtr>& filters,
                  ExecContext* exec, bool want_rids, MorselOut* out) {
  EvalContext ectx;
  ectx.exec = exec;
  std::vector<Row> staged;
  std::vector<Rid> staged_rids;
  auto flush = [&] {
    return FilterAppend(filters, &ectx, &staged, &out->rows, &staged_rids,
                        want_rids ? &out->rids : nullptr);
  };
  Status status = Status::Ok();
  auto stage = [&](Rid rid, const Row& row) {
    staged.push_back(row);
    if (want_rids) staged_rids.push_back(rid);
    if (staged.size() >= kBatchSize) {
      status = flush();
      return status.ok();
    }
    return true;
  };
  if (overlay != nullptr) {
    XNF_RETURN_IF_ERROR(TransactionManager::VisibleScanRange(
        storage, *overlay, begin, end, stage));
  } else {
    XNF_RETURN_IF_ERROR(storage.ScanRange(begin, end, stage));
  }
  XNF_RETURN_IF_ERROR(status);
  return flush();
}

// Pins a morsel's page range for the task's lifetime. The unpin lives in a
// destructor so it runs on *every* exit path — in particular when the scan
// or a sibling task fails and RunAll returns the error; leaking these pins
// would exempt the pages from eviction forever.
struct MorselPinGuard {
  const TableStorage& storage;
  uint32_t begin;
  uint32_t end;
  MorselPinGuard(const TableStorage& s, uint32_t b, uint32_t e)
      : storage(s), begin(b), end(e) {
    storage.PinRange(begin, end);
  }
  ~MorselPinGuard() { storage.UnpinRange(begin, end); }
};

using MorselFn = std::function<Status(uint32_t begin, uint32_t end,
                                      MorselOut* out)>;

// The morsel driver of every filtering scan: splits the table's pages into
// page-range morsels, runs `morsel` over them on the executor pool, and
// concatenates the outputs in morsel (= page) order into `merged`, so the
// result is identical to a single serial morsel at any DOP. Runs the whole
// table as one morsel, serially, when there is no pool, its DOP is 1, or
// the table is small. Adds the morsels' counters and the DOP used to
// `stats`.
Status RunMorsels(const TableStorage& storage, ExecContext* ctx,
                  const MorselFn& morsel, MorselOut* merged,
                  ScanStats* stats) {
  const uint32_t pages = static_cast<uint32_t>(storage.page_count());
  ThreadPool* pool =
      ctx->catalog != nullptr ? ctx->catalog->exec_pool() : nullptr;
  const int dop = pool != nullptr ? pool->dop() : 1;
  auto add_counters = [stats](const MorselOut& out) {
    stats->columns_decoded += out.columns_decoded;
    stats->columns_skipped += out.columns_skipped;
    stats->groups_pruned += out.groups_pruned;
    stats->groups_total += out.groups_total;
  };

  if (dop <= 1 || pages < 2 * kMinMorselPages) {
    XNF_RETURN_IF_ERROR(morsel(0, pages, merged));
    add_counters(*merged);
    return Status::Ok();
  }

  // Aim for ~4 morsels per worker so fast workers pick up slack from slow
  // ones, but never below kMinMorselPages pages per morsel.
  const uint32_t morsel_pages =
      std::max(kMinMorselPages, pages / (static_cast<uint32_t>(dop) * 4));
  const size_t n_morsels = (pages + morsel_pages - 1) / morsel_pages;
  std::vector<MorselOut> outs(n_morsels);
  std::vector<std::function<Status()>> tasks;
  tasks.reserve(n_morsels);
  for (size_t m = 0; m < n_morsels; ++m) {
    const uint32_t begin = static_cast<uint32_t>(m) * morsel_pages;
    const uint32_t end = std::min(pages, begin + morsel_pages);
    tasks.push_back([&storage, &morsel, begin, end, out = &outs[m]] {
      // The morsel pin covers the scan's reads; a ColBatch carries its own
      // nested pin past the task.
      MorselPinGuard pins(storage, begin, end);
      return morsel(begin, end, out);
    });
  }
  XNF_RETURN_IF_ERROR(pool->RunAll(std::move(tasks)));
  stats->dop = static_cast<int>(
      std::min<size_t>(static_cast<size_t>(dop), n_morsels));

  size_t rows = 0;
  size_t rids = 0;
  size_t batches = 0;
  for (const MorselOut& o : outs) {
    rows += o.rows.size();
    rids += o.rids.size();
    batches += o.batches.size();
  }
  merged->rows.reserve(rows);
  merged->rids.reserve(rids);
  merged->batches.reserve(batches);
  for (MorselOut& o : outs) {
    add_counters(o);
    merged->rows.insert(merged->rows.end(),
                        std::make_move_iterator(o.rows.begin()),
                        std::make_move_iterator(o.rows.end()));
    merged->rids.insert(merged->rids.end(), o.rids.begin(), o.rids.end());
    merged->batches.insert(merged->batches.end(),
                           std::make_move_iterator(o.batches.begin()),
                           std::make_move_iterator(o.batches.end()));
  }
  return Status::Ok();
}

// --- Columnar kernel path ----------------------------------------------

// One scan filter compiled to kernel dispatch. Only filters whose constant
// side is a *literal* are kernelized: a literal can neither error at
// runtime nor change type between rows, so evaluating it over a whole
// group — including rows an earlier conjunct already rejected — is
// observationally identical to the scalar conjunct loop, which skips them.
struct KernelFilter {
  enum class Kind {
    kCmpI64,     // int64 lane vs int64 constant
    kCmpF64,     // double lane vs double constant
    kCmpI64F64,  // int64 lane widened vs double constant (mixed numeric)
    kCmpCode,    // dictionary codes vs per-code verdict table
    kIsNull,     // null-bitmap test (IS [NOT] NULL)
    kRejectAll,  // statically-unknown comparison (NULL literal or
                 // type-mismatched literal): three-valued logic makes the
                 // predicate unknown for every row, and WHERE rejects it
  };
  Kind kind = Kind::kRejectAll;
  size_t column = 0;
  CmpOp cmp = CmpOp::kEq;
  int64_t i64_const = 0;
  double f64_const = 0.0;
  std::vector<char> verdict;  // kCmpCode: outcome per dictionary code
  bool keep_null = false;     // kIsNull: IS NULL vs IS NOT NULL
  // Optional arithmetic pre-stage: lane = col (arith_op) literal.
  bool has_arith = false;
  sql::BinOp arith_op = sql::BinOp::kAdd;
  bool arith_col_left = true;
  bool arith_is_int = false;  // INT column with an INT literal
  int64_t arith_i64 = 0;
  double arith_f64 = 0.0;
  // Per-kernel-kind metrics (kernel.<kind>.*), resolved at plan build; null
  // when metrics are off. rows_in/rows_kept count *alive* rows before and
  // after the kernel, so kept/in is the kernel's observed selectivity.
  Counter* invocations = nullptr;
  Counter* rows_in = nullptr;
  Counter* rows_kept = nullptr;
};

// Metric-name segment for a kernel kind.
const char* KernelKindName(KernelFilter::Kind kind) {
  switch (kind) {
    case KernelFilter::Kind::kCmpI64: return "cmp_i64";
    case KernelFilter::Kind::kCmpF64: return "cmp_f64";
    case KernelFilter::Kind::kCmpI64F64: return "cmp_i64_f64";
    case KernelFilter::Kind::kCmpCode: return "cmp_dict";
    case KernelFilter::Kind::kIsNull: return "is_null";
    case KernelFilter::Kind::kRejectAll: return "reject_all";
  }
  return "?";
}

struct ColumnScanPlan {
  const ColumnStore* store = nullptr;
  std::vector<KernelFilter> kernels;  // compiled prefix of the filters
  size_t kernel_filter_count = 0;     // how many filters the prefix covers
  std::vector<char> need_values;      // per column: decode values, not just
                                      // the null bitmap
  std::vector<char> materialize;      // per column: emit into output rows
};

// A scan-level InputRef: pushed scan filters are compiled with quantifier
// offset zero, so `slot` is the table column index.
bool AsColumnRef(const qgm::Expr& e, size_t ncols, size_t* column) {
  if (e.kind != qgm::Expr::Kind::kInputRef) return false;
  if (e.slot < 0 || static_cast<size_t>(e.slot) >= ncols) return false;
  *column = static_cast<size_t>(e.slot);
  return true;
}

// Compiles `lane cmp literal` where the lane is a raw column (lane_type is
// the column type) or an arithmetic result (kInt/kDouble). Returns false
// only when the comparison must stay scalar (overflowed dictionary).
bool CompileCmp(const ColumnStore& store, size_t column, Type lane_type,
                CmpOp cmp, const Value& lit, KernelFilter* out) {
  out->column = column;
  out->cmp = cmp;
  // NULL literal: the comparison is unknown for every row.
  if (lit.is_null()) {
    out->kind = KernelFilter::Kind::kRejectAll;
    return true;
  }
  switch (lane_type) {
    case Type::kBool:
      // BOOL compares only with BOOL (as 0/1); anything else is unknown.
      if (lit.is_bool()) {
        out->kind = KernelFilter::Kind::kCmpI64;
        out->i64_const = lit.AsBool() ? 1 : 0;
      } else {
        out->kind = KernelFilter::Kind::kRejectAll;
      }
      return true;
    case Type::kInt:
      if (lit.is_int()) {
        out->kind = KernelFilter::Kind::kCmpI64;
        out->i64_const = lit.AsInt();
      } else if (lit.is_double()) {
        out->kind = KernelFilter::Kind::kCmpI64F64;
        out->f64_const = lit.AsDouble();
      } else {
        out->kind = KernelFilter::Kind::kRejectAll;
      }
      return true;
    case Type::kDouble:
      if (lit.is_numeric()) {
        out->kind = KernelFilter::Kind::kCmpF64;
        out->f64_const = lit.AsDouble();
      } else {
        out->kind = KernelFilter::Kind::kRejectAll;
      }
      return true;
    case Type::kString: {
      if (!lit.is_string()) {
        out->kind = KernelFilter::Kind::kRejectAll;
        return true;
      }
      // Once a dictionary overflowed, codes are segment-local and not
      // comparable table-wide; leave the filter to the scalar path.
      if (store.DictOverflowed(column)) return false;
      const std::vector<std::string>& dict = store.Dictionary(column);
      // An empty dictionary means every stored value is NULL (the NULL
      // placeholder code 0 has no entry, so a verdict table sized to the
      // dictionary would be indexed out of bounds): the comparison is
      // unknown for every row, and WHERE rejects unknown.
      if (dict.empty()) {
        out->kind = KernelFilter::Kind::kRejectAll;
        return true;
      }
      const std::string& s = lit.AsString();
      out->kind = KernelFilter::Kind::kCmpCode;
      out->verdict.resize(dict.size());
      for (size_t code = 0; code < dict.size(); ++code) {
        bool v = false;
        switch (cmp) {
          case CmpOp::kEq: v = dict[code] == s; break;
          case CmpOp::kNe: v = dict[code] != s; break;
          case CmpOp::kLt: v = dict[code] < s; break;
          case CmpOp::kLe: v = dict[code] <= s; break;
          case CmpOp::kGt: v = dict[code] > s; break;
          case CmpOp::kGe: v = dict[code] >= s; break;
        }
        out->verdict[code] = v ? 1 : 0;
      }
      return true;
    }
    default:
      return false;
  }
}

// Matches `col (+|-|*) literal` / `literal (+|-|*) col` over a numeric
// column with a numeric literal — the only arithmetic shapes with no
// runtime error path (division/modulo keep their divide-by-zero error and
// stay scalar). Fills the arith fields of `out` and the lane type the
// comparison will see.
bool AsArithLane(const qgm::Expr& e, const ColumnStore& store,
                 KernelFilter* out, Type* lane_type) {
  if (e.kind != qgm::Expr::Kind::kBinary) return false;
  if (e.bin_op != sql::BinOp::kAdd && e.bin_op != sql::BinOp::kSub &&
      e.bin_op != sql::BinOp::kMul) {
    return false;
  }
  size_t column = 0;
  const qgm::Expr* lit = nullptr;
  bool col_left = false;
  if (AsColumnRef(*e.args[0], store.num_columns(), &column) &&
      e.args[1]->kind == qgm::Expr::Kind::kLiteral) {
    lit = e.args[1].get();
    col_left = true;
  } else if (AsColumnRef(*e.args[1], store.num_columns(), &column) &&
             e.args[0]->kind == qgm::Expr::Kind::kLiteral) {
    lit = e.args[0].get();
  } else {
    return false;
  }
  Type col_type = store.schema().column(column).type;
  if (col_type != Type::kInt && col_type != Type::kDouble) return false;
  // A NULL or non-numeric literal makes the scalar evaluator produce NULL
  // or an error per alive row — not kernelizable.
  if (!lit->literal.is_numeric()) return false;
  out->column = column;
  out->has_arith = true;
  out->arith_op = e.bin_op;
  out->arith_col_left = col_left;
  out->arith_is_int = col_type == Type::kInt && lit->literal.is_int();
  if (out->arith_is_int) {
    out->arith_i64 = lit->literal.AsInt();
  } else {
    out->arith_f64 = lit->literal.AsDouble();
  }
  *lane_type = out->arith_is_int ? Type::kInt : Type::kDouble;
  return true;
}

// Compiles one filter; false = not kernelizable, so it and everything
// after it stay on the scalar batch path (conjunct order is preserved).
bool CompileFilter(const qgm::Expr& f, const ColumnStore& store,
                   KernelFilter* out) {
  using K = qgm::Expr::Kind;
  if (f.kind == K::kIsNull) {
    size_t column = 0;
    if (f.args.empty() ||
        !AsColumnRef(*f.args[0], store.num_columns(), &column)) {
      return false;
    }
    out->kind = KernelFilter::Kind::kIsNull;
    out->column = column;
    out->keep_null = !f.negated;
    return true;
  }
  if (f.kind != K::kBinary || f.args.size() != 2) return false;
  std::optional<CmpOp> cmp = CmpOpFromBinOp(f.bin_op);
  if (!cmp.has_value()) return false;
  const qgm::Expr& l = *f.args[0];
  const qgm::Expr& r = *f.args[1];
  size_t column = 0;
  if (AsColumnRef(l, store.num_columns(), &column) &&
      r.kind == K::kLiteral) {
    Type lane = store.schema().column(column).type;
    return CompileCmp(store, column, lane, *cmp, r.literal, out);
  }
  if (AsColumnRef(r, store.num_columns(), &column) &&
      l.kind == K::kLiteral) {
    Type lane = store.schema().column(column).type;
    return CompileCmp(store, column, lane, SwapCmp(*cmp), l.literal, out);
  }
  KernelFilter arith;
  Type lane = Type::kNull;
  if (AsArithLane(l, store, &arith, &lane) && r.kind == K::kLiteral) {
    if (!CompileCmp(store, arith.column, lane, *cmp, r.literal, out)) {
      return false;
    }
  } else if (AsArithLane(r, store, &arith, &lane) && l.kind == K::kLiteral) {
    if (!CompileCmp(store, arith.column, lane, SwapCmp(*cmp), l.literal,
                    out)) {
      return false;
    }
  } else {
    return false;
  }
  out->has_arith = arith.has_arith;
  out->arith_op = arith.arith_op;
  out->arith_col_left = arith.arith_col_left;
  out->arith_is_int = arith.arith_is_int;
  out->arith_i64 = arith.arith_i64;
  out->arith_f64 = arith.arith_f64;
  out->column = arith.column;
  return true;
}

ColumnScanPlan BuildColumnScanPlan(const ColumnStore& store,
                                   const std::vector<qgm::ExprPtr>& filters,
                                   const std::vector<char>* referenced,
                                   MetricsRegistry* metrics) {
  ColumnScanPlan plan;
  plan.store = &store;
  const size_t ncols = store.num_columns();
  // Kernelize the longest prefix: stopping at the first non-kernelizable
  // filter keeps conjunct order — and with it skip/error semantics —
  // identical to the scalar loop.
  for (const qgm::ExprPtr& f : filters) {
    KernelFilter k;
    if (!CompileFilter(*f, store, &k)) break;
    if (metrics != nullptr) {
      std::string prefix = std::string("kernel.") + KernelKindName(k.kind);
      k.invocations = metrics->counter(prefix + ".invocations");
      k.rows_in = metrics->counter(prefix + ".rows_in");
      k.rows_kept = metrics->counter(prefix + ".rows_kept");
    }
    plan.kernels.push_back(std::move(k));
    ++plan.kernel_filter_count;
  }
  plan.materialize.assign(ncols, referenced == nullptr ? 1 : 0);
  if (referenced != nullptr) {
    for (size_t c = 0; c < ncols && c < referenced->size(); ++c) {
      plan.materialize[c] = (*referenced)[c];
    }
    // Scalar-path filters evaluate against the gathered rows: any column
    // they reference must be materialized regardless of what the rest of
    // the plan reads.
    for (size_t i = plan.kernel_filter_count; i < filters.size(); ++i) {
      qgm::VisitExpr(*filters[i], [&](const qgm::Expr& e) {
        if (e.kind == qgm::Expr::Kind::kInputRef && e.slot >= 0 &&
            static_cast<size_t>(e.slot) < ncols) {
          plan.materialize[e.slot] = 1;
        }
      });
    }
  }
  // IS NULL kernels read only the null bitmap; everything else needs the
  // segment's values decoded.
  plan.need_values = plan.materialize;
  for (const KernelFilter& k : plan.kernels) {
    if (k.kind != KernelFilter::Kind::kIsNull &&
        k.kind != KernelFilter::Kind::kRejectAll) {
      plan.need_values[k.column] = 1;
    }
  }
  return plan;
}

// Runs one compiled kernel over one group's `rows` slots, intersecting the
// outcome into `sel`. `v` is the view of k.column, decoded per the plan's
// need_values (null only for kRejectAll, which reads no column). The arith
// scratch vectors are caller-owned so consecutive groups reuse them.
void ApplyKernel(const KernelFilter& k, const KernelRegistry& reg,
                 const ColumnStore::ColumnView* view, size_t rows,
                 std::vector<int64_t>* arith_i64_scratch,
                 std::vector<double>* arith_f64_scratch, char* sel) {
  switch (k.kind) {
    case KernelFilter::Kind::kRejectAll:
      std::fill(sel, sel + rows, 0);
      return;
    case KernelFilter::Kind::kIsNull:
      reg.null_filter()(view->nulls, rows, k.keep_null, sel);
      return;
    default:
      break;
  }
  const ColumnStore::ColumnView& v = *view;
  const int64_t* ints = v.ints;
  const double* doubles = v.doubles;
  if (k.has_arith) {
    // Derived lane: col (op) literal over the whole group. NULL and dead
    // rows compute well-defined garbage the comparison masks out through
    // the null bitmap / selection vector.
    if (k.arith_is_int) {
      arith_i64_scratch->resize(rows);
      reg.i64_arith(k.arith_op)(v.ints, rows, k.arith_i64, k.arith_col_left,
                                arith_i64_scratch->data());
      ints = arith_i64_scratch->data();
    } else if (v.type == Type::kInt) {
      arith_f64_scratch->resize(rows);
      reg.i64_f64_arith(k.arith_op)(v.ints, rows, k.arith_f64,
                                    k.arith_col_left,
                                    arith_f64_scratch->data());
      doubles = arith_f64_scratch->data();
    } else {
      arith_f64_scratch->resize(rows);
      reg.f64_arith(k.arith_op)(v.doubles, rows, k.arith_f64,
                                k.arith_col_left, arith_f64_scratch->data());
      doubles = arith_f64_scratch->data();
    }
  }
  switch (k.kind) {
    case KernelFilter::Kind::kCmpI64:
      reg.i64_filter(k.cmp)(ints, v.nulls, rows, k.i64_const, sel);
      break;
    case KernelFilter::Kind::kCmpI64F64:
      reg.i64_f64_filter(k.cmp)(ints, v.nulls, rows, k.f64_const, sel);
      break;
    case KernelFilter::Kind::kCmpF64:
      reg.f64_filter(k.cmp)(doubles, v.nulls, rows, k.f64_const, sel);
      break;
    case KernelFilter::Kind::kCmpCode:
      reg.code_filter()(v.codes, v.nulls, rows, k.verdict.data(), sel);
      break;
    default:
      break;
  }
}

template <typename T>
bool CmpScalar(CmpOp op, T a, T b) {
  switch (op) {
    case CmpOp::kEq: return a == b;
    case CmpOp::kNe: return a != b;
    case CmpOp::kLt: return a < b;
    case CmpOp::kLe: return a <= b;
    case CmpOp::kGt: return a > b;
    case CmpOp::kGe: return a >= b;
  }
  return false;
}

// True iff a clustered group's tag alone proves every row fails some
// kernelized filter — the group is then skipped without touching any of
// its pages. Sound because a tagged group's live rows all hold `tag` in
// the cluster column (Insert routes by key; in-place writes of a different
// key drop the tag), so mirroring a kernel on the single tag value decides
// it for the whole group. Conservative: kernels on other columns,
// arithmetic lanes, and tagless groups never prune. Call only for
// clustered stores.
bool GroupPrunedByTag(const ColumnScanPlan& plan, uint32_t g) {
  const ColumnStore& store = *plan.store;
  const int cc = store.cluster_column();
  Value tag;
  const bool has_tag = store.ClusterTag(g, &tag);
  for (const KernelFilter& k : plan.kernels) {
    // A reject-all conjunct empties every group.
    if (k.kind == KernelFilter::Kind::kRejectAll) return true;
    if (!has_tag || k.has_arith || k.column != static_cast<size_t>(cc)) {
      continue;
    }
    switch (k.kind) {
      case KernelFilter::Kind::kIsNull:
        if (tag.is_null() != k.keep_null) return true;
        break;
      case KernelFilter::Kind::kCmpI64: {
        if (tag.is_null()) return true;  // comparison unknown -> rejected
        int64_t v = tag.is_bool() ? (tag.AsBool() ? 1 : 0) : tag.AsInt();
        if (!CmpScalar(k.cmp, v, k.i64_const)) return true;
        break;
      }
      case KernelFilter::Kind::kCmpI64F64:
        if (tag.is_null() ||
            !CmpScalar(k.cmp, static_cast<double>(tag.AsInt()),
                       k.f64_const)) {
          return true;
        }
        break;
      case KernelFilter::Kind::kCmpF64:
        if (tag.is_null() || !CmpScalar(k.cmp, tag.AsDouble(), k.f64_const)) {
          return true;
        }
        break;
      case KernelFilter::Kind::kCmpCode: {
        if (tag.is_null()) return true;
        std::optional<uint32_t> code =
            store.DictCode(static_cast<size_t>(cc), tag.AsString());
        if (code.has_value() && *code < k.verdict.size() &&
            k.verdict[*code] == 0) {
          return true;
        }
        break;
      }
      default:
        break;
    }
  }
  return false;
}

// The per-group filter stage both columnar morsels share. Walks row groups
// [begin, end) in order, skips the groups whose cluster tag fails a
// kernelized filter, opens each remaining group (header read + tombstone
// seeding of the selection vector), runs the kernel prefix over it, and
// hands every non-empty group to the morsel's `take`. The metric
// accumulators are flushed once per morsel: a per-row-group atomic add
// measurably blows the <2% metrics budget (row groups are small), so the
// hot loop stays atomics-free.
class GroupFilter {
 public:
  explicit GroupFilter(const ColumnScanPlan& plan)
      : plan_(plan), kstats_(plan.kernels.size()) {}

  // `open(g)` returns the GroupView to filter group g into; `take()` then
  // consumes that view after the kernel prefix, with alive() possibly 0.
  template <typename Open, typename Take>
  Status Run(uint32_t begin, uint32_t end, MorselOut* out, Open&& open,
             Take&& take) {
    const ColumnStore& store = *plan_.store;
    const bool clustered = store.cluster_column() >= 0;
    for (uint32_t g = begin; g < end; ++g) {
      if (clustered) {
        ++out->groups_total;
        if (GroupPrunedByTag(plan_, g)) {
          ++out->groups_pruned;
          continue;
        }
      }
      GroupView* view = open(g);
      XNF_RETURN_IF_ERROR(view->Open(&store, g));
      ++groups_read_;
      if (view->rows() == 0) continue;
      XNF_RETURN_IF_ERROR(ApplyKernels(view));
      CountViews(view);
      XNF_RETURN_IF_ERROR(take());
    }
    Flush();
    return Status::Ok();
  }

  // Counts the segment views `view` made since it was last counted: the
  // stage counts the kernel prefix's, a gathering `take` its own.
  void CountViews(GroupView* view) {
    segments_viewed_ += view->FlushPendingViews();
  }

 private:
  Status ApplyKernels(GroupView* view) {
    const KernelRegistry& reg = KernelRegistry::Get();
    std::vector<char>& sel = *view->mutable_sel();
    size_t alive = view->alive();
    for (size_t ki = 0; ki < plan_.kernels.size(); ++ki) {
      // Mirror EvalPredicateBatch: once no row is alive, later filters do
      // not run (kernelized filters cannot error, so this is purely a
      // work-skip, not an observable difference).
      if (alive == 0) break;
      const KernelFilter& k = plan_.kernels[ki];
      const ColumnStore::ColumnView* v = nullptr;
      if (k.kind != KernelFilter::Kind::kRejectAll) {
        XNF_RETURN_IF_ERROR(
            view->View(k.column, plan_.need_values[k.column] != 0, &v));
      }
      const size_t alive_in = alive;
      ApplyKernel(k, reg, v, view->rows(), &arith_i64_, &arith_f64_,
                  sel.data());
      alive = 0;
      for (size_t i = 0; i < view->rows(); ++i) {
        alive += static_cast<size_t>(sel[i]);
      }
      kstats_[ki][0] += 1;
      kstats_[ki][1] += alive_in;
      kstats_[ki][2] += alive;
    }
    view->set_alive(alive);
    return Status::Ok();
  }

  // One atomic add per counter per morsel. An error mid-morsel loses the
  // partial counts — metrics are best-effort under failure.
  void Flush() const {
    for (size_t ki = 0; ki < plan_.kernels.size(); ++ki) {
      if (kstats_[ki][0] == 0) continue;
      CounterAdd(plan_.kernels[ki].invocations, kstats_[ki][0]);
      CounterAdd(plan_.kernels[ki].rows_in, kstats_[ki][1]);
      CounterAdd(plan_.kernels[ki].rows_kept, kstats_[ki][2]);
    }
    CounterAdd(plan_.store->group_reads_counter(), groups_read_);
    CounterAdd(plan_.store->segment_views_counter(), segments_viewed_);
  }

  const ColumnScanPlan& plan_;
  // Per kernel: invocations, alive rows in, alive rows kept.
  std::vector<std::array<uint64_t, 3>> kstats_;
  uint64_t groups_read_ = 0;
  uint64_t segments_viewed_ = 0;
  std::vector<int64_t> arith_i64_;  // arithmetic-lane scratch, reused
  std::vector<double> arith_f64_;
};

// Gathering morsel: the filter stage's survivors are gathered into rows
// with only the materialized columns decoded (unreferenced columns come
// back as NULL placeholders), then any filters past the kernel prefix run
// batch-wise on the gathered rows. One GroupView serves every group of the
// morsel, so no group is pinned beyond the morsel's own pins.
Status GatherMorsel(const ColumnScanPlan& plan,
                    const std::vector<qgm::ExprPtr>& filters, uint32_t begin,
                    uint32_t end, ExecContext* exec, bool want_rids,
                    MorselOut* out) {
  const size_t ncols = plan.store->num_columns();
  EvalContext ectx;
  ectx.exec = exec;
  GroupView view;
  std::vector<const ColumnStore::ColumnView*> cols(ncols);
  std::vector<Row> staged;
  std::vector<uint32_t> staged_slots;
  std::vector<char> keep;
  GroupFilter filter(plan);
  auto gather = [&]() -> Status {
    if (view.alive() != 0) {
      for (size_t c = 0; c < ncols; ++c) {
        cols[c] = nullptr;
        if (plan.materialize[c]) {
          XNF_RETURN_IF_ERROR(view.View(c, /*need_values=*/true, &cols[c]));
        }
      }
      filter.CountViews(&view);
      staged.clear();
      staged_slots.clear();
      staged.reserve(view.alive());
      staged_slots.reserve(view.alive());
      const std::vector<char>& sel = view.sel();
      for (size_t i = 0; i < view.rows(); ++i) {
        if (!sel[i]) continue;
        Row row(ncols);
        for (size_t c = 0; c < ncols; ++c) {
          if (cols[c] != nullptr) row[c] = ColumnStore::ViewValue(*cols[c], i);
        }
        staged.push_back(std::move(row));
        staged_slots.push_back(static_cast<uint32_t>(i));
      }
      keep.assign(staged.size(), 1);
      if (plan.kernel_filter_count < filters.size()) {
        std::vector<const Row*> ptrs;
        ptrs.reserve(staged.size());
        for (const Row& r : staged) ptrs.push_back(&r);
        for (size_t fi = plan.kernel_filter_count; fi < filters.size();
             ++fi) {
          XNF_RETURN_IF_ERROR(
              EvalPredicateBatch(*filters[fi], ptrs, &ectx, &keep));
        }
      }
      for (size_t i = 0; i < staged.size(); ++i) {
        if (!keep[i]) continue;
        out->rows.push_back(std::move(staged[i]));
        if (want_rids) out->rids.push_back(Rid{view.group(), staged_slots[i]});
      }
    }
    const uint64_t decoded = view.decoded_columns();
    out->columns_decoded += decoded;
    out->columns_skipped += ncols - decoded;
    return Status::Ok();
  };
  return filter.Run(begin, end, out, [&](uint32_t) { return &view; }, gather);
}

// Batch morsel: the filter stage's survivors stay columnar. Each group is
// filtered inside the ColBatch that will carry it, so the batch's pin is in
// place before the header read and lasts as long as a consumer holds it.
Status BatchMorsel(const ColumnScanPlan& plan, uint32_t begin, uint32_t end,
                   MorselOut* out) {
  ColBatch batch;
  GroupFilter filter(plan);
  return filter.Run(
      begin, end, out,
      [&](uint32_t g) {
        batch = ColBatch(plan.store, g);
        return &batch;
      },
      [&] {
        // From here on the consumer drives the decodes; count them directly.
        batch.AttachViewsCounter(plan.store->segment_views_counter());
        if (batch.alive() != 0) out->batches.push_back(std::move(batch));
        return Status::Ok();
      });
}

// The filters a columnar scan compiles its kernels from: `filters` itself,
// or, when some filter reads a parameter the context binds, a copy in
// `bound` with the parameters bound to their values — so a parameterized
// plan kernelizes and prunes cluster groups exactly like its literal text.
const std::vector<qgm::ExprPtr>& BindFilterParams(
    const std::vector<qgm::ExprPtr>& filters, const ExecContext& ctx,
    std::vector<qgm::ExprPtr>* bound) {
  if (ctx.params == nullptr) return filters;
  bool any = false;
  for (const qgm::ExprPtr& f : filters) any = any || qgm::HasParam(*f);
  if (!any) return filters;
  bound->reserve(filters.size());
  for (const qgm::ExprPtr& f : filters) {
    bound->push_back(qgm::BindParams(*f, *ctx.params));
  }
  return *bound;
}

}  // namespace

Status ParallelFilterScan(const TableInfo& table,
                          const std::vector<qgm::ExprPtr>& filters,
                          const std::vector<char>* referenced,
                          ExecContext* ctx, std::vector<Row>* rows_out,
                          std::vector<Rid>* rids_out, ScanStats* stats) {
  const TableStorage& storage = *table.storage;
  const bool want_rids = rids_out != nullptr;
  *stats = ScanStats{};

  // MVCC: when the table's physical state differs from the snapshot (an
  // in-flight writer, or a retained newer commit), every morsel merges the
  // snapshot's overlay. The overlay is built once here and shared — it is
  // immutable for the statement's duration. The columnar kernel path reads
  // physical segments directly, so it is bypassed too.
  const TransactionManager* mgr =
      ctx->catalog != nullptr ? ctx->catalog->txn_manager() : nullptr;
  TransactionManager::Overlay mvcc_overlay;
  const TransactionManager::Overlay* overlay = nullptr;
  if (mgr != nullptr && !mgr->PhysicalReadsSafe(table.name)) {
    mvcc_overlay = mgr->BuildOverlay(table.name);
    overlay = &mvcc_overlay;
  }

  // Columnar path: kernel prefix, then gather only the referenced columns.
  const ColumnStore* column_store =
      overlay == nullptr ? storage.AsColumnStore() : nullptr;
  ColumnScanPlan column_plan;
  std::vector<qgm::ExprPtr> bound_filters;
  const std::vector<qgm::ExprPtr>& column_filters =
      column_store != nullptr
          ? BindFilterParams(filters, *ctx, &bound_filters)
          : filters;
  if (column_store != nullptr) {
    column_plan = BuildColumnScanPlan(
        *column_store, column_filters, referenced,
        ctx->catalog != nullptr ? ctx->catalog->metrics() : nullptr);
    stats->columnar = true;
    stats->kernel_filters = column_plan.kernel_filter_count;
    stats->total_filters = filters.size();
  }

  MorselOut merged;
  XNF_RETURN_IF_ERROR(RunMorsels(
      storage, ctx,
      [&](uint32_t begin, uint32_t end, MorselOut* out) {
        if (column_store != nullptr) {
          return GatherMorsel(column_plan, column_filters, begin, end, ctx,
                              want_rids, out);
        }
        return ScanMorsel(storage, overlay, begin, end, filters, ctx,
                          want_rids, out);
      },
      &merged, stats));
  *rows_out = std::move(merged.rows);
  if (want_rids) *rids_out = std::move(merged.rids);
  return Status::Ok();
}

Status TryLateFilterScan(const TableInfo& table,
                         const std::vector<qgm::ExprPtr>& filters,
                         const std::vector<char>* referenced, ExecContext* ctx,
                         LateScan* out, ScanStats* stats) {
  *out = LateScan{};
  *stats = ScanStats{};
  const ColumnStore* store = table.storage->AsColumnStore();
  if (store == nullptr || ctx->catalog == nullptr) return Status::Ok();
  // MVCC: column batches view physical segments; a snapshot that must hide
  // or substitute rows needs the row-wise overlay merge, so decline and let
  // the caller take the gathering scan.
  const TransactionManager* mgr = ctx->catalog->txn_manager();
  if (mgr != nullptr && !mgr->PhysicalReadsSafe(table.name)) {
    return Status::Ok();
  }
  std::vector<qgm::ExprPtr> bound_filters;
  ColumnScanPlan plan = BuildColumnScanPlan(
      *store, BindFilterParams(filters, *ctx, &bound_filters), referenced,
      ctx->catalog->metrics());
  // Only replace the scan when the whole conjunction kernelized: a scalar
  // remainder would need gathered rows anyway, and running it against
  // lazily-built rows here would just duplicate the gathering scan.
  if (plan.kernel_filter_count < filters.size()) return Status::Ok();

  stats->columnar = true;
  stats->late = true;
  stats->kernel_filters = plan.kernel_filter_count;
  stats->total_filters = filters.size();
  MorselOut merged;
  XNF_RETURN_IF_ERROR(RunMorsels(
      *table.storage, ctx,
      [&plan](uint32_t begin, uint32_t end, MorselOut* o) {
        return BatchMorsel(plan, begin, end, o);
      },
      &merged, stats));
  out->store = store;
  out->materialize = std::move(plan.materialize);
  out->batches = std::move(merged.batches);
  for (const ColBatch& b : out->batches) out->total_rows += b.alive();
  return Status::Ok();
}

// --- GroupView / ColBatch -------------------------------------------------

Status GroupView::Open(const ColumnStore* store, uint32_t group) {
  store_ = store;
  group_ = group;
  ColumnStore::GroupInfo info;
  XNF_RETURN_IF_ERROR(store_->ReadGroupInfo(group_, &info));
  rows_ = info.rows;
  const size_t ncols = store_->num_columns();
  scratch_.resize(ncols);
  views_.resize(ncols);
  viewed_.assign(ncols, 0);
  sel_.assign(rows_, 1);
  alive_ = rows_;
  if (info.tombstones != nullptr) {
    alive_ = 0;
    for (size_t i = 0; i < rows_; ++i) {
      sel_[i] = static_cast<char>(((info.tombstones[i >> 6] >> (i & 63)) & 1)
                                  ^ 1);
      alive_ += static_cast<size_t>(sel_[i]);
    }
  }
  return Status::Ok();
}

Status GroupView::View(size_t c, bool need_values,
                       const ColumnStore::ColumnView** out) {
  const char want = need_values ? 2 : 1;
  if (viewed_[c] < want) {
    XNF_RETURN_IF_ERROR(
        store_->ViewColumn(group_, c, &scratch_[c], &views_[c], need_values));
    viewed_[c] = want;
    if (views_counter_ != nullptr) {
      CounterAdd(views_counter_);
    } else {
      ++pending_views_;
    }
  }
  *out = &views_[c];
  return Status::Ok();
}

Status GroupView::MaterializeRow(const std::vector<char>& materialize,
                                 size_t i, Row* out) {
  const size_t ncols = store_->num_columns();
  out->assign(ncols, Value());
  for (size_t c = 0; c < ncols; ++c) {
    if (c < materialize.size() && !materialize[c]) continue;
    const ColumnStore::ColumnView* v = nullptr;
    XNF_RETURN_IF_ERROR(View(c, true, &v));
    (*out)[c] = ColumnStore::ViewValue(*v, i);
  }
  return Status::Ok();
}

uint64_t GroupView::decoded_columns() const {
  uint64_t n = 0;
  for (char v : viewed_) n += static_cast<uint64_t>(v != 0);
  return n;
}

uint64_t GroupView::FlushPendingViews() {
  return std::exchange(pending_views_, 0);
}

ColBatch::ColBatch(const ColumnStore* store, uint32_t group)
    : pinned_(store), pinned_group_(group) {
  // Pin for the batch's whole life: consumers hold views across operator
  // boundaries, long after the scan morsel's own pins are gone.
  pinned_->PinRange(pinned_group_, pinned_group_ + 1);
  pinned_->AcquireViewLease(pinned_group_);
}

void ColBatch::Release() {
  if (pinned_ == nullptr) return;
  // Lease goes first: after it, UnpinRange's debug check no longer expects
  // this group to stay pinned.
  pinned_->ReleaseViewLease(pinned_group_);
  pinned_->UnpinRange(pinned_group_, pinned_group_ + 1);
  pinned_ = nullptr;
}

ColBatch& ColBatch::operator=(ColBatch&& other) noexcept {
  if (this == &other) return *this;
  Release();
  GroupView::operator=(std::move(other));
  pinned_ = std::exchange(other.pinned_, nullptr);
  pinned_group_ = other.pinned_group_;
  return *this;
}

}  // namespace xnf::exec
