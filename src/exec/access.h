#ifndef XNF_EXEC_ACCESS_H_
#define XNF_EXEC_ACCESS_H_

#include <vector>

#include "catalog/catalog.h"
#include "common/status.h"
#include "exec/eval.h"
#include "exec/parallel.h"
#include "qgm/expr.h"

namespace xnf::exec {

// How the rows of one table that satisfy a conjunction are found: an index
// probe answering one `column = key` conjunct, or a filtering scan. Every
// single-table row search — SELECT quantifier sources, XNF simple nodes,
// UPDATE/DELETE targets and CO link-row lookups — is chosen by ChooseAccess
// and run by FindRows.
struct TableAccess {
  // The single-column index probed, or null for a scan.
  Index* index = nullptr;
  // Index only: the probe key. It reads no column of the table (a literal,
  // a parameter or an expression over them) and is evaluated once per run.
  qgm::ExprPtr key;
  // Conjuncts every found row must satisfy, in evaluation order: the
  // residual of an index probe, or all of them for a scan.
  std::vector<qgm::ExprPtr> filters;
};

// The access path for `conjuncts`, each compiled over the table's row
// (slot = column). With `use_indexes`, the first `column = key` conjunct
// (either orientation) whose key reads no column and whose column has a
// single-column index becomes an index probe and the other conjuncts its
// residual; otherwise every conjunct filters a scan.
TableAccess ChooseAccess(const TableInfo& table,
                         std::vector<qgm::ExprPtr> conjuncts,
                         bool use_indexes);

// Replaces `rows` (and `rids`, when non-null) with the rows of `table`
// visible at the statement's snapshot that `access` selects, in rid order.
// An index probe is LookupVisible followed by the residual filters; a scan
// is ParallelFilterScan, with `referenced` its column bitmap (nullptr = all
// columns). `stats` reports what the scan did; a probe leaves the defaults.
Status FindRows(const TableInfo& table, const TableAccess& access,
                const std::vector<char>* referenced, ExecContext* ctx,
                std::vector<Row>* rows, std::vector<Rid>* rids,
                ScanStats* stats);

// Evaluates the conjunction `filters` batch-wise over `in` and moves the
// passing rows to `out`; with `out_rids`, their entries of `in_rids` (one
// rid per row of `in`) go to `out_rids`. `in` and `in_rids` are left empty.
Status FilterAppend(const std::vector<qgm::ExprPtr>& filters,
                    EvalContext* ectx, std::vector<Row>* in,
                    std::vector<Row>* out, std::vector<Rid>* in_rids = nullptr,
                    std::vector<Rid>* out_rids = nullptr);

}  // namespace xnf::exec

#endif  // XNF_EXEC_ACCESS_H_
