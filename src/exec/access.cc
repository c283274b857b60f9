#include "exec/access.h"

#include <utility>

#include "catalog/mvcc.h"

namespace xnf::exec {

TableAccess ChooseAccess(const TableInfo& table,
                         std::vector<qgm::ExprPtr> conjuncts,
                         bool use_indexes) {
  TableAccess access;
  for (size_t i = 0; use_indexes && i < conjuncts.size(); ++i) {
    qgm::Expr& pred = *conjuncts[i];
    if (pred.kind != qgm::Expr::Kind::kBinary ||
        pred.bin_op != sql::BinOp::kEq) {
      continue;
    }
    for (size_t side = 0; side < 2; ++side) {
      const qgm::Expr& col = *pred.args[side];
      const qgm::Expr& key = *pred.args[1 - side];
      if (col.kind != qgm::Expr::Kind::kInputRef || qgm::HasInputRefs(key)) {
        continue;
      }
      Index* index = table.FindIndexOn({static_cast<size_t>(col.slot)});
      if (index == nullptr) continue;
      access.index = index;
      access.key = std::move(pred.args[1 - side]);
      conjuncts.erase(conjuncts.begin() + static_cast<std::ptrdiff_t>(i));
      access.filters = std::move(conjuncts);
      return access;
    }
  }
  access.filters = std::move(conjuncts);
  return access;
}

Status FindRows(const TableInfo& table, const TableAccess& access,
                const std::vector<char>* referenced, ExecContext* ctx,
                std::vector<Row>* rows, std::vector<Rid>* rids,
                ScanStats* stats) {
  if (access.index == nullptr) {
    return ParallelFilterScan(table, access.filters, referenced, ctx, rows,
                              rids, stats);
  }
  *stats = ScanStats{};
  rows->clear();
  if (rids != nullptr) rids->clear();
  EvalContext ectx;
  Row empty;
  ectx.row = &empty;
  ectx.exec = ctx;
  XNF_ASSIGN_OR_RETURN(Value key, EvalExpr(*access.key, &ectx));
  std::vector<Row> hits;
  std::vector<Rid> hit_rids;
  XNF_RETURN_IF_ERROR(LookupVisible(
      table, *access.index, OverlayFor(ctx->catalog->txn_manager(), table),
      {std::move(key)}, [&](Rid rid, const Row& row) {
        hits.push_back(row);
        hit_rids.push_back(rid);
        return true;
      }));
  return FilterAppend(access.filters, &ectx, &hits, rows, &hit_rids, rids);
}

Status FilterAppend(const std::vector<qgm::ExprPtr>& filters,
                    EvalContext* ectx, std::vector<Row>* in,
                    std::vector<Row>* out, std::vector<Rid>* in_rids,
                    std::vector<Rid>* out_rids) {
  std::vector<char> keep(in->size(), 1);
  if (!filters.empty()) {
    std::vector<const Row*> ptrs;
    ptrs.reserve(in->size());
    for (const Row& r : *in) ptrs.push_back(&r);
    for (const qgm::ExprPtr& f : filters) {
      XNF_RETURN_IF_ERROR(EvalPredicateBatch(*f, ptrs, ectx, &keep));
    }
  }
  for (size_t i = 0; i < in->size(); ++i) {
    if (!keep[i]) continue;
    out->push_back(std::move((*in)[i]));
    if (out_rids != nullptr) out_rids->push_back((*in_rids)[i]);
  }
  in->clear();
  if (in_rids != nullptr) in_rids->clear();
  return Status::Ok();
}

}  // namespace xnf::exec
