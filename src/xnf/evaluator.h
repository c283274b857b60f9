#ifndef XNF_XNF_EVALUATOR_H_
#define XNF_XNF_EVALUATOR_H_

#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "common/result_set.h"
#include "common/status.h"
#include "common/trace.h"
#include "xnf/ast.h"
#include "xnf/co_def.h"
#include "xnf/instance.h"

namespace xnf::co {

// Evaluates XNF queries into materialized composite objects. This implements
// the paper's XNF semantic rewrite (§4.3): one derived SQL query per node
// and per relationship output, sharing common subexpressions by
// materializing each node's defining query once as a temporary table that
// the edge queries then join ("when we generate the tuples of a parent node,
// we output them, and also use them again to find the tuples of the
// associated children"). A relationship whose predicate is a plain
// foreign-key equi-join takes that sentence literally: its connections are
// hashed straight out of the two node results, with no derived SQL query.
// Reachability (§2) is enforced as a fixpoint over the resulting connection
// graph, which also covers recursive COs (§3.4).
class Evaluator {
 public:
  struct Options {
    // Reuse node materializations in edge queries (§4.3). Off = each edge
    // query recomputes its partner node queries (benchmark C3's baseline).
    bool use_cse = true;
    // Enforce the reachability constraint (ablation A1 turns this off to
    // measure its cost; the result is then NOT a well-formed CO).
    bool enforce_reachability = true;
  };

  // Profile of one derived query (one per CO node / edge, §4.3): how the
  // candidates or connections were computed and what it cost. Drives the
  // EXPLAIN ANALYZE OUT OF ... rendering.
  struct QueryProfile {
    enum class Kind { kNode, kEdge };
    Kind kind = Kind::kNode;
    std::string name;    // component table / relationship name
    // How the derived query ran: "index" (simple node, fast extraction),
    // "scan" (simple node, candidate scan), "query" (full engine query),
    // "premade" (imported from a restricted view reference), "node-join"
    // (foreign-key edge hashed out of the node results), "temp-join" (edge
    // query over CSE temps), "inline" (edge recomputing node queries).
    std::string access;
    uint64_t rows = 0;   // candidate tuples / connections produced
    uint64_t time_ns = 0;
  };

  struct Stats {
    int node_queries = 0;        // defining queries executed
    int edge_queries = 0;        // relationship queries executed
    int temp_reuses = 0;         // edge-side reuses of node temps
    int cse_hits = 0;            // node computations avoided via temps
    int cse_misses = 0;          // node computations repeated inline (no CSE)
    int reachability_passes = 0;
    int restrictions_applied = 0;
    // Executor counters accumulated over every engine query this evaluation
    // ran (RunSelect drains).
    uint64_t rows_produced = 0;
    uint64_t batches_produced = 0;
    // Columnar candidate-scan decode accounting across all simple-node
    // scans: TAKE-driven pruning shows up as skipped columns.
    uint64_t scan_columns_decoded = 0;
    uint64_t scan_columns_skipped = 0;
    // One entry per derived query, in evaluation order (nodes before edges;
    // nested view evaluations are appended when they complete).
    std::vector<QueryProfile> profiles;
  };

  explicit Evaluator(Catalog* catalog) : catalog_(catalog) {}
  Evaluator(Catalog* catalog, Options options)
      : catalog_(catalog), options_(options) {}

  // Full pipeline: resolve OUT OF items, apply restrictions, enforce
  // reachability, apply the TAKE projection.
  Result<CoInstance> Evaluate(const XnfQuery& query);

  // Parses `text` as an XNF query and evaluates it.
  Result<CoInstance> EvaluateText(const std::string& text);

  // Materializes a resolved CO definition (candidates + edges +
  // reachability), without restrictions or projection.
  Result<CoInstance> Materialize(const CoDef& def);

  const Stats& stats() const { return stats_; }
  void ResetStats() { stats_ = Stats(); }

  // Optional tracing: evaluation phases (materialize-nodes, cse-temps,
  // materialize-edges, reachability, ...) are reported as spans. Null = off.
  void set_trace_sink(TraceSink* sink) { trace_sink_ = sink; }

 private:
  // The Materialize* / RunSelect helpers write their counters and profiles
  // into an explicit `stats` sink rather than stats_ directly, so each
  // derived query's Stats is merged into stats_ only when it succeeds.

  // Node column indices of a relationship predicate that is a conjunction
  // of `parent_corr.col = child_corr.col` equalities (see AnalyzeEquiKeys);
  // parent_cols[k] pairs with child_cols[k].
  struct EquiKeys {
    std::vector<int> parent_cols;
    std::vector<int> child_cols;
  };

  // Candidate node materialization (with provenance when simple).
  Result<CoNodeInstance> MaterializeNode(const CoNodeDef& def, Stats* stats);
  // Edge materialization against already-materialized candidates: with
  // `node_join` set, a hash join of the node results on those keys;
  // otherwise the edge query over the CSE temps.
  Result<CoRelInstance> MaterializeRel(const CoRelDef& def,
                                       const CoInstance& instance,
                                       const EquiKeys* node_join,
                                       Stats* stats);
  // Baseline without common-subexpression reuse: the edge query recomputes
  // the partner node queries inline and endpoints are matched by value.
  Result<CoRelInstance> MaterializeRelNoCse(const CoRelDef& def,
                                            const CoInstance& instance,
                                            Stats* stats);
  // The equi-join keys of `def`'s predicate, resolved in the partner node
  // schemas; nullopt unless the relationship has no USING table, distinct
  // partner correlations, and a predicate made only of
  // `parent_corr.col = child_corr.col` conjuncts whose columns resolve.
  static std::optional<EquiKeys> AnalyzeEquiKeys(const CoRelDef& def,
                                                 const CoNodeInstance& parent,
                                                 const CoNodeInstance& child);
  // Derives connect/disconnect provenance (§3.7) from the predicate shape:
  // a single-key equi-join is a foreign key, two equalities through a
  // USING table a link table.
  void AnalyzeRelWrite(const CoRelDef& def, const CoInstance& instance,
                       CoRelInstance* rel);

  Result<ResultSet> RunSelect(const sql::SelectStmt& stmt, Stats* stats);

  // Folds one derived query's (or a nested evaluation's) counters and
  // profiles into `into`, appending profiles in the order given.
  static void MergeStats(const Stats& from, Stats* into);

  Status ApplyRestrictions(const std::vector<Restriction>& restrictions,
                           CoInstance* instance);
  Status ApplyTake(const XnfQuery& query, CoInstance* instance);

  // TAKE-driven column pruning (§4 "fast extraction"): with an explicit
  // TAKE list, a simple node's candidate scan only needs to decode the
  // columns that the TAKE projection, the restrictions, and the edge
  // queries actually read — everything else is projected away by ApplyTake
  // before any consumer touches it. Fills take_needed_ / take_pruning_;
  // gives up (no pruning) on anything it cannot analyze exactly (paths or
  // subqueries in restriction predicates, unknown TAKE items). Only valid
  // under CSE: the no-CSE edge path matches node tuples by full-row value.
  void ComputeTakePruning(const XnfQuery& query, const CoDef& def);

  Catalog* catalog_;
  Options options_;
  Stats stats_;
  TraceSink* trace_sink_ = nullptr;
  // TAKE pruning state for the Evaluate() in flight (reset on entry). Keyed
  // by lower-cased node name; a present entry lists the node OUTPUT columns
  // that must carry real values — absent entry = decode full width.
  std::map<std::string, std::set<std::string>> take_needed_;
  bool take_pruning_ = false;
  // CSE temp store: node name -> materialized candidates (+ __tid column).
  std::map<std::string, ResultSet> temps_;
  // No-CSE mode: node name -> definition (for inline recomputation).
  std::map<std::string, CoNodeDef> no_cse_defs_;
};

}  // namespace xnf::co

#endif  // XNF_XNF_EVALUATOR_H_
