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
#include "exec/access.h"
#include "exec/operator.h"
#include "qgm/expr.h"
#include "xnf/ast.h"
#include "xnf/co_def.h"
#include "xnf/instance.h"

namespace xnf::co {

// Node column indices of a relationship predicate that is a conjunction of
// `parent_corr.col = child_corr.col` equalities; parent_cols[k] pairs with
// child_cols[k].
struct EquiKeys {
  std::vector<int> parent_cols;
  std::vector<int> child_cols;
};

// A compiled XNF query: everything Evaluator::Run needs that depends only
// on the query text and the catalog, not on the data. Compiled once per
// statement shape (the statement cache keys it by the catalog version) and
// run many times with different parameter values. A failure found while
// compiling one component is kept in that component and reported when a
// run reaches it, so a run fails at the same point, with the same status,
// as an evaluation that planned each component just before running it.
struct CoPlan {
  struct Node {
    // How the candidates are computed: imported from a restricted view
    // reference, a candidate scan / index lookup of one base table (simple
    // node, provenance rids), or the defining query run through the
    // engine.
    enum class Access { kPremade, kSimple, kQuery };
    Access access = Access::kQuery;
    Status error = Status::Ok();
    // kSimple.
    TableInfo* table = nullptr;
    std::string base_table;
    Schema schema;                   // node output schema
    std::vector<int> base_column_map;
    // The predicate's conjuncts, compiled over the base schema (they may
    // read parameters), as an index probe or a candidate scan (§4 "fast
    // extraction": an equality on an indexed column is a lookup).
    exec::TableAccess table_access;
    // Base columns the candidate scan decodes (TAKE pruning included).
    std::vector<char> referenced;
    // kQuery: the planned defining query.
    exec::OperatorPtr query;
  };

  struct Rel {
    Status error = Status::Ok();
    // A foreign-key shaped predicate: connections are hashed out of the
    // node results on these keys (CSE only).
    std::optional<EquiKeys> node_join;
    // Otherwise the edge query, over the CSE temps or, without CSE, over
    // the node queries recomputed inline.
    std::unique_ptr<sql::SelectStmt> edge;
    // Write provenance (§3.7), copied into every run's relationship.
    CoRelInstance write;
  };

  // CSE temp of one node: the node columns its edge queries read.
  struct Temp {
    int node = -1;
    std::vector<int> projection;
    Schema schema;  // projected columns + __tid
  };

  // The query the plan was compiled from (restrictions, TAKE, action);
  // owned by the caller and alive while the plan is.
  const XnfQuery* query = nullptr;
  CoDef def;
  // False when resolution imported premade components (restricted view
  // references): their data was evaluated into `def` and must not be
  // reused by a later run.
  bool cacheable = true;
  std::vector<Node> nodes;
  std::vector<Rel> rels;
  std::vector<Temp> temps;
  Status temps_error = Status::Ok();
  // Per restriction: the node / relationship index it targets, and its
  // predicate compiled over the node's tuple (a relationship's: the parent
  // tuple, then the child tuple) or the error that target lookup or
  // compiling reported.
  std::vector<int> restriction_targets;
  std::vector<qgm::ExprPtr> restrictions;
  std::vector<Status> restriction_errors;
  // TAKE: surviving components and, per kept node with a column list, the
  // projected column indices. `take_error` is the first failure ApplyTake
  // reports.
  std::vector<char> take_node;
  std::vector<char> take_rel;
  std::vector<std::optional<std::vector<size_t>>> take_columns;
  Status take_error = Status::Ok();
};

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
//
// Evaluation is split in two: Compile resolves the query into a CoPlan (the
// schema graph, each node's base table, predicate and access path, each
// relationship's join keys or edge query, the TAKE pruning), and Run
// executes a plan against the current data with the statement's parameter
// values.
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

  // Resolves `query` (OUT OF items, views) and compiles every node,
  // relationship, restriction and the TAKE projection. The plan keeps a
  // pointer to `query`, which must outlive it. Referenced views that carry
  // restrictions or a partial TAKE are evaluated here and imported as
  // premade components (the plan is then not cacheable).
  Result<std::unique_ptr<CoPlan>> Compile(const XnfQuery& query);

  // Runs a compiled plan: node candidates, CSE temps, edges, reachability,
  // restrictions, TAKE. `params` binds the plan's parameters ('?' or
  // literals the statement cache turned into parameters) by index.
  Result<CoInstance> Run(const CoPlan& plan, const std::vector<Value>& params);

  // Compile + Run, for one-off evaluations.
  Result<CoInstance> Evaluate(const XnfQuery& query);

  // Parses `text` as an XNF query and evaluates it.
  Result<CoInstance> EvaluateText(const std::string& text);

  const Stats& stats() const { return stats_; }
  void ResetStats() { stats_ = Stats(); }

  // Optional tracing: evaluation phases (resolve, qgm-build,
  // materialize-nodes, cse-temps, materialize-edges, reachability, ...) are
  // reported as spans. Null = off.
  void set_trace_sink(TraceSink* sink) { trace_sink_ = sink; }

 private:
  // The Run* / RunSelect helpers write their counters and profiles into an
  // explicit `stats` sink rather than stats_ directly, so each derived
  // query's Stats is merged into stats_ only when it succeeds.

  // Compiles one node (never fails: a failure is kept in Node::error).
  void CompileNode(const CoNodeDef& def,
                   const std::map<std::string, std::set<std::string>>* take,
                   CoPlan::Node* node);
  // Compiles the node joins, edge queries, write provenance and CSE temps.
  void CompileRels(CoPlan* plan);
  void CompileRestrictionsAndTake(CoPlan* plan);

  // Candidate node materialization (with provenance when simple).
  Result<CoNodeInstance> RunNode(const CoPlan& plan, size_t n, Stats* stats);
  // Edge materialization against already-materialized candidates.
  Result<CoRelInstance> RunRel(const CoPlan& plan, size_t r,
                               const CoInstance& instance, Stats* stats);
  // Node candidates + temps + edges + reachability.
  Result<CoInstance> Materialize(const CoPlan& plan);

  // The equi-join keys of `def`'s predicate, resolved in the partner node
  // schemas; nullopt unless the relationship has no USING table, distinct
  // partner correlations, and a predicate made only of
  // `parent_corr.col = child_corr.col` conjuncts whose columns resolve.
  static std::optional<EquiKeys> AnalyzeEquiKeys(const CoRelDef& def,
                                                 const Schema& parent,
                                                 const Schema& child);
  // Derives connect/disconnect provenance (§3.7) from the predicate shape:
  // a single-key equi-join is a foreign key, two equalities through a
  // USING table a link table.
  void AnalyzeRelWrite(const CoRelDef& def, const Schema& parent,
                       const Schema& child, CoRelInstance* rel);

  Result<ResultSet> RunSelect(const sql::SelectStmt& stmt, Stats* stats);

  // Folds one derived query's (or a nested evaluation's) counters and
  // profiles into `into`, appending profiles in the order given.
  static void MergeStats(const Stats& from, Stats* into);

  Status ApplyRestrictions(const CoPlan& plan, CoInstance* instance);
  Status ApplyTake(const CoPlan& plan, CoInstance* instance);

  // TAKE-driven column pruning (§4 "fast extraction"): with an explicit
  // TAKE list, a simple node's candidate scan only needs to decode the
  // columns that the TAKE projection, the restrictions, and the edge
  // queries actually read — everything else is projected away by ApplyTake
  // before any consumer touches it. Returns, keyed by lower-cased node
  // name, the node OUTPUT columns that must carry real values (absent entry
  // = decode full width); empty when it cannot analyze the query exactly
  // (paths or subqueries in restriction predicates, unknown TAKE items).
  // Only valid under CSE: the no-CSE edge path matches node tuples by
  // full-row value.
  static std::map<std::string, std::set<std::string>> ComputeTakePruning(
      const XnfQuery& query, const CoDef& def);

  Catalog* catalog_;
  Options options_;
  Stats stats_;
  TraceSink* trace_sink_ = nullptr;
  // Parameter values of the Run in flight.
  const std::vector<Value>* params_ = nullptr;
  // CSE temp store of the Run in flight: "__co_" + node name ->
  // materialized candidates (+ __tid column).
  std::map<std::string, ResultSet> temps_;
};

}  // namespace xnf::co

#endif  // XNF_XNF_EVALUATOR_H_
