#ifndef XNF_PERFBENCH_EXTRACT_H_
#define XNF_PERFBENCH_EXTRACT_H_

// CO extraction and release as ws_design and co_bulk time them, with the
// evaluator and cache counters they read from outside the engine.

#include <memory>
#include <string>

#include "api/database.h"
#include "harness.h"
#include "xnf/cache.h"

namespace xnfbench {

// Summed over the extractions of one measured phase.
struct ExtractStats {
  Samples latency;  // extraction into a ready cache, us
  Samples release;  // cache destruction, us
  double derived_query_ns = 0;  // sum of QueryProfile::time_ns
  double derived_queries = 0;   // node + edge queries
  double rows_produced = 0;     // rows the derived queries produced
  double co_rows = 0;           // live CO tuples + connections
  double reachability_passes = 0;
  double cache_fill_ns = 0;     // CoCache::Stats::fill_ns
};

// Extracts `query` into a cache. Untraced runs use Database::OpenCo. With
// `via_execute` it runs Execute(xnf) + CoCache::Build instead, the only
// path on which the evaluator sees the trace sink (OpenCo never hands it
// over); both halves of a traced run use it so they differ only in tracing.
xnf::Result<std::unique_ptr<xnf::co::CoCache>> Extract(
    xnf::Database* db, const std::string& query, bool via_execute,
    AggregatingTraceSink* sink, ExtractStats* stats);

// Destroys the cache, timing it.
void Release(std::unique_ptr<xnf::co::CoCache> cache,
             AggregatingTraceSink* sink, ExtractStats* stats);

// Live tuples and connections of a cache.
size_t CoRows(const xnf::co::CoCache& cache);

// The evaluator and cache per-layer metrics of an untraced phase:
// xnf.derived_query_us, xnf.derived_queries_per_extract,
// xnf.rows_produced_per_co_row, xnf.reachability_passes,
// xnf.cache_build_us and xnf.cache_release_us.
void AddXnfMetrics(const ExtractStats& stats, Report* report);

// The default-DOP metrics of a traced run: common.dop (the default DOP),
// common.dop_speedup (its rate over the DOP-1 rate), and
// common.pool_tasks_per_op and common.pool_steal_ratio from the metrics
// delta of its `units` units of work.
void AddPoolMetrics(const MetricsSnapshot& delta, double units, int dop,
                    double speedup, Report* report);

}  // namespace xnfbench

#endif  // XNF_PERFBENCH_EXTRACT_H_
