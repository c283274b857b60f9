#include "extract.h"

namespace xnfbench {

using xnf::co::CoCache;

xnf::Result<std::unique_ptr<CoCache>> Extract(xnf::Database* db,
                                              const std::string& query,
                                              bool via_execute,
                                              AggregatingTraceSink* sink,
                                              ExtractStats* stats) {
  const auto start = Clock::now();
  std::unique_ptr<CoCache> cache;
  if (via_execute) {
    xnf::Result<xnf::ExecResult> result = [&] {
      Span span(sink, "bench.extract");
      return db->Execute(query);
    }();
    if (!result.ok()) return result.status();
    Span span(sink, "bench.cache_build");
    XNF_ASSIGN_OR_RETURN(cache, CoCache::Build(std::move(result->co)));
  } else {
    XNF_ASSIGN_OR_RETURN(cache, db->OpenCo(query));
  }
  stats->latency.Add(UsSince(start));
  const auto& xs = db->last_xnf_stats();
  for (const auto& profile : xs.profiles) {
    stats->derived_query_ns += profile.time_ns;
  }
  stats->derived_queries += xs.node_queries + xs.edge_queries;
  stats->rows_produced += xs.rows_produced;
  stats->reachability_passes += xs.reachability_passes;
  stats->cache_fill_ns += cache->stats().fill_ns;
  stats->co_rows += CoRows(*cache);
  return cache;
}

void Release(std::unique_ptr<CoCache> cache, AggregatingTraceSink* sink,
             ExtractStats* stats) {
  const auto start = Clock::now();
  {
    Span span(sink, "bench.cache_release");
    cache.reset();
  }
  stats->release.Add(UsSince(start));
}

size_t CoRows(const CoCache& cache) {
  size_t rows = 0;
  for (size_t n = 0; n < cache.node_count(); ++n) {
    rows += cache.node(static_cast<int>(n)).live_count();
  }
  for (size_t r = 0; r < cache.rel_count(); ++r) {
    rows += cache.rel(static_cast<int>(r)).live_count();
  }
  return rows;
}

void AddXnfMetrics(const ExtractStats& stats, Report* report) {
  const double n = static_cast<double>(stats.latency.count());
  if (n == 0) return;
  report->Add("xnf.derived_query_us", stats.derived_query_ns / 1e3 / n, "us");
  report->Add("xnf.derived_queries_per_extract", stats.derived_queries / n,
              "count");
  report->Add("xnf.rows_produced_per_co_row",
              stats.rows_produced / stats.co_rows, "ratio");
  report->Add("xnf.reachability_passes", stats.reachability_passes / n,
              "count");
  report->Add("xnf.cache_build_us", stats.cache_fill_ns / 1e3 / n, "us");
  report->Add("xnf.cache_release_us", stats.release.Mean(), "us");
}

void AddPoolMetrics(const MetricsSnapshot& delta, double units, int dop,
                    double speedup, Report* report) {
  const double tasks =
      static_cast<double>(delta.Get("threadpool.tasks_dispatched"));
  report->Add("common.dop", dop, "count");
  report->Add("common.dop_speedup", speedup, "ratio");
  report->Add("common.pool_tasks_per_op", units > 0 ? tasks / units : 0.0,
              "count");
  report->Add(
      "common.pool_steal_ratio",
      tasks > 0 ? delta.Get("threadpool.tasks_stolen") / tasks : 0.0,
      "ratio");
}

}  // namespace xnfbench
