#ifndef XNF_PERFBENCH_HARNESS_H_
#define XNF_PERFBENCH_HARNESS_H_

// Shared plumbing of the repository benchmark: run configuration, latency
// samples, the result record, metrics-registry deltas, and the
// benchmark-owned aggregating trace sink. See README.md for the workloads
// and the metric definitions.

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "api/database.h"
#include "common/metrics.h"
#include "common/status.h"
#include "common/trace.h"
#include "common/value.h"

namespace xnfbench {

using Clock = std::chrono::steady_clock;

inline double UsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::micro>(Clock::now() - start)
      .count();
}

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Config {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  // Directory (inside the checkout) for durable databases.
  std::string work_dir = ".bench_tmp";
};

// The engine options every workload starts from: the defaults except one
// execution thread. On a 4-vCPU virtual machine shared with other tenants,
// the default DOP (4) was slower than DOP 1 on every workload and far less
// steady from run to run (ws_design ops_per_s: 50% against 12% spread over
// ten seeds), because a batch waits for its slowest worker and the host
// deschedules vCPUs at random. Traced runs measure the default DOP too, as
// common.dop_speedup.
xnf::Database::Options BaseOptions();

// Latency samples of one kind, in microseconds.
class Samples {
 public:
  void Add(double us) { values_.push_back(us); }
  void Merge(const Samples& other) {
    values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  }
  size_t count() const { return values_.size(); }
  const std::vector<double>& values() const { return values_; }
  double last() const { return values_.back(); }
  double Sum() const;
  double Mean() const { return values_.empty() ? 0.0 : Sum() / count(); }
  // Nearest-rank percentile, p in (0, 100].
  double Percentile(double p) const;
  double Median() const { return Percentile(50); }
  // A p99 is reported only when at least ten samples lie beyond it.
  bool HasP99() const { return values_.size() >= 1000; }

 private:
  std::vector<double> values_;
};

// One benchmark result: the metrics plus the correctness verdict. Notes are
// human-readable lines printed before the final JSON line.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  void Note(const std::string& line) { notes_.push_back(line); }
  // Marks the run incorrect; the reason is printed.
  void Fail(const std::string& why);
  // The end-to-end metrics every workload shares, from the units of its
  // measured phase: `done_s[k]` is when unit k completed (seconds since the
  // phase started), `latency` its latency in the same order. They count
  // only the fastest quarter of the phase's whole one-second windows (the
  // most units completed), because a shared host slows down for seconds at
  // a time: ops_per_s is their mean unit count, unit_p50_us and
  // unit_p90_us the percentiles of the units completed in them.
  void AddUnitMetrics(const std::vector<double>& done_s,
                      const Samples& latency, double seconds);
  // A note with the sample count, p50, p90, p99 (given ten samples beyond
  // it) and max of one kind of operation.
  void NoteLatency(const std::string& what, const Samples& s);

  uint64_t attempted = 0;
  uint64_t failed = 0;

  // Prints notes, a stamp line and the final JSON result line.
  void Print(const std::string& stamp_json) const;

 private:
  bool correct_ = true;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics_;
  std::vector<std::string> notes_;
};

// Flat view of a MetricsRegistry snapshot: counters and gauges by name,
// histograms as "<name>#count" and "<name>#sum".
class MetricsSnapshot {
 public:
  static MetricsSnapshot Take(const xnf::MetricsRegistry* registry);
  int64_t Get(const std::string& name) const;
  // Sum of every entry whose name starts with `prefix` and ends with
  // `suffix` ("stmt.latency_us." + "#sum").
  int64_t SumMatching(const std::string& prefix,
                      const std::string& suffix) const;
  // this - before, per name.
  MetricsSnapshot operator-(const MetricsSnapshot& before) const;

 private:
  std::map<std::string, int64_t> values_;
};

// Trace sink owned by the benchmark. It keeps no span list (so it has no
// retention cap): it sums count, inclusive time and self time per
// (parent span, span) pair. Spans nest per thread; a mutex makes it safe
// for sessions on several threads.
class AggregatingTraceSink : public xnf::TraceSink {
 public:
  struct Totals {
    uint64_t count = 0;
    uint64_t total_ns = 0;
    uint64_t self_ns = 0;
  };

  void BeginSpan(const std::string& name, const std::string& detail) override;
  void EndSpan(uint64_t duration_ns) override;

  // (parent name, span name) -> totals; top-level spans have parent "".
  std::map<std::pair<std::string, std::string>, Totals> Snapshot() const;
  // Self time of `name` over every parent, in nanoseconds.
  uint64_t SelfNs(const std::string& name) const;
  uint64_t Count(const std::string& name) const;

 private:
  struct Frame {
    std::string name;
    uint64_t child_ns = 0;
  };
  mutable std::mutex mu_;
  std::unordered_map<std::thread::id, std::vector<Frame>> stacks_;
  std::map<std::pair<std::string, std::string>, Totals> totals_;
};

// Benchmark span around one public call. Null sink = untraced.
using Span = xnf::TraceScope;

// Prints the traced where-the-time-goes table (self time per span, per unit
// of work) into the report notes and returns the self time, in us per unit,
// of the spans no layer owns: the engine's "statement" dispatcher and the
// benchmark's own per-unit root spans (`root_spans`).
double AddTraceTable(const AggregatingTraceSink& sink, double units,
                     const std::vector<std::string>& root_spans,
                     Report* report);

// Per-layer span metrics, in us of self time per unit of work:
// sql.parse_us, qgm.build_us, qgm.rewrite_us, plan.plan_us,
// exec.execute_us and, with `xnf`, the evaluator phases xnf.resolve_us,
// xnf.nodes_us, xnf.cse_temps_us, xnf.edges_us and xnf.reachability_us.
void AddSpanLayerMetrics(const AggregatingTraceSink& sink, double units,
                         bool xnf, Report* report);

// The per-layer metrics every workload reads from the engine's counters
// over `ops` units of work (registry delta `m`): api.stmt_self_us,
// exec.rows_examined_per_row_returned (against `rows_returned`), and the
// buffer-pool and storage-scan metrics storage.*_per_op and
// storage.bp_evictions.
void AddEngineMetrics(const MetricsSnapshot& m, double ops,
                      double rows_returned, Report* report);

// Inserts rows straight through the engine's DML executor, skipping SQL
// text. Set-up only: measured work always goes through the public API.
class BulkLoader {
 public:
  BulkLoader(xnf::Database* db, const std::string& table);
  void Add(xnf::Row row);

 private:
  xnf::Catalog* catalog_;
  xnf::TableInfo* table_;
};

// Everything a traced half reports: the span layer metrics, the
// where-the-time-goes table, bench.unattributed_us, and
// bench.trace_overhead_share = 1 - traced rate / untraced rate.
void AddTraceSummary(const AggregatingTraceSink& sink, double plain_rate,
                     double traced_units, double traced_wall_s, bool xnf,
                     const std::vector<std::string>& root_spans,
                     Report* report);

// An integer result cell (aggregates may come back as doubles).
int64_t AsInt64(const xnf::Value& v);

// Peak resident set size of this process, in MiB.
double PeakRssMb();

// Aborts the run (exit code 1, no result line) when set-up fails: a
// benchmark that cannot build its inputs has nothing to report.
void SetupCheck(const xnf::Status& status, const std::string& what);

template <typename T>
T SetupValue(xnf::Result<T> result, const std::string& what) {
  SetupCheck(result.status(), what);
  return std::move(result).value();
}

// Builds `make()` repeatedly for an untraced run (once for a traced one),
// timing each, and keeps the last one: at least three times, and until
// four seconds have gone to set-ups (at most fifteen), so that cheap
// set-ups are timed often enough for a steady median. The median goes to
// the report as setup_s.
template <typename T>
std::unique_ptr<T> TimedSetup(const Config& config,
                              const std::function<std::unique_ptr<T>()>& make,
                              Report* report) {
  Samples seconds;
  std::unique_ptr<T> kept;
  do {
    kept.reset();
    const auto start = Clock::now();
    kept = make();
    seconds.Add(SecondsSince(start));
  } while (!config.trace &&
           (seconds.count() < 3 ||
            (seconds.Sum() < 4.0 && seconds.count() < 15)));
  if (!config.trace) {
    report->Add("setup_s", seconds.Median(), "s");
    report->Note("setup: " + std::to_string(seconds.count()) +
                 " set-ups, median " + std::to_string(seconds.Median()) +
                 " s");
  }
  return kept;
}

// What a single-client closed loop records besides the workload's own
// samples.
struct LoopStats {
  uint64_t units = 0;
  uint64_t failed = 0;
  double wall_s = 0;
  std::vector<double> done_s;  // unit completion times since the start
  Samples latency;             // of each unit, us
  MetricsSnapshot metrics;     // registry delta over the loop
};

// Runs `unit` (false = the unit failed) back to back for `seconds`, each
// under a `root` span, with `sink` attached to `db` meanwhile.
template <typename Unit>
LoopStats RunClosedLoop(xnf::Database* db, double seconds,
                        AggregatingTraceSink* sink, const char* root,
                        Unit&& unit) {
  LoopStats loop;
  db->set_trace_sink(sink);
  const auto before = MetricsSnapshot::Take(db->metrics());
  const auto start = Clock::now();
  while (SecondsSince(start) < seconds) {
    const auto unit_start = Clock::now();
    {
      Span span(sink, root);
      if (!unit()) ++loop.failed;
    }
    loop.latency.Add(UsSince(unit_start));
    ++loop.units;
    loop.done_s.push_back(SecondsSince(start));
  }
  loop.wall_s = SecondsSince(start);
  loop.metrics = MetricsSnapshot::Take(db->metrics()) - before;
  db->set_trace_sink(nullptr);
  return loop;
}

// The three thirds of a traced run on one set-up: untraced at DOP 1 (engine
// counters), untraced at the default DOP (common.*), and traced at DOP 1
// (span self times). `run(seconds, sink)` measures one phase.
template <typename Phase>
struct Thirds {
  Phase plain, wide, traced;
  int dop = 0;  // the default DOP
};

template <typename Phase, typename Run>
Thirds<Phase> RunThirds(xnf::Database* db, double seconds,
                        AggregatingTraceSink* sink, Run&& run) {
  Thirds<Phase> t;
  const double third = seconds / 3.0;
  t.plain = run(third, nullptr);
  db->set_threads(0);
  t.dop = db->threads();
  t.wide = run(third, nullptr);
  db->set_threads(1);
  t.traced = run(third, sink);
  return t;
}

}  // namespace xnfbench

#endif  // XNF_PERFBENCH_HARNESS_H_
