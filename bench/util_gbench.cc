// google-benchmark entry point that tees results into BENCH_results.json
// (see util.h). Linked only into the benchmark binaries with their own
// main; metrics_overhead and bench_join have custom harnesses and use
// WriteBenchJson directly.

#include <algorithm>
#include <map>
#include <vector>

#include "benchmark/benchmark.h"
#include "util.h"

namespace xnf::bench {
namespace {

// Console output stays the primary human surface; this reporter only
// captures the per-iteration runs (not the _mean/_median aggregate rows —
// medians are computed here across repetitions).
class CollectingReporter : public ::benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& reports) override {
    for (const Run& run : reports) {
      if (run.run_type != Run::RT_Iteration || run.error_occurred) continue;
      Sample& s = samples_[run.benchmark_name()];
      if (run.iterations > 0) {
        s.real_ns.push_back(run.real_accumulated_time /
                            static_cast<double>(run.iterations) * 1e9);
      }
      // google-benchmark divides items_per_second by main-thread CPU
      // time, which overstates the rate of a run whose work happens on
      // pool workers. Rescale each run's rate to wall time.
      auto it = run.counters.find("items_per_second");
      if (it != run.counters.end() && run.real_accumulated_time > 0) {
        s.items_per_sec.push_back(it->second * run.cpu_accumulated_time /
                                  run.real_accumulated_time);
      }
      s.iterations += run.iterations;
    }
    ConsoleReporter::ReportRuns(reports);
  }

  std::vector<BenchResult> Results() const {
    std::vector<BenchResult> out;
    for (const auto& [name, s] : samples_) {
      BenchResult r;
      // "BM_Foo/4" -> name BM_Foo, config "4" (the Arg, here the DOP).
      auto slash = name.find('/');
      r.name = name.substr(0, slash);
      r.config = slash == std::string::npos ? "" : name.substr(slash + 1);
      r.rows_per_sec = Median(s.items_per_sec);
      r.median_real_ns = Median(s.real_ns);
      r.iterations = s.iterations;
      out.push_back(std::move(r));
    }
    return out;
  }

 private:
  struct Sample {
    std::vector<double> real_ns;
    std::vector<double> items_per_sec;
    int64_t iterations = 0;
  };

  static double Median(std::vector<double> v) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
  }

  std::map<std::string, Sample> samples_;
};

}  // namespace

int BenchmarkJsonMain(int argc, char** argv, const std::string& binary) {
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  CollectingReporter reporter;
  ::benchmark::RunSpecifiedBenchmarks(&reporter);
  WriteBenchJson(binary, reporter.Results());
  ::benchmark::Shutdown();
  return 0;
}

}  // namespace xnf::bench
