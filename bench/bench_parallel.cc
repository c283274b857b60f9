// Intra-query parallelism scaling curves: the same queries executed by one
// Database per thread setting (1/2/4/8). Morsel-driven scans are the only
// parallel operators, so the three shapes time them under different
// consumers: a filtered full scan (the morsel-driven SeqScan alone), a
// selective hash join (morsel scans of both inputs under a serial build and
// probe), and an XNF extraction (morsel candidate scans under serial node
// and edge phases). EXPERIMENTS.md records the curves and the host they
// were taken on.

#include <memory>
#include <unordered_map>

#include "benchmark/benchmark.h"
#include "util.h"

namespace xnf::bench {
namespace {

constexpr int kRows = 60000;

Database& GetDb(int threads) {
  static std::unordered_map<int, std::unique_ptr<Database>> cache;
  auto it = cache.find(threads);
  if (it != cache.end()) return *it->second;
  Database::Options options;
  options.threads = threads;
  auto db = std::make_unique<Database>(options);
  Check(db->ExecuteScript(R"sql(
    CREATE TABLE fact (id INT PRIMARY KEY, grp INT, a INT, b INT);
    CREATE TABLE dim (grp INT, tag INT);
  )sql").status(), "parallel schema");
  std::vector<Row> fact;
  fact.reserve(kRows);
  for (int i = 0; i < kRows; ++i) {
    fact.push_back(Row{Value::Int(i), Value::Int(i % 512),
                       Value::Int((i * 37) % 101), Value::Int(i % 23)});
  }
  BulkInsert(db.get(), "fact", std::move(fact));
  std::vector<Row> dim;
  dim.reserve(kRows / 10);
  for (int i = 0; i < kRows / 10; ++i) {
    dim.push_back(Row{Value::Int(i % 512), Value::Int(i % 7)});
  }
  BulkInsert(db.get(), "dim", std::move(dim));
  Database& ref = *db;
  cache.emplace(threads, std::move(db));
  return ref;
}

// Morsel-driven filtered scan of `fact`.
void BM_ParallelScan(benchmark::State& state) {
  Database& db = GetDb(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    auto rs = CheckResult(
        db.Query("SELECT id, a FROM fact WHERE a > 50 AND b < 20"), "scan");
    benchmark::DoNotOptimize(rs.rows.size());
  }
  state.counters["threads"] = static_cast<double>(db.threads());
  state.SetItemsProcessed(state.iterations() * kRows);
}

// Morsel scans of `fact` and `dim` feeding one serial hash-join build and
// probe.
void BM_ParallelHashJoin(benchmark::State& state) {
  Database& db = GetDb(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    auto rs = CheckResult(
        db.Query("SELECT COUNT(*) FROM fact f, dim d "
                 "WHERE f.grp = d.grp AND d.tag = 3 AND f.a > 90"),
        "join");
    benchmark::DoNotOptimize(rs.rows.size());
  }
  state.counters["threads"] = static_cast<double>(db.threads());
  state.SetItemsProcessed(state.iterations() * kRows);
}

// Two-node CO whose node queries are morsel candidate scans; the node and
// edge phases run serially on the calling thread.
void BM_ParallelXnfExtraction(benchmark::State& state) {
  Database& db = GetDb(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    auto co = CheckResult(
        db.QueryCo("OUT OF f AS (SELECT id, grp, a FROM fact WHERE a > 80), "
                   "d AS (SELECT grp, tag FROM dim WHERE tag = 3), "
                   "grouping AS (RELATE f, d WHERE f.grp = d.grp) TAKE *"),
        "xnf");
    benchmark::DoNotOptimize(co.nodes.size());
  }
  state.counters["threads"] = static_cast<double>(db.threads());
}

BENCHMARK(BM_ParallelScan)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ParallelHashJoin)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ParallelXnfExtraction)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace xnf::bench
