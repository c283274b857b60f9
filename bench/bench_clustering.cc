// Experiment C4 (paper §4): composite-object data clustering for I/O
// reduction. Relational systems cluster by table; COs want the component
// tuples of one object placed together. We store the same employee data in
// two physical layouts — scattered (insertion order uncorrelated with the
// owning department: naive table clustering under interleaved workloads) and
// CO-clustered (children of one department contiguous) — and measure buffer
// pool page faults while extracting one department's working set through the
// edno index. The fault counter is the simulated-I/O metric (DESIGN.md §4).

#include <algorithm>
#include <random>
#include <tuple>

#include "benchmark/benchmark.h"
#include "util.h"

namespace xnf::bench {
namespace {

constexpr int kDepartments = 200;
constexpr int kEmployeesPerDept = 64;

struct ClusterContext {
  std::unique_ptr<Database> db;
  std::unique_ptr<PreparedQuery> emps_of_dept;
};

// `clustered` controls the physical insertion order of employees;
// `columnar` the physical layout (heap pages vs. per-column row-group
// pages — the C4 variant over the column store).
ClusterContext& GetContext(bool clustered, size_t pool_pages,
                           bool columnar = false) {
  static std::map<std::tuple<bool, size_t, bool>,
                  std::unique_ptr<ClusterContext>>
      cache;
  auto key = std::make_tuple(clustered, pool_pages, columnar);
  auto it = cache.find(key);
  if (it != cache.end()) return *it->second;

  auto ctx = std::make_unique<ClusterContext>();
  Database::Options db_options;
  db_options.buffer_pool_pages = pool_pages;
  // 16-tuple heap pages; the columnar variant gets 16-row groups from
  // tuples_per_page = 1 (groups hold min(1024, 16 * tuples_per_page) rows).
  db_options.tuples_per_page = columnar ? 1 : 16;
  db_options.default_storage =
      columnar ? StorageKind::kColumn : StorageKind::kRow;
  ctx->db = std::make_unique<Database>(db_options);
  Check(ctx->db->ExecuteScript(R"sql(
    CREATE TABLE dept (dno INT PRIMARY KEY, budget INT);
    CREATE TABLE emp (eno INT PRIMARY KEY, edno INT, sal INT);
    CREATE INDEX emp_dept ON emp (edno);
  )sql").status(), "cluster schema");

  std::vector<Row> depts;
  for (int d = 0; d < kDepartments; ++d) {
    depts.push_back(Row{Value::Int(d), Value::Int(1000 * d)});
  }
  BulkInsert(ctx->db.get(), "dept", std::move(depts));

  // Employee rows, either grouped by department (CO clustering) or shuffled
  // (what table-order insertion under an interleaved workload looks like).
  std::vector<std::pair<int, int>> emp_keys;  // (eno, edno)
  int eno = 0;
  for (int d = 0; d < kDepartments; ++d) {
    for (int e = 0; e < kEmployeesPerDept; ++e) {
      emp_keys.emplace_back(eno++, d);
    }
  }
  if (!clustered) {
    std::mt19937 rng(13);
    std::shuffle(emp_keys.begin(), emp_keys.end(), rng);
  }
  std::vector<Row> emps;
  for (auto [id, dno] : emp_keys) {
    emps.push_back(Row{Value::Int(id), Value::Int(dno), Value::Int(id % 5000)});
  }
  BulkInsert(ctx->db.get(), "emp", std::move(emps));

  ctx->emps_of_dept = CheckResult(
      ctx->db->Prepare("SELECT * FROM emp WHERE edno = ?"), "prep extract");
  ClusterContext& ref = *ctx;
  cache.emplace(key, std::move(ctx));
  return ref;
}

void RunExtraction(benchmark::State& state, bool clustered,
                   bool columnar = false) {
  size_t pool_pages = static_cast<size_t>(state.range(0));
  ClusterContext& ctx = GetContext(clustered, pool_pages, columnar);
  BufferPool* pool = ctx.db->buffer_pool();
  pool->ResetCounters();
  int dept = 0;
  for (auto _ : state) {
    // Cold working set each time: the pool is small, other departments'
    // accesses have evicted ours.
    ResultSet rs = CheckResult(
        ctx.emps_of_dept->Execute({Value::Int(dept % kDepartments)}),
        "extract");
    benchmark::DoNotOptimize(rs.rows.size());
    ++dept;
  }
  state.counters["faults_per_extraction"] =
      benchmark::Counter(static_cast<double>(pool->faults()),
                         benchmark::Counter::kAvgIterations);
  state.counters["page_accesses_per_extraction"] =
      benchmark::Counter(static_cast<double>(pool->accesses()),
                         benchmark::Counter::kAvgIterations);
}

void BM_ExtractCoClustered(benchmark::State& state) {
  RunExtraction(state, /*clustered=*/true);
  state.SetLabel("children of one parent contiguous on pages");
}

void BM_ExtractTableScattered(benchmark::State& state) {
  RunExtraction(state, /*clustered=*/false);
  state.SetLabel("children scattered across pages");
}

// C4 over the column store: the extraction is SELECT *, so every column
// segment of a touched row group faults in. With 3 emp columns a group
// costs 3 pages — clustering matters the same way, scaled by the column
// count (a projection benchmark is bench_scan.cc's job).
void BM_ExtractCoClusteredColumnar(benchmark::State& state) {
  RunExtraction(state, /*clustered=*/true, /*columnar=*/true);
  state.SetLabel("columnar row groups, children contiguous");
}

void BM_ExtractTableScatteredColumnar(benchmark::State& state) {
  RunExtraction(state, /*clustered=*/false, /*columnar=*/true);
  state.SetLabel("columnar row groups, children scattered");
}

// Sweep the buffer pool size (in pages). With 16 tuples/page and 64
// employees per department, a clustered extraction touches ~4 pages; a
// scattered one touches up to 64 distinct pages.
BENCHMARK(BM_ExtractCoClustered)->Arg(32)->Arg(128)->Arg(512);
BENCHMARK(BM_ExtractTableScattered)->Arg(32)->Arg(128)->Arg(512);
BENCHMARK(BM_ExtractCoClusteredColumnar)->Arg(32)->Arg(128)->Arg(512);
BENCHMARK(BM_ExtractTableScatteredColumnar)->Arg(32)->Arg(128)->Arg(512);

}  // namespace
}  // namespace xnf::bench
