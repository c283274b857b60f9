// Column-batch workloads on row vs columnar storage: a selective hash join
// (the probe decodes payload columns only for matching rows), an XNF CO
// extraction with a TAKE column list (untaken columns are never decoded),
// and a grouped aggregation that accumulates straight off column views.
// Each runs against a row-storage and a columnar engine with the same
// logical contents; result row counts are cross-checked between the two
// before any timing is trusted. Not gated: the columnar scan picks column
// batches by itself, so there is no baseline engine to compare against.
//
//   ./bench_join            print per-engine medians
//
// Medians are appended to BENCH_results.json (see util.h).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "api/database.h"
#include "util.h"

namespace xnf::bench {
namespace {

constexpr int kDimRows = 1000;     // build side
constexpr int kFactRows = 120000;  // probe side; ~1% of rows find a match
constexpr int kKeySpace = 100000;
constexpr int kWideRows = 60000;   // 12-column CO source, mostly strings
constexpr int kQueriesPerRun = 3;

std::unique_ptr<Database> MakeDb(bool columnar) {
  Database::Options o;
  o.threads = 1;  // single-threaded: the steadiest timing baseline
  auto db = std::make_unique<Database>(o);
  const std::string storage = columnar ? " USING column" : " USING row";
  Check(db->Execute("CREATE TABLE dim (k VARCHAR, tag INT)" + storage)
            .status(),
        "create dim");
  Check(db->Execute("CREATE TABLE fact (id INT, k VARCHAR, g INT, v INT, "
                    "p1 INT, p2 VARCHAR, p3 VARCHAR)" + storage)
            .status(),
        "create fact");
  Check(db->Execute("CREATE TABLE wide (a INT, b INT, s0 VARCHAR, "
                    "s1 VARCHAR, s2 VARCHAR, s3 VARCHAR, n0 INT, n1 INT, "
                    "n2 INT, n3 INT, s4 VARCHAR, s5 VARCHAR)" + storage)
            .status(),
        "create wide");

  std::vector<Row> dim;
  dim.reserve(kDimRows);
  for (int i = 0; i < kDimRows; ++i) {
    dim.push_back(Row{Value::String("key" + std::to_string(i)),
                      Value::Int(i % 7)});
  }
  BulkInsert(db.get(), "dim", std::move(dim));

  std::vector<Row> fact;
  fact.reserve(kFactRows);
  for (int i = 0; i < kFactRows; ++i) {
    // Keys key0..key999 (the dim range) appear on ~1% of probe rows; the
    // string payloads are what a row scan materializes for every row and
    // the columnar probe decodes only for matches.
    int key = (i * 131) % kKeySpace;
    fact.push_back(Row{Value::Int(i), Value::String("key" + std::to_string(key)),
                       Value::Int(i % 64), Value::Int(i % 1000),
                       Value::Int(i),
                       Value::String("payload-" + std::to_string(i % 5000)),
                       Value::String("note-" + std::to_string(i % 3000))});
  }
  BulkInsert(db.get(), "fact", std::move(fact));

  std::vector<Row> wide;
  wide.reserve(kWideRows);
  for (int i = 0; i < kWideRows; ++i) {
    // Payload strings are long enough to defeat the small-string
    // optimization: decoding one is a real allocation, which is exactly
    // the work TAKE pruning avoids.
    std::string tag = std::to_string(i % 4000) + "-abcdefghijklmnopqrstuvwxyz";
    wide.push_back(Row{Value::Int(i), Value::Int(i % 60000),
                       Value::String("s0-" + tag), Value::String("s1-" + tag),
                       Value::String("s2-" + tag), Value::String("s3-" + tag),
                       Value::Int(i % 11), Value::Int(i % 13),
                       Value::Int(i % 17), Value::Int(i % 19),
                       Value::String("s4-" + tag), Value::String("s5-" + tag)});
  }
  BulkInsert(db.get(), "wide", std::move(wide));
  return db;
}

struct Timed {
  double seconds = 0.0;
  size_t count = 0;  // result cardinality, cross-checked between engines
};

Timed RunJoin(Database* db) {
  Timed t;
  auto start = std::chrono::steady_clock::now();
  for (int q = 0; q < kQueriesPerRun; ++q) {
    auto rs = CheckResult(
        db->Query("SELECT f.id, f.v, f.p2, f.p3, d.tag "
                  "FROM fact f, dim d WHERE f.k = d.k"),
        "selective join");
    t.count = rs.rows.size();
  }
  auto elapsed = std::chrono::steady_clock::now() - start;
  t.seconds = std::chrono::duration<double>(elapsed).count();
  return t;
}

Timed RunTake(Database* db) {
  Timed t;
  auto start = std::chrono::steady_clock::now();
  for (int q = 0; q < kQueriesPerRun; ++q) {
    auto co = CheckResult(
        db->QueryCo("OUT OF w AS (SELECT * FROM wide WHERE b < 30000) "
                    "TAKE w(a, b)"),
        "take extraction");
    size_t tuples = 0;
    for (const auto& node : co.nodes) tuples += node.tuples.size();
    t.count = tuples;
  }
  auto elapsed = std::chrono::steady_clock::now() - start;
  t.seconds = std::chrono::duration<double>(elapsed).count();
  return t;
}

Timed RunAgg(Database* db) {
  Timed t;
  auto start = std::chrono::steady_clock::now();
  for (int q = 0; q < kQueriesPerRun; ++q) {
    auto rs = CheckResult(
        db->Query("SELECT g, SUM(v) FROM fact GROUP BY g"), "group agg");
    t.count = rs.rows.size();
  }
  auto elapsed = std::chrono::steady_clock::now() - start;
  t.seconds = std::chrono::duration<double>(elapsed).count();
  return t;
}

struct Workload {
  const char* name;
  Timed (*run)(Database*);
  int64_t rows_per_iter;  // input rows a single query touches
};

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

int Main(int argc, char** argv) {
  if (argc > 1) {
    std::fprintf(stderr, "unknown flag: %s\n", argv[1]);
    return 2;
  }
  constexpr int kRounds = 5;

  std::unique_ptr<Database> row_db = MakeDb(/*columnar=*/false);
  std::unique_ptr<Database> col_db = MakeDb(/*columnar=*/true);
  struct Config {
    const char* label;
    Database* db;
  };
  const Config configs[2] = {
      {"row", row_db.get()},
      {"col", col_db.get()},
  };

  const Workload workloads[] = {
      {"selective_join", RunJoin, kFactRows},
      {"xnf_take_pruning", RunTake, kWideRows},
      {"group_aggregate", RunAgg, kFactRows},
  };

  // Warmup every configuration/workload pair and cross-check result
  // cardinality: a fast engine that returns different rows is a bug, not a
  // speedup.
  for (const Workload& w : workloads) {
    const size_t expect = w.run(configs[0].db).count;
    const size_t got = w.run(configs[1].db).count;
    if (got != expect) {
      std::fprintf(stderr, "FAIL: %s on %s returned %zu rows, expected %zu\n",
                   w.name, configs[1].label, got, expect);
      return 1;
    }
  }

  std::vector<BenchResult> json;
  for (const Workload& w : workloads) {
    // Interleave the engines round by round so clock/thermal drift hits
    // both alike.
    std::vector<double> samples[2];
    for (int r = 0; r < kRounds; ++r) {
      for (int e = 0; e < 2; ++e) {
        samples[e].push_back(w.run(configs[e].db).seconds);
      }
    }
    const double row_med = Median(samples[0]);
    const double col_med = Median(samples[1]);
    std::printf("%-18s row %8.2f ms   col %8.2f ms   row/col %.2fx\n", w.name,
                row_med / kQueriesPerRun * 1e3, col_med / kQueriesPerRun * 1e3,
                row_med / col_med);
    for (int e = 0; e < 2; ++e) {
      BenchResult res;
      res.name = w.name;
      res.config = configs[e].label;
      const double med = Median(samples[e]);
      res.median_real_ns = med / kQueriesPerRun * 1e9;
      res.rows_per_sec =
          static_cast<double>(w.rows_per_iter) * kQueriesPerRun / med;
      res.iterations = static_cast<int64_t>(samples[e].size());
      json.push_back(std::move(res));
    }
  }
  WriteBenchJson("bench_join", json);
  return 0;
}

}  // namespace
}  // namespace xnf::bench

int main(int argc, char** argv) { return xnf::bench::Main(argc, argv); }
