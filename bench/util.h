#ifndef XNF_BENCH_UTIL_H_
#define XNF_BENCH_UTIL_H_

#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "api/database.h"

namespace xnf::bench {

// Aborts with a message if `status` is not OK (benchmark setup must not fail
// silently).
void Check(const Status& status, const char* what);

template <typename T>
T CheckResult(Result<T> result, const char* what) {
  Check(result.status(), what);
  return std::move(result).value();
}

// Fast bulk insert bypassing SQL parsing (setup only; the benchmarks
// themselves always go through the measured interfaces).
void BulkInsert(Database* db, const std::string& table,
                std::vector<Row> rows);

// --- OO1 / Cattell-style parts database (experiment C1, A2, C6) -----------
//
// part(id INT PRIMARY KEY, ptype VARCHAR, x INT, y INT, build INT)
// conn(from_id INT, to_id INT, ctype VARCHAR, length INT)
// Each part has exactly `fanout` outgoing connections; 90% connect to parts
// within +-`locality` of the source id (OO1's locality of reference), the
// rest uniformly at random. Hash indexes on part.id (PK), conn.from_id,
// conn.to_id.
struct OO1Options {
  int parts = 5000;
  int fanout = 3;
  int locality = 100;
  uint32_t seed = 42;
};
void BuildOO1Database(Database* db, const OO1Options& options);

// The CO over the OO1 schema: `anchor` is the root copy of the parts table;
// `seed` connects anchors to their direct successors; `wire` is the cyclic
// part-to-part relationship navigated during traversals.
extern const char kOO1CoQuery[];

// --- Scaled company database (experiments C2, C3, C7) ----------------------
//
// grp(gid PK, cfg, gname, budget), item(iid PK, gid, cfg, weight),
// part(pid PK, iid, cfg, cost). `cfg` tags a configuration/working set: all
// rows of one configuration form the paper's 1-in-N working set. Indexes on
// all cfg and parent-key columns.
struct WorkingSetOptions {
  int configurations = 100;  // number of disjoint working sets
  int items_per_group = 10;
  int parts_per_item = 10;
  uint32_t seed = 7;
};
void BuildWorkingSetDatabase(Database* db, const WorkingSetOptions& options);

// --- BENCH_results.json -----------------------------------------------------
//
// Machine-readable benchmark results for the CI artifact. Entries are
// appended as one JSON object per line to the file named by the
// SQLXNF_BENCH_JSON environment variable (default "BENCH_results.json" in
// the working directory), so several bench binaries can contribute to one
// artifact:
//   {"binary":"bench_join","name":"selective_join","config":"col",
//    "rows_per_sec":1.2e6,"median_real_ns":3.4e6,"iterations":9,
//    "build_type":"Release","nproc":4,"commit":"29e41da"}
// Every record is stamped with the CMake build type, the hardware thread
// count, and the git commit the build was configured at ("unknown" outside
// a git checkout), so records from different builds stay comparable.

struct BenchResult {
  std::string name;             // benchmark / workload name
  std::string config;           // engine configuration label
  double rows_per_sec = 0.0;    // median wall-time throughput (0 = not
                                // measured)
  double median_real_ns = 0.0;  // median wall time per iteration
  int64_t iterations = 0;       // samples behind the medians
};

void WriteBenchJson(const std::string& binary,
                    const std::vector<BenchResult>& results);

// Drop-in main for google-benchmark binaries (defined in util_gbench.cc):
// runs the registered benchmarks with the normal console output and also
// appends per-benchmark medians (across repetitions) to the results file.
int BenchmarkJsonMain(int argc, char** argv, const std::string& binary);

}  // namespace xnf::bench

#endif  // XNF_BENCH_UTIL_H_
