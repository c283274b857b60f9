// co_bulk: one client extracting large composite objects, rotating through
// three shapes where planning is negligible and derived-query execution,
// edges, reachability and the cache dominate (design, take, hierarchy,
// take, design: see kRotation):
//   design     an 8 801-tuple working set of the design database;
//   hierarchy  a recursive CO over a ~20k-staff management hierarchy whose
//              orphans (~25%) sit in manager cycles no root reaches;
//   take       a TAKE column-list extraction over a wide USING column table.

#include <algorithm>
#include <iterator>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "api/database.h"
#include "design_db.h"
#include "extract.h"
#include "harness.h"
#include "workloads.h"
#include "xnf/cache.h"

namespace xnfbench {
namespace {

using xnf::Database;
using xnf::Value;

constexpr int kDesignConfigurations = 8;
constexpr int kDesignItems = 800;  // 1 + 800 + 8000 = 8801 tuples
constexpr int kStaff = 20000;
constexpr int kOrphanPermille = 250;
constexpr int kRegions = 12;
constexpr int kHeadersPerRegion = 1000;
constexpr int kWideRows = 120000;

const char kHierarchyCo[] =
    "OUT OF b AS boss, s AS staff, "
    "tops AS (RELATE b, s WHERE s.is_top = 1 AND b.id >= 0), "
    "manages AS (RELATE s up, s down WHERE up.id = down.mgr) TAKE *";

std::string TakeCoQuery(int region) {
  const std::string r = std::to_string(region);
  return "OUT OF h AS (SELECT * FROM hdr WHERE region = " + r +
         "), w AS (SELECT * FROM wide WHERE region = " + r +
         "), lines AS (RELATE h, w WHERE h.hid = w.hid) "
         "TAKE h(hid, label), w(wid, hid, n0), lines";
}

struct Fixture {
  std::unique_ptr<Database> db;
  DesignDb design;
  size_t hierarchy_rows = 0;          // expected CO tuples + connections
  std::vector<size_t> take_rows;      // by region
};

// A management hierarchy: non-orphans report to the boss (is_top) or to an
// earlier employee; orphans report to each other in cycles of 2-5, so no
// root reaches them (nor anyone who reports to them).
size_t LoadHierarchy(Database* db, std::mt19937_64* rng) {
  SetupCheck(db->ExecuteScript(R"sql(
    CREATE TABLE boss (id INT PRIMARY KEY, name VARCHAR);
    CREATE TABLE staff (id INT PRIMARY KEY, mgr INT, is_top INT);
    INSERT INTO boss VALUES (0, 'ceo');
  )sql").status(), "hierarchy schema");
  std::uniform_int_distribution<int> permille(0, 999);
  std::vector<bool> orphan(kStaff, false);
  std::vector<int> orphans;
  for (int i = 1; i < kStaff; ++i) {
    if (permille(*rng) < kOrphanPermille) {
      orphan[i] = true;
      orphans.push_back(i);
    }
  }
  std::shuffle(orphans.begin(), orphans.end(), *rng);
  std::vector<int64_t> mgr(kStaff, -1);
  for (size_t start = 0; start < orphans.size();) {
    size_t len = std::min<size_t>(2 + permille(*rng) % 4,
                                  orphans.size() - start);
    if (len < 2 && start > 0) {
      mgr[orphans[start]] = orphans[start - 1];  // join the previous cycle's
      break;                                     // tail: still unreachable
    }
    for (size_t k = 0; k < len; ++k) {
      mgr[orphans[start + k]] = orphans[start + (k + 1) % len];
    }
    start += len;
  }
  BulkLoader staff(db, "staff");
  std::vector<bool> reachable(kStaff, false);
  size_t tuples = 1, connections = 0;  // the boss
  for (int i = 0; i < kStaff; ++i) {
    int is_top = 0;
    if (!orphan[i]) {
      if (i == 0 || permille(*rng) < 50) {
        is_top = 1;
      } else {
        mgr[i] = std::uniform_int_distribution<int>(0, i - 1)(*rng);
      }
    }
    reachable[i] = is_top == 1 || (!orphan[i] && reachable[mgr[i]]);
    if (reachable[i]) {
      ++tuples;
      ++connections;  // from the boss (tops) or from its manager (manages)
    }
    staff.Add({Value::Int(i), mgr[i] < 0 ? Value::Null() : Value::Int(mgr[i]),
               Value::Int(is_top)});
  }
  return tuples + connections;
}

// hdr(hid, region, label) rows and a 15-column columnar line table whose
// long strings make every decoded column a real allocation.
std::vector<size_t> LoadWide(Database* db, std::mt19937_64* rng) {
  SetupCheck(db->ExecuteScript(R"sql(
    CREATE TABLE hdr (hid INT PRIMARY KEY, region INT, label VARCHAR);
    CREATE INDEX hdr_region ON hdr (region);
    CREATE TABLE wide (wid INT, hid INT, region INT, n0 INT, n1 INT, n2 INT,
                       n3 INT, n4 INT, s0 VARCHAR, s1 VARCHAR, s2 VARCHAR,
                       s3 VARCHAR, s4 VARCHAR, s5 VARCHAR, s6 VARCHAR)
      USING column;
  )sql").status(), "wide schema");
  BulkLoader hdr(db, "hdr"), wide(db, "wide");
  for (int h = 0; h < kRegions * kHeadersPerRegion; ++h) {
    hdr.Add({Value::Int(h), Value::Int(h % kRegions),
             Value::String("header-" + std::to_string(h))});
  }
  // Every header is a root, every line reaches its header.
  std::vector<size_t> rows(kRegions, kHeadersPerRegion);
  std::uniform_int_distribution<int> any_header(0, kHeadersPerRegion - 1);
  std::uniform_int_distribution<int> n(0, 999);
  for (int w = 0; w < kWideRows; ++w) {
    const int region = static_cast<int>((*rng)() % kRegions);
    const int hid = any_header(*rng) * kRegions + region;
    const std::string tag =
        std::to_string(n(*rng)) + "-abcdefghijklmnopqrstuvwxyz";
    xnf::Row row = {Value::Int(w),       Value::Int(hid),    Value::Int(region),
               Value::Int(n(*rng)), Value::Int(n(*rng)), Value::Int(n(*rng)),
               Value::Int(n(*rng)), Value::Int(n(*rng))};
    for (int s = 0; s < 7; ++s) {
      row.push_back(Value::String("s" + std::to_string(s) + "-" + tag));
    }
    wide.Add(std::move(row));
    rows[region] += 2;  // the line tuple and its connection
  }
  return rows;
}

std::unique_ptr<Fixture> BuildFixture(uint64_t seed) {
  auto f = std::make_unique<Fixture>();
  f->db = std::make_unique<Database>(BaseOptions());
  std::mt19937_64 rng(seed);
  f->design = LoadDesignDb(
      f->db.get(), std::vector<int>(kDesignConfigurations, kDesignItems),
      &rng);
  f->hierarchy_rows = LoadHierarchy(f->db.get(), &rng);
  f->take_rows = LoadWide(f->db.get(), &rng);
  return f;
}

enum Shape { kDesign = 0, kHierarchy = 1, kTake = 2, kShapes = 3 };
const char* const kShapeNames[kShapes] = {"design", "hierarchy", "take"};

// The order of the shapes, 2 : 1 : 2. The shapes take about 6, 25 and 13 ms,
// so unit_p90_us falls on the median of the slowest (hierarchy) rather than
// on its jittery upper tail, and unit_p50_us inside the take extractions.
constexpr Shape kRotation[] = {kDesign, kTake, kHierarchy, kTake, kDesign};

struct Phase {
  LoopStats loop;
  ExtractStats extract;
  Samples by_shape[kShapes];
};

class Client {
 public:
  Client(Fixture* f, uint64_t seed, Report* report)
      : f_(f), rng_(seed), report_(report) {}

  Phase Run(double seconds, AggregatingTraceSink* sink, bool via_execute) {
    Phase phase;
    phase.loop = RunClosedLoop(f_->db.get(), seconds, sink, "co.unit", [&] {
      return Unit(&phase, sink, via_execute);
    });
    return phase;
  }

 private:
  bool Unit(Phase* phase, AggregatingTraceSink* sink, bool via_execute) {
    const Shape shape = kRotation[next_unit_++ % std::size(kRotation)];
    std::string query;
    size_t expected = 0;
    if (shape == kDesign) {
      const int cfg = static_cast<int>(rng_() % kDesignConfigurations);
      query = DesignCoQuery(cfg);
      expected = f_->design.sets[cfg].tuples() +
                 f_->design.sets[cfg].connections();
    } else if (shape == kHierarchy) {
      query = kHierarchyCo;
      expected = f_->hierarchy_rows;
    } else {
      const int region = static_cast<int>(rng_() % kRegions);
      query = TakeCoQuery(region);
      expected = f_->take_rows[region];
    }
    auto cache = Extract(f_->db.get(), query, via_execute, sink,
                         &phase->extract);
    if (!cache.ok()) {
      if (++errors_ <= 5) {
        report_->Note(std::string("co_bulk error (") + kShapeNames[shape] +
                      "): " + cache.status().ToString());
      }
      return false;
    }
    phase->by_shape[shape].Add(phase->extract.latency.last());
    const size_t rows = CoRows(**cache);
    Release(std::move(cache).value(), sink, &phase->extract);
    if (rows != expected) {
      report_->Fail(std::string(kShapeNames[shape]) + " CO has " +
                    std::to_string(rows) +
                    " tuples + connections, expected " +
                    std::to_string(expected));
      return false;
    }
    return true;
  }

  Fixture* f_;
  std::mt19937_64 rng_;
  Report* report_;
  uint64_t next_unit_ = 0;
  int errors_ = 0;
};

}  // namespace

RunInfo RunCoBulk(const Config& config, Report* report) {
  std::unique_ptr<Fixture> f = TimedSetup<Fixture>(
      config, [&] { return BuildFixture(config.seed); }, report);
  RunInfo info;
  info.dop = f->db->threads();
  info.options = "threads=1";
  Client client(f.get(), config.seed ^ 0xb01c, report);

  if (!config.trace) {
    Phase phase = client.Run(config.seconds, nullptr, /*via_execute=*/false);
    report->attempted = phase.loop.units;
    report->failed = phase.loop.failed;
    report->AddUnitMetrics(phase.loop.done_s, phase.loop.latency,
                           config.seconds);
    report->NoteLatency("extract", phase.extract.latency);
    for (int s = 0; s < kShapes; ++s) {
      report->NoteLatency(kShapeNames[s], phase.by_shape[s]);
    }
    report->Add("rss_peak_mb", PeakRssMb(), "MB");
  } else {
    AggregatingTraceSink sink;
    const auto [plain, wide, traced, dop] = RunThirds<Phase>(
        f->db.get(), config.seconds, &sink,
        [&](double seconds, AggregatingTraceSink* k) {
          return client.Run(seconds, k, /*via_execute=*/true);
        });
    report->attempted = plain.loop.units + wide.loop.units + traced.loop.units;
    report->failed = plain.loop.failed + wide.loop.failed + traced.loop.failed;
    AddXnfMetrics(plain.extract, report);
    AddEngineMetrics(plain.loop.metrics, plain.loop.units,
                     plain.extract.co_rows, report);
    const double plain_rate = plain.loop.units / plain.loop.wall_s;
    AddPoolMetrics(wide.loop.metrics, wide.loop.units, dop,
                   wide.loop.units / wide.loop.wall_s / plain_rate, report);
    AddTraceSummary(sink, plain_rate, traced.loop.units, traced.loop.wall_s,
                    /*xnf=*/true, {"co.unit"}, report);
  }
  return info;
}

}  // namespace xnfbench
