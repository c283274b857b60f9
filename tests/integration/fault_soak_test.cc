// Seeded fault-soak harness: randomized SQL + XNF workloads run against a
// primary database with a random failpoint schedule armed, shadowed by an
// identical database that replays only the statements the primary accepted.
// After every statement — in particular after every injected failure — the
// harness asserts the engine's whole-system error contract:
//
//   1. statement atomicity: primary and shadow agree on every table's rows,
//      row counts, and secondary-index contents;
//   2. all buffer-pool pins are released and faults == resident + evictions;
//   3. the worker pool is quiescent;
//   4. a failed OpenCo hands out no (partially-filled) cache object.
//
// Seeds are fixed (0 .. N-1) so every CI run explores the same schedules;
// N comes from SQLXNF_SOAK_SEEDS (default 100, CI uses 20). A failing seed
// writes its schedule and statement log to SQLXNF_SOAK_ARTIFACT (default
// fault_soak_failures.txt) so the exact run can be replayed from the file.

#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "common/failpoint.h"
#include "gtest/gtest.h"
#include "test_util.h"

namespace xnf::testing {
namespace {

// Temp data_dir for the durable primary, removed when the seed finishes.
class ScopedDataDir {
 public:
  ScopedDataDir() {
    std::string tmpl =
        (std::filesystem::temp_directory_path() / "sqlxnf-soak-XXXXXX")
            .string();
    std::vector<char> buf(tmpl.begin(), tmpl.end());
    buf.push_back('\0');
    if (::mkdtemp(buf.data()) != nullptr) path_ = buf.data();
  }
  ~ScopedDataDir() {
    if (!path_.empty()) {
      std::error_code ec;
      std::filesystem::remove_all(path_, ec);
    }
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

constexpr char kSchema[] = R"sql(
  CREATE TABLE dept (dno INT PRIMARY KEY, loc VARCHAR, budget INT);
  CREATE TABLE emp (eno INT PRIMARY KEY, ename VARCHAR, sal INT, edno INT);
  CREATE TABLE empproj (eno INT, pno INT, role VARCHAR);
  CREATE INDEX emp_sal ON emp (sal);
  CREATE INDEX emp_edno ON emp (edno);
  CREATE INDEX empproj_eno ON empproj (eno);
  INSERT INTO dept VALUES (1, 'NY', 100), (2, 'SF', 200), (3, 'NY', 50);
  INSERT INTO emp VALUES (1, 'a', 1500, 1), (2, 'b', 2500, 1),
                         (3, 'c', 1000, 2), (4, 'd', 1800, 2);
  INSERT INTO empproj VALUES (1, 10, 'dev'), (2, 10, 'mgr'), (3, 20, 'dev');
)sql";

constexpr char kXnfQuery[] =
    "OUT OF Xdept AS (SELECT * FROM dept WHERE loc = 'NY'), "
    "Xemp AS (SELECT * FROM emp), "
    "employment AS (RELATE Xdept, Xemp WHERE Xdept.dno = Xemp.edno) "
    "TAKE *";

// Deep state dump of one database, taken with failpoints suppressed so
// probe reads neither fail nor advance any trigger schedule.
std::string DumpState(Database* db) {
  Failpoints::Suppressor suppress;
  std::ostringstream out;
  for (const std::string& name : db->catalog()->TableNames()) {
    TableInfo* table = db->catalog()->GetTable(name);
    out << "table " << name << " live=" << table->storage->live_count() << "\n";
    std::vector<std::string> rows;
    Status scanned = table->storage->Scan([&](Rid rid, const Row& row) {
      rows.push_back(RowToString(row));
      // Index invariant: every live row is findable under every index, and
      // every rid an index returns for this key is live.
      for (const auto& index : table->indexes) {
        bool found = false;
        for (Rid r : index->Lookup(index->ExtractKey(row))) {
          EXPECT_TRUE(table->storage->IsLive(r))
              << name << "." << index->name() << " holds a dead rid";
          if (r == rid) found = true;
        }
        EXPECT_TRUE(found) << name << "." << index->name()
                           << " lost the entry for " << RowToString(row);
      }
      return true;
    });
    EXPECT_TRUE(scanned.ok()) << scanned.ToString();
    std::sort(rows.begin(), rows.end());
    for (const std::string& r : rows) out << "  " << r << "\n";
  }
  return out.str();
}

class Workload {
 public:
  explicit Workload(uint64_t seed) : rng_(seed) {}

  std::string Next() {
    switch (rng_() % 10) {
      case 0:
      case 1: {  // INSERT (sometimes a duplicate key — a natural error)
        int eno = static_cast<int>(rng_() % 40);
        return "INSERT INTO emp VALUES (" + std::to_string(eno) + ", 'w" +
               std::to_string(eno) + "', " +
               std::to_string(900 + static_cast<int>(rng_() % 20) * 100) +
               ", " + std::to_string(1 + static_cast<int>(rng_() % 3)) + ")";
      }
      case 2: {  // multi-row INSERT into the link table
        int eno = static_cast<int>(rng_() % 40);
        int pno = static_cast<int>(10 + rng_() % 3 * 10);
        return "INSERT INTO empproj VALUES (" + std::to_string(eno) + ", " +
               std::to_string(pno) + ", 'dev'), (" + std::to_string(eno) +
               ", " + std::to_string(pno + 10) + ", 'qa')";
      }
      case 3: {  // UPDATE touching both secondary indexes
        int d = static_cast<int>(rng_() % 7);
        return "UPDATE emp SET sal = sal + " + std::to_string(10 + d) +
               " WHERE eno % 7 = " + std::to_string(d);
      }
      case 4: {  // UPDATE moving employees between departments
        int d = static_cast<int>(1 + rng_() % 3);
        return "UPDATE emp SET edno = " + std::to_string(d) +
               " WHERE sal < " + std::to_string(1000 + rng_() % 1500);
      }
      case 5: {  // DELETE
        int m = static_cast<int>(rng_() % 11);
        return "DELETE FROM emp WHERE eno % 11 = " + std::to_string(m) +
               " AND sal > " + std::to_string(1200 + rng_() % 800);
      }
      case 6:
        return "DELETE FROM empproj WHERE pno = " +
               std::to_string(10 + rng_() % 4 * 10);
      case 7:  // join SELECT
        return "SELECT COUNT(*), SUM(e.sal) FROM emp e, dept d "
               "WHERE e.edno = d.dno AND d.loc = 'NY'";
      case 8:  // XNF materialization
        return kXnfQuery;
      default: {  // CO-level UPDATE (write-through path)
        return "OUT OF Xe AS (SELECT * FROM emp WHERE sal < 2000) "
               "UPDATE Xe SET sal = sal + 1";
      }
    }
  }

 private:
  std::mt19937_64 rng_;
};

// One to three random sites armed with random triggers.
std::string RandomSchedule(uint64_t seed) {
  std::mt19937_64 rng(seed * 7919 + 13);
  const std::vector<const char*>& sites = Failpoints::KnownSites();
  int count = 1 + static_cast<int>(rng() % 3);
  std::string spec;
  for (int i = 0; i < count; ++i) {
    const char* site = sites[rng() % sites.size()];
    std::string trigger;
    switch (rng() % 3) {
      case 0:
        trigger = "nth(" + std::to_string(1 + rng() % 20) + ")";
        break;
      case 1:
        trigger = "every(" + std::to_string(2 + rng() % 9) + ")";
        break;
      default:
        trigger = "prob(0." + std::to_string(1 + rng() % 3) + "," +
                  std::to_string(rng() % 1000) + ")";
        break;
    }
    if (!spec.empty()) spec += ",";
    spec += std::string(site) + "=" + trigger;
  }
  return spec;
}

int SeedCount() {
  if (const char* env = std::getenv("SQLXNF_SOAK_SEEDS");
      env != nullptr && env[0] != '\0') {
    return std::max(1, std::atoi(env));
  }
  return 100;
}

void WriteFailureArtifact(uint64_t seed, const std::string& schedule,
                          const std::vector<std::string>& log) {
  const char* path = std::getenv("SQLXNF_SOAK_ARTIFACT");
  std::ofstream out(path != nullptr && path[0] != '\0'
                        ? path
                        : "fault_soak_failures.txt",
                    std::ios::app);
  out << "seed=" << seed << "\nschedule=" << schedule << "\n";
  for (const std::string& stmt : log) out << "  " << stmt << ";\n";
  out << "\n";
}

class FaultSoak : public ::testing::Test {
 protected:
  void TearDown() override { Failpoints::DisableAll(); }
};

void RunSeed(uint64_t seed, int* injected_total) {
  SCOPED_TRACE("seed=" + std::to_string(seed));
  Failpoints::DisableAll();

  // The primary is durable: every statement runs through the WAL, and the
  // end of the seed kills it and diffs the recovered state against the
  // shadow. The shadow stays in-memory so recovery is checked against an
  // independent replica, not against itself.
  ScopedDataDir dir;
  ASSERT_FALSE(dir.path().empty());
  Database::Options popt;
  popt.data_dir = dir.path();
  popt.wal_fsync = false;
  popt.checkpoint_on_close = false;
  auto primary_db = std::make_unique<Database>(popt);
  Database& primary = *primary_db;
  ASSERT_OK(primary.open_error());
  Database shadow;
  MustExecute(&primary, kSchema);
  MustExecute(&shadow, kSchema);

  std::string schedule = RandomSchedule(seed);
  SCOPED_TRACE("schedule=" + schedule);
  ASSERT_OK(Failpoints::EnableSpec(schedule));

  Workload workload(seed);
  std::vector<std::string> log;
  for (int step = 0; step < 40; ++step) {
    std::string stmt = workload.Next();
    log.push_back(stmt);
    SCOPED_TRACE("step " + std::to_string(step) + ": " + stmt);

    auto result = primary.Execute(stmt);
    if (!result.ok() &&
        result.status().code() == StatusCode::kFaultInjected) {
      ++*injected_total;
    }
    if (result.ok()) {
      // Replay on the shadow with failpoints muted; an accepted statement
      // must be replayable.
      Failpoints::Suppressor suppress;
      auto replay = shadow.Execute(stmt);
      ASSERT_TRUE(replay.ok()) << replay.status().ToString();
      if (result->kind == ExecResult::Kind::kAffected) {
        EXPECT_EQ(replay->affected, result->affected);
      }
    }

    // Whole-system invariants, failure or not.
    EXPECT_EQ(primary.buffer_pool()->pinned_pages(), 0u);
    EXPECT_EQ(primary.buffer_pool()->faults(),
              primary.buffer_pool()->resident_pages() +
                  primary.buffer_pool()->evictions());
    EXPECT_TRUE(primary.exec_quiescent());
    // Statement atomicity: primary state == shadow state, including every
    // secondary index (checked inside DumpState).
    EXPECT_EQ(DumpState(&primary), DumpState(&shadow));

    if (::testing::Test::HasFailure()) {
      WriteFailureArtifact(seed, schedule, log);
      return;
    }
  }

  // A failed OpenCo must not hand out a cache; a successful one must be
  // fully wired.
  auto cache = primary.OpenCo(kXnfQuery);
  if (cache.ok()) {
    size_t wired = 0;
    int rel = (*cache)->RelIndex("employment");
    ASSERT_GE(rel, 0);
    for (const co::CoCache::Tuple& t :
         (*cache)->node((*cache)->NodeIndex("xdept")).tuples) {
      wired += (*cache)->Children(rel, t).size();
    }
    EXPECT_EQ(wired, (*cache)->rel(rel).connections.size());
  }
  Failpoints::DisableAll();

  // With the schedule disarmed the primary must be fully operational.
  auto recheck = primary.Query("SELECT COUNT(*) FROM emp");
  ASSERT_TRUE(recheck.ok()) << recheck.status().ToString();

  // Kill the primary (no close checkpoint) and recover from its WAL: the
  // recovered state — rows and every secondary index — must equal the
  // shadow that replayed only the accepted statements.
  primary_db.reset();
  primary_db = std::make_unique<Database>(popt);
  ASSERT_TRUE(primary_db->open_error().ok())
      << primary_db->open_error().ToString();
  EXPECT_EQ(DumpState(primary_db.get()), DumpState(&shadow));

  if (::testing::Test::HasFailure()) {
    WriteFailureArtifact(seed, schedule, log);
  }
}

TEST_F(FaultSoak, RandomizedWorkloadsUnderRandomFaultSchedules) {
  int seeds = SeedCount();
  int injected = 0;
  for (int seed = 0; seed < seeds; ++seed) {
    RunSeed(static_cast<uint64_t>(seed), &injected);
    if (::testing::Test::HasFailure()) break;
  }
  // The soak is vacuous if no schedule ever fired; with the fixed seeds a
  // healthy run injects hundreds of faults.
  EXPECT_GT(injected, seeds) << "fault schedules barely fired";
  RecordProperty("injected_faults", injected);
}

}  // namespace
}  // namespace xnf::testing
