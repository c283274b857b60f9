// MVCC transaction-workload timing plus a reader-scaling harness.
//
// Workload: a single-session DML mix — autocommit single-row writes (each
// its own ephemeral transaction), explicit BEGIN/COMMIT blocks with every
// fourth rolled back, a read, and a cleanup delete — timed over several
// passes; the median pass lands in BENCH_results.json as "txn_workload".
//
// Indexed reads: prepared `SELECT ... FROM t WHERE b = ?` lookups through
// t's secondary index, timed with no other transaction open and while a
// second session holds an open transaction that has updated rows of t (so
// every read merges that writer's pre-images). Per-read medians land in
// BENCH_results.json as "indexed_read" with config "no-writer" /
// "open-writer".
//
// Scaling: 1/2/4/8 concurrent reader sessions run snapshot transactions
// (BEGIN; aggregate + point reads; COMMIT) against one transfer-writer
// session; aggregate reader statements/sec per width lands in
// BENCH_results.json. Statements serialize on the engine's statement latch,
// so the interesting signal is that throughput stays flat-ish while the
// writer forces version retention, not that it scales linearly.
//
// No number is gated. Takes no flags.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/database.h"
#include "api/session.h"
#include "util.h"

namespace xnf::bench {
namespace {

constexpr int kSeedRows = 4000;
constexpr int kAutocommitWrites = 150;
constexpr int kTxnBlocks = 25;
constexpr int kStatementsPerBlock = 4;

constexpr int kPasses = 9;

constexpr int kIndexedReads = 500;   // per timed pass
constexpr int kWriterUpdates = 64;   // rows of t the open writer updates

std::unique_ptr<Database> MakeDb() {
  Database::Options o;
  o.threads = 1;  // single-threaded: the steadiest timing
  auto db = std::make_unique<Database>(o);
  Check(db->open_error(), "open");
  Check(db->Execute("CREATE TABLE t (a INT PRIMARY KEY, b INT, s VARCHAR)")
            .status(),
        "create t");
  Check(db->Execute("CREATE INDEX t_b ON t (b)").status(), "create t_b");
  for (int base = 0; base < kSeedRows; base += 500) {
    std::string insert = "INSERT INTO t VALUES ";
    for (int i = base; i < base + 500; ++i) {
      if (i > base) insert += ", ";
      insert += "(" + std::to_string(i) + ", " + std::to_string(i % 89) +
                ", 's" + std::to_string(i % 7) + "')";
    }
    Check(db->Execute(insert).status(), "seed");
  }
  return db;
}

// One timed pass. Autocommit single-row writes (each is its own ephemeral
// transaction), explicit multi-statement transaction blocks, a
// couple of reads, and a cleanup delete returning the table to its seed
// contents so rounds are comparable.
double RunWorkload(Database* db) {
  auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < kAutocommitWrites; ++i) {
    Check(db->Execute("INSERT INTO t VALUES (" +
                      std::to_string(1000000 + i) + ", " +
                      std::to_string(i % 89) + ", 'w')")
              .status(),
          "insert");
  }
  for (int i = 0; i < kTxnBlocks; ++i) {
    Check(db->Execute("BEGIN").status(), "begin");
    for (int j = 0; j < kStatementsPerBlock; ++j) {
      Check(db->Execute("UPDATE t SET b = b + 1 WHERE a = " +
                        std::to_string(1000000 + (i * 7 + j) %
                                                     kAutocommitWrites))
                .status(),
            "update");
    }
    // Every fourth block rolls back: the undo path is part of the cost.
    Check(db->Execute(i % 4 == 3 ? "ROLLBACK" : "COMMIT").status(), "end");
  }
  auto read = db->Query("SELECT COUNT(*), SUM(b) FROM t WHERE a >= 1000000");
  Check(read.status(), "read");
  Check(db->Execute("DELETE FROM t WHERE a >= 1000000").status(), "delete");
  auto elapsed = std::chrono::steady_clock::now() - start;
  return std::chrono::duration<double>(elapsed).count();
}

// One timed pass of indexed point reads; returns seconds.
double IndexedReadPass(Session* reader) {
  auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < kIndexedReads; ++i) {
    Check(reader
              ->QueryPrepared("SELECT a, s FROM t WHERE b = ?",
                              {Value::Int(i % 89)})
              .status(),
          "indexed read");
  }
  auto elapsed = std::chrono::steady_clock::now() - start;
  return std::chrono::duration<double>(elapsed).count();
}

// Median per-read seconds of indexed reads without and with an open writer
// on t, passes alternating between the two.
std::pair<double, double> IndexedReadMedians(Database* db) {
  auto reader = db->OpenSession();
  auto writer = db->OpenSession();
  IndexedReadPass(reader.get());  // warmup: prepare, fault pages in
  std::vector<double> alone;
  std::vector<double> with_writer;
  for (int i = 0; i < kPasses; ++i) {
    alone.push_back(IndexedReadPass(reader.get()));
    Check(writer->Execute("BEGIN").status(), "writer begin");
    Check(writer->Execute("UPDATE t SET b = b + 1, s = 'u' WHERE a < " +
                          std::to_string(kWriterUpdates))
              .status(),
          "writer update");
    with_writer.push_back(IndexedReadPass(reader.get()));
    Check(writer->Execute("ROLLBACK").status(), "writer rollback");
  }
  auto median = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    return v[v.size() / 2] / kIndexedReads;
  };
  return {median(alone), median(with_writer)};
}

// Reader scaling: `readers` sessions each run snapshot transactions against
// a writer session moving value between rows. Returns aggregate reader
// statements per second.
double ReaderThroughput(int readers, double seconds) {
  Database::Options o;
  auto db = std::make_unique<Database>(o);
  Check(db->open_error(), "open");
  Check(db->Execute("CREATE TABLE acct (a INT PRIMARY KEY, b INT)").status(),
        "create acct");
  for (int i = 0; i < 64; ++i) {
    Check(db->Execute("INSERT INTO acct VALUES (" + std::to_string(i) +
                      ", 1000)")
              .status(),
          "seed acct");
  }

  std::atomic<bool> stop{false};
  std::atomic<int64_t> reader_statements{0};
  std::vector<std::thread> threads;
  threads.reserve(readers + 1);
  threads.emplace_back([&] {
    auto s = db->OpenSession();
    for (int i = 0; !stop; ++i) {
      const int64_t from = i % 64;
      const int64_t to = (i + 9) % 64;
      if (from == to) continue;
      Check(s->Execute("BEGIN").status(), "w begin");
      Check(s->Execute("UPDATE acct SET b = b - 3 WHERE a = " +
                       std::to_string(from))
                .status(),
            "w update");
      Check(s->Execute("UPDATE acct SET b = b + 3 WHERE a = " +
                       std::to_string(to))
                .status(),
            "w update");
      Check(s->Execute("COMMIT").status(), "w commit");
    }
  });
  for (int t = 0; t < readers; ++t) {
    threads.emplace_back([&, t] {
      auto s = db->OpenSession();
      int64_t n = 0;
      for (int i = 0; !stop; ++i) {
        Check(s->Execute("BEGIN").status(), "r begin");
        Check(s->Query("SELECT SUM(b) FROM acct").status(), "r sum");
        Check(s->Query("SELECT b FROM acct WHERE a = " +
                       std::to_string((i + t) % 64))
                  .status(),
              "r point");
        Check(s->Execute("COMMIT").status(), "r commit");
        n += 4;
      }
      reader_statements += n;
    });
  }
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  stop = true;
  for (std::thread& t : threads) t.join();
  return static_cast<double>(reader_statements.load()) / seconds;
}

int Main(int argc, char** argv) {
  if (argc > 1) {
    std::fprintf(stderr, "bench_mvcc takes no flags (got %s)\n", argv[1]);
    return 2;
  }

  std::unique_ptr<Database> db = MakeDb();
  RunWorkload(db.get());  // warmup: fault pages in, warm the allocator
  std::vector<double> passes;
  passes.reserve(kPasses);
  for (int i = 0; i < kPasses; ++i) passes.push_back(RunWorkload(db.get()));
  std::sort(passes.begin(), passes.end());
  const double median_s = passes[passes.size() / 2];
  std::printf("txn_workload: median %.3f ms over %d passes (%d seed rows)\n",
              median_s * 1e3, kPasses, kSeedRows);

  const double stmts = kAutocommitWrites +
                       kTxnBlocks * (kStatementsPerBlock + 2) + 2;
  std::vector<BenchResult> results;
  BenchResult w;
  w.name = "txn_workload";
  w.median_real_ns = median_s * 1e9;
  w.rows_per_sec = stmts / median_s;
  w.iterations = kPasses;
  results.push_back(w);

  const auto [alone_s, writer_s] = IndexedReadMedians(db.get());
  std::printf("indexed_read: median %.2f us no writer, %.2f us open writer "
              "(%.2fx)\n",
              alone_s * 1e6, writer_s * 1e6, writer_s / alone_s);
  for (const auto& [config, per_read_s] :
       {std::pair<const char*, double>{"no-writer", alone_s},
        std::pair<const char*, double>{"open-writer", writer_s}}) {
    BenchResult r;
    r.name = "indexed_read";
    r.config = config;
    r.median_real_ns = per_read_s * 1e9;
    r.rows_per_sec = 1.0 / per_read_s;
    r.iterations = kPasses;
    results.push_back(r);
  }

  // Reader scaling against a concurrent writer.
  std::printf("reader sessions vs one writer:");
  for (int readers : {1, 2, 4, 8}) {
    const double per_sec = ReaderThroughput(readers, 0.4);
    std::printf("  %d: %.0f stmt/s", readers, per_sec);
    BenchResult r;
    r.name = "reader_statements";
    r.config = "readers-" + std::to_string(readers);
    r.rows_per_sec = per_sec;
    r.iterations = 1;
    results.push_back(r);
  }
  std::printf("\n");
  WriteBenchJson("bench_mvcc", results);
  return 0;
}

}  // namespace
}  // namespace xnf::bench

int main(int argc, char** argv) { return xnf::bench::Main(argc, argv); }
