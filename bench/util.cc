#include "util.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <thread>

#include "exec/dml.h"

namespace xnf::bench {

void Check(const Status& status, const char* what) {
  if (!status.ok()) {
    std::fprintf(stderr, "benchmark setup failed (%s): %s\n", what,
                 status.ToString().c_str());
    std::abort();
  }
}

void BulkInsert(Database* db, const std::string& table,
                std::vector<Row> rows) {
  TableInfo* info = db->catalog()->GetTable(table);
  if (info == nullptr) Check(Status::NotFound(table), "bulk insert");
  exec::DmlExecutor dml(db->catalog());
  for (Row& row : rows) {
    Check(dml.InsertRow(info, std::move(row)).status(), "bulk insert row");
  }
}

const char kOO1CoQuery[] = R"(
  OUT OF anchor AS part, p AS part,
    seed AS (RELATE anchor, p USING conn c
             WHERE anchor.id = c.from_id AND p.id = c.to_id),
    wire AS (RELATE p src, p dst USING conn c2
             WHERE src.id = c2.from_id AND dst.id = c2.to_id)
  TAKE *
)";

void BuildOO1Database(Database* db, const OO1Options& options) {
  Check(db->ExecuteScript(R"sql(
    CREATE TABLE part (id INT PRIMARY KEY, ptype VARCHAR, x INT, y INT,
                       build INT);
    CREATE TABLE conn (from_id INT, to_id INT, ctype VARCHAR, length INT);
    CREATE INDEX conn_from ON conn (from_id);
    CREATE INDEX conn_to ON conn (to_id);
  )sql").status(), "OO1 schema");

  std::mt19937 rng(options.seed);
  std::uniform_int_distribution<int> coord(0, 99999);
  std::uniform_int_distribution<int> type(0, 9);
  std::vector<Row> parts;
  parts.reserve(options.parts);
  for (int i = 0; i < options.parts; ++i) {
    parts.push_back(Row{Value::Int(i),
                        Value::String("type" + std::to_string(type(rng))),
                        Value::Int(coord(rng)), Value::Int(coord(rng)),
                        Value::Int(coord(rng))});
  }
  BulkInsert(db, "part", std::move(parts));

  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::uniform_int_distribution<int> local(-options.locality,
                                           options.locality);
  std::uniform_int_distribution<int> any(0, options.parts - 1);
  std::uniform_int_distribution<int> len(1, 1000);
  std::vector<Row> conns;
  conns.reserve(static_cast<size_t>(options.parts) * options.fanout);
  for (int i = 0; i < options.parts; ++i) {
    for (int f = 0; f < options.fanout; ++f) {
      int target;
      if (unit(rng) < 0.9) {
        target = (i + local(rng) % options.parts + options.parts) %
                 options.parts;
      } else {
        target = any(rng);
      }
      conns.push_back(Row{Value::Int(i), Value::Int(target),
                          Value::String("link"), Value::Int(len(rng))});
    }
  }
  BulkInsert(db, "conn", std::move(conns));
}

void BuildWorkingSetDatabase(Database* db,
                             const WorkingSetOptions& options) {
  Check(db->ExecuteScript(R"sql(
    CREATE TABLE grp (gid INT PRIMARY KEY, cfg INT, gname VARCHAR,
                      budget INT);
    CREATE TABLE item (iid INT PRIMARY KEY, gid INT, cfg INT, weight INT);
    CREATE TABLE part (pid INT PRIMARY KEY, iid INT, cfg INT, cost INT);
    CREATE INDEX grp_cfg ON grp (cfg);
    CREATE INDEX item_cfg ON item (cfg);
    CREATE INDEX item_gid ON item (gid);
    CREATE INDEX part_cfg ON part (cfg);
    CREATE INDEX part_iid ON part (iid);
  )sql").status(), "working-set schema");

  std::mt19937 rng(options.seed);
  std::uniform_int_distribution<int> small(1, 100);
  std::vector<Row> grps, items, parts;
  int iid = 0, pid = 0;
  for (int cfg = 0; cfg < options.configurations; ++cfg) {
    grps.push_back(Row{Value::Int(cfg), Value::Int(cfg),
                       Value::String("group" + std::to_string(cfg)),
                       Value::Int(small(rng) * 1000)});
    for (int i = 0; i < options.items_per_group; ++i) {
      int this_iid = iid++;
      items.push_back(Row{Value::Int(this_iid), Value::Int(cfg),
                          Value::Int(cfg), Value::Int(small(rng))});
      for (int p = 0; p < options.parts_per_item; ++p) {
        parts.push_back(Row{Value::Int(pid++), Value::Int(this_iid),
                            Value::Int(cfg), Value::Int(small(rng))});
      }
    }
  }
  BulkInsert(db, "grp", std::move(grps));
  BulkInsert(db, "item", std::move(items));
  BulkInsert(db, "part", std::move(parts));
}

namespace {

// Escapes the handful of characters that can appear in benchmark names.
std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

}  // namespace

void WriteBenchJson(const std::string& binary,
                    const std::vector<BenchResult>& results) {
  const char* env = std::getenv("SQLXNF_BENCH_JSON");
  std::string path = env != nullptr ? env : "BENCH_results.json";
  std::ofstream out(path, std::ios::app);
  if (!out) {
    std::fprintf(stderr, "cannot append bench results to %s\n", path.c_str());
    return;
  }
  for (const BenchResult& r : results) {
    out << "{\"binary\":\"" << JsonEscape(binary) << "\",\"name\":\""
        << JsonEscape(r.name) << "\",\"config\":\"" << JsonEscape(r.config)
        << "\",\"rows_per_sec\":" << r.rows_per_sec
        << ",\"median_real_ns\":" << r.median_real_ns
        << ",\"iterations\":" << r.iterations << ",\"build_type\":\""
        << SQLXNF_BUILD_TYPE << "\",\"nproc\":"
        << std::thread::hardware_concurrency() << ",\"commit\":\""
        << SQLXNF_COMMIT << "\"}\n";
  }
  std::printf("appended %zu result(s) to %s\n", results.size(), path.c_str());
}

}  // namespace xnf::bench
