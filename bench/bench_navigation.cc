// Experiment C1 (paper §4.2, §6): navigation through the XNF cache versus
// the regular SQL DBMS interface, on an OO1/Cattell-style parts database —
// the paper claims cache browsing is "orders of magnitude" faster than
// per-step SQL, comparable to OODBMS-over-RDBMS gains. Also experiment A2:
// direct pointer navigation versus hash-table navigation inside the cache.
//
// Workload: OO1-style traversal (depth-4 fan-out-3 walk from a rotating
// anchor part, ~121 hops) and lookup (single part fetch by id).

#include <chrono>
#include <unordered_map>

#include "benchmark/benchmark.h"
#include "util.h"
#include "xnf/cache.h"

namespace xnf::bench {
namespace {

struct NavContext {
  std::unique_ptr<Database> db;
  std::unique_ptr<co::CoCache> cache;
  int seed_rel = -1;
  int wire_rel = -1;
  int anchor_node = -1;
  std::unordered_map<int64_t, co::CoCache::Tuple*> anchor_by_id;
  std::unique_ptr<PreparedQuery> successors;  // conn probe
  std::unique_ptr<PreparedQuery> fetch_part;  // part probe
  int parts = 0;
};

NavContext& GetContext(int parts) {
  static std::unordered_map<int, std::unique_ptr<NavContext>> cache;
  auto it = cache.find(parts);
  if (it != cache.end()) return *it->second;

  auto ctx = std::make_unique<NavContext>();
  ctx->parts = parts;
  ctx->db = std::make_unique<Database>();
  OO1Options options;
  options.parts = parts;
  BuildOO1Database(ctx->db.get(), options);
  ctx->cache = CheckResult(ctx->db->OpenCo(kOO1CoQuery), "open OO1 CO");
  ctx->seed_rel = ctx->cache->RelIndex("seed");
  ctx->wire_rel = ctx->cache->RelIndex("wire");
  ctx->anchor_node = ctx->cache->NodeIndex("anchor");
  for (co::CoCache::Tuple& t :
       ctx->cache->node(ctx->anchor_node).tuples) {
    ctx->anchor_by_id[t.values[0].AsInt()] = &t;
  }
  ctx->successors = CheckResult(
      ctx->db->Prepare("SELECT to_id FROM conn WHERE from_id = ?"),
      "prepare successors");
  ctx->fetch_part = CheckResult(
      ctx->db->Prepare("SELECT * FROM part WHERE id = ?"), "prepare part");
  NavContext& ref = *ctx;
  cache.emplace(parts, std::move(ctx));
  return ref;
}

constexpr int kTraversalDepth = 4;

// Pointer-chasing traversal over the cache (§4.2: "browsing is very fast").
int64_t PointerWalk(NavContext& ctx, co::CoCache::Tuple* t, int rel,
                    int depth) {
  int64_t sum = t->values[2].AsInt();  // touch the tuple like an app would
  if (depth == 0) return sum;
  for (co::CoCache::Connection* c : t->out[rel]) {
    sum += PointerWalk(ctx, c->child, ctx.wire_rel, depth - 1);
  }
  return sum;
}

// The same walk answered through per-relationship hash lookups (ablation
// A2: what an OID-table-based cache would do).
int64_t HashWalk(NavContext& ctx, co::CoCache::Tuple* t, int rel,
                 int depth) {
  int64_t sum = t->values[2].AsInt();
  if (depth == 0) return sum;
  for (co::CoCache::Connection* c : ctx.cache->ChildrenByHash(rel, *t)) {
    sum += HashWalk(ctx, c->child, ctx.wire_rel, depth - 1);
  }
  return sum;
}

// The same walk through the SQL interface with prepared statements.
int64_t SqlWalk(NavContext& ctx, int64_t id, int depth) {
  ResultSet part = CheckResult(ctx.fetch_part->Execute({Value::Int(id)}),
                               "part fetch");
  int64_t sum = part.rows.empty() ? 0 : part.rows[0][2].AsInt();
  if (depth == 0) return sum;
  ResultSet succ = CheckResult(ctx.successors->Execute({Value::Int(id)}),
                               "successors");
  for (const Row& row : succ.rows) {
    sum += SqlWalk(ctx, row[0].AsInt(), depth - 1);
  }
  return sum;
}

// The same walk with a freshly parsed/planned query per step (an application
// without prepared statements).
int64_t SqlWalkUnprepared(NavContext& ctx, int64_t id, int depth) {
  ResultSet part = CheckResult(
      ctx.db->Query("SELECT * FROM part WHERE id = " + std::to_string(id)),
      "part fetch");
  int64_t sum = part.rows.empty() ? 0 : part.rows[0][2].AsInt();
  if (depth == 0) return sum;
  ResultSet succ = CheckResult(
      ctx.db->Query("SELECT to_id FROM conn WHERE from_id = " +
                    std::to_string(id)),
      "successors");
  for (const Row& row : succ.rows) {
    sum += SqlWalkUnprepared(ctx, row[0].AsInt(), depth - 1);
  }
  return sum;
}

void BM_TraversalCachePointer(benchmark::State& state) {
  NavContext& ctx = GetContext(static_cast<int>(state.range(0)));
  int64_t start = 0;
  for (auto _ : state) {
    co::CoCache::Tuple* anchor = ctx.anchor_by_id[start % ctx.parts];
    int64_t sum = PointerWalk(ctx, anchor, ctx.seed_rel, kTraversalDepth);
    benchmark::DoNotOptimize(sum);
    ++start;
  }
  state.SetLabel("pointer navigation in XNF cache");
}

void BM_TraversalCacheHash(benchmark::State& state) {
  NavContext& ctx = GetContext(static_cast<int>(state.range(0)));
  int64_t start = 0;
  for (auto _ : state) {
    co::CoCache::Tuple* anchor = ctx.anchor_by_id[start % ctx.parts];
    int64_t sum = HashWalk(ctx, anchor, ctx.seed_rel, kTraversalDepth);
    benchmark::DoNotOptimize(sum);
    ++start;
  }
  state.SetLabel("hash-lookup navigation (ablation A2)");
}

void BM_TraversalSqlPrepared(benchmark::State& state) {
  NavContext& ctx = GetContext(static_cast<int>(state.range(0)));
  int64_t start = 0;
  for (auto _ : state) {
    int64_t sum = SqlWalk(ctx, start % ctx.parts, kTraversalDepth);
    benchmark::DoNotOptimize(sum);
    ++start;
  }
  state.SetLabel("prepared SQL per navigation step");
}

void BM_TraversalSqlUnprepared(benchmark::State& state) {
  NavContext& ctx = GetContext(static_cast<int>(state.range(0)));
  int64_t start = 0;
  for (auto _ : state) {
    int64_t sum = SqlWalkUnprepared(ctx, start % ctx.parts, kTraversalDepth);
    benchmark::DoNotOptimize(sum);
    ++start;
  }
  state.SetLabel("parse+plan+execute SQL per step");
}

void BM_LookupCache(benchmark::State& state) {
  NavContext& ctx = GetContext(static_cast<int>(state.range(0)));
  int64_t id = 0;
  for (auto _ : state) {
    co::CoCache::Tuple* t = ctx.anchor_by_id[id % ctx.parts];
    benchmark::DoNotOptimize(t->values[2].AsInt());
    ++id;
  }
  state.SetLabel("cache lookup by part id");
}

void BM_LookupSqlPrepared(benchmark::State& state) {
  NavContext& ctx = GetContext(static_cast<int>(state.range(0)));
  int64_t id = 0;
  for (auto _ : state) {
    ResultSet rs = CheckResult(
        ctx.fetch_part->Execute({Value::Int(id % ctx.parts)}), "lookup");
    benchmark::DoNotOptimize(rs.rows[0][2].AsInt());
    ++id;
  }
  state.SetLabel("prepared SQL lookup by part id");
}

// A ws_design-shaped working set as the evaluator hands it to the cache:
// one group, `items` items and ten parts per item (111, 551 or 2 201
// tuples), has_item and has_part connections in parent-major order.
co::CoInstance WorkingSetInstance(int items) {
  auto node = [](const char* name, std::vector<const char*> columns,
                 const char* table) {
    co::CoNodeInstance n;
    n.name = name;
    for (const char* c : columns) {
      n.schema.AddColumn(Column(c, std::string(c) == "gname" ? Type::kString
                                                             : Type::kInt));
    }
    n.base_table = table;
    for (size_t c = 0; c < columns.size(); ++c) {
      n.base_column_map.push_back(static_cast<int>(c));
    }
    return n;
  };
  co::CoInstance co;
  co.nodes.push_back(node("g", {"gid", "cfg", "gname", "budget"}, "grp"));
  co.nodes.push_back(node("i", {"iid", "gid", "cfg", "weight"}, "item"));
  co.nodes.push_back(node("p", {"pid", "iid", "cfg", "cost"}, "part"));
  auto add = [&](int n, Row row) {
    co.nodes[n].rids.push_back(Rid{static_cast<uint32_t>(n),
                                   static_cast<uint32_t>(
                                       co.nodes[n].tuples.size())});
    co.nodes[n].tuples.push_back(std::move(row));
  };
  add(0, {Value::Int(1), Value::Int(7), Value::String("cfg-7"),
          Value::Int(1000)});
  co::CoRelInstance has_item, has_part;
  has_item.name = "has_item";
  has_item.parent_node = 0;
  has_item.child_node = 1;
  has_part.name = "has_part";
  has_part.parent_node = 1;
  has_part.child_node = 2;
  for (int i = 0; i < items; ++i) {
    add(1, {Value::Int(i), Value::Int(1), Value::Int(7), Value::Int(i % 13)});
    has_item.connections.push_back({0, i, Row()});
    for (int p = 0; p < 10; ++p) {
      const int pid = i * 10 + p;
      add(2, {Value::Int(pid), Value::Int(i), Value::Int(7),
              Value::Int(pid % 97)});
      has_part.connections.push_back({i, pid, Row()});
    }
  }
  co.rels.push_back(std::move(has_item));
  co.rels.push_back(std::move(has_part));
  return co;
}

// The cache's own share of a ws_design unit: wiring a checked-out working
// set (CoCache::Build) and dropping it. The instance copy Build consumes is
// made outside the timed region.
void BM_CacheBuildRelease(benchmark::State& state) {
  const int tuples = static_cast<int>(state.range(0));
  const co::CoInstance instance = WorkingSetInstance((tuples - 1) / 11);
  for (auto _ : state) {
    co::CoInstance copy = instance;
    const auto start = std::chrono::steady_clock::now();
    {
      auto cache = CheckResult(co::CoCache::Build(std::move(copy)),
                               "cache build");
      benchmark::DoNotOptimize(cache.get());
    }
    state.SetIterationTime(std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count());
  }
  state.SetLabel("CoCache::Build + destruction, ws_design shape");
}

BENCHMARK(BM_CacheBuildRelease)
    ->Arg(111)
    ->Arg(551)
    ->Arg(2201)
    ->UseManualTime();
BENCHMARK(BM_TraversalCachePointer)->Arg(1000)->Arg(5000)->Arg(20000);
BENCHMARK(BM_TraversalCacheHash)->Arg(1000)->Arg(5000)->Arg(20000);
BENCHMARK(BM_TraversalSqlPrepared)->Arg(1000)->Arg(5000)->Arg(20000);
BENCHMARK(BM_TraversalSqlUnprepared)->Arg(1000)->Arg(5000);
BENCHMARK(BM_LookupCache)->Arg(5000)->Arg(20000);
BENCHMARK(BM_LookupSqlPrepared)->Arg(5000)->Arg(20000);

}  // namespace
}  // namespace xnf::bench
