// Experiment C6 (paper §3.5, §5 [PHH92]): declarative path expressions. A
// path expression evaluated set-orientedly over the loaded CO instance
// versus re-deriving the same answer through per-tuple SQL queries — the
// paper argues declarative relationship specifications let the optimizer
// produce orders-of-magnitude better plans for path expressions.

#include "benchmark/benchmark.h"
#include "sql/parser.h"
#include "util.h"
#include "xnf/cache.h"
#include "xnf/path.h"

namespace xnf::bench {
namespace {

struct PathContext {
  std::unique_ptr<Database> db;
  co::CoInstance instance;
  std::unique_ptr<co::InstanceEvaluator> eval;  // owns adjacency caches
  std::unique_ptr<co::CoCache> cache;
  std::vector<co::CoCache::Tuple*> group_tuples;
  int has_item = -1;
  int has_part = -1;
  std::unique_ptr<sql::PathExpr> path;
  std::unique_ptr<PreparedQuery> items_of_group;
  std::unique_ptr<PreparedQuery> parts_of_item;
  int configurations = 0;
};

PathContext& GetContext(int configurations) {
  static std::unordered_map<int, std::unique_ptr<PathContext>> cache;
  auto it = cache.find(configurations);
  if (it != cache.end()) return *it->second;

  auto ctx = std::make_unique<PathContext>();
  ctx->configurations = configurations;
  ctx->db = std::make_unique<Database>();
  WorkingSetOptions options;
  options.configurations = configurations;
  BuildWorkingSetDatabase(ctx->db.get(), options);
  ctx->instance = CheckResult(ctx->db->QueryCo(R"(
    OUT OF g AS grp, i AS item, p AS part,
      has_item AS (RELATE g, i WHERE g.gid = i.gid),
      has_part AS (RELATE i, p WHERE i.iid = p.iid)
    TAKE *
  )"), "materialize CO");
  ctx->eval = std::make_unique<co::InstanceEvaluator>(&ctx->instance);
  ctx->cache = CheckResult(ctx->db->OpenCo(R"(
    OUT OF g AS grp, i AS item, p AS part,
      has_item AS (RELATE g, i WHERE g.gid = i.gid),
      has_part AS (RELATE i, p WHERE i.iid = p.iid)
    TAKE *
  )"), "open cache");
  ctx->has_item = ctx->cache->RelIndex("has_item");
  ctx->has_part = ctx->cache->RelIndex("has_part");
  for (co::CoCache::Tuple& t :
       ctx->cache->node(ctx->cache->NodeIndex("g")).tuples) {
    ctx->group_tuples.push_back(&t);
  }
  sql::Parser parser("g->has_item->has_part");
  auto expr = CheckResult(parser.ParseExpr(), "parse path");
  ctx->path = std::move(expr->path);
  ctx->items_of_group = CheckResult(
      ctx->db->Prepare("SELECT iid FROM item WHERE gid = ?"), "prep items");
  ctx->parts_of_item = CheckResult(
      ctx->db->Prepare("SELECT pid FROM part WHERE iid = ?"), "prep parts");
  PathContext& ref = *ctx;
  cache.emplace(configurations, std::move(ctx));
  return ref;
}

// Path expression over the CO instance: for each group tuple, the set of
// parts reachable via has_item ∘ has_part (set-at-a-time, with lazily built
// adjacency — the declarative evaluation inside SUCH THAT predicates).
void BM_PathOnInstance(benchmark::State& state) {
  PathContext& ctx = GetContext(static_cast<int>(state.range(0)));
  int g_node = ctx.instance.NodeIndex("g");
  size_t n_groups = ctx.instance.nodes[g_node].tuples.size();
  size_t g = 0;
  for (auto _ : state) {
    std::vector<co::InstanceEvaluator::Binding> bindings = {
        {"g", g_node, static_cast<int>(g % n_groups)}};
    auto r = CheckResult(ctx.eval->EvalPath(*ctx.path, bindings), "path");
    benchmark::DoNotOptimize(r.tuples.size());
    ++g;
  }
  state.SetLabel("path expression over the loaded CO instance");
}

// The same path crossed through the cache's connection pointers (what a
// dependent cursor does, §3.7/§4.2).
void BM_PathOnCachePointers(benchmark::State& state) {
  PathContext& ctx = GetContext(static_cast<int>(state.range(0)));
  size_t g = 0;
  for (auto _ : state) {
    co::CoCache::Tuple* group = ctx.group_tuples[g % ctx.group_tuples.size()];
    size_t count = 0;
    for (co::CoCache::Connection* c1 : group->out[ctx.has_item]) {
      count += c1->child->out[ctx.has_part].size();
    }
    benchmark::DoNotOptimize(count);
    ++g;
  }
  state.SetLabel("dependent-cursor pointer navigation");
}

// The same answer via the SQL interface: one query per intermediate tuple.
void BM_PathViaSqlPerTuple(benchmark::State& state) {
  PathContext& ctx = GetContext(static_cast<int>(state.range(0)));
  int64_t g = 0;
  for (auto _ : state) {
    size_t count = 0;
    ResultSet items = CheckResult(
        ctx.items_of_group->Execute({Value::Int(g % ctx.configurations)}),
        "items");
    for (const Row& i : items.rows) {
      ResultSet parts = CheckResult(ctx.parts_of_item->Execute({i[0]}),
                                    "parts");
      count += parts.rows.size();
    }
    benchmark::DoNotOptimize(count);
    ++g;
  }
  state.SetLabel("per-tuple SQL re-derivation of the path");
}

// The same answer as one set-oriented SQL join (what the XNF semantic
// rewrite produces when a path expression is used as a table): the fair
// middle ground between cache navigation and per-tuple queries.
void BM_PathViaSqlJoin(benchmark::State& state) {
  PathContext& ctx = GetContext(static_cast<int>(state.range(0)));
  auto join = CheckResult(
      ctx.db->Prepare("SELECT p.pid FROM item i, part p "
                      "WHERE i.gid = ? AND p.iid = i.iid"),
      "prep join");
  int64_t g = 0;
  for (auto _ : state) {
    ResultSet rs = CheckResult(
        join->Execute({Value::Int(g % ctx.configurations)}), "join");
    benchmark::DoNotOptimize(rs.rows.size());
    ++g;
  }
  state.SetLabel("one set-oriented join per path evaluation");
}

// Dependent-cursor rebind over a path with state.range(0) partners: one
// group owning that many items, each with two parts. The diamond-free
// fan-out still runs every partner through the first-seen dedup, so a
// quadratic dedup shows up here as a per-partner cost that grows with the
// argument.
void BM_DependentCursorFanOut(benchmark::State& state) {
  struct FanOut {
    std::unique_ptr<Database> db;
    std::unique_ptr<co::CoCache> cache;
  };
  static std::unordered_map<int64_t, FanOut> contexts;
  const int64_t fan_out = state.range(0);
  FanOut& ctx = contexts[fan_out];
  if (ctx.db == nullptr) {
    ctx.db = std::make_unique<Database>();
    WorkingSetOptions options;
    options.configurations = 1;
    options.items_per_group = static_cast<int>(fan_out);
    options.parts_per_item = 2;
    BuildWorkingSetDatabase(ctx.db.get(), options);
    ctx.cache = CheckResult(ctx.db->OpenCo(R"(
      OUT OF g AS grp, i AS item, p AS part,
        has_item AS (RELATE g, i WHERE g.gid = i.gid),
        has_part AS (RELATE i, p WHERE i.iid = p.iid)
      TAKE *
    )"), "open cache");
  }
  co::Cursor group(ctx.cache.get(), ctx.cache->NodeIndex("g"));
  if (!group.Next()) {
    state.SkipWithError("no group tuple");
    return;
  }
  auto cursor = CheckResult(
      co::DependentCursor::Open(&group, {"has_item", "has_part"}),
      "open dependent cursor");
  size_t reached = 0;
  for (auto _ : state) {
    Check(cursor->Rebind(), "rebind");
    reached = 0;
    while (cursor->Next()) ++reached;
    benchmark::DoNotOptimize(reached);
  }
  if (reached != static_cast<size_t>(2 * fan_out)) {
    state.SkipWithError("dependent cursor reached the wrong part count");
  }
  state.SetItemsProcessed(state.iterations() * 3 * fan_out);
  state.SetLabel("rebind + drain, items then parts per group");
}

BENCHMARK(BM_PathOnInstance)->Arg(100)->Arg(1000);
BENCHMARK(BM_PathOnCachePointers)->Arg(100)->Arg(1000);
BENCHMARK(BM_PathViaSqlPerTuple)->Arg(100)->Arg(1000);
BENCHMARK(BM_PathViaSqlJoin)->Arg(100)->Arg(1000);
BENCHMARK(BM_DependentCursorFanOut)->Arg(10)->Arg(200)->Arg(2000);

}  // namespace
}  // namespace xnf::bench
