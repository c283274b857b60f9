// ws_design: the paper's main use (§1, §4.2). One design-workstation client
// checks out a 1-in-N working set of the grp -> item -> part database as one
// composite object, walks every tuple through cursors, makes a few
// write-through changes with the Manipulator and puts them back, then drops
// the cache.

#include <algorithm>
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
#include "xnf/manipulate.h"

namespace xnfbench {
namespace {

using xnf::Database;
using xnf::Value;
using xnf::co::CoCache;

// Working-set size classes: 1 group + items + 10 parts per item, i.e. 111,
// 551 and 2201 tuples. `configurations` sizes the database (2.24M tuples,
// so every working set stays at most 0.1% of it); `draw_permille` is the
// seeded mix of the working sets the client checks out.
struct SizeClass {
  int items;
  int configurations;
  int draw_permille;
};
constexpr SizeClass kClasses[] = {
    {10, 12000, 850},  // 111 tuples
    {50, 1000, 120},   // 551 tuples
    {200, 160, 30},    // 2201 tuples
};

struct Fixture {
  std::unique_ptr<Database> db;
  DesignDb data;
  std::vector<std::vector<int>> cfgs_by_class;
};

std::unique_ptr<Fixture> BuildFixture(uint64_t seed) {
  auto f = std::make_unique<Fixture>();
  f->db = std::make_unique<Database>(BaseOptions());
  std::mt19937_64 rng(seed);
  // Shuffle the classes so working sets of every size are spread over the
  // whole table.
  std::vector<int> class_of;
  for (int c = 0; c < 3; ++c) {
    class_of.insert(class_of.end(), kClasses[c].configurations, c);
  }
  std::shuffle(class_of.begin(), class_of.end(), rng);
  std::vector<int> items_per_cfg;
  f->cfgs_by_class.resize(3);
  for (int cfg = 0; cfg < static_cast<int>(class_of.size()); ++cfg) {
    items_per_cfg.push_back(kClasses[class_of[cfg]].items);
    f->cfgs_by_class[class_of[cfg]].push_back(cfg);
  }
  f->data = LoadDesignDb(f->db.get(), items_per_cfg, &rng);
  return f;
}

// Everything one measured phase accumulates.
struct Phase {
  LoopStats loop;
  ExtractStats extract;
  Samples nav, udi;
  double hops = 0;
  Samples udi_update, udi_connect;  // per Manipulator call
};

class Client {
 public:
  Client(Fixture* f, uint64_t seed, Report* report)
      : f_(f), rng_(seed), report_(report) {}

  // Runs units of work for `seconds`; see Extract() for `via_execute`.
  Phase Run(double seconds, AggregatingTraceSink* sink, bool via_execute) {
    Phase phase;
    phase.loop = RunClosedLoop(f_->db.get(), seconds, sink, "ws.unit", [&] {
      return Unit(&phase, sink, via_execute);
    });
    return phase;
  }

 private:
  int DrawCfg() {
    int draw = std::uniform_int_distribution<int>(0, 999)(rng_);
    int c = 0;
    while (c < 2 && draw >= kClasses[c].draw_permille) {
      draw -= kClasses[c].draw_permille;
      ++c;
    }
    const std::vector<int>& cfgs = f_->cfgs_by_class[c];
    return cfgs[Pick(cfgs.size())];
  }

  size_t Pick(size_t n) {
    return std::uniform_int_distribution<size_t>(0, n - 1)(rng_);
  }

  bool Failed(const std::string& what, const xnf::Status& status) {
    if (++errors_ <= 5) {
      report_->Note("ws_design error (" + what + "): " + status.ToString());
    }
    return false;
  }

  // Reads one column of a part row through SQL; false (and a failure) when
  // it does not read `expected`.
  bool CheckPart(int pid, const std::string& column, int64_t expected,
                 AggregatingTraceSink* sink) {
    Span span(sink, "bench.verify");
    auto rows = f_->db->Query("SELECT " + column + " FROM part WHERE pid = " +
                              std::to_string(pid));
    if (!rows.ok()) return Failed("verify read", rows.status());
    if (rows->rows.size() != 1 || AsInt64(rows->rows[0][0]) != expected) {
      report_->Fail("write-through of part " + std::to_string(pid) + "." +
                    column + " not visible to SQL");
      return false;
    }
    return true;
  }

  bool Unit(Phase* phase, AggregatingTraceSink* sink, bool via_execute) {
    Database* db = f_->db.get();
    const int cfg = DrawCfg();
    const WorkingSet& e = f_->data.sets[cfg];

    // 1. Extraction.
    auto extracted =
        Extract(db, DesignCoQuery(cfg), via_execute, sink, &phase->extract);
    if (!extracted.ok()) return Failed("extract", extracted.status());
    std::unique_ptr<CoCache> cache = std::move(extracted).value();
    const int g = cache->NodeIndex("g"), i = cache->NodeIndex("i"),
              p = cache->NodeIndex("p");
    const int has_part = cache->RelIndex("has_part");
    if (g < 0 || i < 0 || p < 0 || has_part < 0 ||
        cache->node(g).live_count() != 1 ||
        cache->node(i).live_count() != static_cast<size_t>(e.items) ||
        cache->node(p).live_count() != static_cast<size_t>(e.parts) ||
        CoRows(*cache) !=
            static_cast<size_t>(e.tuples() + e.connections())) {
      report_->Fail("cfg " + std::to_string(cfg) + ": CO has " +
                    std::to_string(CoRows(*cache)) +
                    " tuples + connections, expected " +
                    std::to_string(e.tuples() + e.connections()));
      return false;
    }

    // 2. Walk every tuple: group -> items, group -> qualified parts, and
    // item -> parts, all through cursors.
    auto t = Clock::now();
    size_t seen_items = 0, seen_parts = 0, seen_qualified = 0;
    int64_t checksum = 0;
    {
      Span span(sink, "bench.nav");
      xnf::co::Cursor groups(cache.get(), g);
      while (groups.Next()) {
        auto items = xnf::co::DependentCursor::Open(&groups, {"has_item"});
        if (!items.ok()) return Failed("dependent cursor", items.status());
        while ((*items)->Next()) {
          ++seen_items;
          checksum += (*items)->values()[3].AsInt();
        }
        auto qualified = xnf::co::DependentCursor::OpenPath(
            &groups, "has_item->has_part->(p x WHERE x.cost > " +
                         std::to_string(kQualifyingCost) + ")");
        if (!qualified.ok()) return Failed("path cursor", qualified.status());
        while ((*qualified)->Next()) ++seen_qualified;
      }
      xnf::co::Cursor item_cursor(cache.get(), i);
      std::unique_ptr<xnf::co::DependentCursor> parts;
      while (item_cursor.Next()) {
        if (parts == nullptr) {
          auto opened =
              xnf::co::DependentCursor::Open(&item_cursor, {"has_part"});
          if (!opened.ok()) return Failed("dependent cursor", opened.status());
          parts = std::move(opened).value();
        } else if (auto s = parts->Rebind(); !s.ok()) {
          return Failed("rebind", s);
        }
        while (parts->Next()) {
          ++seen_parts;
          checksum += parts->values()[3].AsInt();
        }
      }
    }
    phase->nav.Add(UsSince(t));
    phase->hops += seen_items + seen_parts + seen_qualified;
    if (seen_items != static_cast<size_t>(e.items) ||
        seen_parts != static_cast<size_t>(e.parts) ||
        seen_qualified != static_cast<size_t>(e.qualifying_parts) ||
        checksum <= 0) {
      report_->Fail("cfg " + std::to_string(cfg) + ": walk saw " +
                    std::to_string(seen_items) + " items, " +
                    std::to_string(seen_parts) + " parts, " +
                    std::to_string(seen_qualified) + " qualified");
      return false;
    }

    // 3. Write-through: an update+restore pair and a re-parenting
    // disconnect/connect pair that is put back. Each change must be visible
    // to SQL before it is undone.
    xnf::co::Manipulator m(cache.get(), db->catalog());
    auto& part_node = cache->node(p);
    CoCache::Tuple* part = &part_node.tuples[Pick(part_node.tuples.size())];
    const int pid = static_cast<int>(part->values[0].AsInt());
    const int64_t old_cost = part->values[3].AsInt();
    double udi_us = 0;
    auto timed = [&](Samples* samples, const char* name, auto&& op) {
      Span span(sink, name);
      const auto op_start = Clock::now();
      xnf::Status s = op();
      const double us = UsSince(op_start);
      samples->Add(us);
      udi_us += us;
      return s;
    };
    auto set_cost = [&](int64_t cost) {
      return timed(&phase->udi_update, "bench.udi_update", [&] {
        return m.UpdateColumn(part, "cost", Value::Int(cost));
      });
    };
    if (auto s = set_cost(old_cost + 1000); !s.ok()) {
      return Failed("udi update", s);
    }
    if (!CheckPart(pid, "cost", old_cost + 1000, sink)) return false;
    if (auto s = set_cost(old_cost); !s.ok()) return Failed("udi restore", s);

    CoCache::Tuple* old_parent = part->in[has_part].front()->parent;
    auto& item_node = cache->node(i);
    CoCache::Tuple* new_parent = old_parent;
    while (new_parent == old_parent) {
      new_parent = &item_node.tuples[Pick(item_node.tuples.size())];
    }
    auto reparent = [&](CoCache::Tuple* to) {
      xnf::Status s = timed(&phase->udi_connect, "bench.udi_connect", [&] {
        return m.Disconnect(part->in[has_part].front());
      });
      if (!s.ok()) return s;
      return timed(&phase->udi_connect, "bench.udi_connect", [&] {
        return m.Connect(has_part, to, part).status();
      });
    };
    if (auto s = reparent(new_parent); !s.ok()) return Failed("re-parent", s);
    if (!CheckPart(pid, "iid", new_parent->values[0].AsInt(), sink)) {
      return false;
    }
    if (auto s = reparent(old_parent); !s.ok()) return Failed("put back", s);
    phase->udi.Add(udi_us);

    // 4. Drop the cache.
    Release(std::move(cache), sink, &phase->extract);
    return true;
  }

  Fixture* f_;
  std::mt19937_64 rng_;
  Report* report_;
  int errors_ = 0;
};

// The database must be exactly as generated after the run.
void CheckUnchanged(Fixture* f, Report* report) {
  auto rows = f->db->Query("SELECT COUNT(*), SUM(cost), SUM(iid) FROM part");
  if (!rows.ok() || rows->rows.size() != 1) {
    report->Fail("final part checksum query failed");
    return;
  }
  const auto& r = rows->rows[0];
  if (AsInt64(r[0]) != f->data.part_rows ||
      AsInt64(r[1]) != f->data.part_cost_sum ||
      AsInt64(r[2]) != f->data.part_iid_sum) {
    report->Fail("part table changed by the run: count/sum(cost)/sum(iid) " +
                 r[0].ToString() + "/" + r[1].ToString() + "/" +
                 r[2].ToString());
  }
}

}  // namespace

RunInfo RunWsDesign(const Config& config, Report* report) {
  std::unique_ptr<Fixture> f = TimedSetup<Fixture>(
      config, [&] { return BuildFixture(config.seed); }, report);
  RunInfo info;
  info.dop = f->db->threads();
  info.options = "threads=1";
  Client client(f.get(), config.seed ^ 0x5eed, report);

  if (!config.trace) {
    Phase phase = client.Run(config.seconds, nullptr, /*via_execute=*/false);
    report->attempted = phase.loop.units;
    report->failed = phase.loop.failed;
    report->AddUnitMetrics(phase.loop.done_s, phase.loop.latency,
                           config.seconds);
    report->NoteLatency("extract", phase.extract.latency);
    report->NoteLatency("nav", phase.nav);
    report->NoteLatency("udi", phase.udi);
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
    report->Add("xnf.nav_ns_per_hop", plain.nav.Sum() * 1e3 / plain.hops,
                "ns");
    report->Add("xnf.udi_update_us", plain.udi_update.Mean(), "us");
    report->Add("xnf.udi_connect_us", plain.udi_connect.Mean(), "us");
    const double plain_rate = plain.loop.units / plain.loop.wall_s;
    AddPoolMetrics(wide.loop.metrics, wide.loop.units, dop,
                   wide.loop.units / wide.loop.wall_s / plain_rate, report);
    AddTraceSummary(sink, plain_rate, traced.loop.units, traced.loop.wall_s,
                    /*xnf=*/true, {"ws.unit"}, report);
  }
  CheckUnchanged(f.get(), report);
  if (!config.trace) report->Add("rss_peak_mb", PeakRssMb(), "MB");
  return info;
}

}  // namespace xnfbench
