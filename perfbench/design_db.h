#ifndef XNF_PERFBENCH_DESIGN_DB_H_
#define XNF_PERFBENCH_DESIGN_DB_H_

// The grp -> item -> part design database of the paper's §1: every
// configuration `cfg` is one working set of 1 group, `items` items and 10
// parts per item. Shared by ws_design and co_bulk.

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "api/database.h"

namespace xnfbench {

inline constexpr int kPartsPerItem = 10;
// The qualified path of the ws_design walk keeps parts with cost above this.
inline constexpr int kQualifyingCost = 50;

// What the generator knows about one configuration's working set.
struct WorkingSet {
  int items = 0;
  int parts = 0;
  int qualifying_parts = 0;  // parts with cost > kQualifyingCost
  int tuples() const { return 1 + items + parts; }
  int connections() const { return items + parts; }
};

// Items and parts are numbered in load order, so part `pid` belongs to item
// pid / kPartsPerItem.
struct DesignDb {
  std::vector<WorkingSet> sets;         // by cfg
  std::vector<int64_t> item_cost_sum;   // by iid: SUM(cost) of its parts
  int64_t part_rows = 0;
  int64_t part_cost_sum = 0;
  int64_t part_iid_sum = 0;
};

// Creates grp/item/part with primary keys and cfg indexes and loads one
// configuration per entry of `items_per_cfg`, drawing values from `rng`.
DesignDb LoadDesignDb(xnf::Database* db, const std::vector<int>& items_per_cfg,
                      std::mt19937_64* rng);

// The working-set CO of configuration `cfg`: nodes g, i, p and the
// relationships has_item (g -> i) and has_part (i -> p).
std::string DesignCoQuery(int cfg);

}  // namespace xnfbench

#endif  // XNF_PERFBENCH_DESIGN_DB_H_
