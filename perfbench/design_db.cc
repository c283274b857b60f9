#include "design_db.h"

#include "harness.h"

namespace xnfbench {

using xnf::Value;

DesignDb LoadDesignDb(xnf::Database* db, const std::vector<int>& items_per_cfg,
                      std::mt19937_64* rng) {
  SetupCheck(db->ExecuteScript(R"sql(
    CREATE TABLE grp (gid INT PRIMARY KEY, cfg INT, gname VARCHAR,
                      budget INT);
    CREATE TABLE item (iid INT PRIMARY KEY, gid INT, cfg INT, weight INT);
    CREATE TABLE part (pid INT PRIMARY KEY, iid INT, cfg INT, cost INT);
  )sql").status(), "design schema");
  std::uniform_int_distribution<int> small(1, 100);
  BulkLoader grps(db, "grp"), items(db, "item"), parts(db, "part");
  DesignDb out;
  int iid = 0, pid = 0;
  for (int cfg = 0; cfg < static_cast<int>(items_per_cfg.size()); ++cfg) {
    WorkingSet ws;
    ws.items = items_per_cfg[cfg];
    ws.parts = ws.items * kPartsPerItem;
    grps.Add({Value::Int(cfg), Value::Int(cfg),
              Value::String("group" + std::to_string(cfg)),
              Value::Int(small(*rng) * 1000)});
    for (int i = 0; i < ws.items; ++i, ++iid) {
      items.Add({Value::Int(iid), Value::Int(cfg), Value::Int(cfg),
                 Value::Int(small(*rng))});
      out.item_cost_sum.push_back(0);
      for (int p = 0; p < kPartsPerItem; ++p, ++pid) {
        const int cost = small(*rng);
        if (cost > kQualifyingCost) ++ws.qualifying_parts;
        parts.Add({Value::Int(pid), Value::Int(iid), Value::Int(cfg),
                   Value::Int(cost)});
        out.item_cost_sum.back() += cost;
        ++out.part_rows;
        out.part_cost_sum += cost;
        out.part_iid_sum += iid;
      }
    }
    out.sets.push_back(ws);
  }
  // The node queries select by cfg; the edge queries join the node
  // results, so no other index is needed.
  SetupCheck(db->ExecuteScript(R"sql(
    CREATE INDEX grp_cfg ON grp (cfg);
    CREATE INDEX item_cfg ON item (cfg);
    CREATE INDEX part_cfg ON part (cfg);
  )sql").status(), "design indexes");
  return out;
}

std::string DesignCoQuery(int cfg) {
  const std::string k = std::to_string(cfg);
  return "OUT OF g AS (SELECT * FROM grp WHERE cfg = " + k +
         "), i AS (SELECT * FROM item WHERE cfg = " + k +
         "), p AS (SELECT * FROM part WHERE cfg = " + k +
         "), has_item AS (RELATE g, i WHERE g.gid = i.gid)"
         ", has_part AS (RELATE i, p WHERE i.iid = p.iid) TAKE *";
}

}  // namespace xnfbench
