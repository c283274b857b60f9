#ifndef XNF_XNF_INSTANCE_H_
#define XNF_XNF_INSTANCE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result_set.h"
#include "common/schema.h"
#include "common/status.h"
#include "common/value.h"
#include "storage/table_heap.h"

namespace xnf::co {

// Materialized tuples of one component table, with provenance back to the
// base table when the node is updatable (simple derivation).
struct CoNodeInstance {
  std::string name;
  Schema schema;
  std::vector<Row> tuples;
  // Parallel to `tuples` when non-empty: source row ids for write-through.
  std::vector<Rid> rids;
  std::string base_table;            // "" when not updatable
  std::vector<int> base_column_map;  // node column -> base table column

  bool updatable() const { return !base_table.empty(); }
  ResultSet ToResultSet() const;
};

// A connection instance: indices into the parent/child node tuple vectors,
// plus relationship attribute values.
struct CoConnection {
  int parent = -1;
  int child = -1;
  Row attrs;
};

// Materialized connections of one relationship, with enough provenance to
// support connect/disconnect propagation (§3.7).
struct CoRelInstance {
  std::string name;
  int parent_node = -1;  // index into CoInstance::nodes
  int child_node = -1;
  Schema attr_schema;
  std::vector<CoConnection> connections;

  // How connect/disconnect map to the base data:
  //  - kForeignKey: predicate was parent.a = child.b; disconnect nullifies
  //    the child's b column, connect sets it to the parent's a value.
  //  - kLinkTable: predicate joined through a USING table; connect inserts /
  //    disconnect deletes link tuples.
  enum class WriteKind { kNone, kForeignKey, kLinkTable };
  WriteKind write_kind = WriteKind::kNone;
  // kForeignKey provenance (columns are node-schema indices).
  int fk_parent_column = -1;
  int fk_child_column = -1;
  // kLinkTable provenance.
  std::string link_table;
  int link_parent_column = -1;  // link-table column matching the parent key
  int link_child_column = -1;   // link-table column matching the child key
  int parent_key_column = -1;   // parent node column joined to the link
  int child_key_column = -1;    // child node column joined to the link
  // Attribute provenance: link-table column per attribute, or -1.
  std::vector<int> attr_link_columns;
};

// A fully materialized composite object: heterogeneous sets of interrelated
// tuples (§2). This is what the XNF evaluator produces and what the cache
// and cursors are built from.
struct CoInstance {
  std::vector<CoNodeInstance> nodes;
  std::vector<CoRelInstance> rels;

  int NodeIndex(const std::string& name) const;
  int RelIndex(const std::string& name) const;

  size_t TotalTuples() const;
  size_t TotalConnections() const;

  // Multi-line rendering of all components (examples / debugging).
  std::string ToString() const;
};

// One key's run of a CSR slot array built by counting sort: slots
// [off, off + len) are filled, [off + len, off + cap) reserved. A build
// counts each key's items into `cap`, lays the segments out with
// LayOutSegments, then places every item at `off + len++`, so the items of
// one key keep the order they were placed in.
struct CsrSegment {
  uint32_t off = 0;
  uint32_t len = 0;
  uint32_t cap = 0;
};

// The counting pass of a CSR build: packs the segments in key order at
// their counted capacity (sets each `off`) and returns the slots needed.
uint32_t LayOutSegments(std::vector<CsrSegment>* segs);

// Enforces the reachability constraint (§2): keeps only tuples that are in a
// root table or reachable from a root tuple via connections traversed parent
// to child. Root tables are the nodes without incoming relationships in the
// *current* instance graph. Dropped tuples take their incident connections
// with them (well-formedness). Handles cyclic schema graphs (the fixpoint
// simply never visits a tuple twice). Compacts tuple vectors and remaps
// connection indices — only when some tuple is dropped; an instance whose
// tuples are all reachable is left untouched. Linear in tuples plus
// connections.
void ApplyReachability(CoInstance* instance);

// Removes connections whose endpoints were deleted (marked by tuple index
// sets) and compacts nodes. `keep[node]` flags per-tuple survival.
void PruneInstance(CoInstance* instance,
                   const std::vector<std::vector<char>>& keep);

}  // namespace xnf::co

#endif  // XNF_XNF_INSTANCE_H_
