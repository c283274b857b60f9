#ifndef XNF_XNF_MANIPULATE_H_
#define XNF_XNF_MANIPULATE_H_

#include <optional>
#include <string>

#include "catalog/catalog.h"
#include "common/status.h"
#include "xnf/cache.h"

namespace xnf::co {

// Write operations on the XNF cache with propagation to the base tables
// (§3.7 of the paper): update/delete/insert of component tuples
// (udi-operations) and connect/disconnect of relationship instances.
//
// Propagation rules:
//  - A node is updatable when its defining query is a simple
//    projection/selection of one base table (provenance rids exist).
//  - Columns that define relationships are updated only through
//    connect/disconnect, never through UpdateColumn.
//  - A foreign-key relationship (predicate parent.a = child.b): disconnect
//    nullifies the child's b column; connect sets it (implicitly
//    disconnecting any previous parent).
//  - A link-table relationship (USING t): connect inserts a link tuple,
//    disconnect deletes it; relationship attributes with link provenance are
//    stored in the link tuple.
//  - Deleting a tuple first disconnects all relationship instances attached
//    to it, then deletes the base tuple.
class Manipulator {
 public:
  Manipulator(CoCache* cache, Catalog* catalog)
      : cache_(cache), catalog_(catalog) {}

  // Sets one column of a cached tuple and propagates to the base table.
  Status UpdateColumn(CoCache::Tuple* tuple, const std::string& column,
                      Value value);

  // Deletes a cached tuple: disconnects incident connections, removes the
  // base row, marks the cache tuple dead.
  Status DeleteTuple(CoCache::Tuple* tuple);

  // Inserts a new tuple into a node (and its base table). Unmapped base
  // columns become NULL. The new tuple starts with no connections.
  Result<CoCache::Tuple*> InsertTuple(int node, Row values);

  // Creates a relationship instance between two cached tuples.
  Result<CoCache::Connection*> Connect(int rel, CoCache::Tuple* parent,
                                       CoCache::Tuple* child,
                                       Row attrs = Row());

  // Removes a relationship instance.
  Status Disconnect(CoCache::Connection* conn);

 private:
  // True if `column` (node schema index) defines any relationship incident
  // to `node`, making it off-limits for UpdateColumn.
  bool IsRelationshipColumn(int node, int column) const;

  Status PropagateCellUpdate(CoCache::Node* node, CoCache::Tuple* tuple,
                             int column, const Value& value);

  CoCache* cache_;
  Catalog* catalog_;
};

// The first link row (rid order) visible at the current snapshot with
// `pkey` in `parent_column` and `ckey` in `child_column`, or nullopt: the row
// a removed connection deletes, never another session's uncommitted one.
Result<std::optional<Rid>> FindVisibleLinkRow(
    const Catalog& catalog, const TableInfo& link, int parent_column,
    const Value& pkey, int child_column, const Value& ckey);

}  // namespace xnf::co

#endif  // XNF_XNF_MANIPULATE_H_
