#include "xnf/manipulate.h"

#include "catalog/mvcc.h"
#include "common/str_util.h"
#include "exec/access.h"
#include "exec/dml.h"

namespace xnf::co {

bool Manipulator::IsRelationshipColumn(int node, int column) const {
  for (size_t r = 0; r < cache_->rel_count(); ++r) {
    const CoCache::Rel& rel = cache_->rel(static_cast<int>(r));
    switch (rel.write_kind) {
      case CoRelInstance::WriteKind::kForeignKey:
        if (rel.parent_node == node && rel.fk_parent_column == column) {
          return true;
        }
        if (rel.child_node == node && rel.fk_child_column == column) {
          return true;
        }
        break;
      case CoRelInstance::WriteKind::kLinkTable:
        // Node-side key columns identify partners; changing them would break
        // existing link rows, so treat them as relationship-defining too.
        if (rel.parent_node == node && rel.parent_key_column == column) {
          return true;
        }
        if (rel.child_node == node && rel.child_key_column == column) {
          return true;
        }
        break;
      case CoRelInstance::WriteKind::kNone:
        break;
    }
  }
  return false;
}

Status Manipulator::PropagateCellUpdate(CoCache::Node* node,
                                        CoCache::Tuple* tuple, int column,
                                        const Value& value) {
  if (!node->updatable() || !tuple->has_rid) {
    return Status::NotUpdatable("component table '" + node->name +
                                "' is not updatable (no simple base-table "
                                "derivation)");
  }
  TableInfo* table = catalog_->GetTable(node->base_table);
  if (table == nullptr) {
    return Status::NotFound("base table '" + node->base_table +
                            "' not found");
  }
  // Visible read: under MVCC the physical row may carry another
  // transaction's uncommitted or newer-committed image; UpdateRow's
  // conflict check would reject the write anyway, but starting from the
  // snapshot image keeps the error (and the row sent back on success)
  // consistent with what this session has been shown.
  XNF_ASSIGN_OR_RETURN(
      Row base_row, ReadVisible(catalog_->txn_manager(), *table, tuple->rid));
  base_row[node->base_column_map[column]] = value;
  exec::DmlExecutor dml(catalog_);
  return dml.UpdateRow(table, tuple->rid, std::move(base_row));
}

Status Manipulator::UpdateColumn(CoCache::Tuple* tuple,
                                 const std::string& column, Value value) {
  if (!tuple->alive) {
    return Status::InvalidArgument("tuple has been deleted");
  }
  CoCache::Node& node = cache_->node(tuple->node);
  XNF_ASSIGN_OR_RETURN(size_t col, node.schema.Resolve("", ToLower(column)));
  if (IsRelationshipColumn(tuple->node, static_cast<int>(col))) {
    return Status::NotUpdatable(
        "column '" + column +
        "' defines a relationship; use connect/disconnect instead (§3.7)");
  }
  XNF_ASSIGN_OR_RETURN(Value coerced,
                       value.CoerceTo(node.schema.column(col).type));
  XNF_RETURN_IF_ERROR(
      PropagateCellUpdate(&node, tuple, static_cast<int>(col), coerced));
  tuple->values[col] = std::move(coerced);
  return Status::Ok();
}

Status Manipulator::DeleteTuple(CoCache::Tuple* tuple) {
  if (!tuple->alive) {
    return Status::InvalidArgument("tuple already deleted");
  }
  CoCache::Node& node = cache_->node(tuple->node);
  if (!node.updatable() || !tuple->has_rid) {
    return Status::NotUpdatable("component table '" + node.name +
                                "' is not updatable");
  }

  // Disconnect all live incident relationship instances first. For
  // foreign-key relationships where this tuple is the child, the FK lives in
  // the row being deleted — only the cache connection needs to go.
  // A successful Disconnect erases the connection from the bucket, so each
  // loop takes the bucket's first connection until it is empty.
  for (size_t r = 0; r < cache_->rel_count(); ++r) {
    int rel_index = static_cast<int>(r);
    while (!tuple->out[rel_index].empty()) {
      XNF_RETURN_IF_ERROR(Disconnect(tuple->out[rel_index].front()));
    }
    const CoCache::Rel& rel = cache_->rel(rel_index);
    while (!tuple->in[rel_index].empty()) {
      CoCache::Connection* c = tuple->in[rel_index].front();
      if (rel.write_kind == CoRelInstance::WriteKind::kForeignKey) {
        cache_->RemoveConnection(c);  // FK disappears with the row itself
      } else {
        XNF_RETURN_IF_ERROR(Disconnect(c));
      }
    }
  }

  TableInfo* table = catalog_->GetTable(node.base_table);
  if (table == nullptr) {
    return Status::NotFound("base table '" + node.base_table + "' not found");
  }
  exec::DmlExecutor dml(catalog_);
  XNF_RETURN_IF_ERROR(dml.DeleteRow(table, tuple->rid));
  tuple->alive = false;
  return Status::Ok();
}

Result<CoCache::Tuple*> Manipulator::InsertTuple(int node_index, Row values) {
  CoCache::Node& node = cache_->node(node_index);
  if (!node.updatable()) {
    return Status::NotUpdatable("component table '" + node.name +
                                "' is not updatable");
  }
  if (values.size() != node.schema.size()) {
    return Status::InvalidArgument("tuple arity mismatch for node '" +
                                   node.name + "'");
  }
  TableInfo* table = catalog_->GetTable(node.base_table);
  if (table == nullptr) {
    return Status::NotFound("base table '" + node.base_table + "' not found");
  }
  Row base_row(table->schema.size(), Value::Null());
  for (size_t c = 0; c < values.size(); ++c) {
    base_row[node.base_column_map[c]] = values[c];
  }
  exec::DmlExecutor dml(catalog_);
  XNF_ASSIGN_OR_RETURN(Rid rid, dml.InsertRow(table, std::move(base_row)));

  // Read back (coercions may have normalized values).
  XNF_ASSIGN_OR_RETURN(Row stored, table->storage->Read(rid));
  Row cached;
  cached.reserve(values.size());
  for (size_t c = 0; c < values.size(); ++c) {
    cached.push_back(stored[node.base_column_map[c]]);
  }
  return cache_->AddTuple(node_index, std::move(cached), rid);
}

Result<CoCache::Connection*> Manipulator::Connect(int rel_index,
                                                  CoCache::Tuple* parent,
                                                  CoCache::Tuple* child,
                                                  Row attrs) {
  CoCache::Rel& rel = cache_->rel(rel_index);
  if (parent->node != rel.parent_node || child->node != rel.child_node) {
    return Status::InvalidArgument(
        "tuples do not match the relationship's partner tables");
  }
  if (!parent->alive || !child->alive) {
    return Status::InvalidArgument("cannot connect deleted tuples");
  }
  switch (rel.write_kind) {
    case CoRelInstance::WriteKind::kNone:
      return Status::NotUpdatable("relationship '" + rel.name +
                                  "' is not updatable");
    case CoRelInstance::WriteKind::kForeignKey: {
      if (!attrs.empty()) {
        return Status::InvalidArgument(
            "foreign-key relationships carry no attributes");
      }
      // Setting the FK implicitly disconnects any previous parent.
      while (!child->in[rel_index].empty()) {
        XNF_RETURN_IF_ERROR(Disconnect(child->in[rel_index].front()));
      }
      CoCache::Node& child_node = cache_->node(rel.child_node);
      const Value& key = parent->values[rel.fk_parent_column];
      XNF_RETURN_IF_ERROR(PropagateCellUpdate(&child_node, child,
                                              rel.fk_child_column, key));
      child->values[rel.fk_child_column] = key;
      return cache_->AddConnection(rel_index, parent, child, Row());
    }
    case CoRelInstance::WriteKind::kLinkTable: {
      TableInfo* link = catalog_->GetTable(rel.link_table);
      if (link == nullptr) {
        return Status::NotFound("link table '" + rel.link_table +
                                "' not found");
      }
      if (!attrs.empty() && attrs.size() != rel.attr_schema.size()) {
        return Status::InvalidArgument("attribute arity mismatch");
      }
      Row link_row(link->schema.size(), Value::Null());
      link_row[rel.link_parent_column] =
          parent->values[rel.parent_key_column];
      link_row[rel.link_child_column] = child->values[rel.child_key_column];
      for (size_t a = 0; a < attrs.size(); ++a) {
        if (rel.attr_link_columns[a] >= 0) {
          link_row[rel.attr_link_columns[a]] = attrs[a];
        }
      }
      exec::DmlExecutor dml(catalog_);
      XNF_ASSIGN_OR_RETURN(Rid rid, dml.InsertRow(link, std::move(link_row)));
      (void)rid;
      if (attrs.empty()) attrs.resize(rel.attr_schema.size(), Value::Null());
      return cache_->AddConnection(rel_index, parent, child,
                                   std::move(attrs));
    }
  }
  return Status::Internal("unhandled relationship write kind");
}

Status Manipulator::Disconnect(CoCache::Connection* conn) {
  if (!conn->alive) {
    return Status::InvalidArgument("connection already removed");
  }
  CoCache::Rel& rel = cache_->rel(conn->rel);
  switch (rel.write_kind) {
    case CoRelInstance::WriteKind::kNone:
      return Status::NotUpdatable("relationship '" + rel.name +
                                  "' is not updatable");
    case CoRelInstance::WriteKind::kForeignKey: {
      CoCache::Node& child_node = cache_->node(rel.child_node);
      XNF_RETURN_IF_ERROR(PropagateCellUpdate(
          &child_node, conn->child, rel.fk_child_column, Value::Null()));
      conn->child->values[rel.fk_child_column] = Value::Null();
      cache_->RemoveConnection(conn);
      return Status::Ok();
    }
    case CoRelInstance::WriteKind::kLinkTable: {
      TableInfo* link = catalog_->GetTable(rel.link_table);
      if (link == nullptr) {
        return Status::NotFound("link table '" + rel.link_table +
                                "' not found");
      }
      const Value& pkey = conn->parent->values[rel.parent_key_column];
      const Value& ckey = conn->child->values[rel.child_key_column];
      XNF_ASSIGN_OR_RETURN(
          std::optional<Rid> victim,
          FindVisibleLinkRow(*catalog_, *link, rel.link_parent_column, pkey,
                             rel.link_child_column, ckey));
      if (!victim.has_value()) {
        return Status::NotFound(
            "no link tuple found for this connection in '" + rel.link_table +
            "'");
      }
      exec::DmlExecutor dml(catalog_);
      XNF_RETURN_IF_ERROR(dml.DeleteRow(link, *victim));
      cache_->RemoveConnection(conn);
      return Status::Ok();
    }
  }
  return Status::Internal("unhandled relationship write kind");
}

Result<std::optional<Rid>> FindVisibleLinkRow(
    const Catalog& catalog, const TableInfo& link, int parent_column,
    const Value& pkey, int child_column, const Value& ckey) {
  // `parent = pkey AND child = ckey` through the engine's one access-path
  // choice, so an index on either link column serves the lookup.
  std::vector<qgm::ExprPtr> conjuncts;
  for (const auto& [column, key] :
       {std::pair{parent_column, &pkey}, std::pair{child_column, &ckey}}) {
    qgm::ExprPtr col =
        qgm::Expr::InputRef(0, column, link.schema.column(column).type);
    col->slot = column;
    conjuncts.push_back(qgm::Expr::Binary(sql::BinOp::kEq, std::move(col),
                                          qgm::Expr::Lit(*key), Type::kBool));
  }
  exec::TableAccess access = exec::ChooseAccess(
      link, std::move(conjuncts), catalog.exec_config().use_indexes);
  exec::ExecContext ctx;
  ctx.catalog = &catalog;
  std::vector<Row> rows;
  std::vector<Rid> rids;
  exec::ScanStats stats;
  XNF_RETURN_IF_ERROR(
      exec::FindRows(link, access, nullptr, &ctx, &rows, &rids, &stats));
  if (rids.empty()) return std::optional<Rid>();
  return std::optional<Rid>(rids.front());
}

}  // namespace xnf::co
