#include "xnf/instance.h"

#include <cstdint>

#include "common/str_util.h"

namespace xnf::co {

ResultSet CoNodeInstance::ToResultSet() const {
  ResultSet out;
  out.schema = schema;
  out.rows = tuples;
  return out;
}

int CoInstance::NodeIndex(const std::string& name) const {
  std::string key = ToLower(name);
  for (size_t i = 0; i < nodes.size(); ++i) {
    if (nodes[i].name == key) return static_cast<int>(i);
  }
  return -1;
}

int CoInstance::RelIndex(const std::string& name) const {
  std::string key = ToLower(name);
  for (size_t i = 0; i < rels.size(); ++i) {
    if (rels[i].name == key) return static_cast<int>(i);
  }
  return -1;
}

size_t CoInstance::TotalTuples() const {
  size_t n = 0;
  for (const CoNodeInstance& node : nodes) n += node.tuples.size();
  return n;
}

size_t CoInstance::TotalConnections() const {
  size_t n = 0;
  for (const CoRelInstance& rel : rels) n += rel.connections.size();
  return n;
}

std::string CoInstance::ToString() const {
  std::string out;
  for (const CoNodeInstance& node : nodes) {
    out += "node " + node.name + " (" +
           std::to_string(node.tuples.size()) + " tuples)";
    if (node.updatable()) out += " [updatable via " + node.base_table + "]";
    out += "\n";
    out += node.ToResultSet().ToString();
  }
  for (const CoRelInstance& rel : rels) {
    out += "relationship " + rel.name + ": " + nodes[rel.parent_node].name +
           " -> " + nodes[rel.child_node].name + " (" +
           std::to_string(rel.connections.size()) + " connections)\n";
  }
  return out;
}

void PruneInstance(CoInstance* instance,
                   const std::vector<std::vector<char>>& keep) {
  // New index per surviving tuple.
  std::vector<std::vector<int>> remap(instance->nodes.size());
  for (size_t n = 0; n < instance->nodes.size(); ++n) {
    CoNodeInstance& node = instance->nodes[n];
    remap[n].assign(node.tuples.size(), -1);
    std::vector<Row> kept_tuples;
    std::vector<Rid> kept_rids;
    for (size_t t = 0; t < node.tuples.size(); ++t) {
      if (!keep[n][t]) continue;
      remap[n][t] = static_cast<int>(kept_tuples.size());
      kept_tuples.push_back(std::move(node.tuples[t]));
      if (!node.rids.empty()) kept_rids.push_back(node.rids[t]);
    }
    node.tuples = std::move(kept_tuples);
    node.rids = std::move(kept_rids);
  }
  for (CoRelInstance& rel : instance->rels) {
    std::vector<CoConnection> kept;
    for (CoConnection& c : rel.connections) {
      int p = remap[rel.parent_node][c.parent];
      int ch = remap[rel.child_node][c.child];
      if (p < 0 || ch < 0) continue;
      kept.push_back(CoConnection{p, ch, std::move(c.attrs)});
    }
    rel.connections = std::move(kept);
  }
}

uint32_t LayOutSegments(std::vector<CsrSegment>* segs) {
  uint32_t off = 0;
  for (CsrSegment& seg : *segs) {
    seg.off = off;
    off += seg.cap;
  }
  return off;
}

void ApplyReachability(CoInstance* instance) {
  const size_t n_nodes = instance->nodes.size();

  // Tuples are numbered globally: node n's tuple t is base[n] + t.
  std::vector<size_t> base(n_nodes + 1, 0);
  for (size_t n = 0; n < n_nodes; ++n) {
    base[n + 1] = base[n] + instance->nodes[n].tuples.size();
  }
  const size_t n_tuples = base[n_nodes];

  // Parent-to-child adjacency in CSR form: the children of tuple g are
  // targets[children[g].off .. + children[g].len).
  std::vector<CsrSegment> children(n_tuples);
  std::vector<char> has_incoming(n_nodes, 0);
  for (const CoRelInstance& rel : instance->rels) {
    if (rel.child_node >= 0) has_incoming[rel.child_node] = 1;
    for (const CoConnection& c : rel.connections) {
      ++children[base[rel.parent_node] + c.parent].cap;
    }
  }
  std::vector<uint32_t> targets(LayOutSegments(&children));
  for (const CoRelInstance& rel : instance->rels) {
    for (const CoConnection& c : rel.connections) {
      CsrSegment& seg = children[base[rel.parent_node] + c.parent];
      targets[seg.off + seg.len++] =
          static_cast<uint32_t>(base[rel.child_node] + c.child);
    }
  }

  // Roots: every tuple of a node without incoming relationships in the
  // instance graph. The walk never visits a tuple twice, so cycles end.
  std::vector<char> marked(n_tuples, 0);
  std::vector<uint32_t> frontier;
  for (size_t n = 0; n < n_nodes; ++n) {
    if (has_incoming[n]) continue;
    for (size_t g = base[n]; g < base[n + 1]; ++g) {
      marked[g] = 1;
      frontier.push_back(static_cast<uint32_t>(g));
    }
  }
  size_t n_marked = frontier.size();
  while (!frontier.empty()) {
    const CsrSegment& seg = children[frontier.back()];
    frontier.pop_back();
    for (uint32_t e = seg.off; e < seg.off + seg.len; ++e) {
      const uint32_t child = targets[e];
      if (marked[child]) continue;
      marked[child] = 1;
      ++n_marked;
      frontier.push_back(child);
    }
  }
  if (n_marked == n_tuples) return;  // nothing to drop

  std::vector<std::vector<char>> keep(n_nodes);
  for (size_t n = 0; n < n_nodes; ++n) {
    keep[n].assign(marked.begin() + base[n], marked.begin() + base[n + 1]);
  }
  PruneInstance(instance, keep);
}

}  // namespace xnf::co
