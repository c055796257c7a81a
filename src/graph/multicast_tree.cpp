#include "graph/multicast_tree.hpp"

#include <algorithm>

namespace scmp::graph {

MulticastTree::MulticastTree(NodeId root, int num_nodes) : root_(root) {
  SCMP_EXPECTS(num_nodes > 0 && root >= 0 && root < num_nodes);
  parent_.assign(static_cast<std::size_t>(num_nodes), kInvalidNode);
  on_tree_.assign(static_cast<std::size_t>(num_nodes), 0);
  member_.assign(static_cast<std::size_t>(num_nodes), 0);
  children_.resize(static_cast<std::size_t>(num_nodes));
  on_tree_[static_cast<std::size_t>(root)] = 1;
  tree_size_ = 1;
}

void MulticastTree::set_member(NodeId v, bool member) {
  SCMP_EXPECTS(!member || on_tree(v));
  member_[static_cast<std::size_t>(v)] = member ? 1 : 0;
}

std::vector<NodeId> MulticastTree::members() const {
  std::vector<NodeId> out;
  for (NodeId v = 0; v < num_nodes(); ++v)
    if (member_[static_cast<std::size_t>(v)]) out.push_back(v);
  return out;
}

std::vector<NodeId> MulticastTree::on_tree_nodes() const {
  std::vector<NodeId> out;
  out.reserve(static_cast<std::size_t>(tree_size_));
  for (NodeId v = 0; v < num_nodes(); ++v)
    if (on_tree_[static_cast<std::size_t>(v)]) out.push_back(v);
  return out;
}

bool MulticastTree::is_leaf(NodeId v) const {
  return on_tree(v) && children(v).empty();
}

void MulticastTree::attach(NodeId child, NodeId parent) {
  SCMP_EXPECTS(on_tree(parent));
  SCMP_EXPECTS(child != root_);
  parent_[static_cast<std::size_t>(child)] = parent;
  children_[static_cast<std::size_t>(parent)].push_back(child);
  if (!on_tree_[static_cast<std::size_t>(child)]) {
    on_tree_[static_cast<std::size_t>(child)] = 1;
    ++tree_size_;
  }
}

void MulticastTree::detach(NodeId child) {
  const NodeId p = parent_[static_cast<std::size_t>(child)];
  if (p == kInvalidNode) return;
  auto& sib = children_[static_cast<std::size_t>(p)];
  sib.erase(std::remove(sib.begin(), sib.end(), child), sib.end());
  parent_[static_cast<std::size_t>(child)] = kInvalidNode;
}

void MulticastTree::remove_node(NodeId v) {
  SCMP_EXPECTS(v != root_ && on_tree(v) && children(v).empty());
  detach(v);
  on_tree_[static_cast<std::size_t>(v)] = 0;
  member_[static_cast<std::size_t>(v)] = 0;
  --tree_size_;
}

bool MulticastTree::is_ancestor(NodeId anc, NodeId v) const {
  for (NodeId cur = v; cur != kInvalidNode;
       cur = parent_[static_cast<std::size_t>(cur)]) {
    if (cur == anc) return true;
  }
  return false;
}

void MulticastTree::graft_path(const std::vector<NodeId>& path) {
  SCMP_EXPECTS(!path.empty());
  SCMP_EXPECTS(on_tree(path.front()));
  NodeId prev = path.front();
  for (std::size_t i = 1; i < path.size(); ++i) {
    const NodeId cur = path[i];
    SCMP_EXPECTS(cur >= 0 && cur < num_nodes());
    if (cur == prev) continue;
    if (!on_tree(cur)) {
      attach(cur, prev);
    } else if (parent_[static_cast<std::size_t>(cur)] == prev) {
      // Path segment already coincides with a tree edge.
    } else if (cur == root_ || is_ancestor(cur, prev)) {
      // Re-parenting cur under prev would create a cycle; the new segment
      // ending at prev is the redundant branch, so prune it instead.
      prune_upward_from(prev);
    } else {
      // Loop elimination (paper Fig. 5): cur joins the new path, and the old
      // branch that led into it is pruned upward.
      const NodeId old_parent = parent_[static_cast<std::size_t>(cur)];
      detach(cur);
      attach(cur, prev);
      if (old_parent != kInvalidNode) prune_upward_from(old_parent);
    }
    prev = cur;
  }
}

NodeId MulticastTree::prune_upward_from(NodeId v,
                                        std::vector<NodeId>* removed) {
  NodeId cur = v;
  while (cur != root_ && on_tree(cur) && children(cur).empty() &&
         !is_member(cur)) {
    const NodeId p = parent_[static_cast<std::size_t>(cur)];
    remove_node(cur);
    if (removed != nullptr) removed->push_back(cur);
    cur = p;
  }
  return cur;
}

std::vector<NodeId> MulticastTree::path_from_root(NodeId v) const {
  SCMP_EXPECTS(on_tree(v));
  std::vector<NodeId> path;
  for (NodeId cur = v; cur != kInvalidNode;
       cur = parent_[static_cast<std::size_t>(cur)])
    path.push_back(cur);
  std::reverse(path.begin(), path.end());
  SCMP_ENSURES(path.front() == root_);
  return path;
}

double MulticastTree::tree_cost(const Graph& g) const {
  double total = 0.0;
  for (NodeId v = 0; v < num_nodes(); ++v) {
    if (!on_tree_[static_cast<std::size_t>(v)] || v == root_) continue;
    const EdgeAttr* e = g.edge(v, parent_[static_cast<std::size_t>(v)]);
    SCMP_EXPECTS(e != nullptr);
    total += e->cost;
  }
  return total;
}

double MulticastTree::node_delay(const Graph& g, NodeId v) const {
  SCMP_EXPECTS(on_tree(v));
  double total = 0.0;
  for (NodeId cur = v; cur != root_;
       cur = parent_[static_cast<std::size_t>(cur)]) {
    const EdgeAttr* e = g.edge(cur, parent_[static_cast<std::size_t>(cur)]);
    SCMP_EXPECTS(e != nullptr);
    total += e->delay;
  }
  return total;
}

double MulticastTree::tree_delay(const Graph& g) const {
  // Flag scan instead of members(): no allocation. Each member pays its own
  // walk to the root; DCDM's per-join bound reads its delay cache instead.
  double worst = 0.0;
  for (NodeId v = 0; v < num_nodes(); ++v) {
    if (member_[static_cast<std::size_t>(v)])
      worst = std::max(worst, node_delay(g, v));
  }
  return worst;
}

std::vector<std::pair<NodeId, NodeId>> MulticastTree::edges() const {
  std::vector<std::pair<NodeId, NodeId>> out;
  for (NodeId v = 0; v < num_nodes(); ++v) {
    if (on_tree_[static_cast<std::size_t>(v)] && v != root_)
      out.emplace_back(v, parent_[static_cast<std::size_t>(v)]);
  }
  return out;
}

bool MulticastTree::validate(const Graph& g) const {
  if (!on_tree(root_)) return false;
  if (parent_[static_cast<std::size_t>(root_)] != kInvalidNode) return false;
  // Flat pass: flags, parent links and their graph edges, and every child
  // entry pointing back at the node that lists it.
  int counted = 0;
  for (NodeId v = 0; v < num_nodes(); ++v) {
    const auto idx = static_cast<std::size_t>(v);
    if (member_[idx] && !on_tree_[idx]) return false;
    if (!on_tree_[idx]) {
      if (parent_[idx] != kInvalidNode || !children_[idx].empty()) return false;
      continue;
    }
    ++counted;
    for (NodeId c : children_[idx]) {
      if (parent_[static_cast<std::size_t>(c)] != v) return false;
    }
    if (v == root_) continue;
    const NodeId p = parent_[idx];
    if (p == kInvalidNode || !on_tree(p)) return false;
    if (g.edge(v, p) == nullptr) return false;
  }
  if (counted != tree_size_) return false;
  // With the lists mirroring the parents, a walk from the root reaches every
  // on-tree node exactly once iff no node is listed twice, none is missing
  // from its parent's list and there is no cycle. A node listed twice makes
  // the walk revisit it without end, so the visits are capped.
  int visited = 0;
  return walk_subtree(root_,
                      [&](NodeId) { return ++visited <= tree_size_; }) &&
         visited == tree_size_;
}

bool MulticastTree::validate_graft(const Graph& g,
                                   const std::vector<NodeId>& path,
                                   std::size_t first_new,
                                   int size_before) const {
  if (first_new == 0 || first_new >= path.size() || !on_tree(path.front()))
    return false;
  if (tree_size_ != size_before + static_cast<int>(path.size() - first_new))
    return false;
  for (std::size_t i = 1; i < path.size(); ++i) {
    const NodeId v = path[i];
    const NodeId p = path[i - 1];
    if (!on_tree(v) || parent_[static_cast<std::size_t>(v)] != p ||
        !g.has_edge(v, p))
      return false;
    const auto& kids = children_[static_cast<std::size_t>(p)];
    if (std::count(kids.begin(), kids.end(), v) != 1) return false;
    if (i < first_new) continue;
    const auto& own = children_[static_cast<std::size_t>(v)];
    const bool leaf_end = i + 1 == path.size();
    if (leaf_end ? !own.empty()
                 : own.size() != 1 || own.front() != path[i + 1])
      return false;
  }
  // A cycle through the graft never reaches the root.
  int hops = 0;
  for (NodeId cur = path.back(); cur != root_;
       cur = parent_[static_cast<std::size_t>(cur)]) {
    if (cur == kInvalidNode || ++hops > tree_size_) return false;
  }
  return true;
}

bool MulticastTree::validate_prune(const std::vector<NodeId>& chain,
                                   NodeId survivor, int size_before) const {
  if (tree_size_ != size_before - static_cast<int>(chain.size())) return false;
  for (NodeId v : chain) {
    const auto idx = static_cast<std::size_t>(v);
    if (on_tree_[idx] || member_[idx] || parent_[idx] != kInvalidNode ||
        !children_[idx].empty())
      return false;
  }
  if (!on_tree(survivor)) return false;
  for (NodeId c : children_[static_cast<std::size_t>(survivor)]) {
    if (!on_tree_[static_cast<std::size_t>(c)] ||
        parent_[static_cast<std::size_t>(c)] != survivor)
      return false;
  }
  return true;
}

}  // namespace scmp::graph
