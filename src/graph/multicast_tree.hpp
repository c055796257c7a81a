// Rooted shared multicast tree, the central data structure the m-router
// maintains per group (paper §III). Supports the paper's dynamic operations:
// grafting a path for a joining member (including the loop-elimination rule of
// Fig. 5(c)-(d), where hitting an on-tree node re-parents it and prunes its
// old upstream branch) and pruning dangling branches after a member leaves.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "graph/graph.hpp"

namespace scmp::graph {

class MulticastTree {
 public:
  /// An empty tree containing only `root` (the m-router's tree anchor).
  MulticastTree(NodeId root, int num_nodes);

  NodeId root() const { return root_; }
  int num_nodes() const { return static_cast<int>(parent_.size()); }

  // The four accessors below are inline: DCDM's scans and the install
  // encoders call them millions of times per simulation run.

  bool on_tree(NodeId v) const {
    SCMP_EXPECTS(v >= 0 && v < num_nodes());
    return on_tree_[static_cast<std::size_t>(v)] != 0;
  }
  /// Parent of an on-tree node; kInvalidNode for the root.
  NodeId parent(NodeId v) const {
    SCMP_EXPECTS(on_tree(v));
    return parent_[static_cast<std::size_t>(v)];
  }
  const std::vector<NodeId>& children(NodeId v) const {
    SCMP_EXPECTS(v >= 0 && v < num_nodes());
    return children_[static_cast<std::size_t>(v)];
  }

  bool is_member(NodeId v) const {
    SCMP_EXPECTS(v >= 0 && v < num_nodes());
    return member_[static_cast<std::size_t>(v)] != 0;
  }
  /// Marks/unmarks group membership. A node must be on the tree to be a member.
  void set_member(NodeId v, bool member);
  std::vector<NodeId> members() const;

  std::vector<NodeId> on_tree_nodes() const;
  /// Number of nodes currently on the tree (including the root).
  int tree_size() const { return tree_size_; }
  bool is_leaf(NodeId v) const;

  /// Grafts `path` onto the tree. path[0] must already be on the tree; the
  /// remaining nodes are attached in order. When the path re-enters the tree
  /// at a node x, x is re-parented onto the new path and the branch that used
  /// to lead into x is pruned upward (paper Fig. 5 loop elimination) —
  /// unless re-parenting would create a cycle (x is the root or an ancestor
  /// of the new segment), in which case the redundant new segment is pruned
  /// instead. Every node whose parent changes lies on `path` and ends up
  /// under its predecessor there.
  void graft_path(const std::vector<NodeId>& path);

  /// Removes `v` and then its ancestors while they remain non-member leaves
  /// (never removes the root). Models the hop-by-hop PRUNE of §III-C. When
  /// `removed` is given, the removed chain is appended to it, `v` first.
  /// Returns the first node it kept: the surviving ancestor, or `v` itself
  /// when nothing was removed.
  NodeId prune_upward_from(NodeId v, std::vector<NodeId>* removed = nullptr);

  /// Path root..v along tree edges. Requires v on tree.
  std::vector<NodeId> path_from_root(NodeId v) const;

  /// Sum of link costs over all tree edges.
  double tree_cost(const Graph& g) const;
  /// Delay of the tree path root->v (the paper's multicast delay "ml"),
  /// summed edge by edge from v up to the root.
  double node_delay(const Graph& g, NodeId v) const;
  /// Longest multicast delay over all members (the paper's tree delay).
  double tree_delay(const Graph& g) const;

  /// All tree edges as (child, parent) pairs.
  std::vector<std::pair<NodeId, NodeId>> edges() const;

  /// Structural invariants: root on tree, parents on tree, parent edges exist
  /// in g, children lists mirror parents (each child listed exactly once),
  /// no cycles, members on tree, tree_size() counts the on-tree nodes. One
  /// flat pass over the n nodes plus one walk_subtree() from the root;
  /// allocation-free. The invariant auditor runs it on every snapshot;
  /// DCDM runs it only after a graft that re-entered the tree, and checks
  /// every other join and leave with the two local predicates below.
  bool validate(const Graph& g) const;

  /// What validate() checks, restricted to a graft that attached
  /// path[first_new..] as new nodes and re-parented nothing (path[0] on the
  /// tree, path[1..first_new) already hanging under their predecessors):
  /// every path node after the first hangs under its predecessor over an
  /// edge of g and is listed exactly once in its children, each new node's
  /// only child is the next path node, the leaf end reaches the root within
  /// tree_size() hops, and tree_size() grew from `size_before` by the
  /// new-node count. O(path length + depth); allocation-free.
  bool validate_graft(const Graph& g, const std::vector<NodeId>& path,
                      std::size_t first_new, int size_before) const;

  /// What validate() checks, restricted to a prune_upward_from() that
  /// removed `chain` and returned `survivor`: every pruned node is off the
  /// tree with no parent, children or member flag, the survivor is on the
  /// tree and lists only children that hang under it (so none of the chain),
  /// and tree_size() shrank from `size_before` by the chain length.
  /// O(chain length + the survivor's children); allocation-free.
  bool validate_prune(const std::vector<NodeId>& chain, NodeId survivor,
                      int size_before) const;

  /// Preorder visit of the subtree rooted at `top` along the children lists,
  /// without a stack: step down to a first child, or climb to the nearest
  /// ancestor with a next sibling. `visit(v)` returning false stops the walk
  /// (walk_subtree then returns false). Requires every visited node's parent
  /// to list it; a node listed twice is visited again and again, so a caller
  /// walking an untrusted tree must bound its visits (validate does).
  template <typename Visit>
  bool walk_subtree(NodeId top, Visit&& visit) const {
    NodeId cur = top;
    for (;;) {
      if (!visit(cur)) return false;
      const auto& kids = children_[static_cast<std::size_t>(cur)];
      if (!kids.empty()) {
        cur = kids.front();
        continue;
      }
      for (;;) {
        if (cur == top) return true;
        const NodeId p = parent_[static_cast<std::size_t>(cur)];
        const auto& sib = children_[static_cast<std::size_t>(p)];
        const auto next = std::find(sib.begin(), sib.end(), cur) + 1;
        if (next != sib.end()) {
          cur = *next;
          break;
        }
        cur = p;
      }
    }
  }

 private:
  /// Defined only in the tests, which plant corruptions through it.
  friend struct MulticastTreeTestAccess;

  void attach(NodeId child, NodeId parent);
  void detach(NodeId child);
  void remove_node(NodeId v);
  bool is_ancestor(NodeId anc, NodeId v) const;

  NodeId root_;
  std::vector<NodeId> parent_;          ///< kInvalidNode when off-tree or root
  std::vector<char> on_tree_;
  std::vector<char> member_;
  std::vector<std::vector<NodeId>> children_;
  int tree_size_ = 0;
};

}  // namespace scmp::graph
