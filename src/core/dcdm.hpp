// DCDM — Delay Constrained Dynamic Multicast (paper §III-D, and its
// reference [20]): the incremental tree algorithm SCMP's m-router runs.
//
// On a join of member s the algorithm considers, for every node t already on
// the tree, the two precomputed paths P_lc(t,s) (least cost) and P_sl(t,s)
// (shortest delay) — 2m candidates — and grafts the cheapest one that keeps
// s's multicast delay within the delay bound. If the chosen path re-enters
// the tree, the loop is broken by re-parenting the re-entered node and
// pruning its old upstream branch (Fig. 5). On a leave, the branch to the
// leaving member is pruned and the rest of the tree is left intact.
//
// The delay bound generalises the paper's dynamic rule with a slack factor
// for Fig. 7's three constraint levels:
//   bound = max(slack * max_{v in members} ul(v), current tree delay)
// slack = 1 reproduces the paper's rule exactly (the "tightest" level:
// a new member with ul > tree delay raises the bound to its ul, i.e. takes
// its shortest-delay path); slack = infinity is the "loosest" level (pure
// greedy cost minimisation).
#pragma once

#include <limits>
#include <utility>
#include <vector>

#include "graph/graph.hpp"
#include "graph/multicast_tree.hpp"
#include "graph/paths.hpp"

namespace scmp::core {

struct DcdmConfig {
  /// Delay-constraint slack: 1 = tightest, infinity = loosest (see above).
  double delay_slack = 1.0;
};

inline constexpr double kLoosest = std::numeric_limits<double>::infinity();

struct JoinResult {
  bool is_new_member = false;    ///< false when s was already a member
  bool already_on_tree = false;  ///< s was a relay node; no graft needed
  std::vector<graph::NodeId> graft_path;  ///< chosen path (graft node first)
  bool restructured = false;     ///< loop elimination re-parented some node
  /// Pruned by loop elimination, ascending.
  std::vector<graph::NodeId> removed_nodes;
  /// (surviving router, child it lost) for every tree edge loop elimination
  /// cut: routers ascending, then each router's old child order — the order
  /// the m-router sends its detach CLEARs in. Empty unless restructured.
  std::vector<std::pair<graph::NodeId, graph::NodeId>> detached;
};

struct LeaveResult {
  bool was_member = false;
  std::vector<graph::NodeId> removed_nodes;  ///< pruned branch (includes s when removed)
};

class DcdmTree {
 public:
  DcdmTree(const graph::Graph& g, const graph::AllPairsPaths& paths,
           graph::NodeId root, DcdmConfig cfg = {});

  JoinResult join(graph::NodeId s);
  LeaveResult leave(graph::NodeId s);

  const graph::MulticastTree& tree() const { return tree_; }
  graph::NodeId root() const { return tree_.root(); }

  /// Unicast delay ul(v): shortest-delay distance from the root.
  double unicast_delay(graph::NodeId v) const;
  /// Current delay bound the next join must respect.
  double delay_bound_for(graph::NodeId joining) const;

  /// The delay bound `m` was admitted under: the bound in force at its join,
  /// raised to its new multicast delay whenever a later loop-eliminating
  /// restructure re-parents its root path (the dynamic rule's bound grows
  /// with the tree delay, so a restructure re-admits the members it moves).
  /// This is the per-member constraint the verification auditor holds every
  /// tree mutation to. Requires `m` to be a current member.
  double admitted_bound(graph::NodeId m) const;

  /// Cached multicast delay of on-tree node `v`: bit-identical to
  /// tree().node_delay(g, v), without its walk to the root.
  double multicast_delay(graph::NodeId v) const {
    SCMP_EXPECTS(tree_.on_tree(v));
    return delay_[static_cast<std::size_t>(v)];
  }

  double tree_cost() const { return tree_.tree_cost(*g_); }
  double tree_delay() const { return tree_.tree_delay(*g_); }

 private:
  /// Records `m` as admitted under `bound`; raises stale records of members
  /// whose delay a restructure changed.
  void record_admission(graph::NodeId m, double bound);

  /// Recomputes the cached delay of `top` and of every node below it, and
  /// re-admits each member whose delay changed.
  void refresh_delays(graph::NodeId top);

  const graph::Graph* g_;
  const graph::AllPairsPaths* paths_;
  DcdmConfig cfg_;
  graph::MulticastTree tree_;
  /// Per-member admitted bound (see admitted_bound); unused slots hold NaN.
  std::vector<double> admitted_bound_;
  /// Multicast delay per on-tree node (see multicast_delay). Each entry is
  /// node_delay's own leaf-to-root sum, recomputed only when the node's root
  /// path changes; off-tree slots are stale and never read.
  std::vector<double> delay_;
  /// Winning graft path, materialized once per join via path_to_into()
  /// (join() is the m-router's hot path and must not allocate per call,
  /// tools/lint.py hot-path-alloc).
  std::vector<graph::NodeId> scratch_graft_;
};

}  // namespace scmp::core
