#include "core/dcdm.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace scmp::core {

DcdmTree::DcdmTree(const graph::Graph& g, const graph::AllPairsPaths& paths,
                   graph::NodeId root, DcdmConfig cfg)
    : g_(&g),
      paths_(&paths),
      cfg_(cfg),
      tree_(root, g.num_nodes()),
      admitted_bound_(static_cast<std::size_t>(g.num_nodes()),
                      std::numeric_limits<double>::quiet_NaN()),
      delay_(static_cast<std::size_t>(g.num_nodes()), 0.0) {
  SCMP_EXPECTS(cfg.delay_slack >= 1.0);
  scratch_graft_.reserve(static_cast<std::size_t>(g.num_nodes()));
}

double DcdmTree::admitted_bound(graph::NodeId m) const {
  SCMP_EXPECTS(tree_.is_member(m));
  const double b = admitted_bound_[static_cast<std::size_t>(m)];
  SCMP_ASSERT(!std::isnan(b));
  return b;
}

void DcdmTree::record_admission(graph::NodeId m, double bound) {
  admitted_bound_[static_cast<std::size_t>(m)] = bound;
}

void DcdmTree::refresh_delays(graph::NodeId top) {
  // node_delay's own leaf-to-root walk, not delay_[parent] + w: a top-down
  // sum rounds differently and could flip an `ml > bound` test.
  tree_.walk_subtree(top, [this](graph::NodeId v) {
    const auto idx = static_cast<std::size_t>(v);
    const double fresh = tree_.node_delay(*g_, v);
    // A restructure that moved a member re-admits it at its new delay (the
    // dynamic rule's bound grows with the tree delay).
    // determinism: allow(change detection: the cached delay is a copy of the
    // same deterministic node_delay walk, so an unchanged delay is
    // bit-identical and a changed one differs in value, not in rounding)
    if (tree_.is_member(v) && fresh != delay_[idx])
      record_admission(v, std::max(admitted_bound_[idx], fresh));
    delay_[idx] = fresh;
    return true;
  });
}

double DcdmTree::unicast_delay(graph::NodeId v) const {
  return paths_->sl_delay(tree_.root(), v);
}

double DcdmTree::delay_bound_for(graph::NodeId joining) const {
  // determinism: allow(sentinel compare: kLoosest is copied into
  // cfg_.delay_slack verbatim, never computed, so the bits match exactly)
  if (cfg_.delay_slack == kLoosest) return kLoosest;
  // One pass over the members: the largest unicast delay, and the tree
  // delay as the largest cached multicast delay.
  double max_ul = unicast_delay(joining);
  double worst_ml = 0.0;
  for (graph::NodeId m = 0; m < g_->num_nodes(); ++m) {
    if (!tree_.is_member(m)) continue;
    max_ul = std::max(max_ul, unicast_delay(m));
    worst_ml = std::max(worst_ml, delay_[static_cast<std::size_t>(m)]);
  }
  return std::max(cfg_.delay_slack * max_ul, worst_ml);
}

JoinResult DcdmTree::join(graph::NodeId s) {
  SCMP_EXPECTS(g_->valid(s));
  OBS_SPAN("dcdm.join");
  static obs::Counter& calls = obs::counter("dcdm.join.calls");
  calls.inc();
  JoinResult result;
  if (tree_.is_member(s)) return result;  // duplicate join
  result.is_new_member = true;
  if (tree_.on_tree(s)) {
    // s is already a relay on the tree: membership flips, topology unchanged.
    // Its existing path is feasible by construction (every relay lies on a
    // member's admitted path), so it is admitted at the current bound.
    result.already_on_tree = true;
    tree_.set_member(s, true);
    record_admission(s, delay_bound_for(s));
    return result;
  }

  const double bound = delay_bound_for(s);

  // Candidate selection over the 2m precomputed paths (P_sl and P_lc from
  // every on-tree node t to s): cheapest feasible, ties broken by smaller
  // multicast delay, then by smaller graft-node id (deterministic). Every
  // candidate is scored from the dual-weight tables — the same source-to-
  // destination accumulation Dijkstra ran, so bit-identical to re-walking
  // the materialized path — and only the winner is materialized below.
  double best_cost = 0.0;
  double best_ml = 0.0;
  graph::NodeId best_graft = graph::kInvalidNode;
  bool best_is_sl = false;
  bool have_best = false;
  std::uint64_t candidates = 0;
  const auto consider = [&](graph::NodeId t, double td, double pd, double pc,
                            bool is_sl) {
    if (std::isinf(pd)) return;  // s unreachable from t
    ++candidates;
    const double ml = td + pd;
    if (ml > bound) return;
    const bool better =
        !have_best || pc < best_cost ||
        // determinism: allow(canonical cost -> ml -> graft-id tie-break; both
        // sides come from the same path-DB sums on one platform, and the
        // golden traces pin the resulting order)
        (pc == best_cost &&
         // determinism: allow(canonical cost -> ml -> graft-id tie-break;
         // both sides come from the same path-DB sums on one platform, and
         // the golden traces pin the resulting order)
         (ml < best_ml || (ml == best_ml && t < best_graft)));
    if (better) {
      best_cost = pc;
      best_ml = ml;
      best_graft = t;
      best_is_sl = is_sl;
      have_best = true;
    }
  };
  for (graph::NodeId t = 0; t < g_->num_nodes(); ++t) {
    if (!tree_.on_tree(t)) continue;
    const double td = delay_[static_cast<std::size_t>(t)];
    consider(t, td, paths_->sl_delay(t, s), paths_->sl_cost(t, s), true);
    consider(t, td, paths_->lc_delay(t, s), paths_->lc_cost(t, s), false);
  }
  static obs::Counter& candidates_scanned = obs::counter("dcdm.join.candidates");
  candidates_scanned.inc(candidates);
  // The shortest-delay path from the root is always feasible
  // (ml = ul(s) <= slack * max_ul <= bound), so a candidate must exist.
  SCMP_ASSERT(have_best);
  if (best_is_sl) {
    paths_->sl_path_into(best_graft, s, scratch_graft_);
  } else {
    paths_->lc_path_into(best_graft, s, scratch_graft_);
  }
  const auto& path = scratch_graft_;

  // A path that follows tree edges down and then leaves the tree for good
  // only attaches new nodes: nothing is re-parented or pruned and no
  // member's delay changes. That is almost every join. The path re-enters
  // the tree iff some on-tree node on it hangs under a different parent.
  std::size_t first_new = 0;
  bool reenters = false;
  for (std::size_t i = 1; i < path.size() && !reenters; ++i) {
    if (!tree_.on_tree(path[i])) {
      if (first_new == 0) first_new = i;
    } else {
      reenters = tree_.parent(path[i]) != path[i - 1];
    }
  }
  if (!reenters) {
    const int size_before = tree_.tree_size();
    tree_.graft_path(path);
    // Checked before any delay is read: a cycle would trap the root walks.
    SCMP_ENSURES(tree_.validate_graft(*g_, path, first_new, size_before));
    refresh_delays(path[first_new]);  // its subtree is exactly the new nodes
  } else {
    // Loop elimination (rare: 12 of the 3,400 joins of the flash-crowd
    // benchmark) re-parents path nodes and prunes their old branches.
    // Snapshot the old tree edges in CLEAR order (routers ascending, then
    // each router's child order) and which path nodes already hung under
    // their predecessor.
    // hot-path: allow(rare re-entering graft; common grafts snapshot nothing)
    std::vector<std::pair<graph::NodeId, graph::NodeId>> old_edges;
    // hot-path: allow(same rare re-entering graft)
    std::vector<char> kept_parent(path.size(), 0);
    old_edges.reserve(static_cast<std::size_t>(tree_.tree_size()));
    for (graph::NodeId w = 0; w < g_->num_nodes(); ++w) {
      if (!tree_.on_tree(w)) continue;
      for (graph::NodeId c : tree_.children(w)) old_edges.emplace_back(w, c);
    }
    for (std::size_t i = 1; i < path.size(); ++i) {
      kept_parent[i] =
          tree_.on_tree(path[i]) && tree_.parent(path[i]) == path[i - 1];
    }

    tree_.graft_path(path);
    // hot-path: allow(re-parenting can touch the whole tree, whose edges
    // this branch has just snapshotted anyway)
    SCMP_ENSURES(tree_.validate(*g_));
    // Every node whose parent changed is a path node now hanging under its
    // predecessor; its subtree's root paths are the ones that moved.
    for (std::size_t i = 1; i < path.size(); ++i) {
      if (!kept_parent[i] && tree_.on_tree(path[i]) &&
          tree_.parent(path[i]) == path[i - 1])
        refresh_delays(path[i]);
    }
    // An old edge (w, c) is cut when c left the tree or moved. Since the
    // root never leaves, any removed or re-parented node cuts an edge below
    // a surviving router.
    for (const auto& [w, c] : old_edges) {
      const bool gone = !tree_.on_tree(c);
      if (gone) result.removed_nodes.push_back(c);
      if (tree_.on_tree(w) && (gone || tree_.parent(c) != w))
        result.detached.emplace_back(w, c);
    }
    std::sort(result.removed_nodes.begin(), result.removed_nodes.end());
    result.restructured = !result.detached.empty();
  }
  tree_.set_member(s, true);
  record_admission(s, bound);
  result.graft_path = path;
  if (result.restructured) {
    static obs::Counter& restructures = obs::counter("dcdm.restructures");
    restructures.inc();
  }
  SCMP_ENSURES(tree_.is_member(s));
  return result;
}

LeaveResult DcdmTree::leave(graph::NodeId s) {
  SCMP_EXPECTS(g_->valid(s));
  OBS_SPAN("dcdm.leave");
  static obs::Counter& calls = obs::counter("dcdm.leave.calls");
  calls.inc();
  LeaveResult result;
  if (!tree_.is_member(s)) return result;
  result.was_member = true;
  const int size_before = tree_.tree_size();
  tree_.set_member(s, false);
  admitted_bound_[static_cast<std::size_t>(s)] =
      std::numeric_limits<double>::quiet_NaN();
  const graph::NodeId survivor =
      tree_.prune_upward_from(s, &result.removed_nodes);
  SCMP_ENSURES(
      tree_.validate_prune(result.removed_nodes, survivor, size_before));
  // The pruned chain comes back leaf first; callers get it ascending.
  std::sort(result.removed_nodes.begin(), result.removed_nodes.end());
  return result;
}

}  // namespace scmp::core
