// The domain's one shortest-path store. For every source it holds the
// shortest-delay tree (P_sl paths) and the least-cost tree (P_lc paths), the
// paper's 2m DCDM candidates (§III-D) that the m-router is assumed to have
// precomputed from its global topology DB, plus a first-hop row over the
// shortest-delay tree: the converged result of the link-state unicast
// protocol every router runs (§II-D), which forwards unicast packets and
// gives DVMRP its reverse-path checks.
//
// Each per-source run carries dual weights (see dijkstra.hpp), so both the
// optimized and the companion metric of every candidate path are O(1) table
// lookups: sl_delay/sl_cost for P_sl, lc_delay/lc_cost for P_lc.
//
// The constructor runs both metrics from every source. apply_link_event()
// handles a single changed/failed/added link incrementally. A run whose
// cached shortest-path tree does not use a failed link is provably still the
// canonical answer; one that does is repaired by re-settling only the
// subtree the cut orphans (repair_after_removal, see dijkstra.hpp), and only
// the re-settled nodes' first hops are re-derived. A present (new or
// re-weighted) link dirties a run when it lies on the tree or when relaxing
// it would improve or re-canonicalize a path, and a dirty run is re-run in
// full.
#pragma once

#include <cstddef>
#include <vector>

#include "graph/dijkstra.hpp"
#include "graph/graph.hpp"

namespace scmp::graph {

class AllPairsPaths {
 public:
  explicit AllPairsPaths(const Graph& g);

  /// Incremental update after the single link {u, v} changed: failed, came
  /// up, or changed weight. `g` is the post-event graph. Touches only the
  /// (source, metric) runs the event can actually affect and returns how
  /// many sources had at least one such run (the paths.rebuild.sources_
  /// recomputed counter tracks the same quantity). A failure repairs each
  /// affected run in place; link-up, re-weighting and the repair's
  /// fallbacks re-run it in full. The result, first hops included, is
  /// bit-identical to AllPairsPaths(g). (A weight change is judged by the
  /// new weight alone: exact when every weight is positive; with zero-weight
  /// links, apply it as a failure followed by a link-up.)
  int apply_link_event(const Graph& g, NodeId u, NodeId v);

  // The lookups below are inline: DCDM's candidate scan makes four of them
  // per on-tree node on every join, and unicast forwarding one next_hop per
  // hop.

  /// Delay of the shortest-delay path u->v (the paper's "unicast delay").
  double sl_delay(NodeId u, NodeId v) const { return sl_from(u).distance(v); }
  /// Cost of that same shortest-delay path (companion weight).
  double sl_cost(NodeId u, NodeId v) const {
    return sl_from(u).companion_distance(v);
  }
  /// Cost of the least-cost path u->v.
  double lc_cost(NodeId u, NodeId v) const { return lc_from(u).distance(v); }
  /// Delay of that same least-cost path (companion weight).
  double lc_delay(NodeId u, NodeId v) const {
    return lc_from(u).companion_distance(v);
  }

  /// First hop on the P_sl path u..v: the unicast next hop at u toward v,
  /// and, links being symmetric, the RPF neighbour at u for traffic from v.
  /// Returns u itself when u == v. Requires v reachable from u.
  NodeId next_hop(NodeId u, NodeId v) const {
    SCMP_EXPECTS(u >= 0 && u < num_nodes() && v >= 0 && v < num_nodes());
    const NodeId hop = next_hop_[row_start(u) + static_cast<std::size_t>(v)];
    SCMP_EXPECTS(hop != kInvalidNode);
    return hop;
  }

  /// The P_sl path u..v (shortest delay).
  std::vector<NodeId> sl_path(NodeId u, NodeId v) const;
  /// The P_lc path u..v (least cost).
  std::vector<NodeId> lc_path(NodeId u, NodeId v) const;

  /// sl_path()/lc_path() into a caller-owned buffer (no allocation once the
  /// buffer's capacity covers the path).
  void sl_path_into(NodeId u, NodeId v, std::vector<NodeId>& out) const;
  void lc_path_into(NodeId u, NodeId v, std::vector<NodeId>& out) const;

  const ShortestPaths& sl_from(NodeId u) const {
    SCMP_EXPECTS(u >= 0 && u < num_nodes());
    return by_delay_[static_cast<std::size_t>(u)];
  }
  const ShortestPaths& lc_from(NodeId u) const {
    SCMP_EXPECTS(u >= 0 && u < num_nodes());
    return by_cost_[static_cast<std::size_t>(u)];
  }

  int num_nodes() const { return static_cast<int>(by_delay_.size()); }

 private:
  std::size_t row_start(NodeId u) const {
    return static_cast<std::size_t>(u) * by_delay_.size();
  }
  /// Derives source u's whole first-hop row from its P_sl run.
  void fill_next_hops(NodeId u);
  /// True when the cached run `sp` must be recomputed after the present
  /// link {u, v} (new or re-weighted, attributes `attr`) changed.
  static bool run_dirty(const ShortestPaths& sp, NodeId u, NodeId v,
                        const EdgeAttr& attr);

  std::vector<ShortestPaths> by_delay_;
  std::vector<ShortestPaths> by_cost_;
  std::vector<NodeId> next_hop_;     ///< n*n, row = source
  SptRepairScratch repair_scratch_;  ///< reused by every link failure
};

}  // namespace scmp::graph
