// The link-state unicast routing substrate every router in the domain is
// assumed to run (paper §II-D: "each domain also runs a unicast routing
// protocol", a link-state one). We model its converged result: a dense
// next-hop table over shortest-delay paths, which also provides DVMRP's
// reverse-path-forwarding checks.
//
// The table keeps every source's canonical shortest-path tree (a parent row
// beside its distance row), so a link failure reconverges incrementally:
// remove_link() re-settles only the subtrees the cut orphans
// (graph::repair_after_removal) and re-derives just their first hops. The
// result is bit-identical to building the table afresh on the new topology.
#pragma once

#include <cstddef>
#include <vector>

#include "graph/dijkstra.hpp"
#include "graph/graph.hpp"

namespace scmp::sim {

class UnicastRouting {
 public:
  explicit UnicastRouting(const graph::Graph& g);

  /// Reconverges after the link {u, v} failed; `g` is the post-removal
  /// graph. Every source whose tree used the link repairs the orphaned
  /// subtree in place and re-derives first hops for those nodes only, in
  /// settle order; a repair that meets a zero or absorbed weight re-runs
  /// that source in full. Bit-identical to UnicastRouting(g).
  void remove_link(const graph::Graph& g, graph::NodeId u, graph::NodeId v);

  /// First hop on the canonical shortest path from `from` to `to`.
  /// Returns `to` itself when they are equal. Requires reachability.
  graph::NodeId next_hop(graph::NodeId from, graph::NodeId to) const;

  /// Delay of the shortest-delay path from `from` to `to`.
  double distance(graph::NodeId from, graph::NodeId to) const;

  /// DVMRP RPF: the neighbor `at` expects (source, *) traffic to arrive from,
  /// i.e. the first hop of at's shortest path toward the source (links are
  /// symmetric, so forward and reverse shortest paths coincide).
  graph::NodeId rpf_neighbor(graph::NodeId at, graph::NodeId source) const {
    return next_hop(at, source);
  }

  int num_nodes() const { return n_; }

 private:
  std::size_t row_start(graph::NodeId from) const {
    return static_cast<std::size_t>(from) * static_cast<std::size_t>(n_);
  }
  /// Copies one Dijkstra run into row `from` and derives all its first hops.
  void fill_row(graph::NodeId from, const graph::ShortestPaths& sp);

  int n_ = 0;
  std::vector<graph::NodeId> next_hop_;  ///< n*n, row = from
  std::vector<double> dist_;             ///< n*n, row = from
  std::vector<graph::NodeId> parent_;    ///< n*n, row = from's canonical SPT
  graph::ShortestPaths run_;             ///< full-run buffer, reused per row
  graph::SptRepairScratch repair_scratch_;
};

}  // namespace scmp::sim
