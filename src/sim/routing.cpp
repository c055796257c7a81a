#include "sim/routing.hpp"

#include <algorithm>
#include <span>

namespace scmp::sim {

namespace {

/// The link-state protocol routes over shortest-delay paths.
constexpr graph::Metric kMetric = graph::Metric::kDelay;

}  // namespace

UnicastRouting::UnicastRouting(const graph::Graph& g) : n_(g.num_nodes()) {
  const std::size_t cells = row_start(n_);
  next_hop_.resize(cells);
  dist_.resize(cells);
  parent_.resize(cells);
  for (graph::NodeId from = 0; from < n_; ++from) {
    graph::dijkstra_into(g, from, kMetric, run_);
    fill_row(from, run_);
  }
}

void UnicastRouting::fill_row(graph::NodeId from,
                              const graph::ShortestPaths& sp) {
  const std::size_t start = row_start(from);
  std::copy(sp.dist.begin(), sp.dist.end(), dist_.begin() + start);
  std::copy(sp.parent.begin(), sp.parent.end(), parent_.begin() + start);
  graph::NodeId* hop = next_hop_.data() + start;
  const graph::NodeId* parent = parent_.data() + start;
  std::fill(hop, hop + n_, graph::kInvalidNode);
  hop[from] = from;
  for (graph::NodeId v = 0; v < n_; ++v) {
    if (!sp.reachable(v)) continue;
    // Climb to the first node whose first hop is known, or whose parent is
    // `from` (such a node is its own first hop), then write that hop on the
    // way back down: every node is written once.
    graph::NodeId top = v;
    while (hop[top] == graph::kInvalidNode && parent[top] != from)
      top = parent[top];
    const graph::NodeId first =
        hop[top] != graph::kInvalidNode ? hop[top] : top;
    for (graph::NodeId w = v; hop[w] == graph::kInvalidNode; w = parent[w])
      hop[w] = first;
  }
}

void UnicastRouting::remove_link(const graph::Graph& g, graph::NodeId u,
                                 graph::NodeId v) {
  SCMP_EXPECTS(g.num_nodes() == n_ && !g.has_edge(u, v));
  const auto n = static_cast<std::size_t>(n_);
  for (graph::NodeId from = 0; from < n_; ++from) {
    const std::size_t start = row_start(from);
    const graph::SptRepair outcome = graph::repair_after_removal(
        g, kMetric, u, v, std::span<double>(dist_.data() + start, n), {},
        std::span<graph::NodeId>(parent_.data() + start, n), repair_scratch_);
    if (outcome == graph::SptRepair::kUnaffected) continue;
    if (outcome == graph::SptRepair::kNeedsFullRun) {
      graph::dijkstra_into(g, from, kMetric, run_);
      fill_row(from, run_);
      continue;
    }
    // Only the re-settled nodes' first hops can change. Settle order puts
    // every node after its parent, whose hop is then already current (an
    // outside parent's never changed).
    graph::NodeId* hop = next_hop_.data() + start;
    const graph::NodeId* parent = parent_.data() + start;
    for (const graph::NodeId z : repair_scratch_.subtree)
      hop[z] = graph::kInvalidNode;
    for (const graph::NodeId z : repair_scratch_.settled)
      hop[z] = parent[z] == from ? z : hop[parent[z]];
  }
}

graph::NodeId UnicastRouting::next_hop(graph::NodeId from,
                                       graph::NodeId to) const {
  SCMP_EXPECTS(from >= 0 && from < n_ && to >= 0 && to < n_);
  const graph::NodeId hop = next_hop_[row_start(from) +
                                      static_cast<std::size_t>(to)];
  SCMP_EXPECTS(hop != graph::kInvalidNode);
  return hop;
}

double UnicastRouting::distance(graph::NodeId from, graph::NodeId to) const {
  SCMP_EXPECTS(from >= 0 && from < n_ && to >= 0 && to < n_);
  return dist_[row_start(from) + static_cast<std::size_t>(to)];
}

}  // namespace scmp::sim
