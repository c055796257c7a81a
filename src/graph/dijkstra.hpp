// Single-source shortest paths under either link metric. Used to build the
// paper's P_sl (shortest-delay) and P_lc (least-cost) paths, whose
// shortest-delay trees are also the link-state unicast routes every router
// is assumed to run (paper §II-D).
//
// Every run carries *dual weights*: alongside the optimized distance it
// accumulates, per destination, the companion metric of the same canonical
// path (cost of the shortest-delay path, delay of the least-cost path).
// DCDM's candidate scan (§III-D) scores all 2m precomputed paths from these
// tables alone — no path has to be materialized until the winner is grafted
// — and the companion sums are bit-identical to re-walking the path with
// path_weight(), because both accumulate edge weights in the same
// source-to-destination order.
//
// A link failure is repaired, not recomputed: repair_after_removal() is the
// decremental shortest-path-tree update of link-state routing (Narváez, Siu
// & Tzeng, IEEE/ACM ToN 2000). Only the subtree the cut orphans is
// re-settled, and the result is bit-identical to a fresh dijkstra_into() on
// the post-removal graph.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "graph/graph.hpp"

namespace scmp::graph {

inline constexpr double kUnreachable = std::numeric_limits<double>::infinity();

/// The metric a run does not optimise but still accumulates.
inline constexpr Metric companion_of(Metric m) {
  return m == Metric::kDelay ? Metric::kCost : Metric::kDelay;
}

/// Result of one Dijkstra run: distance, companion weight and predecessor
/// per node.
struct ShortestPaths {
  NodeId source = kInvalidNode;
  Metric metric = Metric::kDelay;
  std::vector<double> dist;      ///< dist[v] == kUnreachable when v unreachable
  std::vector<double> companion; ///< companion-metric weight of the same path
  std::vector<NodeId> parent;    ///< parent[source] == kInvalidNode

  bool reachable(NodeId v) const {
    return dist[static_cast<std::size_t>(v)] < kUnreachable;
  }
  double distance(NodeId v) const { return dist[static_cast<std::size_t>(v)]; }
  /// Companion-metric weight of the canonical path source..v (bit-identical
  /// to path_weight(path_to(v), companion_of(metric))).
  double companion_distance(NodeId v) const {
    return companion[static_cast<std::size_t>(v)];
  }
  /// Path source..dst inclusive; empty when dst is unreachable. Counts the
  /// hops with a first walk up the tree, so it allocates exactly once.
  std::vector<NodeId> path_to(NodeId dst) const;

  /// path_to() into a caller-owned buffer: `out` is overwritten with the
  /// path (empty when unreachable); no allocation once `out`'s capacity has
  /// grown to the longest requested path.
  void path_to_into(NodeId dst, std::vector<NodeId>& out) const;
};

/// Dijkstra with a binary heap; ties broken by smaller node id so results are
/// deterministic across platforms.
ShortestPaths dijkstra(const Graph& g, NodeId source, Metric metric);

/// dijkstra() into an existing result object, reusing its vectors' capacity
/// (the incremental path-database rebuild re-runs dirty sources in place).
void dijkstra_into(const Graph& g, NodeId source, Metric metric,
                   ShortestPaths& out);

/// Working memory of repair_after_removal(). Sized on first use and reused,
/// so a repair allocates nothing once the buffers have grown.
struct SptRepairScratch {
  /// Nodes the cut orphaned, in collection order.
  std::vector<NodeId> subtree;
  /// The orphaned nodes the repair reached, in settle order.
  std::vector<NodeId> settled;
  /// Per-node repair state; all "outside" between calls.
  std::vector<std::uint8_t> state;
  /// (distance, node) min-heap of the subtree Dijkstra.
  std::vector<std::pair<double, NodeId>> heap;
};

enum class SptRepair : std::uint8_t {
  /// The edge was not on the tree: nothing changed.
  kUnaffected,
  /// The orphaned subtree was re-settled in place.
  kRepaired,
  /// A zero or absorbed weight touches the subtree. The arrays are partly
  /// rewritten: re-run dijkstra_into().
  kNeedsFullRun,
};

/// Decremental update of one canonical shortest-path tree after the edge
/// {a, b} was removed; `g` is the post-removal graph and dist/companion/
/// parent hold a dijkstra_into() result of `metric` on the pre-removal one.
///
/// When the edge was a tree edge, the subtree below it is collected (CSR
/// rows, following parent[w] == z), reset, seeded from its outside
/// neighbours and re-settled by a Dijkstra over the subtree alone, with
/// dijkstra_into's exact tie-break: strictly smaller distance, or an equal
/// one through a smaller parent id. Afterwards `scratch.subtree` lists the
/// orphaned nodes and `scratch.settled` the reachable ones in settle order
/// (every node after its parent).
///
/// Bit-identity with a fresh run rests on every sum strictly increasing: a
/// removal only lengthens paths, so a node outside the subtree keeps its
/// distance and its canonical parent (never a subtree node), and each
/// subtree node's fresh parent is the smallest-id neighbour achieving its
/// new distance. When an edge touching the subtree has !(d + w > d) for a
/// distance d it is added to — a zero weight, or one absorbed by rounding —
/// settle order could decide parents, so the repair gives up and returns
/// kNeedsFullRun.
SptRepair repair_after_removal(const Graph& g, Metric metric, NodeId a,
                               NodeId b, std::span<double> dist,
                               std::span<double> companion,
                               std::span<NodeId> parent,
                               SptRepairScratch& scratch);

}  // namespace scmp::graph
