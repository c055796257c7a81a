// Shared fixtures for the test suite: the paper's worked-example topologies,
// deterministic random graphs, the bit-identity oracle for path stores and a
// comparable digest of SCMP's installed entries.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <set>
#include <tuple>

#include "core/scmp.hpp"
#include "graph/graph.hpp"
#include "graph/multicast_tree.hpp"
#include "graph/paths.hpp"
#include "topo/waxman.hpp"
#include "util/flat_set.hpp"
#include "util/rng.hpp"

namespace scmp::graph {

/// The tests' only way into MulticastTree's private state: it plants the
/// corruptions that validate() and the local graft/prune checks must reject.
struct MulticastTreeTestAccess {
  static std::vector<NodeId>& children(MulticastTree& t, NodeId v) {
    return t.children_[static_cast<std::size_t>(v)];
  }
  static NodeId& parent(MulticastTree& t, NodeId v) {
    return t.parent_[static_cast<std::size_t>(v)];
  }
  static char& member(MulticastTree& t, NodeId v) {
    return t.member_[static_cast<std::size_t>(v)];
  }
  static int& tree_size(MulticastTree& t) { return t.tree_size_; }
};

}  // namespace scmp::graph

namespace scmp::test {

/// The 6-node topology of the paper's Fig. 5 (DCDM worked example).
/// Node 0 is the m-router; members join in the order g1=4, g2=3, g3=5.
/// Edges (delay, cost): 0-1 (3,6), 1-4 (9,3), 1-2 (3,2), 2-3 (4,1),
/// 0-3 (2,6), 0-2 (4,5), 2-5 (7,2).
inline graph::Graph paper_fig5_topology() {
  graph::Graph g(6);
  g.add_edge(0, 1, 3, 6);
  g.add_edge(1, 4, 9, 3);
  g.add_edge(1, 2, 3, 2);
  g.add_edge(2, 3, 4, 1);
  g.add_edge(0, 3, 2, 6);
  g.add_edge(0, 2, 4, 5);
  g.add_edge(2, 5, 7, 2);
  return g;
}

/// A 4-node diamond: 0-1, 0-2, 1-3, 2-3 with distinct delays/costs so the
/// shortest-delay and least-cost paths 0->3 differ (delay prefers 0-1-3,
/// cost prefers 0-2-3).
inline graph::Graph diamond() {
  graph::Graph g(4);
  g.add_edge(0, 1, 1, 10);
  g.add_edge(0, 2, 5, 1);
  g.add_edge(1, 3, 1, 10);
  g.add_edge(2, 3, 5, 1);
  return g;
}

/// A simple path 0-1-2-...-(n-1) with unit delays and costs.
inline graph::Graph line(int n) {
  graph::Graph g(n);
  for (int i = 0; i + 1 < n; ++i) g.add_edge(i, i + 1, 1, 1);
  return g;
}

/// Deterministic connected random topology.
inline topo::Topology random_topology(std::uint64_t seed, int n = 30,
                                      double alpha = 0.25, double beta = 0.3) {
  Rng rng(seed);
  topo::WaxmanConfig cfg;
  cfg.num_nodes = n;
  cfg.alpha = alpha;
  cfg.beta = beta;
  return topo::waxman(cfg, rng);
}

/// Deterministic connected random graph whose weights are small integers
/// ({1, 2, 3} in both metrics), so equal path sums — ties only the canonical
/// parent-id rule breaks — are everywhere. A random spanning tree plus
/// `extra_edges` random chords; each edge's delay is 0 instead with
/// probability `zero_delay_frac`.
inline graph::Graph tie_heavy_graph(std::uint64_t seed, int n,
                                    int extra_edges,
                                    double zero_delay_frac = 0.0) {
  Rng rng(seed);
  graph::Graph g(n);
  const auto add = [&](graph::NodeId u, graph::NodeId v) {
    const double delay = rng.uniform01() < zero_delay_frac
                             ? 0.0
                             : static_cast<double>(rng.uniform_int(1, 3));
    g.add_edge(u, v, delay, static_cast<double>(rng.uniform_int(1, 3)));
  };
  for (graph::NodeId v = 1; v < n; ++v)
    add(static_cast<graph::NodeId>(rng.uniform_int(0, v - 1)), v);
  for (int i = 0; i < extra_edges; ++i) {
    const auto u = static_cast<graph::NodeId>(rng.uniform_int(0, n - 1));
    const auto v = static_cast<graph::NodeId>(rng.uniform_int(0, n - 1));
    if (u != v && !g.has_edge(u, v)) add(u, v);
  }
  return g;
}

/// Holds a (possibly incrementally maintained) path store bit-identical to
/// `want`, usually a from-scratch build: every source's dist, companion and
/// parent under both metrics, and every first hop. operator== on the double
/// vectors is exact; inf compares equal for unreachable slots and no field
/// is ever NaN.
inline void expect_paths_identical(const graph::AllPairsPaths& got,
                                   const graph::AllPairsPaths& want) {
  ASSERT_EQ(got.num_nodes(), want.num_nodes());
  for (graph::NodeId s = 0; s < got.num_nodes(); ++s) {
    for (const bool least_cost : {false, true}) {
      const graph::ShortestPaths& x =
          least_cost ? got.lc_from(s) : got.sl_from(s);
      const graph::ShortestPaths& y =
          least_cost ? want.lc_from(s) : want.sl_from(s);
      ASSERT_EQ(x.dist, y.dist) << "source " << s;
      ASSERT_EQ(x.companion, y.companion) << "source " << s;
      ASSERT_EQ(x.parent, y.parent) << "source " << s;
    }
    // Equal distances make reachability agree; next_hop requires it.
    for (graph::NodeId v = 0; v < got.num_nodes(); ++v) {
      if (!want.sl_from(s).reachable(v)) continue;
      ASSERT_EQ(got.next_hop(s, v), want.next_hop(s, v))
          << "first hop " << s << " -> " << v;
    }
  }
}

/// Every router's installed SCMP entry for one group, keyed by router:
/// (upstream, downstream routers, install version).
using EntryDigest =
    std::map<graph::NodeId,
             std::tuple<graph::NodeId, util::FlatSet<graph::NodeId>,
                        std::uint64_t>>;

inline EntryDigest installed_entries(const core::Scmp& scmp,
                                     core::GroupId group) {
  EntryDigest out;
  for (graph::NodeId v = 0; v < scmp.net().graph().num_nodes(); ++v) {
    if (const core::Scmp::Entry* e = scmp.entry_at(v, group))
      out[v] = {e->upstream, e->downstream_routers, e->version};
  }
  return out;
}

}  // namespace scmp::test
