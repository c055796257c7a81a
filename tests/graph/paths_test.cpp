#include "graph/paths.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>

#include "helpers.hpp"
#include "topo/transit_stub.hpp"
#include "util/rng.hpp"

namespace scmp::graph {
namespace {

TEST(AllPairsPaths, DiamondBothMetrics) {
  const Graph g = test::diamond();
  const AllPairsPaths paths(g);
  EXPECT_DOUBLE_EQ(paths.sl_delay(0, 3), 2.0);
  EXPECT_DOUBLE_EQ(paths.lc_cost(0, 3), 2.0);
  EXPECT_EQ(paths.sl_path(0, 3), (std::vector<NodeId>{0, 1, 3}));
  EXPECT_EQ(paths.lc_path(0, 3), (std::vector<NodeId>{0, 2, 3}));
}

TEST(AllPairsPaths, SelfDistancesZero) {
  const Graph g = test::diamond();
  const AllPairsPaths paths(g);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_DOUBLE_EQ(paths.sl_delay(v, v), 0.0);
    EXPECT_DOUBLE_EQ(paths.lc_cost(v, v), 0.0);
  }
}

TEST(AllPairsPaths, NumNodes) {
  const Graph g = test::line(7);
  const AllPairsPaths paths(g);
  EXPECT_EQ(paths.num_nodes(), 7);
}

class AllPairsProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AllPairsProperty, SymmetricAndConsistent) {
  const auto topo = test::random_topology(GetParam(), 25);
  const Graph& g = topo.graph;
  const AllPairsPaths paths(g);
  for (NodeId u = 0; u < g.num_nodes(); u += 3) {
    for (NodeId v = 0; v < g.num_nodes(); v += 5) {
      EXPECT_NEAR(paths.sl_delay(u, v), paths.sl_delay(v, u), 1e-9);
      EXPECT_NEAR(paths.lc_cost(u, v), paths.lc_cost(v, u), 1e-9);
      // The least-cost path can never have lower delay-optimality than the
      // shortest-delay path and vice versa.
      const auto slp = paths.sl_path(u, v);
      const auto lcp = paths.lc_path(u, v);
      EXPECT_LE(path_weight(g, slp, Metric::kDelay),
                path_weight(g, lcp, Metric::kDelay) + 1e-9);
      EXPECT_LE(path_weight(g, lcp, Metric::kCost),
                path_weight(g, slp, Metric::kCost) + 1e-9);
    }
  }
}

TEST_P(AllPairsProperty, PathsAgreeWithDistances) {
  const auto topo = test::random_topology(GetParam(), 20);
  const Graph& g = topo.graph;
  const AllPairsPaths paths(g);
  for (NodeId u = 0; u < g.num_nodes(); u += 4) {
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      EXPECT_NEAR(path_weight(g, paths.sl_path(u, v), Metric::kDelay),
                  paths.sl_delay(u, v), 1e-9);
      EXPECT_NEAR(path_weight(g, paths.lc_path(u, v), Metric::kCost),
                  paths.lc_cost(u, v), 1e-9);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AllPairsProperty,
                         ::testing::Values(3, 11, 99, 2024));

/// Reference all-pairs distances by Floyd-Warshall.
std::vector<std::vector<double>> floyd_warshall(const Graph& g,
                                                Metric metric) {
  const auto n = static_cast<std::size_t>(g.num_nodes());
  std::vector<std::vector<double>> d(n, std::vector<double>(n, kUnreachable));
  for (std::size_t v = 0; v < n; ++v) d[v][v] = 0.0;
  for (NodeId u = 0; u < g.num_nodes(); ++u)
    for (const auto& nb : g.neighbors(u))
      d[static_cast<std::size_t>(u)][static_cast<std::size_t>(nb.to)] =
          weight_of(nb.attr, metric);
  for (std::size_t k = 0; k < n; ++k)
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < n; ++j)
        d[i][j] = std::min(d[i][j], d[i][k] + d[k][j]);
  return d;
}

class FloydWarshallCrossCheck
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FloydWarshallCrossCheck, DistancesAgree) {
  const auto topo = test::random_topology(GetParam(), 22);
  const Graph& g = topo.graph;
  const AllPairsPaths paths(g);
  const auto fw_delay = floyd_warshall(g, Metric::kDelay);
  const auto fw_cost = floyd_warshall(g, Metric::kCost);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      ASSERT_NEAR(paths.sl_delay(u, v),
                  fw_delay[static_cast<std::size_t>(u)]
                          [static_cast<std::size_t>(v)],
                  1e-6);
      ASSERT_NEAR(paths.lc_cost(u, v),
                  fw_cost[static_cast<std::size_t>(u)]
                         [static_cast<std::size_t>(v)],
                  1e-6);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FloydWarshallCrossCheck,
                         ::testing::Values(4, 44, 444));

// ---------------------------------------------------------------------------
// First hops: the unicast routing half of the store.
// ---------------------------------------------------------------------------

TEST(AllPairsPaths, NextHopOnLine) {
  const Graph g = test::line(4);
  const AllPairsPaths paths(g);
  EXPECT_EQ(paths.next_hop(0, 3), 1);
  EXPECT_EQ(paths.next_hop(1, 3), 2);
  EXPECT_EQ(paths.next_hop(3, 0), 2);
  EXPECT_EQ(paths.next_hop(2, 2), 2);  // self
}

TEST(AllPairsPaths, DistancesMatchDijkstra) {
  const Graph g = test::diamond();
  const AllPairsPaths paths(g);
  EXPECT_DOUBLE_EQ(paths.sl_delay(0, 3), 2.0);
  EXPECT_DOUBLE_EQ(paths.sl_delay(3, 0), 2.0);
  EXPECT_EQ(paths.next_hop(0, 3), 1);  // delay-shortest route
}

TEST(AllPairsPaths, RpfNeighborIsTowardSource) {
  // DVMRP's RPF neighbour at a router is its first hop toward the source.
  const Graph g = test::line(5);
  const AllPairsPaths paths(g);
  EXPECT_EQ(paths.next_hop(4, 0), 3);
  EXPECT_EQ(paths.next_hop(1, 0), 0);
}

class RoutingProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RoutingProperty, NextHopChainsReachDestination) {
  const auto topo = test::random_topology(GetParam(), 30);
  const Graph& g = topo.graph;
  const AllPairsPaths paths(g);
  for (NodeId s = 0; s < g.num_nodes(); s += 3) {
    for (NodeId d = 0; d < g.num_nodes(); d += 2) {
      NodeId cur = s;
      int hops = 0;
      while (cur != d) {
        const NodeId next = paths.next_hop(cur, d);
        ASSERT_TRUE(g.has_edge(cur, next));
        cur = next;
        ASSERT_LE(++hops, g.num_nodes());
      }
    }
  }
}

TEST_P(RoutingProperty, NextHopDecreasesDistance) {
  const auto topo = test::random_topology(GetParam(), 30);
  const Graph& g = topo.graph;
  const AllPairsPaths paths(g);
  for (NodeId s = 0; s < g.num_nodes(); ++s) {
    for (NodeId d = 0; d < g.num_nodes(); ++d) {
      if (s == d) continue;
      const NodeId next = paths.next_hop(s, d);
      const EdgeAttr* e = g.edge(s, next);
      ASSERT_NE(e, nullptr);
      EXPECT_NEAR(paths.sl_delay(s, d), e->delay + paths.sl_delay(next, d),
                  1e-9);
    }
  }
}

/// Fails `removals` random links one after another, keeping the topology
/// connected as Network::fail_link requires, and after each failure holds
/// the incrementally updated store, first hops included, to a fresh build
/// on the residual graph.
void expect_removals_match_fresh(Graph g, std::uint64_t seed, int removals) {
  AllPairsPaths paths(g);
  Rng rng(seed);
  int done = 0;
  for (int attempt = 0; done < removals && attempt < 100 * removals;
       ++attempt) {
    const auto u = static_cast<NodeId>(rng.uniform_int(0, g.num_nodes() - 1));
    const auto& nbs = g.neighbors(u);
    if (nbs.empty()) continue;
    const auto pick = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(nbs.size()) - 1));
    const NodeId v = nbs[pick].to;
    Graph probe = g;
    probe.remove_edge(u, v);
    if (!probe.is_connected()) continue;
    g = std::move(probe);
    paths.apply_link_event(g, u, v);
    ASSERT_NO_FATAL_FAILURE(
        test::expect_paths_identical(paths, AllPairsPaths(g)))
        << "after failing {" << u << ", " << v << "} (failure " << done
        << ")";
    ++done;
  }
  EXPECT_EQ(done, removals);
}

TEST_P(RoutingProperty, RemovalSequenceMatchesFreshBuildOnWaxman) {
  expect_removals_match_fresh(test::random_topology(GetParam(), 30).graph,
                              GetParam() + 1, 8);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RoutingProperty,
                         ::testing::Values(1, 13, 222, 3456));

TEST(AllPairsPaths, RemovalSequenceMatchesFreshBuildOnTransitStub) {
  topo::TransitStubConfig cfg;
  cfg.transit_domains = 3;
  cfg.transit_nodes = 4;
  cfg.stub_domains_per_node = 3;
  cfg.stub_nodes = 4;
  Rng rng(7);
  expect_removals_match_fresh(topo::transit_stub(cfg, rng).graph, 11, 6);
}

TEST(AllPairsPaths, RemovalSequenceMatchesFreshBuildWithZeroDelays) {
  // Zero-delay links make the subtree repair fall back to a full run of the
  // source; the store must come out identical either way.
  expect_removals_match_fresh(test::tie_heavy_graph(5, 30, 45, 0.2), 6, 12);
}

}  // namespace
}  // namespace scmp::graph
