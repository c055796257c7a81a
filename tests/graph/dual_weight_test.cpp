// Dual-weight property tests: every Dijkstra run's companion weight must
// describe exactly the canonical path its dist/parent vectors describe —
// bit-identical to re-walking the materialized path with path_weight(),
// because both accumulate edge weights in the same source-to-destination
// order. DCDM's table-lookup candidate scan is only
// equivalent to the old materialize-and-rewalk scan because of this.
#include "graph/dijkstra.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "graph/paths.hpp"
#include "helpers.hpp"
#include "topo/arpanet.hpp"

namespace scmp::graph {
namespace {

void expect_dual_weights_exact(const Graph& g) {
  std::vector<NodeId> buf;
  for (Metric metric : {Metric::kDelay, Metric::kCost}) {
    const Metric comp = companion_of(metric);
    for (NodeId s = 0; s < g.num_nodes(); ++s) {
      const ShortestPaths sp = dijkstra(g, s, metric);
      for (NodeId v = 0; v < g.num_nodes(); ++v) {
        const std::vector<NodeId> path = sp.path_to(v);
        if (!sp.reachable(v)) {
          EXPECT_TRUE(path.empty());
          EXPECT_EQ(sp.companion_distance(v), kUnreachable);
          continue;
        }
        // EXPECT_EQ, not EXPECT_NEAR: the claim is bit-identity, not
        // numerical closeness.
        EXPECT_EQ(sp.distance(v), path_weight(g, path, metric))
            << "source " << s << " dest " << v;
        EXPECT_EQ(sp.companion_distance(v), path_weight(g, path, comp))
            << "source " << s << " dest " << v;
        sp.path_to_into(v, buf);
        EXPECT_EQ(buf, path);
      }
    }
  }
}

TEST(DualWeight, ExactOnArpanet) {
  Rng rng(3);
  expect_dual_weights_exact(topo::arpanet(rng).graph);
}

TEST(DualWeight, ExactOnPaperFig5) {
  expect_dual_weights_exact(test::paper_fig5_topology());
}

class DualWeightProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DualWeightProperty, ExactOnSeededWaxman) {
  expect_dual_weights_exact(test::random_topology(GetParam(), 40).graph);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DualWeightProperty,
                         ::testing::Values(1u, 7u, 13u, 99u, 2026u));

TEST(DualWeight, AllPairsTablesMatchMaterializedPaths) {
  const auto topo = test::random_topology(11, 30);
  const Graph& g = topo.graph;
  const AllPairsPaths paths(g);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      EXPECT_EQ(paths.sl_cost(u, v),
                path_weight(g, paths.sl_path(u, v), Metric::kCost));
      EXPECT_EQ(paths.lc_delay(u, v),
                path_weight(g, paths.lc_path(u, v), Metric::kDelay));
    }
  }
}

TEST(DualWeight, DisconnectedComponentStaysUnreachable) {
  Graph g(4);
  g.add_edge(0, 1, 1, 2);
  g.add_edge(2, 3, 3, 4);
  const ShortestPaths sp = dijkstra(g, 0, Metric::kDelay);
  EXPECT_FALSE(sp.reachable(2));
  EXPECT_EQ(sp.companion_distance(2), kUnreachable);
  std::vector<NodeId> buf{99};
  sp.path_to_into(2, buf);
  EXPECT_TRUE(buf.empty());
}

}  // namespace
}  // namespace scmp::graph
