#include "sim/routing.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>

#include "helpers.hpp"
#include "topo/transit_stub.hpp"
#include "util/rng.hpp"

namespace scmp::sim {
namespace {

TEST(UnicastRouting, NextHopOnLine) {
  const auto g = test::line(4);
  const UnicastRouting r(g);
  EXPECT_EQ(r.next_hop(0, 3), 1);
  EXPECT_EQ(r.next_hop(1, 3), 2);
  EXPECT_EQ(r.next_hop(3, 0), 2);
  EXPECT_EQ(r.next_hop(2, 2), 2);  // self
}

TEST(UnicastRouting, DistancesMatchDijkstra) {
  const auto g = test::diamond();
  const UnicastRouting r(g);
  EXPECT_DOUBLE_EQ(r.distance(0, 3), 2.0);
  EXPECT_DOUBLE_EQ(r.distance(3, 0), 2.0);
  EXPECT_EQ(r.next_hop(0, 3), 1);  // delay-shortest route
}

TEST(UnicastRouting, RpfNeighborIsTowardSource) {
  const auto g = test::line(5);
  const UnicastRouting r(g);
  EXPECT_EQ(r.rpf_neighbor(4, 0), 3);
  EXPECT_EQ(r.rpf_neighbor(1, 0), 0);
}

class RoutingProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RoutingProperty, NextHopChainsReachDestination) {
  const auto topo = test::random_topology(GetParam(), 30);
  const graph::Graph& g = topo.graph;
  const UnicastRouting r(g);
  for (graph::NodeId s = 0; s < g.num_nodes(); s += 3) {
    for (graph::NodeId d = 0; d < g.num_nodes(); d += 2) {
      graph::NodeId cur = s;
      int hops = 0;
      while (cur != d) {
        const graph::NodeId next = r.next_hop(cur, d);
        ASSERT_TRUE(g.has_edge(cur, next) || cur == next);
        ASSERT_NE(next, cur);  // progress
        cur = next;
        ASSERT_LE(++hops, g.num_nodes());
      }
    }
  }
}

TEST_P(RoutingProperty, NextHopDecreasesDistance) {
  const auto topo = test::random_topology(GetParam(), 30);
  const graph::Graph& g = topo.graph;
  const UnicastRouting r(g);
  for (graph::NodeId s = 0; s < g.num_nodes(); ++s) {
    for (graph::NodeId d = 0; d < g.num_nodes(); ++d) {
      if (s == d) continue;
      const graph::NodeId next = r.next_hop(s, d);
      const graph::EdgeAttr* e = g.edge(s, next);
      ASSERT_NE(e, nullptr);
      EXPECT_NEAR(r.distance(s, d), e->delay + r.distance(next, d), 1e-9);
    }
  }
}

/// True when two tables hold the same distance for every pair and the same
/// next hop for every reachable one (exact ==: the claim is bit-identity).
bool same_table(const UnicastRouting& got, const UnicastRouting& want,
                std::string& where) {
  for (graph::NodeId s = 0; s < want.num_nodes(); ++s) {
    for (graph::NodeId d = 0; d < want.num_nodes(); ++d) {
      const bool reachable = want.distance(s, d) < graph::kUnreachable;
      if (got.distance(s, d) == want.distance(s, d) &&
          (!reachable || got.next_hop(s, d) == want.next_hop(s, d)))
        continue;
      where = std::to_string(s) + " -> " + std::to_string(d);
      return false;
    }
  }
  return true;
}

/// Fails `removals` random links one after another, keeping the topology
/// connected as Network::fail_link requires, and after each failure holds
/// the incrementally updated table to a fresh build on the residual graph.
void expect_removals_match_fresh(graph::Graph g, std::uint64_t seed,
                                 int removals) {
  UnicastRouting routing(g);
  Rng rng(seed);
  int done = 0;
  for (int attempt = 0; done < removals && attempt < 100 * removals;
       ++attempt) {
    const auto u =
        static_cast<graph::NodeId>(rng.uniform_int(0, g.num_nodes() - 1));
    const auto& nbs = g.neighbors(u);
    if (nbs.empty()) continue;
    const auto pick = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(nbs.size()) - 1));
    const graph::NodeId v = nbs[pick].to;
    graph::Graph probe = g;
    probe.remove_edge(u, v);
    if (!probe.is_connected()) continue;
    g = std::move(probe);
    routing.remove_link(g, u, v);
    std::string where;
    ASSERT_TRUE(same_table(routing, UnicastRouting(g), where))
        << "after failing {" << u << ", " << v << "} (failure " << done
        << "): route " << where;
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

TEST(UnicastRouting, RemovalSequenceMatchesFreshBuildOnTransitStub) {
  topo::TransitStubConfig cfg;
  cfg.transit_domains = 3;
  cfg.transit_nodes = 4;
  cfg.stub_domains_per_node = 3;
  cfg.stub_nodes = 4;
  Rng rng(7);
  expect_removals_match_fresh(topo::transit_stub(cfg, rng).graph, 11, 6);
}

TEST(UnicastRouting, RemovalSequenceMatchesFreshBuildWithZeroDelays) {
  // Zero-delay links make the subtree repair fall back to a full run of the
  // source; the table must come out identical either way.
  expect_removals_match_fresh(test::tie_heavy_graph(5, 30, 45, 0.2), 6, 12);
}

}  // namespace
}  // namespace scmp::sim
