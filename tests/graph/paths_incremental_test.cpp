// Incremental path-store updates: AllPairsPaths::apply_link_event must
// leave the store, first hops included, bit-identical to a from-scratch
// build on the post-event graph, while touching only the dirty sources —
// and, for a failure, re-settling only the subtrees the cut orphans
// (repair_after_removal).
#include "graph/paths.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "helpers.hpp"
#include "obs/metrics.hpp"
#include "topo/arpanet.hpp"
#include "topo/transit_stub.hpp"
#include "util/rng.hpp"

namespace scmp::graph {
namespace {

/// Removes up to `rounds` random edges (keeping the graph connected, like
/// the churn model-checker does), applying each as an incremental event and
/// holding the database to the from-scratch oracle; then restores them.
void churn_edges(Graph g, std::uint64_t seed, int rounds) {
  AllPairsPaths db(g);
  Rng rng(seed);
  std::vector<std::pair<NodeId, NodeId>> removed;
  std::vector<EdgeAttr> attrs;
  for (int i = 0; i < rounds; ++i) {
    const auto u =
        static_cast<NodeId>(rng.uniform_int(0, g.num_nodes() - 1));
    const auto& nbs = g.neighbors(u);
    if (nbs.empty()) continue;
    const auto pick = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(nbs.size()) - 1));
    const NodeId v = nbs[pick].to;
    const EdgeAttr attr = nbs[pick].attr;
    Graph probe = g;
    probe.remove_edge(u, v);
    if (!probe.is_connected()) continue;
    g.remove_edge(u, v);
    const int recomputed = db.apply_link_event(g, u, v);
    EXPECT_GE(recomputed, 0);
    EXPECT_LE(recomputed, g.num_nodes());
    test::expect_paths_identical(db, AllPairsPaths(g));
    removed.emplace_back(u, v);
    attrs.push_back(attr);
  }
  // Links coming back up are the same event in the other direction.
  for (std::size_t i = removed.size(); i-- > 0;) {
    const auto [u, v] = removed[i];
    g.add_edge(u, v, attrs[i].delay, attrs[i].cost);
    db.apply_link_event(g, u, v);
    test::expect_paths_identical(db, AllPairsPaths(g));
  }
}

TEST(PathsIncremental, EdgeChurnMatchesOracleOnArpanet) {
  Rng rng(3);
  churn_edges(topo::arpanet(rng).graph, 17, 12);
}

class PathsIncrementalProperty
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PathsIncrementalProperty, EdgeChurnMatchesOracleOnWaxman) {
  churn_edges(test::random_topology(GetParam(), 30).graph, GetParam() + 1, 8);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PathsIncrementalProperty,
                         ::testing::Values(1u, 5u, 21u));

TEST(PathsIncremental, UnusedHeavyEdgeIsCleanForAllSources) {
  // Triangle where {0, 2} is far heavier than the two-hop detour under both
  // metrics: no canonical tree ever uses it, so failing it must recompute
  // nothing and changing nothing.
  Graph g(3);
  g.add_edge(0, 1, 1, 1);
  g.add_edge(1, 2, 1, 1);
  g.add_edge(0, 2, 10, 10);
  AllPairsPaths db(g);
  g.remove_edge(0, 2);
  EXPECT_EQ(db.apply_link_event(g, 0, 2), 0);
  test::expect_paths_identical(db, AllPairsPaths(g));
}

TEST(PathsIncremental, TieRecanonicalizationIsDetected) {
  // A new edge that ties an existing distance via a smaller parent id must
  // dirty the run even though no distance changes: the canonical parent
  // (minimum id among predecessors achieving the distance) flips.
  Graph g(4);
  g.add_edge(0, 2, 1, 1);
  g.add_edge(2, 3, 1, 1);
  g.add_edge(0, 1, 2, 2);
  AllPairsPaths db(g);
  EXPECT_EQ(db.sl_from(0).parent[3], 2);
  g.add_edge(1, 3, 0, 0);  // dist(0,3) stays 2.0, but now also via parent 1
  db.apply_link_event(g, 1, 3);
  test::expect_paths_identical(db, AllPairsPaths(g));
  EXPECT_EQ(db.sl_from(0).parent[3], 1);
}

// ---------------------------------------------------------------------------
// The subtree repair against fresh runs on tie-heavy graphs.
// ---------------------------------------------------------------------------

bool same_run(const ShortestPaths& got, const ShortestPaths& want) {
  // operator== on the double vectors is exact; inf compares equal for
  // unreachable slots and no field is ever NaN.
  return got.dist == want.dist && got.companion == want.companion &&
         got.parent == want.parent;
}

struct RepairTally {
  int repaired = 0;
  int fallbacks = 0;
};

/// Removes `removals` random edges one at a time (bridges included: a
/// subtree cut off entirely must end unreachable) and after each removal
/// repairs every (source, metric) run — falling back to dijkstra_into when
/// the repair asks for it — and holds it bit-identical to dijkstra_into on
/// the post-removal graph.
RepairTally repair_differential(Graph g, std::uint64_t seed, int removals) {
  Rng rng(seed);
  std::vector<ShortestPaths> runs;
  for (NodeId s = 0; s < g.num_nodes(); ++s)
    for (const Metric m : {Metric::kDelay, Metric::kCost})
      runs.push_back(dijkstra(g, s, m));
  SptRepairScratch scratch;
  RepairTally tally;
  for (int i = 0; i < removals && g.num_edges() > 0; ++i) {
    NodeId u = 0;
    do {
      u = static_cast<NodeId>(rng.uniform_int(0, g.num_nodes() - 1));
    } while (g.neighbors(u).empty());
    const auto& nbs = g.neighbors(u);
    const auto pick = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(nbs.size()) - 1));
    const NodeId v = nbs[pick].to;
    g.remove_edge(u, v);
    for (ShortestPaths& sp : runs) {
      switch (repair_after_removal(g, sp.metric, u, v, sp.dist, sp.companion,
                                   sp.parent, scratch)) {
        case SptRepair::kUnaffected:
          break;
        case SptRepair::kRepaired:
          ++tally.repaired;
          break;
        case SptRepair::kNeedsFullRun:
          ++tally.fallbacks;
          dijkstra_into(g, sp.source, sp.metric, sp);
          break;
      }
      const bool same = same_run(sp, dijkstra(g, sp.source, sp.metric));
      EXPECT_TRUE(same) << "removal " << i << " of {" << u << ", " << v
                        << "}, source " << sp.source << ", metric "
                        << (sp.metric == Metric::kDelay ? "delay" : "cost");
      if (!same) return tally;
    }
  }
  return tally;
}

class RepairTieHeavy : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RepairTieHeavy, IntegerWeightsRepairWithoutFallback) {
  const Graph g = test::tie_heavy_graph(GetParam(), 40, 60);
  const RepairTally tally = repair_differential(g, GetParam() + 100, 35);
  EXPECT_GT(tally.repaired, 0);
  // Every weight is at least 1, so every sum strictly increases.
  EXPECT_EQ(tally.fallbacks, 0);
}

TEST_P(RepairTieHeavy, ZeroDelayEdgesFallBackAndStayIdentical) {
  const Graph g = test::tie_heavy_graph(GetParam(), 40, 60, 0.2);
  const RepairTally tally = repair_differential(g, GetParam() + 100, 35);
  EXPECT_GT(tally.repaired, 0);
  EXPECT_GT(tally.fallbacks, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RepairTieHeavy,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u));

TEST(PathsIncremental, ZeroDelayLinkEventsMatchOracle) {
  // The same graphs through apply_link_event: fallbacks re-run in full and
  // the database stays identical to a rebuild.
  obs::set_metrics_enabled(true);
  const obs::Counter& full_runs = obs::counter("paths.link_event.full_runs");
  const std::uint64_t before = full_runs.value();
  churn_edges(test::tie_heavy_graph(7, 30, 45, 0.2), 8, 10);
  EXPECT_GT(full_runs.value(), before);
  obs::set_metrics_enabled(false);
}

TEST(PathsIncremental, StubLinkFailureResettlesUnderFivePercent) {
  // The membench topology: 624-router transit-stub, topology seed 7.
  topo::TransitStubConfig cfg;
  cfg.transit_domains = 4;
  cfg.transit_nodes = 6;
  cfg.stub_domains_per_node = 5;
  cfg.stub_nodes = 5;
  Rng rng(7);
  Graph g = topo::transit_stub(cfg, rng).graph;
  const int n = g.num_nodes();
  ASSERT_EQ(n, 624);
  // A link of the first stub domain on its gateway's shortest-delay tree:
  // every path into the domain crosses the gateway, so the failure dirties
  // most sources.
  const NodeId base = topo::num_transit_nodes(cfg);
  NodeId gateway = kInvalidNode;
  for (NodeId v = base; v < base + cfg.stub_nodes; ++v)
    for (const Graph::Neighbor& nb : g.neighbors(v))
      if (nb.to < base) gateway = v;
  ASSERT_NE(gateway, kInvalidNode);
  const ShortestPaths from_gateway = dijkstra(g, gateway, Metric::kDelay);
  NodeId u = kInvalidNode;
  NodeId v = kInvalidNode;
  for (NodeId w = base; w < base + cfg.stub_nodes && u == kInvalidNode; ++w) {
    const NodeId p = from_gateway.parent[static_cast<std::size_t>(w)];
    if (w == gateway || p < base || p >= base + cfg.stub_nodes) continue;
    Graph probe = g;
    probe.remove_edge(p, w);
    if (probe.is_connected()) {
      u = p;
      v = w;
    }
  }
  ASSERT_NE(u, kInvalidNode);

  AllPairsPaths db(g);
  obs::set_metrics_enabled(true);
  const obs::Counter& resettled =
      obs::counter("paths.link_event.nodes_resettled");
  const obs::Counter& full_runs = obs::counter("paths.link_event.full_runs");
  const std::uint64_t resettled0 = resettled.value();
  const std::uint64_t full0 = full_runs.value();
  g.remove_edge(u, v);
  const int dirty = db.apply_link_event(g, u, v);
  obs::set_metrics_enabled(false);

  const std::uint64_t full = full_runs.value() - full0;
  const std::uint64_t work =
      resettled.value() - resettled0 + full * static_cast<std::uint64_t>(n);
  EXPECT_GT(dirty, n / 2);  // most sources see the failure ...
  EXPECT_EQ(full, 0u);      // ... yet none re-runs in full ...
  EXPECT_GT(work, 0u);
  // ... and all of them together re-settle at most 5% of n^2 nodes.
  EXPECT_LE(work * 20, static_cast<std::uint64_t>(n) *
                           static_cast<std::uint64_t>(n));
  test::expect_paths_identical(db, AllPairsPaths(g));
}

}  // namespace
}  // namespace scmp::graph
