// Incremental path-database updates: AllPairsPaths::apply_link_event must
// leave the database bit-identical to a from-scratch rebuild on the
// post-event graph, while recomputing only the dirty sources. Also covers
// the parallel rebuild path (one Dijkstra source per compute-pool task),
// which must be bit-identical to the serial one.
#include "graph/paths.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "core/compute_pool.hpp"
#include "helpers.hpp"
#include "topo/arpanet.hpp"
#include "util/rng.hpp"

namespace scmp::graph {
namespace {

void expect_identical(const AllPairsPaths& got, const AllPairsPaths& want) {
  ASSERT_EQ(got.num_nodes(), want.num_nodes());
  for (NodeId s = 0; s < got.num_nodes(); ++s) {
    for (const bool least_cost : {false, true}) {
      const ShortestPaths& x = least_cost ? got.lc_from(s) : got.sl_from(s);
      const ShortestPaths& y = least_cost ? want.lc_from(s) : want.sl_from(s);
      // operator== on the double vectors is exact; inf compares equal for
      // unreachable slots and no field is ever NaN.
      ASSERT_EQ(x.dist, y.dist) << "source " << s;
      ASSERT_EQ(x.companion, y.companion) << "source " << s;
      ASSERT_EQ(x.hops, y.hops) << "source " << s;
      ASSERT_EQ(x.parent, y.parent) << "source " << s;
    }
  }
}

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
    expect_identical(db, AllPairsPaths(g));
    removed.emplace_back(u, v);
    attrs.push_back(attr);
  }
  // Links coming back up are the same event in the other direction.
  for (std::size_t i = removed.size(); i-- > 0;) {
    const auto [u, v] = removed[i];
    g.add_edge(u, v, attrs[i].delay, attrs[i].cost);
    db.apply_link_event(g, u, v);
    expect_identical(db, AllPairsPaths(g));
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
  expect_identical(db, AllPairsPaths(g));
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
  expect_identical(db, AllPairsPaths(g));
  EXPECT_EQ(db.sl_from(0).parent[3], 1);
}

TEST(PathsIncremental, ParallelRebuildBitIdenticalToSerial) {
  const auto topo = test::random_topology(9, 60);
  const AllPairsPaths serial(topo.graph);
  for (int threads : {1, 2, 4, 8}) {
    const core::TreeComputePool pool(threads);
    const AllPairsPaths parallel(topo.graph, pool.parallel_for());
    expect_identical(parallel, serial);
  }
}

TEST(PathsIncremental, ParallelLinkEventBitIdenticalToSerial) {
  auto topo = test::random_topology(9, 60);
  Graph& g = topo.graph;
  AllPairsPaths serial_db(g);
  AllPairsPaths pool_db(g);
  const core::TreeComputePool pool(4);
  const ParallelFor pf = pool.parallel_for();
  const NodeId u = 1;
  const NodeId v = g.neighbors(u).front().to;
  g.remove_edge(u, v);
  const int serial_n = serial_db.apply_link_event(g, u, v);
  const int pool_n = pool_db.apply_link_event(g, u, v, pf);
  EXPECT_EQ(serial_n, pool_n);
  expect_identical(pool_db, serial_db);
  expect_identical(pool_db, AllPairsPaths(g));
}

// Repeated parallel rebuilds over the same database: the TSan preset runs
// this test to prove the one-source-per-task fan-out is race-free (workers
// write disjoint per-source slots and only join at the barrier).
TEST(PathsIncremental, RepeatedParallelRebuildsAreRaceFree) {
  const auto topo = test::random_topology(4, 40);
  AllPairsPaths db(topo.graph);
  const core::TreeComputePool pool(4);
  const ParallelFor pf = pool.parallel_for();
  const AllPairsPaths oracle(topo.graph);
  for (int i = 0; i < 8; ++i) {
    db.rebuild(topo.graph, pf);
  }
  expect_identical(db, oracle);
}

}  // namespace
}  // namespace scmp::graph
