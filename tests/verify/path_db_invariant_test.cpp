// The path-db-consistent invariant: check_path_db holds an (incrementally
// maintained) AllPairsPaths, first hops included, to a from-scratch build,
// and the churn model-checker — whose link-failure events go through the
// incremental Network::fail_link — audits the network's store at every
// stride.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <string_view>
#include <utility>

#include "helpers.hpp"
#include "verify/churn.hpp"
#include "verify/invariants.hpp"

namespace scmp::verify {
namespace {

TEST(PathDbInvariant, FreshDatabasePasses) {
  const auto topo = test::random_topology(5, 25);
  const graph::AllPairsPaths db(topo.graph);
  std::vector<Violation> out;
  check_path_db(db, topo.graph, out);
  EXPECT_TRUE(out.empty()) << format(out);
}

/// A link on node 0's shortest-delay tree (so its runs and first hops must
/// change when it fails) whose removal keeps the topology connected.
std::pair<graph::NodeId, graph::NodeId> tree_link(const graph::Graph& g) {
  const graph::ShortestPaths sp = graph::dijkstra(g, 0, graph::Metric::kDelay);
  for (const auto& nb : g.neighbors(0)) {
    if (sp.parent[static_cast<std::size_t>(nb.to)] != 0) continue;
    graph::Graph probe = g;
    probe.remove_edge(0, nb.to);
    if (probe.is_connected()) return {0, nb.to};
  }
  ADD_FAILURE() << "node 0 has no removable tree link";
  return {0, 0};
}

TEST(PathDbInvariant, StaleDatabaseIsFlagged) {
  auto topo = test::random_topology(5, 25);
  const graph::AllPairsPaths db(topo.graph);
  // Fail a link without telling the database: the stale runs and the stale
  // first hops must both be caught, under the one invariant.
  const auto [u, v] = tree_link(topo.graph);
  topo.graph.remove_edge(u, v);
  std::vector<Violation> out;
  check_path_db(db, topo.graph, out);
  ASSERT_FALSE(out.empty());
  for (const Violation& viol : out)
    EXPECT_EQ(viol.invariant, kPathDbConsistent);
  const auto reports = [&](std::string_view what) {
    return std::any_of(out.begin(), out.end(), [&](const Violation& viol) {
      return viol.detail.find(what) != std::string::npos;
    });
  };
  EXPECT_TRUE(reports("P_sl run")) << format(out);
  EXPECT_TRUE(reports("first hop of the unicast route")) << format(out);
}

TEST(PathDbInvariant, SizeMismatchIsFlagged) {
  const graph::Graph small = test::line(4);
  const graph::Graph big = test::line(6);
  const graph::AllPairsPaths db(small);
  std::vector<Violation> out;
  check_path_db(db, big, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].invariant, kPathDbConsistent);
}

TEST(PathDbInvariant, RegisteredInCatalog) {
  const auto* end = std::end(kInvariantIds);
  EXPECT_NE(std::find_if(std::begin(kInvariantIds), end,
                         [](const char* id) {
                           return std::string_view(id) == kPathDbConsistent;
                         }),
            end);
}

// Churn scenario with link failures leaning hard on the incremental update:
// every audit stride re-derives a from-scratch AllPairsPaths and requires
// bit-identity with the network's store (plus the whole regular catalog).
TEST(PathDbInvariant, ChurnWithLinkFailuresStaysConsistent) {
  ChurnConfig cfg;
  cfg.topo = ChurnTopo::kArpanet;
  cfg.num_events = 160;
  cfg.num_groups = 3;
  cfg.max_link_failures = 8;
  cfg.audit_stride = 4;
  cfg.event_seed = 12;
  const ChurnModelChecker checker(cfg);
  const CheckOutcome outcome = checker.run();
  EXPECT_TRUE(outcome.ok) << format(outcome.violations);
  EXPECT_GT(outcome.audits, 0);
}

TEST(PathDbInvariant, ChurnOnWaxmanStaysConsistent) {
  ChurnConfig cfg;
  cfg.topo = ChurnTopo::kWaxman;
  cfg.waxman_nodes = 40;
  cfg.num_events = 120;
  cfg.max_link_failures = 6;
  cfg.audit_stride = 5;
  cfg.topo_seed = 4;
  cfg.event_seed = 9;
  const ChurnModelChecker checker(cfg);
  const CheckOutcome outcome = checker.run();
  EXPECT_TRUE(outcome.ok) << format(outcome.violations);
}

}  // namespace
}  // namespace scmp::verify
