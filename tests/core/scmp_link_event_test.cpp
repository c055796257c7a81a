// Scmp::handle_link_event — the incremental single-link repair path. It must
// leave the m-router in exactly the state on_topology_change() produces
// (same path database bit-for-bit, same trees, same installed network
// state), while recomputing only the dirty Dijkstra sources; and it must
// behave identically with a compute pool registered.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/compute_pool.hpp"
#include "core/scmp.hpp"
#include "helpers.hpp"
#include "igmp/igmp.hpp"
#include "sim/event_queue.hpp"
#include "sim/network.hpp"
#include "topo/arpanet.hpp"

namespace scmp::core {
namespace {

constexpr proto::GroupId kGroup = 1;

struct Fixture {
  explicit Fixture(const graph::Graph& graph)
      : g(graph), net(g, queue), igmp(queue, g.num_nodes()) {
    Scmp::Config cfg;
    cfg.mrouter = 0;
    scmp = std::make_unique<Scmp>(net, igmp, cfg);
  }

  void join_all(const std::vector<graph::NodeId>& members) {
    for (graph::NodeId m : members) scmp->host_join(m, kGroup);
    queue.run_all();
  }

  graph::Graph g;
  sim::EventQueue queue;
  sim::Network net;
  igmp::IgmpDomain igmp;
  std::unique_ptr<Scmp> scmp;
};

void expect_paths_identical(const graph::AllPairsPaths& got,
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
  }
}

/// An on-tree link of the group's current tree (repair is guaranteed to
/// change something), whose removal keeps the topology connected.
std::pair<graph::NodeId, graph::NodeId> pick_tree_link(const Fixture& f) {
  const DcdmTree* tree = f.scmp->group_tree(kGroup);
  EXPECT_NE(tree, nullptr);
  for (const auto& [child, parent] : tree->tree().edges()) {
    graph::Graph probe = f.net.graph();
    probe.remove_edge(child, parent);
    if (probe.is_connected()) return {child, parent};
  }
  ADD_FAILURE() << "no removable on-tree link";
  return {graph::kInvalidNode, graph::kInvalidNode};
}

TEST(ScmpLinkEvent, MatchesFullTopologyChange) {
  Rng rng(3);
  const auto topo = topo::arpanet(rng);
  const std::vector<graph::NodeId> members{5, 17, 29, 41};

  Fixture incremental(topo.graph);
  Fixture full(topo.graph);
  incremental.join_all(members);
  full.join_all(members);

  const auto [u, v] = pick_tree_link(incremental);
  ASSERT_NE(u, graph::kInvalidNode);

  incremental.net.fail_link(u, v);
  const int recomputed = incremental.scmp->handle_link_event(u, v);
  incremental.queue.run_all();

  full.net.fail_link(u, v);
  full.scmp->on_topology_change();
  full.queue.run_all();

  // A failed tree link dirties at least its two endpoints' runs, but never
  // requires every source.
  EXPECT_GE(recomputed, 1);
  EXPECT_LE(recomputed, topo.graph.num_nodes());

  expect_paths_identical(incremental.scmp->paths(), full.scmp->paths());
  expect_paths_identical(incremental.scmp->paths(),
                         graph::AllPairsPaths(incremental.net.graph()));
  ASSERT_NE(incremental.scmp->group_tree(kGroup), nullptr);
  ASSERT_NE(full.scmp->group_tree(kGroup), nullptr);
  EXPECT_EQ(incremental.scmp->group_tree(kGroup)->tree().edges(),
            full.scmp->group_tree(kGroup)->tree().edges());
  EXPECT_TRUE(incremental.scmp->network_state_consistent(kGroup));
}

TEST(ScmpLinkEvent, OffTreeLinkStillRepairsPathDatabase) {
  // Even when the failed link carries no tree edge, the path database must
  // end up identical to a from-scratch rebuild (relay candidates for future
  // joins come from it).
  const auto topo = test::random_topology(6, 30);
  Fixture f(topo.graph);
  f.join_all({3, 9, 21});

  const DcdmTree* tree = f.scmp->group_tree(kGroup);
  ASSERT_NE(tree, nullptr);
  graph::NodeId u = graph::kInvalidNode;
  graph::NodeId v = graph::kInvalidNode;
  for (graph::NodeId a = 0;
       a < topo.graph.num_nodes() && u == graph::kInvalidNode; ++a) {
    for (const auto& nb : topo.graph.neighbors(a)) {
      const bool tree_edge =
          tree->tree().on_tree(a) && tree->tree().on_tree(nb.to) &&
          (tree->tree().parent(a) == nb.to || tree->tree().parent(nb.to) == a);
      if (tree_edge) continue;
      graph::Graph probe = topo.graph;
      probe.remove_edge(a, nb.to);
      if (!probe.is_connected()) continue;
      u = a;
      v = nb.to;
      break;
    }
  }
  ASSERT_NE(u, graph::kInvalidNode) << "no removable off-tree link";

  f.net.fail_link(u, v);
  f.scmp->handle_link_event(u, v);
  f.queue.run_all();
  expect_paths_identical(f.scmp->paths(),
                         graph::AllPairsPaths(f.net.graph()));
  EXPECT_TRUE(f.scmp->network_state_consistent(kGroup));
}

TEST(ScmpLinkEvent, ComputePoolProducesIdenticalState) {
  Rng rng(3);
  const auto topo = topo::arpanet(rng);
  const std::vector<graph::NodeId> members{2, 11, 23, 37, 44};

  for (const int threads : {1, 2, 4, 8}) {
    Fixture pooled(topo.graph);
    Fixture serial(topo.graph);
    pooled.join_all(members);
    serial.join_all(members);

    const core::TreeComputePool pool(threads);
    pooled.scmp->set_compute_pool(&pool);

    const auto [u, v] = pick_tree_link(serial);
    ASSERT_NE(u, graph::kInvalidNode);

    pooled.net.fail_link(u, v);
    pooled.scmp->handle_link_event(u, v);
    pooled.queue.run_all();
    serial.net.fail_link(u, v);
    serial.scmp->handle_link_event(u, v);
    serial.queue.run_all();

    expect_paths_identical(pooled.scmp->paths(), serial.scmp->paths());
    ASSERT_NE(pooled.scmp->group_tree(kGroup), nullptr);
    ASSERT_NE(serial.scmp->group_tree(kGroup), nullptr);
    EXPECT_EQ(pooled.scmp->group_tree(kGroup)->tree().edges(),
              serial.scmp->group_tree(kGroup)->tree().edges())
        << threads << " threads";
    EXPECT_TRUE(pooled.scmp->network_state_consistent(kGroup));

    // on_topology_change with a pool goes through the same executor.
    pooled.scmp->on_topology_change();
    serial.scmp->on_topology_change();
    pooled.queue.run_all();
    serial.queue.run_all();
    expect_paths_identical(pooled.scmp->paths(), serial.scmp->paths());
    EXPECT_EQ(pooled.scmp->group_tree(kGroup)->tree().edges(),
              serial.scmp->group_tree(kGroup)->tree().edges())
        << threads << " threads";
  }
}

}  // namespace
}  // namespace scmp::core
