#include "core/compute_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>

#include "core/scmp.hpp"
#include "helpers.hpp"
#include "igmp/igmp.hpp"
#include "sim/event_queue.hpp"
#include "sim/network.hpp"

namespace scmp::core {
namespace {

/// A domain anchored at router 0 holding `count` groups of 2-12 random
/// members each. The constructor drains the joins, then fails the m-router
/// over to router 1, which rebuilds every group tree from the service
/// database on Scmp's one rebuild path, on `pool`'s workers when one is
/// given.
struct Domain {
  Domain(const graph::Graph& graph, int count, std::uint64_t seed,
         const TreeComputePool* pool, DcdmConfig dcdm = DcdmConfig{1.0})
      : net(graph, queue), igmp(queue, graph.num_nodes()) {
    Scmp::Config cfg;
    cfg.dcdm = dcdm;
    scmp = std::make_unique<Scmp>(net, igmp, cfg);
    scmp->set_compute_pool(pool);
    Rng rng(seed);
    for (int group = 1; group <= count; ++group) {
      const int size = static_cast<int>(rng.uniform_int(2, 12));
      for (int v :
           rng.sample_without_replacement(graph.num_nodes() - 1, size))
        scmp->host_join(v + 1, group);
    }
    queue.run_all();
    scmp->fail_over_to(1);
    queue.run_all();
  }

  sim::EventQueue queue;
  sim::Network net;
  igmp::IgmpDomain igmp;
  std::unique_ptr<Scmp> scmp;
};

TEST(TreeComputePool, ThreadCountDefaults) {
  EXPECT_GE(TreeComputePool(0).thread_count(), 1);
  EXPECT_EQ(TreeComputePool(3).thread_count(), 3);
  EXPECT_EQ(TreeComputePool(-5).thread_count(),
            TreeComputePool(0).thread_count());
}

TEST(TreeComputePool, ForEachIndexCoversEveryIndexOnce) {
  const TreeComputePool pool(4);
  std::vector<std::atomic<int>> touched(101);
  pool.for_each_index(101, [&](std::size_t i) { ++touched[i]; });
  for (const auto& t : touched) EXPECT_EQ(t.load(), 1);
}

TEST(TreeComputePool, ForEachIndexEmpty) {
  const TreeComputePool pool(4);
  pool.for_each_index(0, [](std::size_t) { FAIL(); });
}

TEST(TreeComputePool, ForEachIndexFewerItemsThanThreads) {
  const TreeComputePool pool(16);
  std::vector<std::atomic<int>> touched(3);
  pool.for_each_index(3, [&](std::size_t i) { ++touched[i]; });
  for (const auto& t : touched) EXPECT_EQ(t.load(), 1);
}

class PoolDeterminism : public ::testing::TestWithParam<int> {};

TEST_P(PoolDeterminism, ParallelEqualsSerial) {
  const auto topo = test::random_topology(7, 40);
  const graph::Graph& g = topo.graph;
  const Domain serial(g, 24, 99, nullptr);
  const TreeComputePool pool(GetParam());
  const Domain parallel(g, 24, 99, &pool);

  ASSERT_EQ(serial.scmp->active_groups(), parallel.scmp->active_groups());
  for (GroupId group : serial.scmp->active_groups()) {
    const DcdmTree& ta = *serial.scmp->group_tree(group);
    const DcdmTree& tb = *parallel.scmp->group_tree(group);
    EXPECT_DOUBLE_EQ(ta.tree_cost(), tb.tree_cost());
    EXPECT_DOUBLE_EQ(ta.tree_delay(), tb.tree_delay());
    // Structural equality, node by node.
    for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
      ASSERT_EQ(ta.tree().on_tree(v), tb.tree().on_tree(v));
      if (ta.tree().on_tree(v)) {
        EXPECT_EQ(ta.tree().parent(v), tb.tree().parent(v));
        EXPECT_EQ(ta.tree().is_member(v), tb.tree().is_member(v));
      }
    }
    EXPECT_TRUE(parallel.scmp->network_state_consistent(group));
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, PoolDeterminism,
                         ::testing::Values(2, 3, 4, 8, 16));

TEST(TreeComputePool, BuildTreesValidatesEveryTree) {
  const auto topo = test::random_topology(9, 40);
  const TreeComputePool pool(4);
  const Domain d(topo.graph, 16, 5, &pool, DcdmConfig{2.0});
  ASSERT_EQ(d.scmp->active_groups().size(), 16u);
  for (GroupId group : d.scmp->active_groups()) {
    const DcdmTree& t = *d.scmp->group_tree(group);
    EXPECT_TRUE(t.tree().validate(topo.graph));
    for (graph::NodeId m : d.scmp->database().members_of(group))
      EXPECT_TRUE(t.tree().is_member(m));
  }
}

TEST(TreeComputePool, EmptyGroupList) {
  // A pooled rebuild with no sessions builds nothing and sends nothing.
  const auto topo = test::random_topology(9, 20);
  const TreeComputePool pool(4);
  const Domain d(topo.graph, 0, 5, &pool);
  EXPECT_TRUE(d.scmp->active_groups().empty());
  EXPECT_EQ(d.net.stats().protocol_link_crossings, 0u);
}

}  // namespace
}  // namespace scmp::core
