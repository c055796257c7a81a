// The SCMP_THREADS environment override for TreeComputePool's automatic
// thread count. Lives in its own binary because it mutates the process
// environment; the other pool tests must not observe a stray override.
#include "core/compute_pool.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <vector>

#include "core/scmp.hpp"
#include "helpers.hpp"
#include "igmp/igmp.hpp"
#include "sim/event_queue.hpp"
#include "sim/network.hpp"

namespace scmp::core {
namespace {

class ComputePoolEnvTest : public ::testing::Test {
 protected:
  void TearDown() override { unsetenv("SCMP_THREADS"); }

  int auto_count() { return TreeComputePool(0).thread_count(); }
};

TEST_F(ComputePoolEnvTest, OverrideSelectsExactCount) {
  setenv("SCMP_THREADS", "3", 1);
  EXPECT_EQ(auto_count(), 3);
  setenv("SCMP_THREADS", "1", 1);
  EXPECT_EQ(auto_count(), 1);
}

TEST_F(ComputePoolEnvTest, ExplicitArgumentBeatsOverride) {
  setenv("SCMP_THREADS", "7", 1);
  EXPECT_EQ(TreeComputePool(2).thread_count(), 2);
}

TEST_F(ComputePoolEnvTest, MalformedOverrideFallsBackToHardware) {
  unsetenv("SCMP_THREADS");
  const int hardware = auto_count();
  EXPECT_GE(hardware, 1);  // hardware_concurrency()==0 degrades to serial
  for (const char* bad : {"", "0", "-4", "abc", "2x", "65537"}) {
    setenv("SCMP_THREADS", bad, 1);
    EXPECT_EQ(auto_count(), hardware) << "SCMP_THREADS=\"" << bad << '"';
  }
}

/// The edges of every group tree after a failover rebuilds four groups on
/// an automatically sized pool.
std::vector<std::vector<std::pair<graph::NodeId, graph::NodeId>>>
auto_pool_rebuild(const graph::Graph& graph) {
  const TreeComputePool pool(0);
  sim::EventQueue queue;
  sim::Network net(graph, queue);
  igmp::IgmpDomain igmp(queue, graph.num_nodes());
  Scmp scmp(net, igmp, Scmp::Config{});
  scmp.set_compute_pool(&pool);
  for (int group = 1; group <= 4; ++group) {
    for (int m = 0; m < 5; ++m)
      scmp.host_join((3 * group + 2 * m - 2) % graph.num_nodes(), group);
  }
  queue.run_all();
  scmp.fail_over_to(1);
  queue.run_all();
  std::vector<std::vector<std::pair<graph::NodeId, graph::NodeId>>> out;
  for (GroupId group : scmp.active_groups())
    out.push_back(scmp.group_tree(group)->tree().edges());
  return out;
}

TEST_F(ComputePoolEnvTest, OverrideDoesNotChangeResults) {
  const auto topo = test::random_topology(9, 20);
  setenv("SCMP_THREADS", "1", 1);
  const auto serial = auto_pool_rebuild(topo.graph);
  setenv("SCMP_THREADS", "5", 1);
  const auto parallel = auto_pool_rebuild(topo.graph);
  ASSERT_EQ(serial.size(), 4u);
  EXPECT_EQ(serial, parallel);
}

}  // namespace
}  // namespace scmp::core
