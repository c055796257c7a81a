#include "core/mrouter_node.hpp"

#include <gtest/gtest.h>

#include <map>

#include "helpers.hpp"
#include "topo/arpanet.hpp"

namespace scmp::core {
namespace {

constexpr proto::GroupId kG1 = 1;
constexpr proto::GroupId kG2 = 2;

class MRouterNodeFixture {
 public:
  explicit MRouterNodeFixture(graph::Graph graph, int fabric_ports = 16)
      : g_(std::move(graph)), net_(g_, queue_), igmp_(queue_, g_.num_nodes()) {
    Scmp::Config cfg;
    cfg.mrouter = 0;
    node_ = std::make_unique<MRouterNode>(net_, igmp_, cfg, fabric_ports);
  }

  void drain() { queue_.run_all(); }

  graph::Graph g_;
  sim::EventQueue queue_;
  sim::Network net_;
  igmp::IgmpDomain igmp_;
  std::unique_ptr<MRouterNode> node_;
};

TEST(MRouterNode, FabricSessionPerActiveGroupWithSenders) {
  MRouterNodeFixture f(test::random_topology(4, 25).graph);
  Scmp& scmp = f.node_->protocol();
  for (graph::NodeId m : {3, 7, 11}) scmp.host_join(m, kG1);
  for (graph::NodeId m : {5, 9}) scmp.host_join(m, kG2);
  f.drain();
  // Data from two senders in group 1, one in group 2.
  scmp.send_data(3, kG1);
  scmp.send_data(20, kG1);
  scmp.send_data(9, kG2);
  f.drain();

  const auto sync = f.node_->sync_fabric();
  EXPECT_EQ(sync.sessions_placed, 2);
  EXPECT_TRUE(sync.unplaced.empty());
  EXPECT_TRUE(f.node_->fabric().verify_no_cross_group());

  // Both of group 1's senders land on group 1's output port.
  const int out1 = f.node_->output_port_of(kG1);
  const int out2 = f.node_->output_port_of(kG2);
  EXPECT_NE(out1, out2);
  EXPECT_EQ(f.node_->fabric().route_cell(f.node_->input_port_of(kG1, 3)), out1);
  EXPECT_EQ(f.node_->fabric().route_cell(f.node_->input_port_of(kG1, 20)), out1);
  EXPECT_EQ(f.node_->fabric().route_cell(f.node_->input_port_of(kG2, 9)), out2);
}

TEST(MRouterNode, GroupsWithoutSendersAreSkipped) {
  MRouterNodeFixture f(test::line(5));
  f.node_->protocol().host_join(3, kG1);
  f.drain();
  const auto sync = f.node_->sync_fabric();
  EXPECT_EQ(sync.sessions_placed, 0);
  EXPECT_EQ(f.node_->input_port_of(kG1, 3), -1);
}

TEST(MRouterNode, CapacityOverflowReportsUnplaced) {
  MRouterNodeFixture f(test::random_topology(5, 25).graph, /*fabric_ports=*/2);
  Scmp& scmp = f.node_->protocol();
  scmp.host_join(3, kG1);
  scmp.host_join(5, kG2);
  f.drain();
  scmp.send_data(1, kG1);
  scmp.send_data(2, kG1);
  scmp.send_data(4, kG2);
  f.drain();
  const auto sync = f.node_->sync_fabric();
  // Group 1 occupies both ports; group 2 cannot be placed.
  EXPECT_EQ(sync.sessions_placed, 1);
  EXPECT_EQ(sync.unplaced, std::vector<proto::GroupId>{kG2});
}

TEST(MRouterNode, FailoverAfterLinkEventUsesRepairedPaths) {
  // The failover must build over the protocol's own path database, which
  // the link event patched: a tree built over stale paths would graft
  // across the failed link.
  Rng trng(3);
  const auto topo = topo::arpanet(trng);
  MRouterNodeFixture f(topo.graph);
  Scmp& scmp = f.node_->protocol();
  for (graph::NodeId m : {5, 17, 29, 41, 44}) {
    scmp.host_join(m, kG1);
    if (m % 2 == 1) scmp.host_join(m, kG2);
  }
  f.drain();

  // Fail the first tree link below the m-router's own links whose loss
  // keeps the domain connected. Its upper endpoint becomes the standby: the
  // stale routes from there to the members below the link cross it.
  graph::NodeId u = graph::kInvalidNode;
  graph::NodeId v = graph::kInvalidNode;
  for (const auto& [child, parent] : scmp.group_tree(kG1)->tree().edges()) {
    if (parent == 0) continue;
    graph::Graph probe = topo.graph;
    probe.remove_edge(child, parent);
    if (!probe.is_connected()) continue;
    u = child;
    v = parent;
    break;
  }
  ASSERT_NE(u, graph::kInvalidNode) << "no removable tree link";
  const graph::NodeId standby = v;
  f.net_.fail_link(u, v);
  f.drain();
  scmp.fail_over_to(standby);
  f.drain();

  for (const proto::GroupId g : {kG1, kG2}) {
    for (const auto& [child, parent] : scmp.group_tree(g)->tree().edges()) {
      EXPECT_FALSE((child == u && parent == v) || (child == v && parent == u))
          << "group " << g << " tree crosses the failed link";
    }
    EXPECT_TRUE(scmp.network_state_consistent(g));
  }
}

TEST(MRouterNode, PortSchedulersArePerPortAndPersistent) {
  MRouterNodeFixture f(test::line(5));
  WfqScheduler& s0 = f.node_->port_scheduler(0);
  s0.enqueue(kG1, 1, 1000, 0.0);
  EXPECT_EQ(f.node_->port_scheduler(0).pending(), 1u);  // same object
  EXPECT_EQ(f.node_->port_scheduler(1).pending(), 0u);  // distinct port
}

TEST(MRouterNode, PortSchedulerSharesBandwidthAcrossGroups) {
  MRouterNodeFixture f(test::line(5));
  WfqScheduler& s = f.node_->port_scheduler(3);
  s.set_weight(kG1, 3.0);
  s.set_weight(kG2, 1.0);
  for (std::uint64_t i = 0; i < 20; ++i) {
    s.enqueue(kG1, i, 1000, 0.0);
    s.enqueue(kG2, 100 + i, 1000, 0.0);
  }
  for (int i = 0; i < 16; ++i) s.dequeue();
  const auto& served = s.served_bytes();
  EXPECT_GT(served.at(kG1), 2 * served.at(kG2));
}

TEST(MRouterNodeDeath, SchedulerPortMustExist) {
  MRouterNodeFixture f(test::line(5), /*fabric_ports=*/8);
  EXPECT_DEATH(f.node_->port_scheduler(8), "Precondition");
}

TEST(MRouterNode, FabricTransitDelaysRootForwarding) {
  // Identical domains, one with the fabric transit model enabled: the data
  // that crosses the m-router arrives later by the configured stage delay.
  const graph::Graph g = test::line(4);
  double arrival_plain = -1.0, arrival_transit = -1.0;
  for (const bool with_transit : {false, true}) {
    MRouterNodeFixture f(g);
    Scmp& scmp = f.node_->protocol();
    scmp.host_join(3, kG1);
    f.drain();
    // Prime the sender registry and the fabric, then enable the model.
    scmp.send_data(0, kG1);
    f.drain();
    f.node_->sync_fabric();
    if (with_transit) f.node_->enable_fabric_transit(1e-4);

    double arrival = -1.0;
    f.net_.set_delivery_callback(
        [&](const sim::Packet&, graph::NodeId, sim::SimTime at) {
          arrival = at;
        });
    const double sent = f.queue_.now();
    scmp.send_data(0, kG1);  // the m-router originates: transit applies
    f.drain();
    (with_transit ? arrival_transit : arrival_plain) = arrival - sent;
  }
  ASSERT_GE(arrival_plain, 0.0);
  ASSERT_GE(arrival_transit, 0.0);
  // Through a 16-port fabric the baseline is PN+DN = 14 stages = 1.4 ms.
  EXPECT_NEAR(arrival_transit - arrival_plain, 14e-4, 1e-6);
}

TEST(MRouterNode, SendersAccumulateAcrossSends) {
  MRouterNodeFixture f(test::line(6));
  Scmp& scmp = f.node_->protocol();
  scmp.host_join(3, kG1);
  f.drain();
  scmp.send_data(5, kG1);
  f.drain();
  scmp.send_data(4, kG1);
  f.drain();
  const auto senders = scmp.senders_of(kG1);
  EXPECT_TRUE(senders.contains(5));
  EXPECT_TRUE(senders.contains(4));
}

}  // namespace
}  // namespace scmp::core
