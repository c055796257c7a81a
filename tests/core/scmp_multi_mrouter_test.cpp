// Multiple m-routers per domain (paper §II-A: "An ISP may own more than one
// m-routers ... our approach can be easily extended to multiple m-routers
// per domain"): each group is anchored at one m-router via a published
// static mapping.
#include <gtest/gtest.h>

#include <map>

#include "core/scmp.hpp"
#include "helpers.hpp"

namespace scmp::core {
namespace {

class MultiMRouterFixture {
 public:
  MultiMRouterFixture(graph::Graph graph, std::vector<graph::NodeId> mrouters)
      : g_(std::move(graph)), net_(g_, queue_), igmp_(queue_, g_.num_nodes()) {
    Scmp::Config cfg;
    cfg.mrouters = std::move(mrouters);
    scmp_ = std::make_unique<Scmp>(net_, igmp_, cfg);
    net_.set_delivery_callback(
        [this](const sim::Packet& pkt, graph::NodeId member, sim::SimTime) {
          deliveries_[pkt.group][pkt.uid].push_back(member);
        });
  }

  void drain() { queue_.run_all(); }

  std::vector<graph::NodeId> send_and_collect(graph::NodeId src, int group) {
    const auto before = deliveries_[group].size();
    scmp_->send_data(src, group);
    drain();
    if (deliveries_[group].size() == before) return {};
    auto got = deliveries_[group].rbegin()->second;
    std::sort(got.begin(), got.end());
    return got;
  }

  graph::Graph g_;
  sim::EventQueue queue_;
  sim::Network net_;
  igmp::IgmpDomain igmp_;
  std::unique_ptr<Scmp> scmp_;
  std::map<int, std::map<std::uint64_t, std::vector<graph::NodeId>>>
      deliveries_;
};

TEST(ScmpMultiMRouter, GroupsAnchorPerPublishedMapping) {
  MultiMRouterFixture f(test::line(8), {0, 7});
  EXPECT_EQ(f.scmp_->mrouters(), (std::vector<graph::NodeId>{0, 7}));
  EXPECT_EQ(f.scmp_->mrouter_of(2), 0);  // 2 % 2 == 0
  EXPECT_EQ(f.scmp_->mrouter_of(1), 7);  // 1 % 2 == 1
  EXPECT_EQ(f.scmp_->mrouter(), 0);      // the primary
}

TEST(ScmpMultiMRouter, TreesRootedAtTheirAnchor) {
  MultiMRouterFixture f(test::line(8), {0, 7});
  f.scmp_->host_join(3, 1);  // anchored at 7
  f.scmp_->host_join(4, 2);  // anchored at 0
  f.drain();
  ASSERT_NE(f.scmp_->group_tree(1), nullptr);
  ASSERT_NE(f.scmp_->group_tree(2), nullptr);
  EXPECT_EQ(f.scmp_->group_tree(1)->root(), 7);
  EXPECT_EQ(f.scmp_->group_tree(2)->root(), 0);
  EXPECT_TRUE(f.scmp_->network_state_consistent(1));
  EXPECT_TRUE(f.scmp_->network_state_consistent(2));
}

TEST(ScmpMultiMRouter, DeliveryWorksPerAnchor) {
  const auto topo = test::random_topology(61, 30);
  MultiMRouterFixture f(topo.graph, {0, 1, 2});
  for (int group = 1; group <= 3; ++group) {
    for (graph::NodeId m : {5, 11, 17})
      f.scmp_->host_join(m + group, group);
  }
  f.drain();
  for (int group = 1; group <= 3; ++group) {
    std::vector<graph::NodeId> want{5 + group, 11 + group, 17 + group};
    EXPECT_EQ(f.send_and_collect(25, group), want) << "group " << group;
    EXPECT_TRUE(f.scmp_->network_state_consistent(group));
  }
}

TEST(ScmpMultiMRouter, AnchorActsAsIRouterForOtherGroups) {
  // m-router 7 anchors group 1; for group 2 (anchored at 0) it is an
  // ordinary DR/i-router and may itself be a member.
  MultiMRouterFixture f(test::line(8), {0, 7});
  f.scmp_->host_join(7, 2);
  f.drain();
  EXPECT_NE(f.scmp_->entry_at(7, 2), nullptr);
  EXPECT_EQ(f.send_and_collect(0, 2), (std::vector<graph::NodeId>{7}));
  EXPECT_TRUE(f.scmp_->network_state_consistent(2));
}

TEST(ScmpMultiMRouter, EncapsulationTargetsTheRightAnchor) {
  MultiMRouterFixture f(test::line(8), {0, 7});
  f.scmp_->host_join(6, 1);  // anchored at 7; tree is just 7-6
  f.drain();
  const auto before = f.net_.stats().data_link_crossings;
  // Source 2 is off group 1's tree: the encapsulated packet unicasts all the
  // way to anchor 7 (5 hops, passing m-router 0's region by), then one hop
  // down the tree.
  EXPECT_EQ(f.send_and_collect(2, 1), (std::vector<graph::NodeId>{6}));
  EXPECT_EQ(f.net_.stats().data_link_crossings - before, 5u + 1u);
}

TEST(ScmpMultiMRouter, FailOverMovesOnlyAffectedGroups) {
  const auto topo = test::random_topology(63, 30);
  MultiMRouterFixture f(topo.graph, {0, 1});
  for (graph::NodeId m : {5, 9, 13}) f.scmp_->host_join(m, 1);   // anchor 1
  for (graph::NodeId m : {6, 10, 14}) f.scmp_->host_join(m, 2);  // anchor 0
  f.drain();

  f.scmp_->fail_over(/*failed=*/1, /*standby=*/2);
  f.drain();
  EXPECT_EQ(f.scmp_->mrouters(), (std::vector<graph::NodeId>{0, 2}));
  EXPECT_EQ(f.scmp_->group_tree(1)->root(), 2);   // moved
  EXPECT_EQ(f.scmp_->group_tree(2)->root(), 0);   // untouched
  EXPECT_TRUE(f.scmp_->network_state_consistent(1));
  EXPECT_TRUE(f.scmp_->network_state_consistent(2));
  EXPECT_EQ(f.send_and_collect(20, 1), (std::vector<graph::NodeId>{5, 9, 13}));
  EXPECT_EQ(f.send_and_collect(20, 2),
            (std::vector<graph::NodeId>{6, 10, 14}));
}

TEST(ScmpMultiMRouter, TopologyChangeRebuildsAllAnchors) {
  graph::Graph ring(8);
  for (int i = 0; i < 8; ++i) ring.add_edge(i, (i + 1) % 8, 1, 1);
  MultiMRouterFixture f(std::move(ring), {0, 4});
  f.scmp_->host_join(2, 1);  // anchored at 4
  f.scmp_->host_join(6, 2);  // anchored at 0
  f.drain();
  f.net_.fail_link(3, 4);
  f.drain();
  EXPECT_TRUE(f.scmp_->network_state_consistent(1));
  EXPECT_TRUE(f.scmp_->network_state_consistent(2));
  EXPECT_EQ(f.send_and_collect(4, 1), (std::vector<graph::NodeId>{2}));
  EXPECT_EQ(f.send_and_collect(0, 2), (std::vector<graph::NodeId>{6}));
}

TEST(ScmpMultiMRouterDeath, RejectsDuplicateMRouters) {
  const auto g = test::line(4);
  sim::EventQueue q;
  sim::Network net(g, q);
  igmp::IgmpDomain igmp(q, 4);
  Scmp::Config cfg;
  cfg.mrouters = {0, 0};
  EXPECT_DEATH(Scmp(net, igmp, cfg), "Precondition");
}

TEST(ScmpMultiMRouterDeath, FailOverRequiresKnownMRouter) {
  MultiMRouterFixture f(test::line(4), {0});
  EXPECT_DEATH(f.scmp_->fail_over(2, 3), "Precondition");
}

}  // namespace
}  // namespace scmp::core
