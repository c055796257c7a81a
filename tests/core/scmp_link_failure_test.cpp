// Link-failure repair (the service-centric story applied to failures): the
// link-state substrate reconverges, the m-router alone recomputes and
// reinstalls the group trees that lost an edge, every other tree stays as
// installed, and delivery resumes.
#include <gtest/gtest.h>

#include <map>

#include "core/experiment.hpp"
#include "core/scmp.hpp"
#include "helpers.hpp"

namespace scmp::core {
namespace {

constexpr proto::GroupId kGroup = 1;

graph::Graph ring(int n) {
  graph::Graph g(n);
  for (int i = 0; i < n; ++i) g.add_edge(i, (i + 1) % n, 1, 1);
  return g;
}

class FailureFixture {
 public:
  explicit FailureFixture(graph::Graph graph)
      : g_(std::move(graph)), net_(g_, queue_), igmp_(queue_, g_.num_nodes()) {
    Scmp::Config cfg;
    cfg.mrouter = 0;
    scmp_ = std::make_unique<Scmp>(net_, igmp_, cfg);
    net_.set_delivery_callback(
        [this](const sim::Packet& pkt, graph::NodeId member, sim::SimTime) {
          deliveries_[pkt.uid].push_back(member);
        });
  }

  std::vector<graph::NodeId> send_and_collect(graph::NodeId src) {
    const auto before = deliveries_.size();
    scmp_->send_data(src, kGroup);
    queue_.run_all();
    if (deliveries_.size() == before) return {};
    auto got = deliveries_.rbegin()->second;
    std::sort(got.begin(), got.end());
    return got;
  }

  /// fail_link repairs the path store and calls SCMP's link hook, which
  /// rebuilds the cut trees; draining delivers the reinstall.
  void fail_and_repair(graph::NodeId u, graph::NodeId v) {
    net_.fail_link(u, v);
    queue_.run_all();
  }

  graph::Graph g_;
  sim::EventQueue queue_;
  sim::Network net_;
  igmp::IgmpDomain igmp_;
  std::unique_ptr<Scmp> scmp_;
  std::map<std::uint64_t, std::vector<graph::NodeId>> deliveries_;
};

TEST(ScmpLinkFailure, TreeLinkFailureIsRepaired) {
  FailureFixture f(ring(6));
  f.scmp_->host_join(2, kGroup);
  f.scmp_->host_join(3, kGroup);
  f.queue_.run_all();
  EXPECT_EQ(f.send_and_collect(0), (std::vector<graph::NodeId>{2, 3}));

  // 1-2 carries the branch toward member 2 (canonical path 0-1-2).
  f.fail_and_repair(1, 2);
  EXPECT_TRUE(f.scmp_->network_state_consistent(kGroup));
  EXPECT_EQ(f.send_and_collect(0), (std::vector<graph::NodeId>{2, 3}));
  // The new tree cannot use the dead link.
  const DcdmTree* tree = f.scmp_->group_tree(kGroup);
  for (const auto& [child, parent] : tree->tree().edges())
    EXPECT_TRUE(f.net_.graph().has_edge(child, parent));
}

TEST(ScmpLinkFailure, NonTreeLinkFailureKeepsDelivering) {
  FailureFixture f(ring(6));
  f.scmp_->host_join(1, kGroup);
  f.queue_.run_all();
  f.fail_and_repair(3, 4);  // far from the 0-1 branch
  EXPECT_TRUE(f.scmp_->network_state_consistent(kGroup));
  EXPECT_EQ(f.send_and_collect(0), (std::vector<graph::NodeId>{1}));
}

TEST(ScmpLinkFailure, InFlightDataOverDeadLinkIsDropped) {
  FailureFixture f(ring(6));
  f.scmp_->host_join(2, kGroup);
  f.queue_.run_all();
  // Put a DATA packet on the wire 0 -> 1, then fail the tree link 1-2 under
  // it. The hook's repair leaves the m-router behind the packet, so the
  // packet reaches router 1 while its stale entry still points across the
  // dead interface: it is dropped, not delivered twice nor crashing the
  // router.
  const std::size_t delivered = f.deliveries_.size();
  f.scmp_->send_data(0, kGroup);
  ASSERT_TRUE(f.queue_.run_next());  // router 0 forwards toward 1
  f.net_.fail_link(1, 2);
  f.queue_.run_all();
  EXPECT_EQ(f.deliveries_.size(), delivered);
  EXPECT_GE(f.net_.stats().no_link_drops, 1u);
  // The repair itself went through: the next packet arrives.
  EXPECT_EQ(f.send_and_collect(0), (std::vector<graph::NodeId>{2}));
}

TEST(ScmpLinkFailure, JoinsWorkAfterRepair) {
  FailureFixture f(ring(8));
  f.scmp_->host_join(3, kGroup);
  f.queue_.run_all();
  f.fail_and_repair(2, 3);
  f.scmp_->host_join(5, kGroup);
  f.queue_.run_all();
  EXPECT_TRUE(f.scmp_->network_state_consistent(kGroup));
  EXPECT_EQ(f.send_and_collect(0), (std::vector<graph::NodeId>{3, 5}));
}

TEST(ScmpLinkFailure, MultipleSequentialFailures) {
  const auto topo = test::random_topology(55, 30);
  FailureFixture f(topo.graph);
  Rng rng(56);
  std::vector<graph::NodeId> members;
  for (int v : rng.sample_without_replacement(topo.graph.num_nodes() - 1, 8))
    members.push_back(v + 1);
  for (graph::NodeId m : members) f.scmp_->host_join(m, kGroup);
  f.queue_.run_all();
  std::sort(members.begin(), members.end());

  int failures = 0;
  for (int attempt = 0; attempt < 20 && failures < 3; ++attempt) {
    // Pick a random existing link whose removal keeps the graph connected.
    const auto u = static_cast<graph::NodeId>(
        rng.uniform_int(0, f.net_.graph().num_nodes() - 1));
    if (f.net_.graph().neighbors(u).empty()) continue;
    const auto& nbs = f.net_.graph().neighbors(u);
    const auto v =
        nbs[static_cast<std::size_t>(rng.uniform_int(
               0, static_cast<std::int64_t>(nbs.size()) - 1))].to;
    graph::Graph probe = f.net_.graph();
    probe.remove_edge(u, v);
    if (!probe.is_connected()) continue;
    f.fail_and_repair(u, v);
    ++failures;
    ASSERT_TRUE(f.scmp_->network_state_consistent(kGroup));
    ASSERT_EQ(f.send_and_collect(0), members) << "failure " << failures;
  }
  EXPECT_EQ(failures, 3);
}

TEST(ScmpLinkFailure, MospfAlsoRecoversViaCacheInvalidation) {
  // The baseline comparison: MOSPF recovers too, but by every router
  // recomputing, not just one.
  const graph::Graph g = ring(6);
  ScenarioConfig cfg;
  cfg.mrouter = 0;
  cfg.members = {2, 3};
  cfg.data_interval = 0.0;
  ScenarioHarness h(ProtocolKind::kMospf, g, cfg);
  std::map<std::uint64_t, std::vector<graph::NodeId>> delivered;
  h.network().set_delivery_callback(
      [&](const sim::Packet& pkt, graph::NodeId member, sim::SimTime) {
        delivered[pkt.uid].push_back(member);
      });
  for (graph::NodeId m : cfg.members) h.protocol().host_join(m, cfg.group);
  h.queue().run_all();
  h.network().fail_link(1, 2);  // repairs the SPTs MOSPF forwards along
  h.queue().run_all();
  h.protocol().send_data(0, cfg.group);
  h.queue().run_all();
  ASSERT_EQ(delivered.size(), 1u);
  auto got = delivered.begin()->second;
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, (std::vector<graph::NodeId>{2, 3}));
}

}  // namespace
}  // namespace scmp::core
