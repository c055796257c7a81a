// Large-scale soak tests: bigger domains, more members, more churn than the
// paper's configurations, asserting the global invariants (installed state
// consistency and exactly-once delivery) still hold.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "core/experiment.hpp"
#include "core/scmp.hpp"
#include "helpers.hpp"

namespace scmp::core {
namespace {

constexpr proto::GroupId kGroup = 1;

/// Drains the queue, then runs reconciliation passes until one repairs
/// nothing.
void reconcile_to_fixpoint(Scmp& scmp, sim::EventQueue& queue) {
  queue.run_all();
  for (int pass = 0; pass < 16; ++pass) {
    const int repairs = scmp.reconcile_all();
    queue.run_all();
    if (repairs == 0) return;
  }
  ADD_FAILURE() << "reconciliation found no fixpoint in 16 passes";
}

TEST(Stress, Scmp200NodesWithChurn) {
  const auto topo = test::random_topology(2024, 200, 0.25, 0.15);
  const graph::Graph& g = topo.graph;
  sim::EventQueue queue;
  sim::Network net(g, queue);
  igmp::IgmpDomain igmp(queue, g.num_nodes());
  Scmp::Config cfg;
  cfg.mrouter = 0;
  Scmp scmp(net, igmp, cfg);

  std::map<std::uint64_t, std::multiset<graph::NodeId>> delivered;
  net.set_delivery_callback(
      [&](const sim::Packet& pkt, graph::NodeId member, sim::SimTime) {
        delivered[pkt.uid].insert(member);
      });

  Rng rng(77);
  std::set<graph::NodeId> joined;
  for (int step = 0; step < 300; ++step) {
    const auto v =
        static_cast<graph::NodeId>(rng.uniform_int(1, g.num_nodes() - 1));
    if (joined.contains(v)) {
      scmp.host_leave(v, kGroup);
      joined.erase(v);
    } else {
      scmp.host_join(v, kGroup);
      joined.insert(v);
    }
    if (step % 25 == 24) {
      // Batched (concurrent) operations can race each other's install
      // packets; soft-state reconciliation re-converges the installed state.
      reconcile_to_fixpoint(scmp, queue);
      ASSERT_TRUE(scmp.network_state_consistent(kGroup)) << "step " << step;
    }
  }
  reconcile_to_fixpoint(scmp, queue);
  ASSERT_TRUE(scmp.network_state_consistent(kGroup));

  delivered.clear();
  scmp.send_data(0, kGroup);
  queue.run_all();
  ASSERT_EQ(delivered.size(), 1u);
  const std::multiset<graph::NodeId> want(joined.begin(), joined.end());
  EXPECT_EQ(delivered.begin()->second, want);
}

TEST(Stress, AllProtocolsOn100NodesLargeGroup) {
  const auto topo = test::random_topology(3033, 100, 0.25, 0.2);
  const graph::Graph& g = topo.graph;
  ScenarioConfig cfg;
  cfg.mrouter = 0;
  cfg.data_interval = 0.0;
  Rng rng(90);
  for (int v : rng.sample_without_replacement(g.num_nodes() - 1, 60))
    cfg.members.push_back(v + 1);
  std::multiset<graph::NodeId> want(cfg.members.begin(), cfg.members.end());

  for (const auto kind :
       {ProtocolKind::kScmp, ProtocolKind::kDvmrp, ProtocolKind::kMospf,
        ProtocolKind::kCbt, ProtocolKind::kPimSm}) {
    ScenarioHarness h(kind, g, cfg);
    std::map<std::uint64_t, std::multiset<graph::NodeId>> delivered;
    h.network().set_delivery_callback(
        [&](const sim::Packet& pkt, graph::NodeId member, sim::SimTime) {
          delivered[pkt.uid].insert(member);
        });
    for (graph::NodeId m : cfg.members) h.protocol().host_join(m, cfg.group);
    h.queue().run_all();
    for (int round = 0; round < 2; ++round) {
      delivered.clear();
      h.protocol().send_data(cfg.members.front(), cfg.group);
      h.queue().run_all();
      ASSERT_EQ(delivered.size(), 1u) << to_string(kind);
      ASSERT_EQ(delivered.begin()->second, want)
          << to_string(kind) << " round " << round;
    }
  }
}

TEST(Stress, ManyGroupsManyMRouters) {
  const auto topo = test::random_topology(4044, 100, 0.25, 0.2);
  const graph::Graph& g = topo.graph;
  sim::EventQueue queue;
  sim::Network net(g, queue);
  igmp::IgmpDomain igmp(queue, g.num_nodes());
  Scmp::Config cfg;
  cfg.mrouters = {3, 33, 66, 99};
  Scmp scmp(net, igmp, cfg);

  Rng rng(91);
  constexpr int kGroups = 20;
  std::map<int, std::set<graph::NodeId>> members;
  for (int group = 1; group <= kGroups; ++group) {
    for (int v : rng.sample_without_replacement(g.num_nodes(), 12)) {
      members[group].insert(v);
      scmp.host_join(v, group);
    }
  }
  queue.run_all();
  std::map<std::uint64_t, std::pair<int, std::multiset<graph::NodeId>>> got;
  net.set_delivery_callback(
      [&](const sim::Packet& pkt, graph::NodeId member, sim::SimTime) {
        got[pkt.uid].first = pkt.group;
        got[pkt.uid].second.insert(member);
      });
  for (int group = 1; group <= kGroups; ++group) {
    ASSERT_TRUE(scmp.network_state_consistent(group)) << "group " << group;
    scmp.send_data(*members[group].begin(), group);
  }
  queue.run_all();
  ASSERT_EQ(got.size(), static_cast<std::size_t>(kGroups));
  for (const auto& [uid, record] : got) {
    const std::multiset<graph::NodeId> want(members[record.first].begin(),
                                            members[record.first].end());
    EXPECT_EQ(record.second, want) << "group " << record.first;
  }
}

}  // namespace
}  // namespace scmp::core
