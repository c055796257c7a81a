// Soft-state reconciliation (Scmp::reconcile_all) at the scale of the live
// state: a pass diffs each group's holders and tree routers, not every
// router; its repairs go out in a fixed order, one BRANCH per missing tree
// edge no other BRANCH crosses; and the entry store's holder index and the
// IGMP membership sweep agree with brute-force scans of the state they
// summarise.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/scmp.hpp"
#include "helpers.hpp"
#include "igmp/igmp.hpp"
#include "obs/metrics.hpp"
#include "sim/event_queue.hpp"
#include "sim/network.hpp"
#include "topo/arpanet.hpp"
#include "util/rng.hpp"

namespace scmp::core {
namespace {

/// One SCMP domain on a given topology.
struct Domain {
  explicit Domain(graph::Graph graph, Scmp::Config cfg = {})
      : g(std::move(graph)), net(g, queue), igmp(queue, g.num_nodes()) {
    cfg.mrouter = 0;
    scmp = std::make_unique<Scmp>(net, igmp, cfg);
  }

  /// Drops the packets `pred` names until the next call.
  template <typename Pred>
  void lose(Pred pred) {
    net.set_drop_filter(
        [pred](graph::NodeId from, graph::NodeId to, const sim::Packet& p) {
          return pred(from, to, p);
        });
  }
  void lose_nothing() { net.set_drop_filter(nullptr); }
  void drain() { queue.run_all(); }

  graph::Graph g;
  sim::EventQueue queue;
  sim::Network net;
  igmp::IgmpDomain igmp;
  std::unique_ptr<Scmp> scmp;
};

/// The scmp.reconcile.routers_checked count one reconcile_all adds, with
/// the pass's return value.
using Pass = std::pair<std::uint64_t, int>;
Pass checked_by_one_pass(Scmp& scmp) {
  obs::set_metrics_enabled(true);
  obs::Counter& checked = obs::counter("scmp.reconcile.routers_checked");
  const std::uint64_t before = checked.value();
  const int actions = scmp.reconcile_all();
  const std::uint64_t after = checked.value();
  obs::set_metrics_enabled(false);
  return {after - before, actions};
}

TEST(ScmpReconcile, PassChecksTreeRoutersAndOrphansNotEveryRouter) {
  // 200 routers, four small groups anchored at router 0 of the line. A
  // pass examines each group's on-tree routers below the root plus its
  // off-tree holders; the full scan examined 200 routers per group.
  Domain d(test::line(200));
  d.scmp->host_join(2, 1);
  d.scmp->host_join(4, 1);  // g1: routers 1..4 below the root
  d.scmp->host_join(7, 2);  // g2: routers 1..7
  d.scmp->host_join(3, 3);  // g3: routers 1..3
  d.drain();
  EXPECT_EQ(checked_by_one_pass(*d.scmp), Pass(14, 0));

  d.scmp->host_join(5, 4);  // g4: routers 1..5
  d.drain();
  EXPECT_EQ(checked_by_one_pass(*d.scmp), Pass(19, 0));

  // 5 leaves and its PRUNE is lost: routers 1..4 keep g4 entries off the
  // now root-only tree. The pass examines those four orphans and CLEARs
  // them.
  d.lose([](graph::NodeId, graph::NodeId, const sim::Packet& p) {
    return p.type == sim::PacketType::kPrune;
  });
  d.scmp->host_leave(5, 4);
  d.drain();
  d.lose_nothing();
  EXPECT_EQ(checked_by_one_pass(*d.scmp), Pass(18, 4));
  d.drain();
  EXPECT_EQ(checked_by_one_pass(*d.scmp), Pass(14, 0));
  EXPECT_EQ(d.scmp->groups_with_installed_state(),
            (std::vector<GroupId>{1, 2, 3}));
}

/// A tree-shaped topology, so every path is unique:
///   0-1-2-3-4, 0-5-6-7, 1-8-9, 6-10-11.
graph::Graph comb() {
  graph::Graph g(12);
  for (const auto& [u, v] : std::vector<std::pair<int, int>>{
           {0, 1}, {1, 2}, {2, 3}, {3, 4}, {0, 5}, {5, 6}, {6, 7}, {1, 8},
           {8, 9}, {6, 10}, {10, 11}})
    g.add_edge(u, v, 1, 1);
  return g;
}

std::string describe(graph::NodeId from, graph::NodeId to,
                     const sim::Packet& p) {
  std::string s = std::string(sim::to_string(p.type)) + " g" +
                  std::to_string(p.group) + " " + std::to_string(from) +
                  "->" + std::to_string(to);
  if (p.type == sim::PacketType::kJoin || p.type == sim::PacketType::kClear)
    s += " dst " + std::to_string(p.dst);
  if (p.type == sim::PacketType::kClear || p.type == sim::PacketType::kBranch)
    s += " v" + std::to_string(p.uid);
  if (!p.path.empty()) {
    s += " [";
    for (std::size_t i = 0; i < p.path.size(); ++i)
      s += (i == 0 ? "" : " ") + std::to_string(p.path[i]);
    s += "]";
  }
  return s;
}

TEST(ScmpReconcile, RepairsGoOutInTheSameOrder) {
  // Lost PRUNEs, BRANCHes and CLEARs leave one group with two orphans, an
  // extra child and two divergent routers, and an ended group with its
  // whole old tree installed. One pass re-solicits the ended group's
  // members, then repairs group by group: the orphans' CLEARs in ascending
  // router order, the detach CLEARs, then the BRANCHes.
  Domain d(comb());
  for (graph::NodeId m : {4, 7, 9}) {
    d.scmp->host_join(m, 1);
    d.drain();
  }
  for (graph::NodeId m : {3, 9}) {
    d.scmp->host_join(m, 2);
    d.drain();
  }

  // g1: 4's PRUNE to 3 is lost, so 2 and 3 keep entries off the tree and 1
  // keeps 2 as a child.
  d.lose([](graph::NodeId from, graph::NodeId, const sim::Packet& p) {
    return p.type == sim::PacketType::kPrune && from == 4;
  });
  d.scmp->host_leave(4, 1);
  d.drain();
  // g1: 11's BRANCH is lost on 6->10, so 10 and 11 hold no entry.
  d.lose([](graph::NodeId from, graph::NodeId to, const sim::Packet& p) {
    return p.type == sim::PacketType::kBranch && from == 6 && to == 10;
  });
  d.scmp->host_join(11, 1);
  d.drain();
  // g2: the session ends and every CLEAR is lost.
  d.lose([](graph::NodeId, graph::NodeId, const sim::Packet& p) {
    return p.type == sim::PacketType::kClear;
  });
  d.scmp->end_group_session(2);
  d.drain();
  d.lose_nothing();

  std::vector<std::string> sent;
  bool recording = true;
  d.net.add_transmit_observer([&](graph::NodeId from, graph::NodeId to,
                                  const sim::Packet& p, sim::SimTime) {
    if (recording) sent.push_back(describe(from, to, p));
  });
  EXPECT_EQ(d.scmp->reconcile_all(), 2 + 4 + 5);
  recording = false;
  EXPECT_EQ(sent, (std::vector<std::string>{
                      "JOIN g2 3->2 dst 0",
                      "JOIN g2 9->8 dst 0",
                      "CLEAR g1 0->1 dst 2 v5",
                      "CLEAR g1 0->1 dst 3 v5",
                      "CLEAR g1 0->1 dst 1 v5 [2]",
                      "BRANCH g1 0->5 v5 [0 5 6 10 11]",
                      "CLEAR g2 0->1 dst 1 v4",
                      "CLEAR g2 0->1 dst 2 v4",
                      "CLEAR g2 0->1 dst 3 v4",
                      "CLEAR g2 0->1 dst 8 v4",
                      "CLEAR g2 0->1 dst 9 v4",
                  }));
  d.drain();
  EXPECT_TRUE(d.scmp->network_state_consistent(1));
  EXPECT_TRUE(d.scmp->network_state_consistent(2));
  EXPECT_EQ(d.scmp->reconcile_all(), 0);
}

TEST(ScmpReconcile, OneLostEdgeIsReinstalledWithOneBranch) {
  // Router 1 relays to relay 2, whose leaves 3, 4 and 5 are the members. A
  // CLEAR that detaches 2 from 1 leaves one tree edge uninstalled, and one
  // BRANCH, to the first member below 2, reinstalls it: the members below
  // 1 do not each get their own.
  graph::Graph g(6);
  for (const auto& [u, v] : std::vector<std::pair<int, int>>{
           {0, 1}, {1, 2}, {2, 3}, {2, 4}, {2, 5}})
    g.add_edge(u, v, 1, 1);
  Domain d(std::move(g));
  for (graph::NodeId m : {3, 4, 5}) {
    d.scmp->host_join(m, 1);
    d.drain();
  }
  const Scmp::Entry* relay = d.scmp->entry_at(1, 1);
  ASSERT_NE(relay, nullptr);
  sim::Packet clear;
  clear.type = sim::PacketType::kClear;
  clear.group = 1;
  clear.src = 0;
  clear.dst = 1;
  clear.uid = relay->version;  // not older than 1's entry: it applies
  clear.path = {2};
  d.scmp->handle_packet(1, clear, 0);
  ASSERT_FALSE(d.scmp->network_state_consistent(1));

  std::vector<std::string> sent;
  bool recording = true;
  d.net.add_transmit_observer([&](graph::NodeId from, graph::NodeId to,
                                  const sim::Packet& p, sim::SimTime) {
    if (recording) sent.push_back(describe(from, to, p));
  });
  EXPECT_EQ(d.scmp->reconcile_all(), 1);
  recording = false;
  EXPECT_EQ(sent, (std::vector<std::string>{"BRANCH g1 0->1 v4 [0 1 2 3]"}));
  d.drain();
  EXPECT_TRUE(d.scmp->network_state_consistent(1));
  EXPECT_EQ(d.scmp->reconcile_all(), 0);
}

TEST(ScmpReconcile, AnEntryListingANonexistentRouterIsDetached) {
  // Packets are input: a BRANCH whose path names a router the network does
  // not have still makes the hop before it list that router downstream.
  // The diff reads it as an extra child, and one pass detaches it.
  Domain d(test::line(3));
  d.scmp->host_join(2, 1);
  d.drain();
  sim::Packet branch;
  branch.type = sim::PacketType::kBranch;
  branch.group = 1;
  branch.src = 0;
  branch.uid = d.scmp->entry_at(1, 1)->version;
  branch.path = {0, 1, 999};
  d.scmp->handle_packet(1, branch, 0);
  ASSERT_TRUE(d.scmp->entry_at(1, 1)->downstream_routers.contains(999));
  EXPECT_FALSE(d.scmp->network_state_consistent(1));

  std::vector<std::string> sent;
  bool recording = true;
  d.net.add_transmit_observer([&](graph::NodeId from, graph::NodeId to,
                                  const sim::Packet& p, sim::SimTime) {
    if (recording) sent.push_back(describe(from, to, p));
  });
  EXPECT_EQ(d.scmp->reconcile_all(), 1);
  recording = false;
  EXPECT_EQ(sent, (std::vector<std::string>{"CLEAR g1 0->1 dst 1 v2 [999]"}));
  d.drain();
  EXPECT_TRUE(d.scmp->network_state_consistent(1));
}

/// The groups some router holds an entry for, by asking every router about
/// every group.
std::vector<GroupId> groups_held(const Scmp& scmp, int groups) {
  std::vector<GroupId> out;
  for (GroupId g = 0; g < groups; ++g) {
    for (graph::NodeId v = 0; v < scmp.net().graph().num_nodes(); ++v) {
      if (scmp.entry_at(v, g) != nullptr) {
        out.push_back(g);
        break;
      }
    }
  }
  return out;
}

/// igmp.member_routers(g) of every group that has members.
std::map<GroupId, std::vector<graph::NodeId>> members_by_group(
    const igmp::IgmpDomain& igmp, int groups) {
  std::map<GroupId, std::vector<graph::NodeId>> out;
  for (GroupId g = 0; g < groups; ++g) {
    auto routers = igmp.member_routers(g);
    if (!routers.empty()) out[g] = std::move(routers);
  }
  return out;
}

TEST(ScmpReconcile, IndexesMatchBruteForceUnderLossyChurn) {
  constexpr int kGroups = 6;
  Rng topo_rng(7);
  const topo::Topology topo = topo::arpanet(topo_rng);
  Scmp::Config cfg;
  cfg.reliability.enabled = true;
  Domain d(topo.graph, cfg);
  Rng rng(2024);
  d.lose([&rng](graph::NodeId, graph::NodeId, const sim::Packet& p) {
    return p.type != sim::PacketType::kData && rng.uniform01() < 0.05;
  });
  const int n = d.g.num_nodes();
  const auto check = [&](int step) {
    EXPECT_EQ(d.scmp->groups_with_installed_state(),
              groups_held(*d.scmp, kGroups))
        << "step " << step;
    EXPECT_EQ(d.igmp.member_routers_by_group(),
              members_by_group(d.igmp, kGroups))
        << "step " << step;
  };
  int link_failures = 0;
  bool failed_over = false;
  for (int step = 0; step < 600; ++step) {
    const auto router = static_cast<graph::NodeId>(rng.uniform_int(0, n - 1));
    const auto group = static_cast<GroupId>(rng.uniform_int(0, kGroups - 1));
    const auto iface = static_cast<int>(rng.uniform_int(0, 1));
    if (rng.uniform01() < 0.55) {
      d.scmp->host_join(router, group, iface, 0);
    } else {
      d.scmp->host_leave(router, group, iface, 0);
    }
    if (step % 150 == 75 && link_failures < 3) {
      // A link whose failure keeps the topology connected.
      for (int tries = 0; tries < 50; ++tries) {
        const auto u = static_cast<graph::NodeId>(rng.uniform_int(0, n - 1));
        if (d.net.graph().neighbors(u).empty()) continue;
        const graph::NodeId v = d.net.graph().neighbors(u).front().to;
        graph::Graph probe = d.net.graph();
        probe.remove_edge(u, v);
        if (!probe.is_connected()) continue;
        d.net.fail_link(u, v);
        ++link_failures;
        break;
      }
    }
    if (step == 300) {
      d.scmp->fail_over_to(1);
      failed_over = true;
    }
    d.queue.run_until(d.queue.now() + 0.01);
    if (step % 50 == 49) d.scmp->reconcile_all();
    if (step % 10 == 9) check(step);
  }
  d.drain();
  check(600);
  d.lose_nothing();
  for (int pass = 0; pass < 5 && d.scmp->reconcile_all() != 0; ++pass)
    d.drain();
  d.drain();
  check(601);
  EXPECT_GT(link_failures, 0);
  EXPECT_TRUE(failed_over);
  EXPECT_GT(d.scmp->retx().retransmissions(), 0u);
  EXPECT_FALSE(d.scmp->groups_with_installed_state().empty());
}

}  // namespace
}  // namespace scmp::core
