// Which routers a rebuild or a session teardown CLEARs. A rebuild (failover
// or link event) CLEARs exactly the old tree's routers the new tree drops,
// ascending, neither root; end_group_session CLEARs exactly the current
// tree's routers. Routers that left the tree earlier — here, a branch a
// member's leave pruned — get no CLEAR: their state went with the PRUNE, and
// anything a lost packet left behind is reconciliation's to repair.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/scmp.hpp"
#include "igmp/igmp.hpp"
#include "sim/event_queue.hpp"
#include "sim/network.hpp"

namespace scmp::core {
namespace {

constexpr proto::GroupId kGroup = 1;

/// m-router 0. The unit-weight path 0-1-2-3 carries member 3; the heavier
/// detour 0-6-3 is its route once link 2-3 fails, and the standby 6 reaches
/// it directly. Branch 1-4-5 carried member 5 before it left.
graph::Graph topology() {
  graph::Graph g(7);
  g.add_edge(0, 1, 1, 1);
  g.add_edge(1, 2, 1, 1);
  g.add_edge(2, 3, 1, 1);
  g.add_edge(0, 6, 2, 2);
  g.add_edge(6, 3, 2, 2);
  g.add_edge(1, 4, 1, 1);
  g.add_edge(4, 5, 1, 1);
  return g;
}

struct Fixture {
  Fixture() : net(topology(), queue), igmp(queue, net.graph().num_nodes()) {
    Scmp::Config cfg;
    cfg.mrouter = 0;
    scmp = std::make_unique<Scmp>(net, igmp, cfg);
    // Member 5 joins and leaves, so its branch 4-5 was installed and pruned
    // before the tree {0, 1, 2, 3} is rebuilt or torn down.
    for (graph::NodeId m : {5, 3}) {
      scmp->host_join(m, kGroup);
      queue.run_all();
    }
    scmp->host_leave(5, kGroup);
    queue.run_all();
    EXPECT_EQ(scmp->group_tree(kGroup)->tree().on_tree_nodes(),
              (std::vector<graph::NodeId>{0, 1, 2, 3}));
    // Entry-drop CLEARs, in the order the m-router sends them.
    net.add_transmit_observer([this](graph::NodeId from, graph::NodeId,
                                     const sim::Packet& pkt, sim::SimTime) {
      if (pkt.type == sim::PacketType::kClear && from == pkt.src) {
        EXPECT_TRUE(pkt.path.empty()) << "detach CLEAR to " << pkt.dst;
        clears.push_back(pkt.dst);
      }
    });
  }

  sim::EventQueue queue;
  sim::Network net;
  igmp::IgmpDomain igmp;
  std::unique_ptr<Scmp> scmp;
  std::vector<graph::NodeId> clears;
};

TEST(ScmpClearSet, FailoverClearsOnlyRoutersTheNewTreeDrops) {
  Fixture f;
  f.scmp->fail_over_to(6);
  f.queue.run_all();
  EXPECT_EQ(f.scmp->group_tree(kGroup)->tree().on_tree_nodes(),
            (std::vector<graph::NodeId>{3, 6}));
  // {0, 1, 2, 3} \ {3, 6} \ {0, 6}: the pruned 4 and 5 are not cleared.
  EXPECT_EQ(f.clears, (std::vector<graph::NodeId>{1, 2}));
  EXPECT_TRUE(f.scmp->network_state_consistent(kGroup));
}

TEST(ScmpClearSet, LinkEventClearsOnlyRoutersTheNewTreeDrops) {
  Fixture f;
  f.net.fail_link(2, 3);
  f.queue.run_all();
  EXPECT_EQ(f.scmp->group_tree(kGroup)->tree().on_tree_nodes(),
            (std::vector<graph::NodeId>{0, 3, 6}));
  EXPECT_EQ(f.clears, (std::vector<graph::NodeId>{1, 2}));
  EXPECT_TRUE(f.scmp->network_state_consistent(kGroup));
}

TEST(ScmpClearSet, EndSessionClearsOnlyTheCurrentTree) {
  Fixture f;
  f.scmp->end_group_session(kGroup);
  f.queue.run_all();
  EXPECT_EQ(f.clears, (std::vector<graph::NodeId>{1, 2, 3}));
  EXPECT_TRUE(f.scmp->groups_with_installed_state().empty());
}

}  // namespace
}  // namespace scmp::core
