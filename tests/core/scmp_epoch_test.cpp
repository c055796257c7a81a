// Epoch-batched membership (Scmp::Config::epoch_interval): the batched
// pipeline must be *equivalent* to per-request processing — identical
// database membership and tree member sets and consistent installed state at
// every quiescent point, full invariant catalog clean in both worlds. An
// epoch close installs only the tree diff: no TREE packets, CLEARs exactly where edges went away. Plus the
// join-leave burst regressions: a JOIN immediately followed by a LEAVE of
// the same member must converge to the no-member fixpoint with no orphan
// installed state on either path (per-request, and net-resolved at the
// epoch close), a leaf that leaves and rejoins inside one epoch is
// reinstalled, and a lossy join storm must drain the retransmission table
// back to zero.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <vector>

#include "core/scmp.hpp"
#include "helpers.hpp"
#include "igmp/igmp.hpp"
#include "sim/event_queue.hpp"
#include "sim/network.hpp"
#include "topo/workload.hpp"
#include "util/rng.hpp"
#include "verify/auditor.hpp"
#include "verify/snapshot.hpp"

namespace scmp::core {
namespace {

struct Fixture {
  explicit Fixture(const graph::Graph& graph, Scmp::Config cfg = {})
      : g(graph), net(g, queue), igmp(queue, g.num_nodes()) {
    cfg.mrouter = 0;
    scmp = std::make_unique<Scmp>(net, igmp, cfg);
  }

  void drain() { queue.run_all(); }

  graph::Graph g;
  sim::EventQueue queue;
  sim::Network net;
  igmp::IgmpDomain igmp;
  std::unique_ptr<Scmp> scmp;
};

Scmp::Config config(double epoch_interval) {
  Scmp::Config cfg;
  cfg.epoch_interval = epoch_interval;
  return cfg;
}

/// A deterministic churn stream chunked into bursts: every burst is applied
/// without draining in between, so a batched world folds it into one epoch.
std::vector<std::vector<topo::MemberEvent>> bursts(int num_routers,
                                                   int num_events,
                                                   int burst_size) {
  topo::ZipfChurnConfig cfg;
  cfg.num_groups = 5;
  cfg.num_events = num_events;
  cfg.horizon = 10.0;
  cfg.leave_fraction = 0.4;
  Rng rng(42);
  const std::vector<topo::MemberEvent> events =
      topo::zipf_churn(cfg, num_routers, rng);
  std::vector<std::vector<topo::MemberEvent>> out;
  for (std::size_t i = 0; i < events.size();
       i += static_cast<std::size_t>(burst_size)) {
    out.emplace_back(
        events.begin() + static_cast<std::ptrdiff_t>(i),
        events.begin() +
            static_cast<std::ptrdiff_t>(
                std::min(i + static_cast<std::size_t>(burst_size),
                         events.size())));
  }
  return out;
}

void apply_burst(Fixture& f, const std::vector<topo::MemberEvent>& burst) {
  for (const topo::MemberEvent& ev : burst) {
    if (ev.join)
      f.scmp->host_join(ev.router, ev.group, ev.iface, ev.host);
    else
      f.scmp->host_leave(ev.router, ev.group, ev.iface, ev.host);
  }
  f.drain();
}

std::vector<graph::NodeId> tree_members(const Scmp& scmp, GroupId group) {
  const DcdmTree* tree = scmp.group_tree(group);
  return tree == nullptr ? std::vector<graph::NodeId>{}
                         : tree->tree().members();
}

void expect_no_violations(const Scmp& scmp, const char* what) {
  const verify::InvariantAuditor auditor(scmp);
  for (const verify::Violation& v : auditor.audit())
    ADD_FAILURE() << what << ": " << v.invariant << ": " << v.detail;
}

// ---- equivalence property: batched vs sequential ---------------------------

TEST(ScmpEpoch, BatchedMatchesSequentialAtEveryQuiescentPoint) {
  const auto topo = test::random_topology(17, 30);
  for (const double interval : {0.25, 1.0, 5.0}) {
    Fixture batched(topo.graph, config(interval));
    Fixture sequential(topo.graph, config(0.0));
    int step = 0;
    for (const auto& burst : bursts(topo.graph.num_nodes(), 160, 7)) {
      apply_burst(batched, burst);
      apply_burst(sequential, burst);
      ++step;
      EXPECT_EQ(batched.scmp->epoch_pending(), 0u);
      std::set<GroupId> groups;
      for (GroupId g : batched.scmp->active_groups()) groups.insert(g);
      for (GroupId g : sequential.scmp->active_groups()) groups.insert(g);
      for (GroupId g : groups) {
        EXPECT_EQ(batched.scmp->database().members_of(g),
                  sequential.scmp->database().members_of(g))
            << "interval " << interval << " burst " << step << " group " << g;
        EXPECT_EQ(tree_members(*batched.scmp, g),
                  tree_members(*sequential.scmp, g))
            << "interval " << interval << " burst " << step << " group " << g;
        // The close installs only a diff, so every burst must leave the
        // installed state exactly on the replayed tree.
        EXPECT_TRUE(batched.scmp->network_state_consistent(g))
            << "interval " << interval << " burst " << step << " group " << g;
        EXPECT_TRUE(sequential.scmp->network_state_consistent(g))
            << "interval " << interval << " burst " << step << " group " << g;
      }
    }
    expect_no_violations(*batched.scmp, "batched");
    expect_no_violations(*sequential.scmp, "sequential");
  }
}

// ---- join-leave burst regressions -----------------------------------------

TEST(ScmpEpoch, JoinThenLeaveSameBurstConvergesToNoMemberFixpoint) {
  // Per-request path: the LEAVE chases the JOIN through the m-router, so the
  // tree is built and then torn down — no installed state may survive.
  Fixture f(test::line(5), config(0.0));
  f.scmp->host_join(3, 1);
  f.scmp->host_leave(3, 1);
  f.drain();
  EXPECT_TRUE(f.scmp->database().members_of(1).empty());
  EXPECT_TRUE(tree_members(*f.scmp, 1).empty());
  const verify::GroupSnapshot snap = verify::take_group_snapshot(*f.scmp, 1);
  EXPECT_TRUE(snap.entries.empty()) << "orphan installed state survived";
  expect_no_violations(*f.scmp, "per-request join+leave");
}

TEST(ScmpEpoch, JoinThenLeaveSameEpochNetResolvesToNoOp) {
  // Batched path: both requests land in one epoch; the close net-resolves
  // them (members wanted == members on tree == none) and must not emit any
  // install wave at all.
  Fixture f(test::line(5), config(0.5));
  f.scmp->host_join(3, 1);
  f.scmp->host_leave(3, 1);
  f.drain();
  EXPECT_EQ(f.scmp->epoch_pending(), 0u);
  EXPECT_TRUE(f.scmp->database().members_of(1).empty());
  EXPECT_TRUE(tree_members(*f.scmp, 1).empty());
  const verify::GroupSnapshot snap = verify::take_group_snapshot(*f.scmp, 1);
  EXPECT_TRUE(snap.entries.empty()) << "net no-op still installed state";
  expect_no_violations(*f.scmp, "batched join+leave");
}

TEST(ScmpEpoch, LeafLeaveAndRejoinInOneEpochIsReinstalled) {
  // The DR's PRUNE erases a leaving leaf's installed path at once; when the
  // member rejoins before the close, database and tree membership agree
  // again, so only the recorded LEAVE tells the close to reinstall it.
  Fixture f(test::line(6), config(0.5));
  f.scmp->host_join(3, 1);
  f.scmp->host_join(5, 1);
  f.drain();
  ASSERT_TRUE(f.scmp->network_state_consistent(1));
  f.scmp->host_leave(5, 1);
  f.queue.run_until(f.queue.now() + 0.01);  // PRUNE and LEAVE land
  f.scmp->host_join(5, 1);
  f.drain();
  EXPECT_EQ(tree_members(*f.scmp, 1), (std::vector<graph::NodeId>{3, 5}));
  EXPECT_TRUE(f.scmp->network_state_consistent(1));
  expect_no_violations(*f.scmp, "leaf leave + rejoin in one epoch");
}

// ---- epoch-close install traffic -------------------------------------------

/// Control packets an epoch close puts on the wire, seen at their first hop.
struct CloseTraffic {
  int branch_waves = 0;  ///< BRANCHes leaving the m-router
  int trees = 0;         ///< TREE transmissions, any hop
  /// CLEARs by target: empty = entry drop, else the detached children.
  std::map<graph::NodeId, std::vector<graph::NodeId>> clears;
};

void watch_close(Fixture& f, CloseTraffic& out) {
  const graph::NodeId root = f.scmp->mrouter();
  f.net.add_transmit_observer([&out, root](graph::NodeId from, graph::NodeId,
                                           const sim::Packet& pkt,
                                           sim::SimTime) {
    if (pkt.type == sim::PacketType::kTree) ++out.trees;
    if (from != root) return;
    if (pkt.type == sim::PacketType::kBranch) ++out.branch_waves;
    if (pkt.type == sim::PacketType::kClear) {
      EXPECT_FALSE(out.clears.contains(pkt.dst)) << "two CLEARs to " << pkt.dst;
      out.clears[pkt.dst] = pkt.path;
    }
  });
}

TEST(ScmpEpoch, CloseWithOneNewMemberSendsOneBranchWave) {
  Fixture f(test::line(6), config(0.5));
  f.scmp->host_join(3, 1);
  f.drain();
  CloseTraffic traffic;
  watch_close(f, traffic);
  f.scmp->host_join(5, 1);
  f.drain();
  EXPECT_EQ(traffic.branch_waves, 1);
  EXPECT_EQ(traffic.trees, 0);
  EXPECT_TRUE(traffic.clears.empty());
  EXPECT_TRUE(f.scmp->network_state_consistent(1));
}

TEST(ScmpEpoch, RestructuringCloseDetachesExactlyTheEdgeDiff) {
  // The paper's Fig. 5: g3 = 5 joining re-parents node 2 from 1 to the root
  // (loop elimination). One join per close, in the paper's order.
  Fixture f(test::paper_fig5_topology(), config(0.5));
  f.scmp->host_join(4, 1);
  f.drain();
  f.scmp->host_join(3, 1);
  f.drain();
  const graph::MulticastTree before = f.scmp->group_tree(1)->tree();
  CloseTraffic traffic;
  watch_close(f, traffic);
  f.scmp->host_join(5, 1);
  f.drain();
  const graph::MulticastTree& after = f.scmp->group_tree(1)->tree();

  // Expected CLEARs from the edge diff: an entry drop per router that left
  // the tree, a detach per surviving router for the children it lost.
  std::map<graph::NodeId, std::vector<graph::NodeId>> want;
  for (graph::NodeId w = 0; w < before.num_nodes(); ++w) {
    if (!before.on_tree(w) || w == before.root()) continue;
    if (!after.on_tree(w)) {
      want[w] = {};
      continue;
    }
    for (graph::NodeId c : before.children(w)) {
      if (!after.on_tree(c) || after.parent(c) != w) want[w].push_back(c);
    }
  }
  EXPECT_EQ(want, (std::map<graph::NodeId, std::vector<graph::NodeId>>{
                      {1, {2}}}));
  EXPECT_EQ(traffic.clears, want);
  EXPECT_EQ(traffic.branch_waves, 1);
  EXPECT_EQ(traffic.trees, 0);
  EXPECT_TRUE(f.scmp->network_state_consistent(1));
  expect_no_violations(*f.scmp, "restructuring close");
}

TEST(ScmpEpoch, CloseCoversTwoJoinsOnOnePathWithOneBranchWave) {
  // 2 and 3 join in one epoch on the line 0-1-2-3. The BRANCH to 3 crosses
  // 2's new edge too, so the close sends no second BRANCH to 2.
  Fixture f(test::line(4), config(0.5));
  CloseTraffic traffic;
  watch_close(f, traffic);
  f.scmp->host_join(2, 1);
  f.scmp->host_join(3, 1);
  f.drain();
  EXPECT_EQ(tree_members(*f.scmp, 1), (std::vector<graph::NodeId>{2, 3}));
  EXPECT_EQ(traffic.branch_waves, 1);
  EXPECT_EQ(traffic.trees, 0);
  EXPECT_TRUE(traffic.clears.empty());
  EXPECT_TRUE(f.scmp->network_state_consistent(1));
  expect_no_violations(*f.scmp, "two joins on one path");
}

// ---- retransmission-table high-water mark under a lossy join storm --------

TEST(ScmpEpoch, RetxTableDrainsToZeroAfterLossyJoinStorm) {
  Rng trng(5);
  const auto topo = topo::waxman_with_degree(40, 3.0, trng);
  Scmp::Config cfg = config(0.0);
  cfg.reliability.enabled = true;
  Fixture f(topo.graph, cfg);

  // Seeded coin drops 30% of control packets at egress; retransmission and
  // the reconciliation sweep must repair everything the storm lost.
  auto loss_rng = std::make_shared<Rng>(99);
  f.net.set_drop_filter(
      [loss_rng](graph::NodeId, graph::NodeId, const sim::Packet&) {
        return loss_rng->chance(0.3);
      });

  for (graph::NodeId r = 1; r <= 30; ++r)
    f.scmp->host_join(r, /*group=*/1, /*iface=*/0, /*host=*/0);
  f.drain();
  EXPECT_GT(f.scmp->retx().pending_hwm(), 0u)
      << "storm never grew the table — the regression guard is inert";

  for (int pass = 0; pass < 64; ++pass) {
    const int repairs = f.scmp->reconcile_all();
    f.drain();
    if (repairs == 0) break;
  }
  EXPECT_EQ(f.scmp->retx().pending_count(), 0u)
      << "pending retransmissions leaked past reconciliation";
  EXPECT_TRUE(f.scmp->network_state_consistent(1));
  expect_no_violations(*f.scmp, "lossy join storm");
}

}  // namespace
}  // namespace scmp::core
