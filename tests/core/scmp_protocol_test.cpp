#include "core/scmp.hpp"

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "helpers.hpp"
#include "obs/metrics.hpp"

namespace scmp::core {
namespace {

constexpr proto::GroupId kGroup = 1;

/// Wires a full SCMP domain on a given topology and tracks data deliveries.
class ScmpFixture {
 public:
  explicit ScmpFixture(graph::Graph graph, graph::NodeId mrouter = 0,
                       Scmp::Config extra = {})
      : g_(std::move(graph)), net_(g_, queue_), igmp_(queue_, g_.num_nodes()) {
    extra.mrouter = mrouter;
    scmp_ = std::make_unique<Scmp>(net_, igmp_, extra);
    net_.set_delivery_callback(
        [this](const sim::Packet& pkt, graph::NodeId member, sim::SimTime) {
          deliveries_[pkt.uid].push_back(member);
        });
  }

  void join(graph::NodeId r) { scmp_->host_join(r, kGroup); }
  void leave(graph::NodeId r) { scmp_->host_leave(r, kGroup); }
  void drain() { queue_.run_all(); }

  /// Sends one data packet and returns the sorted list of member routers
  /// that received it.
  std::vector<graph::NodeId> send_and_collect(graph::NodeId source) {
    const auto before = deliveries_.size();
    scmp_->send_data(source, kGroup);
    drain();
    EXPECT_LE(deliveries_.size(), before + 1);
    if (deliveries_.size() == before) return {};
    auto got = deliveries_.rbegin()->second;
    std::sort(got.begin(), got.end());
    return got;
  }

  graph::Graph g_;
  sim::EventQueue queue_;
  sim::Network net_;
  igmp::IgmpDomain igmp_;
  std::unique_ptr<Scmp> scmp_;
  std::map<std::uint64_t, std::vector<graph::NodeId>> deliveries_;
};

TEST(ScmpProtocol, SingleJoinInstallsBranch) {
  ScmpFixture f(test::line(4));
  f.join(3);
  f.drain();
  EXPECT_TRUE(f.scmp_->network_state_consistent(kGroup));
  const Scmp::Entry* e = f.scmp_->entry_at(3, kGroup);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->upstream, 2);
  EXPECT_TRUE(e->downstream_routers.empty());
  EXPECT_EQ(f.igmp_.member_ifaces(3, kGroup).size(), 1u);
  // Relay routers 1 and 2 have entries and no member interfaces.
  const Scmp::Entry* relay = f.scmp_->entry_at(1, kGroup);
  ASSERT_NE(relay, nullptr);
  EXPECT_EQ(relay->upstream, 0);
  EXPECT_EQ(relay->downstream_routers, util::FlatSet<graph::NodeId>{2});
  EXPECT_TRUE(f.igmp_.member_ifaces(1, kGroup).empty());
}

TEST(ScmpProtocol, JoinRecordsSessionAndMembership) {
  ScmpFixture f(test::line(4));
  f.join(3);
  f.drain();
  EXPECT_TRUE(f.scmp_->database().session_active(kGroup));
  EXPECT_TRUE(f.scmp_->database().members_of(kGroup).contains(3));
  EXPECT_EQ(f.scmp_->database().billing_events(3), 1);
}

TEST(ScmpProtocol, DataReachesAllMembersExactlyOnce) {
  ScmpFixture f(test::paper_fig5_topology());
  for (graph::NodeId m : {4, 3, 5}) f.join(m);
  f.drain();
  EXPECT_TRUE(f.scmp_->network_state_consistent(kGroup));
  const auto got = f.send_and_collect(0);  // m-router originates
  EXPECT_EQ(got, (std::vector<graph::NodeId>{3, 4, 5}));
}

TEST(ScmpProtocol, OnTreeSourceUsesBidirectionalTree) {
  ScmpFixture f(test::paper_fig5_topology());
  for (graph::NodeId m : {4, 3, 5}) f.join(m);
  f.drain();
  // Member 4 sends: the packet travels up toward the root and down all other
  // branches without passing through an encapsulation step.
  const double encap_before = f.net_.stats().data_overhead;
  const auto got = f.send_and_collect(4);
  EXPECT_EQ(got, (std::vector<graph::NodeId>{3, 4, 5}));
  EXPECT_GT(f.net_.stats().data_overhead, encap_before);
}

TEST(ScmpProtocol, OffTreeSourceEncapsulatesToMRouter) {
  ScmpFixture f(test::line(5));
  f.join(2);
  f.drain();
  // Node 4 is off the tree (tree is 0-1-2): its packet is unicast to the
  // m-router first, crossing 4-3, 3-2, 2-1, 1-0 as encapsulated data, then
  // multicast down 0-1-2.
  const auto got = f.send_and_collect(4);
  EXPECT_EQ(got, (std::vector<graph::NodeId>{2}));
  EXPECT_EQ(f.net_.stats().data_link_crossings, 4u + 2u);
}

TEST(ScmpProtocol, SourceIsAlsoMember) {
  ScmpFixture f(test::paper_fig5_topology());
  for (graph::NodeId m : {4, 3}) f.join(m);
  f.drain();
  const auto got = f.send_and_collect(3);
  EXPECT_EQ(got, (std::vector<graph::NodeId>{3, 4}));
}

TEST(ScmpProtocol, LeavePrunesLeafBranch) {
  ScmpFixture f(test::line(4));
  f.join(3);
  f.drain();
  f.leave(3);
  f.drain();
  EXPECT_TRUE(f.scmp_->network_state_consistent(kGroup));
  EXPECT_EQ(f.scmp_->entry_at(3, kGroup), nullptr);
  EXPECT_EQ(f.scmp_->entry_at(2, kGroup), nullptr);  // relay chain pruned
  EXPECT_EQ(f.scmp_->entry_at(1, kGroup), nullptr);
  EXPECT_FALSE(f.scmp_->database().members_of(kGroup).contains(3));
}

TEST(ScmpProtocol, LeaveOfRelayMemberKeepsForwardingState) {
  ScmpFixture f(test::line(4));
  f.join(2);
  f.join(3);
  f.drain();
  f.leave(2);  // 2 still relays to 3
  f.drain();
  EXPECT_TRUE(f.scmp_->network_state_consistent(kGroup));
  ASSERT_NE(f.scmp_->entry_at(2, kGroup), nullptr);
  const auto got = f.send_and_collect(0);
  EXPECT_EQ(got, (std::vector<graph::NodeId>{3}));
}

TEST(ScmpProtocol, RestructureInstallsFullTree) {
  // The Fig. 5 join sequence: g3's join re-parents node 2, which cannot be
  // expressed as a BRANCH, so the m-router reinstalls whole subtrees.
  // Joins are drained one at a time to pin the paper's g1-then-g2 order
  // (otherwise the shorter unicast delay of g2's JOIN reorders them).
  ScmpFixture f(test::paper_fig5_topology());
  f.join(4);
  f.drain();
  f.join(3);
  f.drain();
  const Scmp::Entry* n1_before = f.scmp_->entry_at(1, kGroup);
  ASSERT_NE(n1_before, nullptr);
  EXPECT_TRUE(n1_before->downstream_routers.contains(2));

  f.join(5);
  f.drain();
  EXPECT_TRUE(f.scmp_->network_state_consistent(kGroup));
  const Scmp::Entry* n1 = f.scmp_->entry_at(1, kGroup);
  ASSERT_NE(n1, nullptr);
  EXPECT_FALSE(n1->downstream_routers.contains(2));  // re-parented away
  const Scmp::Entry* n2 = f.scmp_->entry_at(2, kGroup);
  ASSERT_NE(n2, nullptr);
  EXPECT_EQ(n2->upstream, 0);
  EXPECT_EQ(n2->downstream_routers, (util::FlatSet<graph::NodeId>{3, 5}));

  const auto got = f.send_and_collect(0);
  EXPECT_EQ(got, (std::vector<graph::NodeId>{3, 4, 5}));
}

TEST(ScmpProtocol, AlwaysFullTreeConfig) {
  Scmp::Config cfg;
  cfg.always_full_tree = true;
  ScmpFixture f(test::line(4), 0, cfg);
  f.join(3);
  f.join(2);
  f.drain();
  EXPECT_TRUE(f.scmp_->network_state_consistent(kGroup));
  const auto got = f.send_and_collect(0);
  EXPECT_EQ(got, (std::vector<graph::NodeId>{2, 3}));
}

TEST(ScmpProtocol, MRouterItselfCanBeMember) {
  ScmpFixture f(test::line(3));
  f.join(0);  // a host on the m-router's own subnet
  f.join(2);
  f.drain();
  const auto got = f.send_and_collect(1);  // off-tree source
  EXPECT_EQ(got, (std::vector<graph::NodeId>{0, 2}));
}

TEST(ScmpProtocol, SecondIfaceJoinIsSubnetLocal) {
  ScmpFixture f(test::line(3));
  f.scmp_->host_join(2, kGroup, /*iface=*/0, /*host=*/0);
  f.drain();
  const auto crossings = f.net_.stats().protocol_link_crossings;
  // Paper §III-B: a JOIN goes to the m-router only when the interface is the
  // *only* member interface; a second interface is handled locally.
  f.scmp_->host_join(2, kGroup, /*iface=*/1, /*host=*/1);
  f.drain();
  EXPECT_EQ(f.net_.stats().protocol_link_crossings, crossings);
  EXPECT_TRUE(f.scmp_->network_state_consistent(kGroup));
  ASSERT_NE(f.scmp_->entry_at(2, kGroup), nullptr);
  EXPECT_EQ(f.igmp_.member_ifaces(2, kGroup).size(), 2u);
  EXPECT_EQ(f.scmp_->database().billing_events(2), 1);

  // The same holds at the m-router's own router, where no packet flows ...
  ScmpFixture at_root(test::line(3));
  at_root.scmp_->host_join(0, kGroup, /*iface=*/0, /*host=*/0);
  at_root.scmp_->host_join(0, kGroup, /*iface=*/1, /*host=*/1);
  at_root.drain();
  EXPECT_EQ(at_root.igmp_.member_ifaces(0, kGroup).size(), 2u);
  EXPECT_EQ(at_root.scmp_->database().billing_events(0), 1);

  // ... and for a DR whose first JOIN is still in flight (no entry yet).
  ScmpFixture in_flight(test::line(3));
  in_flight.scmp_->host_join(2, kGroup, /*iface=*/0, /*host=*/0);
  in_flight.scmp_->host_join(2, kGroup, /*iface=*/1, /*host=*/1);
  in_flight.drain();
  EXPECT_TRUE(in_flight.scmp_->network_state_consistent(kGroup));
  EXPECT_EQ(in_flight.igmp_.member_ifaces(2, kGroup).size(), 2u);
  EXPECT_EQ(in_flight.scmp_->database().billing_events(2), 1);
}

TEST(ScmpProtocol, RelayGainingFirstIfaceSendsAccountingJoin) {
  // A pure relay whose subnet gains its first member must inform the
  // m-router even though the tree does not change (paper §III-B).
  ScmpFixture f(test::line(4));
  f.join(3);  // makes 1 and 2 relays
  f.drain();
  const auto crossings = f.net_.stats().protocol_link_crossings;
  f.join(2);
  f.drain();
  EXPECT_GT(f.net_.stats().protocol_link_crossings, crossings);
  EXPECT_TRUE(f.scmp_->database().members_of(kGroup).contains(2));
  EXPECT_TRUE(f.scmp_->network_state_consistent(kGroup));
}

TEST(ScmpProtocol, DrWhoseJoinCrossesABranchStaysOnTheTree) {
  // Router 2's JOIN crosses BRANCH(3) on the wire: the BRANCH makes 2 a
  // relay, and the m-router, finding 2 already on the tree, installs nothing
  // for it. When 3 leaves, 2 must keep its entry because its hosts are still
  // joined.
  ScmpFixture f(test::line(4));
  f.join(3);
  const auto tree_has_3 = [&] {
    const DcdmTree* t = f.scmp_->group_tree(kGroup);
    return t != nullptr && t->tree().is_member(3);
  };
  while (!tree_has_3()) ASSERT_TRUE(f.queue_.run_next());
  ASSERT_EQ(f.scmp_->entry_at(2, kGroup), nullptr);  // BRANCH(3) in flight
  f.join(2);
  f.drain();
  f.leave(3);
  f.drain();
  EXPECT_NE(f.scmp_->entry_at(2, kGroup), nullptr);
  EXPECT_TRUE(f.scmp_->network_state_consistent(kGroup));
  EXPECT_EQ(f.send_and_collect(0), (std::vector<graph::NodeId>{2}));
}

TEST(ScmpProtocol, PartialIfaceLeaveKeepsMembership) {
  ScmpFixture f(test::line(3));
  f.scmp_->host_join(2, kGroup, 0, 0);
  f.scmp_->host_join(2, kGroup, 1, 1);
  f.drain();
  f.scmp_->host_leave(2, kGroup, 0, 0);
  f.drain();
  EXPECT_TRUE(f.scmp_->network_state_consistent(kGroup));
  const auto got = f.send_and_collect(0);
  EXPECT_EQ(got, (std::vector<graph::NodeId>{2}));
}

TEST(ScmpProtocol, EndGroupSessionTearsDownEverything) {
  ScmpFixture f(test::line(4));
  f.join(2);
  f.join(3);
  f.drain();
  f.scmp_->end_group_session(kGroup);
  f.drain();
  for (graph::NodeId v = 0; v < 4; ++v)
    EXPECT_EQ(f.scmp_->entry_at(v, kGroup), nullptr);
  EXPECT_FALSE(f.scmp_->database().session_active(kGroup));
  // Data after teardown reaches nobody.
  EXPECT_TRUE(f.send_and_collect(0).empty());
}

TEST(ScmpProtocol, SendersAreRecordedOnlyForLiveSessions) {
  // end_group_session is the only code that forgets a group's senders, so
  // data to a group with no session must not record one: each DATA_ENCAP
  // to a sessionless group would otherwise leave an entry forever.
  ScmpFixture f(test::line(4));
  EXPECT_TRUE(f.send_and_collect(3).empty());  // no session yet
  EXPECT_TRUE(f.scmp_->senders_of(kGroup).empty());

  f.join(2);
  f.drain();
  EXPECT_EQ(f.send_and_collect(3), (std::vector<graph::NodeId>{2}));
  EXPECT_EQ(f.scmp_->senders_of(kGroup), std::set<graph::NodeId>{3});

  f.scmp_->end_group_session(kGroup);
  f.drain();
  EXPECT_TRUE(f.scmp_->senders_of(kGroup).empty());
  EXPECT_TRUE(f.send_and_collect(3).empty());  // after the session ended
  EXPECT_TRUE(f.scmp_->senders_of(kGroup).empty());
}

TEST(ScmpProtocol, IdleSessionExpiresPerPolicy) {
  // NOTE: drain() (run_all) would execute the *future* expiry event too, so
  // these tests advance simulated time explicitly with run_until.
  ScmpFixture f(test::line(4));
  f.scmp_->set_session_idle_expiry(5.0);
  f.join(3);
  f.queue_.run_until(1.0);
  f.leave(3);
  f.queue_.run_until(2.0);
  EXPECT_TRUE(f.scmp_->database().session_active(kGroup));  // within grace
  f.queue_.run_until(10.0);
  EXPECT_FALSE(f.scmp_->database().session_active(kGroup));
  EXPECT_EQ(f.scmp_->group_tree(kGroup), nullptr);
}

TEST(ScmpProtocol, RejoinCancelsSessionExpiry) {
  ScmpFixture f(test::line(4));
  f.scmp_->set_session_idle_expiry(5.0);
  f.join(3);
  f.queue_.run_until(1.0);
  f.leave(3);
  f.queue_.run_until(3.0);
  f.join(2);  // rejoin inside the grace period
  f.queue_.run_until(20.0);
  EXPECT_TRUE(f.scmp_->database().session_active(kGroup));
  EXPECT_EQ(f.send_and_collect(0), (std::vector<graph::NodeId>{2}));
}

TEST(ScmpProtocol, ChurnedAndReEmptiedSessionStillExpiresEventually) {
  ScmpFixture f(test::line(4));
  f.scmp_->set_session_idle_expiry(3.0);
  f.join(3);
  f.queue_.run_until(1.0);
  f.leave(3);
  f.queue_.run_until(2.0);
  f.join(2);
  f.queue_.run_until(2.5);
  f.leave(2);  // empties again; a fresh grace period starts
  // The first grace (ends t=4) is cancelled by the churn; the second
  // (ends t=5.5) fires.
  f.queue_.run_until(4.5);
  EXPECT_TRUE(f.scmp_->database().session_active(kGroup));
  f.queue_.run_until(10.0);
  EXPECT_FALSE(f.scmp_->database().session_active(kGroup));
}

TEST(ScmpProtocol, LeaveAfterSessionEndRecreatesNothing) {
  // The LEAVE of a member whose session already ended finds no session: the
  // m-router counts and drops it, logs no membership change and keeps no
  // tree.
  ScmpFixture f(test::line(4));
  obs::set_metrics_enabled(true);
  obs::reset_values();
  f.join(3);
  f.drain();
  f.scmp_->end_group_session(kGroup);
  f.drain();
  const std::size_t log_size = f.scmp_->database().membership_log().size();
  f.leave(3);
  f.drain();
  EXPECT_EQ(f.scmp_->group_tree(kGroup), nullptr);
  EXPECT_TRUE(f.scmp_->active_groups().empty());
  EXPECT_EQ(f.scmp_->database().membership_log().size(), log_size);
  EXPECT_EQ(obs::counter("scmp.rx.dropped", "no_session").value(), 1u);
  obs::set_metrics_enabled(false);
}

TEST(ScmpProtocol, SessionOfRootLocalMemberExpires) {
  // The m-router's own host is the session's last member: its leave goes
  // through the same m-router handler as a LEAVE packet, expiry included.
  ScmpFixture f(test::line(3));
  f.scmp_->set_session_idle_expiry(1.0);
  f.join(0);
  f.leave(0);
  f.drain();
  EXPECT_FALSE(f.scmp_->database().session_active(kGroup));
  EXPECT_EQ(f.scmp_->group_tree(kGroup), nullptr);
}

TEST(ScmpProtocol, HistoryBoundStateGaugesCountWhatEachChangeAdds) {
  // Reliable delivery: every control packet a router processes leaves its
  // request uid in that router's dedup set.
  Scmp::Config cfg;
  cfg.reliability.enabled = true;
  ScmpFixture f(test::line(4), /*mrouter=*/0, cfg);
  obs::set_metrics_enabled(true);
  obs::reset_values();
  const auto gauge = [](const char* name) { return obs::gauge(name).value(); };
  f.join(2);  // JOIN at 0, BRANCH at 1 and 2
  f.join(3);  // JOIN at 0, BRANCH at 1, 2 and 3
  f.drain();
  EXPECT_EQ(gauge("scmp.state.seen_requests"), 7.0);
  EXPECT_EQ(gauge("scmp.state.tombstones"), 0.0);
  EXPECT_EQ(gauge("scmp.state.membership_log"), 2.0);
  f.leave(3);  // PRUNE at 2, LEAVE at 0
  f.drain();
  EXPECT_EQ(gauge("scmp.state.seen_requests"), 9.0);
  EXPECT_EQ(gauge("scmp.state.membership_log"), 3.0);
  f.scmp_->end_group_session(kGroup);  // entry-drop CLEARs at 1 and 2
  f.drain();
  EXPECT_EQ(gauge("scmp.state.seen_requests"), 11.0);
  EXPECT_EQ(gauge("scmp.state.tombstones"), 2.0);
  EXPECT_EQ(gauge("scmp.state.membership_log"), 3.0);
  obs::set_metrics_enabled(false);
}

TEST(ScmpProtocol, NoExpiryWhenPolicyDisabled) {
  ScmpFixture f(test::line(4));
  f.join(3);
  f.drain();
  f.leave(3);
  f.drain();
  f.queue_.run_until(f.queue_.now() + 100.0);
  EXPECT_TRUE(f.scmp_->database().session_active(kGroup));
}

TEST(ScmpProtocol, BranchVsTreeOverheadAblation) {
  // always_full_tree must cost at least as much protocol overhead as the
  // BRANCH-based default (§III-E's motivation for BRANCH packets).
  const auto topo = test::random_topology(77, 30);
  double branch_overhead = 0.0, tree_overhead = 0.0;
  for (const bool full_tree : {false, true}) {
    Scmp::Config cfg;
    cfg.always_full_tree = full_tree;
    ScmpFixture f(topo.graph, 0, cfg);
    Rng rng(5);
    for (int v : rng.sample_without_replacement(topo.graph.num_nodes() - 1, 12))
      f.join(v + 1);
    f.drain();
    (full_tree ? tree_overhead : branch_overhead) =
        f.net_.stats().protocol_overhead;
  }
  EXPECT_LE(branch_overhead, tree_overhead);
}

class ScmpChurn : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ScmpChurn, StateStaysConsistentUnderChurn) {
  const auto topo = test::random_topology(GetParam(), 35);
  ScmpFixture f(topo.graph);
  Rng rng(GetParam() * 1000 + 7);
  std::set<graph::NodeId> joined;
  for (int step = 0; step < 120; ++step) {
    const auto v = static_cast<graph::NodeId>(
        rng.uniform_int(1, topo.graph.num_nodes() - 1));
    if (joined.contains(v)) {
      f.leave(v);
      joined.erase(v);
    } else {
      f.join(v);
      joined.insert(v);
    }
    f.drain();
    ASSERT_TRUE(f.scmp_->network_state_consistent(kGroup)) << "step " << step;
  }
  // Everyone still joined hears the data.
  if (!joined.empty()) {
    const auto got = f.send_and_collect(0);
    EXPECT_EQ(got, std::vector(joined.begin(), joined.end()));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScmpChurn,
                         ::testing::Values(1, 2, 3, 50, 51, 52));

}  // namespace
}  // namespace scmp::core
