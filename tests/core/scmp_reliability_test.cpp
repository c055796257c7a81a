// Reliable control-plane delivery (src/core/retx.hpp + Scmp reconciliation):
// unit tests of the retransmission table, the parameterized single-drop
// sweep — every SCMP control packet type lost once at every hop of a
// join/leave/prune/failover/teardown sequence, with the run required to
// converge to the zero-loss fixpoint — and the graceful-degradation path
// where the retry budget runs out and the soft-state reconciliation cycle
// repairs the divergence instead.
#include "core/retx.hpp"

#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <set>
#include <vector>

#include "core/scmp.hpp"
#include "helpers.hpp"
#include "igmp/igmp.hpp"
#include "obs/metrics.hpp"
#include "sim/event_queue.hpp"
#include "sim/network.hpp"
#include "sim/trace.hpp"
#include "topo/arpanet.hpp"
#include "topo/transit_stub.hpp"
#include "util/rng.hpp"

namespace scmp::core {
namespace {

RetxConfig reliable() {
  RetxConfig cfg;
  cfg.enabled = true;
  return cfg;
}

/// First timeout for the table-level tests, which have no network to derive
/// one from.
constexpr double kFirstTimeout = 1.0;

// ---- RetxTable unit tests --------------------------------------------------

TEST(RetxTable, DisabledArmIsANoOp) {
  sim::EventQueue q;
  RetxTable table(q, RetxConfig{});  // enabled = false
  int resends = 0;
  table.arm(3, table.next_req(), kFirstTimeout, [&] { ++resends; });
  q.run_all();
  EXPECT_EQ(table.pending_count(), 0u);
  EXPECT_EQ(resends, 0);
}

TEST(RetxTable, AckBeforeTimeoutRetiresEntryWithoutResend) {
  sim::EventQueue q;
  RetxTable table(q, reliable());
  int resends = 0;
  const std::uint64_t req = table.next_req();
  table.arm(3, req, kFirstTimeout, [&] { ++resends; });
  EXPECT_TRUE(table.pending(3, req));
  table.ack(3, req);
  EXPECT_FALSE(table.pending(3, req));
  q.run_all();  // the armed timer fires as a no-op
  EXPECT_EQ(resends, 0);
  EXPECT_EQ(table.retransmissions(), 0u);
  EXPECT_EQ(table.acked(), 1u);
}

TEST(RetxTable, UnackedRequestBacksOffExponentiallyThenExhausts) {
  sim::EventQueue q;
  RetxTable table(q, reliable());
  std::vector<double> resend_times;
  table.arm(7, table.next_req(), /*first_timeout=*/1.0,
            [&] { resend_times.push_back(q.now()); });
  q.run_all();
  // kRetxMaxRetries retransmissions at t=1, 1+2, 1+2+4, 1+2+4+8; the budget
  // check fires at 1+2+4+8+16.
  static_assert(kRetxMaxRetries == 4);
  ASSERT_EQ(resend_times.size(), 4u);
  EXPECT_DOUBLE_EQ(resend_times[0], 1.0);
  EXPECT_DOUBLE_EQ(resend_times[1], 3.0);
  EXPECT_DOUBLE_EQ(resend_times[2], 7.0);
  EXPECT_DOUBLE_EQ(resend_times[3], 15.0);
  EXPECT_DOUBLE_EQ(q.now(), 31.0);
  EXPECT_EQ(table.retransmissions(), 4u);
  EXPECT_EQ(table.exhausted(), 1u);
  EXPECT_EQ(table.pending_count(), 0u);
}

TEST(RetxTable, LateAndUnknownAcksAreIgnored) {
  sim::EventQueue q;
  RetxTable table(q, reliable());
  const std::uint64_t req = table.next_req();
  table.arm(2, req, kFirstTimeout, [] {});
  table.ack(5, req);    // wrong sender
  table.ack(2, 9999);   // unknown request
  EXPECT_TRUE(table.pending(2, req));
  table.ack(2, req);
  table.ack(2, req);    // duplicate ack
  EXPECT_EQ(table.acked(), 1u);
}

TEST(RetxTable, InstallInFlightUntilAckedOrAbandoned) {
  sim::EventQueue q;
  RetxTable table(q, reliable());
  const std::uint64_t acked = table.next_req();
  const std::uint64_t lost = table.next_req();
  table.arm(3, acked, kFirstTimeout, [] {}, /*install_of=*/7);
  table.arm(4, lost, kFirstTimeout, [] {}, /*install_of=*/7);
  table.arm(4, table.next_req(), kFirstTimeout, [] {});  // not an install
  EXPECT_TRUE(table.install_in_flight(7));
  EXPECT_FALSE(table.install_in_flight(8));
  table.ack(3, acked);
  EXPECT_TRUE(table.install_in_flight(7));  // `lost` is still out
  q.run_all();  // `lost` is resent kRetxMaxRetries times, then abandoned
  EXPECT_EQ(table.exhausted(), 2u);
  EXPECT_FALSE(table.install_in_flight(7));
}

TEST(RetxTable, AcksArrivingNewestFirstDrainTheRing) {
  sim::EventQueue q;
  RetxTable table(q, reliable());
  const auto sender_of = [](std::uint64_t req) {
    return static_cast<graph::NodeId>(req % 3);
  };
  std::vector<std::uint64_t> reqs;
  for (int i = 0; i < 8; ++i) {
    reqs.push_back(table.next_req());
    table.arm(sender_of(reqs.back()), reqs.back(), kFirstTimeout, [] {});
  }
  EXPECT_EQ(table.pending_count(), 8u);
  // Every ack but the last leaves the oldest slot live at the ring's front.
  for (auto it = reqs.rbegin(); it != reqs.rend(); ++it) {
    table.ack(sender_of(*it), *it);
    EXPECT_FALSE(table.pending(sender_of(*it), *it));
  }
  EXPECT_EQ(table.pending_count(), 0u);
  EXPECT_EQ(table.acked(), 8u);
  for (const std::uint64_t req : reqs) table.ack(sender_of(req), req);
  EXPECT_EQ(table.acked(), 8u);
  EXPECT_EQ(table.pending_count(), 0u);
  q.run_all();
  EXPECT_EQ(table.retransmissions(), 0u);
  EXPECT_EQ(table.exhausted(), 0u);
}

TEST(RetxTable, UnackedOldestRequestDoesNotHideNewerOnes) {
  sim::EventQueue q;
  RetxTable table(q, reliable());
  int oldest_resends = 0;
  const std::uint64_t oldest = table.next_req();
  table.arm(1, oldest, kFirstTimeout, [&] { ++oldest_resends; });
  for (int i = 0; i < 5; ++i) {
    const std::uint64_t req = table.next_req();
    table.arm(2, req, kFirstTimeout, [] {});
    EXPECT_TRUE(table.pending(2, req));
    EXPECT_FALSE(table.pending(1, req));
    table.ack(2, req);
    EXPECT_FALSE(table.pending(2, req));
  }
  EXPECT_EQ(table.acked(), 5u);
  EXPECT_EQ(table.pending_count(), 1u);
  EXPECT_TRUE(table.pending(1, oldest));
  q.run_all();
  EXPECT_EQ(oldest_resends, kRetxMaxRetries);
  EXPECT_EQ(table.exhausted(), 1u);
  EXPECT_EQ(table.pending_count(), 0u);
  EXPECT_FALSE(table.pending(1, oldest));
}

TEST(RetxTableDeath, ArmRejectsUnmintedAndOutOfOrderIds) {
  sim::EventQueue q;
  RetxTable table(q, reliable());
  const std::uint64_t first = table.next_req();
  const std::uint64_t second = table.next_req();
  // Never minted by this table.
  EXPECT_DEATH(table.arm(1, second + 1, kFirstTimeout, [] {}),
               "Precondition");
  table.arm(1, second, kFirstTimeout, [] {});
  // Minted, but below an armed id.
  EXPECT_DEATH(table.arm(1, first, kFirstTimeout, [] {}), "Precondition");
}

TEST(RetxTable, RequestUidsAreNeverZero) {
  sim::EventQueue q;
  RetxTable table(q, reliable());
  EXPECT_NE(table.next_req(), 0u);
  EXPECT_NE(table.next_req(), table.next_req());
}

// ---- protocol-level fixture ------------------------------------------------

using MakeTopology = topo::Topology (*)(Rng&);

struct World {
  explicit World(Scmp::Config cfg = {}, MakeTopology make = &topo::arpanet)
      : topo(make(rng)),
        net(topo.graph, queue),
        igmp(queue, topo.graph.num_nodes()),
        scmp(net, igmp, [&] {
          cfg.mrouter = 0;
          return cfg;
        }()),
        recorder(net) {}

  Rng rng{7};
  topo::Topology topo;
  sim::EventQueue queue;
  sim::Network net;
  igmp::IgmpDomain igmp;
  Scmp scmp;
  sim::TraceRecorder recorder;
};

constexpr GroupId kGroup = 0;

/// Strictly sequential membership churn (drain after every operation, so a
/// delayed retransmission can never reorder m-router processing): grows a
/// four-member tree, prunes it down, fails the m-router over to router 1
/// (full TREE rebuild), tears the session down (CLEARs), regrows and empties
/// it. Covers every control packet type.
void run_sequential_scenario(Scmp& scmp, sim::EventQueue& q) {
  auto step = [&](auto&& fn) {
    fn();
    q.run_all();
  };
  step([&] { scmp.host_join(5, kGroup); });
  step([&] { scmp.host_join(12, kGroup); });
  step([&] { scmp.host_join(19, kGroup); });
  step([&] { scmp.host_join(3, kGroup); });
  step([&] { scmp.host_leave(12, kGroup); });
  step([&] { scmp.host_leave(19, kGroup); });
  step([&] { scmp.fail_over_to(1); });
  step([&] { scmp.end_group_session(kGroup); });
  step([&] { scmp.host_join(27, kGroup); });
  step([&] { scmp.host_leave(3, kGroup); });
  step([&] { scmp.host_leave(27, kGroup); });
  step([&] { scmp.host_leave(5, kGroup); });
}

/// Everything the scenario's fixpoint is judged by: installed entries,
/// service-database membership, the billing log length (a retransmitted
/// request must never double-bill) and IGMP ground truth.
struct StateDigest {
  test::EntryDigest entries;
  std::set<graph::NodeId> db_members;
  std::size_t billing_log = 0;

  bool operator==(const StateDigest&) const = default;
};

StateDigest digest(const World& w) {
  StateDigest d;
  d.entries = test::installed_entries(w.scmp, kGroup);
  d.db_members = w.scmp.database().members_of(kGroup);
  d.billing_log = w.scmp.database().membership_log().size();
  return d;
}

// ---- satellite: the single-drop sweep --------------------------------------

class ScmpSingleDrop : public ::testing::TestWithParam<sim::PacketType> {};

TEST_P(ScmpSingleDrop, EveryHopLossConvergesToZeroLossFixpoint) {
  const sim::PacketType type = GetParam();

  // Reference: reliability on, nothing lost.
  Scmp::Config cfg;
  cfg.reliability = reliable();
  World ref(cfg);
  run_sequential_scenario(ref.scmp, ref.queue);
  const StateDigest want = digest(ref);
  EXPECT_TRUE(want.entries.empty()) << "scenario should end with empty trees";
  const std::size_t crossings = ref.recorder.count(type);
  ASSERT_GT(crossings, 0u) << "scenario never sends " << sim::to_string(type)
                           << "; it no longer exercises every control type";

  // Drop the n-th link crossing of `type` — once — for every n: each
  // retransmission (or re-ack) must repair exactly that loss and the run
  // must land in the reference fixpoint.
  for (std::size_t n = 1; n <= crossings; ++n) {
    World w(cfg);
    std::size_t seen = 0;
    bool dropped = false;
    w.net.set_drop_filter(
        [&](graph::NodeId, graph::NodeId, const sim::Packet& pkt) {
          if (pkt.type != type || dropped) return false;
          if (++seen < n) return false;
          dropped = true;
          return true;
        });
    run_sequential_scenario(w.scmp, w.queue);
    ASSERT_TRUE(dropped) << "drop " << n << " never triggered";
    EXPECT_EQ(digest(w), want)
        << "dropping " << sim::to_string(type) << " crossing " << n << "/"
        << crossings << " did not converge back to the zero-loss state";
    EXPECT_EQ(w.scmp.retx().exhausted(), 0u);
    EXPECT_EQ(w.scmp.retx().pending_count(), 0u);
    // An ACK loss is repaired by re-acking the retransmission; every other
    // loss needs exactly one recovery retransmission.
    EXPECT_GE(w.scmp.retx().retransmissions(), 1u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllControlTypes, ScmpSingleDrop,
    ::testing::Values(sim::PacketType::kJoin, sim::PacketType::kLeave,
                      sim::PacketType::kTree, sim::PacketType::kBranch,
                      sim::PacketType::kPrune, sim::PacketType::kClear,
                      sim::PacketType::kAck),
    [](const ::testing::TestParamInfo<sim::PacketType>& info) {
      return std::string(sim::to_string(info.param));
    });

// ---- graceful degradation + reconciliation ---------------------------------

TEST(ScmpReliability, ExhaustedJoinIsRepairedByReconciliation) {
  Scmp::Config cfg;
  cfg.reliability = reliable();
  World w(cfg);
  // Seed the group so the tree and session exist.
  w.scmp.host_join(5, kGroup);
  w.queue.run_all();

  // Black-hole every JOIN: router 12's membership report exhausts its retry
  // budget and the m-router never learns of it.
  w.net.set_drop_filter(
      [](graph::NodeId, graph::NodeId, const sim::Packet& pkt) {
        return pkt.type == sim::PacketType::kJoin;
      });
  w.scmp.host_join(12, kGroup);
  w.queue.run_all();
  EXPECT_GE(w.scmp.retx().exhausted(), 1u);
  EXPECT_FALSE(w.scmp.database().members_of(kGroup).contains(12));

  // The soft-state pass diffs the database against IGMP ground truth and
  // re-solicits the lost JOIN (with a fresh request uid).
  w.net.set_drop_filter(nullptr);
  EXPECT_GT(w.scmp.reconcile_all(), 0);
  w.queue.run_all();
  EXPECT_TRUE(w.scmp.database().members_of(kGroup).contains(12));
  EXPECT_TRUE(w.scmp.network_state_consistent(kGroup));
  EXPECT_EQ(w.scmp.reconcile_all(), 0);  // fixpoint: nothing left to repair
}

TEST(ScmpReliability, ExhaustedBranchInstallIsRepairedByReconciliation) {
  Scmp::Config cfg;
  cfg.reliability = reliable();
  World w(cfg);
  w.scmp.host_join(5, kGroup);
  w.queue.run_all();

  // Lose every BRANCH: the m-router accepts 12's JOIN (database and tree
  // update) but the install never reaches the network.
  w.net.set_drop_filter(
      [](graph::NodeId, graph::NodeId, const sim::Packet& pkt) {
        return pkt.type == sim::PacketType::kBranch;
      });
  w.scmp.host_join(12, kGroup);
  w.queue.run_all();
  EXPECT_TRUE(w.scmp.database().members_of(kGroup).contains(12));
  EXPECT_FALSE(w.scmp.network_state_consistent(kGroup));

  // Phase 2 diffs the installed digests against the authoritative tree and
  // reinstalls the missing member path.
  w.net.set_drop_filter(nullptr);
  EXPECT_GT(w.scmp.reconcile_all(), 0);
  w.queue.run_all();
  EXPECT_TRUE(w.scmp.network_state_consistent(kGroup));
  EXPECT_EQ(w.scmp.reconcile_all(), 0);
}

TEST(ScmpReliability, OldDuplicateAfterNewerRequestsIsReackedNotReprocessed) {
  Scmp::Config cfg;
  cfg.reliability = reliable();
  World w(cfg);
  constexpr graph::NodeId kOld = 5;
  // Router 5's JOIN reaches the m-router, but its ACK is lost. Its
  // retransmissions are held back until the m-router has processed the
  // newer JOINs of routers 12 and 19; the next one then arrives as a
  // duplicate of an id below ids the m-router has already seen.
  std::uint64_t old_req = 0;
  int copies_sent = 0;
  bool ack_lost = false;
  w.net.set_drop_filter(
      [&](graph::NodeId from, graph::NodeId, const sim::Packet& pkt) {
        if (pkt.type == sim::PacketType::kJoin && pkt.src == kOld &&
            from == kOld) {
          if (old_req == 0) old_req = pkt.req;
          if (pkt.req != old_req || ++copies_sent == 1) return false;
          const MRouterDatabase& db = w.scmp.database();
          return db.billing_events(12) == 0 || db.billing_events(19) == 0;
        }
        if (pkt.type == sim::PacketType::kAck && pkt.req == old_req &&
            !ack_lost) {
          ack_lost = true;
          return true;
        }
        return false;
      });
  obs::set_metrics_enabled(true);
  obs::Counter& dups = obs::counter("scmp.retx.duplicates");
  const std::uint64_t dups_before = dups.value();
  w.scmp.host_join(kOld, kGroup);
  w.scmp.host_join(12, kGroup);
  w.scmp.host_join(19, kGroup);
  w.queue.run_all();
  obs::set_metrics_enabled(false);

  ASSERT_NE(old_req, 0u);
  EXPECT_TRUE(ack_lost);
  EXPECT_GE(copies_sent, 2);
  EXPECT_EQ(dups.value(), dups_before + 1);
  EXPECT_EQ(w.scmp.database().billing_events(kOld), 1);
  EXPECT_EQ(w.scmp.database().membership_log().size(), 3u);
  // The duplicate was re-acked: the old request retired, not exhausted.
  EXPECT_EQ(w.scmp.retx().exhausted(), 0u);
  EXPECT_EQ(w.scmp.retx().pending_count(), 0u);
  EXPECT_TRUE(w.scmp.network_state_consistent(kGroup));
}

/// A link of `group`'s tree whose failure leaves the topology connected.
std::optional<std::pair<graph::NodeId, graph::NodeId>> tree_link_to_cut(
    const World& w, GroupId group) {
  const graph::MulticastTree& tree = w.scmp.group_tree(group)->tree();
  for (graph::NodeId v : tree.on_tree_nodes()) {
    if (v == tree.root()) continue;
    graph::Graph probe = w.net.graph();
    probe.remove_edge(tree.parent(v), v);
    if (probe.is_connected()) return std::pair{tree.parent(v), v};
  }
  return std::nullopt;
}

// ---- retransmission timing ------------------------------------------------

TEST(ScmpReliability, FirstRetransmissionAfterOneRoundTrip) {
  Scmp::Config cfg;
  cfg.reliability = reliable();
  World w(cfg);
  // Lose the first BRANCH crossing; every other packet gets through.
  struct Lost {
    graph::NodeId from, to;
    double at;
    std::size_t bytes;
  };
  std::optional<Lost> lost;
  w.net.set_drop_filter(
      [&](graph::NodeId from, graph::NodeId to, const sim::Packet& pkt) {
        if (pkt.type != sim::PacketType::kBranch || lost.has_value())
          return false;
        lost = Lost{from, to, w.queue.now(), pkt.size_bytes};
        return true;
      });
  w.scmp.host_join(5, kGroup);
  w.queue.run_all();
  ASSERT_TRUE(lost.has_value());

  // The dropped copy never reached the recorder: the first BRANCH it saw on
  // the lost link is the retransmission.
  std::optional<double> resent_at;
  const auto branches = w.recorder.of_type(sim::PacketType::kBranch);
  for (const sim::TraceEvent& ev : branches) {
    if (ev.from == lost->from && ev.to == lost->to) {
      resent_at = ev.time;
      break;
    }
  }
  ASSERT_TRUE(resent_at.has_value());
  // One idle round trip of the link — the BRANCH out and its ACK back, each
  // propagated and serialised at the default 1 Gb/s — plus the margin.
  const double round_trip =
      2.0 * w.net.link_delay_seconds(lost->from, lost->to) +
      static_cast<double>(lost->bytes + sim::kControlPacketBytes) * 8.0 / 1e9;
  EXPECT_NEAR(*resent_at - lost->at, round_trip + kRetxMargin, 1e-9);
  EXPECT_LT(*resent_at - lost->at, 0.5);
  EXPECT_EQ(w.scmp.retx().retransmissions(), 1u);
  EXPECT_TRUE(w.scmp.network_state_consistent(kGroup));
}

TEST(ScmpReliability, FailoverRebuildBurstRetransmitsNothingWithoutLoss) {
  // A 192-router transit-stub with two dozen groups: a failover rebuilds
  // every group at once, so the new m-router's ports queue a burst of TREE
  // packets. The margin over the idle round trip must absorb that queueing.
  Scmp::Config cfg;
  cfg.reliability = reliable();
  World w(cfg, [](Rng& r) {
    topo::TransitStubConfig tcfg;
    tcfg.transit_domains = 3;
    tcfg.transit_nodes = 4;
    tcfg.stub_domains_per_node = 3;
    tcfg.stub_nodes = 5;
    return topo::transit_stub(tcfg, r);
  });
  const graph::NodeId n = w.topo.graph.num_nodes();
  constexpr int kGroups = 24;
  for (GroupId g = 0; g < kGroups; ++g) {
    for (int k = 0; k < 10; ++k)
      w.scmp.host_join(1 + (g * 7 + k * 17) % (n - 1), g);
  }
  w.queue.run_all();
  ASSERT_EQ(w.scmp.retx().retransmissions(), 0u);

  // Four failovers in a row, each to a fresh standby.
  for (const graph::NodeId standby : {1, 2, 3, 4}) {
    const std::size_t trees_before = w.recorder.count(sim::PacketType::kTree);
    w.scmp.fail_over_to(standby);
    w.queue.run_all();
    EXPECT_GE(w.recorder.count(sim::PacketType::kTree) - trees_before,
              static_cast<std::size_t>(kGroups))
        << "standby " << standby;
  }
  EXPECT_EQ(w.scmp.retx().retransmissions(), 0u);
  EXPECT_EQ(w.scmp.retx().exhausted(), 0u);
  for (GroupId g = 0; g < kGroups; ++g)
    EXPECT_TRUE(w.scmp.network_state_consistent(g)) << "g" << g;
}

// ---- reconciliation vs installs in flight ----------------------------------

TEST(ScmpReliability, ReconcileDefersGroupWithInstallInFlight) {
  Scmp::Config cfg;
  cfg.reliability = reliable();
  World w(cfg);
  for (graph::NodeId m : {5, 12, 19, 27}) w.scmp.host_join(m, kGroup);
  w.queue.run_all();
  ASSERT_TRUE(w.scmp.network_state_consistent(kGroup));

  // Cut a tree link: the rebuild reinstalls the whole tree with TREE
  // packets, which are still on the wire when reconciliation runs.
  const auto cut = tree_link_to_cut(w, kGroup);
  ASSERT_TRUE(cut.has_value());
  w.net.fail_link(cut->first, cut->second);
  ASSERT_FALSE(w.scmp.network_state_consistent(kGroup));

  obs::set_metrics_enabled(true);
  obs::Counter& deferred = obs::counter("scmp.reconcile.deferred");
  obs::Counter& repairs = obs::counter("scmp.reconcile.repairs");
  const std::uint64_t deferred_before = deferred.value();
  const std::uint64_t repairs_before = repairs.value();
  const std::size_t branches_before =
      w.recorder.count(sim::PacketType::kBranch);
  // The digests lag the TREE wave, but no repair may race it.
  EXPECT_GT(w.scmp.reconcile_all(), 0);
  obs::set_metrics_enabled(false);
  EXPECT_EQ(w.recorder.count(sim::PacketType::kBranch), branches_before);
  EXPECT_EQ(repairs.value(), repairs_before);
  EXPECT_EQ(deferred.value(), deferred_before + 1);

  w.queue.run_all();
  EXPECT_TRUE(w.scmp.network_state_consistent(kGroup));
  EXPECT_EQ(w.scmp.reconcile_all(), 0);
  EXPECT_EQ(w.scmp.retx().retransmissions(), 0u);
}

TEST(ScmpReliability, PeriodicReconciliationCycleRuns) {
  Scmp::Config cfg;
  cfg.reliability = reliable();
  World w(cfg);
  w.scmp.host_join(5, kGroup);
  w.queue.run_all();  // drains the join's acked-request timer no-ops too
  const double t0 = w.queue.now();
  w.scmp.start_reconciliation(/*interval=*/10.0, /*horizon=*/t0 + 25.0);
  w.queue.run_all();
  // Cycles at t0+10 and t0+20 (t0+30 passes the horizon); a healthy domain
  // reconciles to zero repairs every time, so the ticks are the only events
  // and the clock stops exactly on the last one.
  EXPECT_DOUBLE_EQ(w.queue.now(), t0 + 20.0);
  EXPECT_TRUE(w.scmp.network_state_consistent(kGroup));
}

}  // namespace
}  // namespace scmp::core
