// Reliable control-plane delivery (src/core/retx.hpp + Scmp reconciliation):
// unit tests of the retransmission table, the ISSUE's parameterized
// single-drop sweep — every SCMP control packet type lost once at every hop
// of a join/leave/prune/rebuild/teardown sequence, with the run required to
// converge to the zero-loss fixpoint — and the graceful-degradation path
// where the retry budget runs out and the soft-state reconciliation cycle
// repairs the divergence instead.
#include "core/retx.hpp"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <tuple>
#include <vector>

#include "core/scmp.hpp"
#include "igmp/igmp.hpp"
#include "sim/event_queue.hpp"
#include "sim/network.hpp"
#include "sim/trace.hpp"
#include "topo/arpanet.hpp"
#include "util/rng.hpp"

namespace scmp::core {
namespace {

RetxConfig reliable(double timeout = 5.0, int max_retries = 4) {
  RetxConfig cfg;
  cfg.enabled = true;
  cfg.timeout = timeout;
  cfg.max_retries = max_retries;
  return cfg;
}

// ---- RetxTable unit tests --------------------------------------------------

TEST(RetxTable, DisabledArmIsANoOp) {
  sim::EventQueue q;
  RetxTable table(q, RetxConfig{});  // enabled = false
  int resends = 0;
  table.arm(3, table.next_req(), [&] { ++resends; });
  q.run_all();
  EXPECT_EQ(table.pending_count(), 0u);
  EXPECT_EQ(resends, 0);
}

TEST(RetxTable, AckBeforeTimeoutRetiresEntryWithoutResend) {
  sim::EventQueue q;
  RetxTable table(q, reliable());
  int resends = 0;
  const std::uint64_t req = table.next_req();
  table.arm(3, req, [&] { ++resends; });
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
  RetxTable table(q, reliable(/*timeout=*/1.0, /*max_retries=*/3));
  std::vector<double> resend_times;
  table.arm(7, table.next_req(), [&] { resend_times.push_back(q.now()); });
  q.run_all();
  // Retransmissions at t=1, 1+2, 1+2+4; the budget check fires at 1+2+4+8.
  ASSERT_EQ(resend_times.size(), 3u);
  EXPECT_DOUBLE_EQ(resend_times[0], 1.0);
  EXPECT_DOUBLE_EQ(resend_times[1], 3.0);
  EXPECT_DOUBLE_EQ(resend_times[2], 7.0);
  EXPECT_DOUBLE_EQ(q.now(), 15.0);
  EXPECT_EQ(table.retransmissions(), 3u);
  EXPECT_EQ(table.exhausted(), 1u);
  EXPECT_EQ(table.pending_count(), 0u);
}

TEST(RetxTable, LateAndUnknownAcksAreIgnored) {
  sim::EventQueue q;
  RetxTable table(q, reliable());
  const std::uint64_t req = table.next_req();
  table.arm(2, req, [] {});
  table.ack(5, req);    // wrong sender
  table.ack(2, 9999);   // unknown request
  EXPECT_TRUE(table.pending(2, req));
  table.ack(2, req);
  table.ack(2, req);    // duplicate ack
  EXPECT_EQ(table.acked(), 1u);
}

TEST(RetxTable, RequestUidsAreNeverZero) {
  sim::EventQueue q;
  RetxTable table(q, reliable());
  EXPECT_NE(table.next_req(), 0u);
  EXPECT_NE(table.next_req(), table.next_req());
}

// ---- protocol-level fixture ------------------------------------------------

struct World {
  explicit World(Scmp::Config cfg = {})
      : topo(topo::arpanet(rng)),
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
/// four-member tree, prunes it down, rebuilds it (full TREE install), tears
/// the session down (CLEARs), regrows and empties it. Covers every control
/// packet type.
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
  step([&] { scmp.on_topology_change(); });
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
  std::map<graph::NodeId,
           std::tuple<graph::NodeId, std::set<graph::NodeId>, std::set<int>,
                      std::uint64_t>>
      entries;
  std::set<graph::NodeId> db_members;
  std::size_t billing_log = 0;

  bool operator==(const StateDigest&) const = default;
};

StateDigest digest(const World& w) {
  StateDigest d;
  for (graph::NodeId v = 0; v < w.topo.graph.num_nodes(); ++v) {
    const Scmp::Entry* e = w.scmp.entry_at(v, kGroup);
    if (e == nullptr) continue;
    d.entries[v] = {e->upstream, e->downstream_routers, e->downstream_ifaces,
                    e->version};
  }
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
  cfg.reliability = reliable(/*timeout=*/0.5, /*max_retries=*/2);
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
  cfg.reliability = reliable(/*timeout=*/0.5, /*max_retries=*/2);
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
