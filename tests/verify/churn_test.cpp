// The churn model-checker: clean protocol runs audit clean on both
// evaluation topologies, generation and replay are fully deterministic
// (the property the trace artifacts and ddmin subset replays rest on),
// the auditor holds across SCMP's failover/link-failure machinery, and the
// comparison protocols pass their own audit_state() self-checks under churn.
#include "verify/churn.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "protocols/cbt.hpp"
#include "protocols/pimsm.hpp"
#include "topo/arpanet.hpp"

namespace scmp::verify {
namespace {

TEST(Churn, CleanRunOnArpanet) {
  ChurnConfig cfg;
  cfg.topo = ChurnTopo::kArpanet;
  cfg.num_events = 400;
  cfg.event_seed = 11;
  const ChurnModelChecker checker(cfg);
  const CheckOutcome outcome = checker.run();
  EXPECT_TRUE(outcome.ok) << format(outcome.violations);
  EXPECT_GT(outcome.executed, 0);
}

TEST(Churn, CleanRunOnWaxman) {
  ChurnConfig cfg;
  cfg.topo = ChurnTopo::kWaxman;
  cfg.waxman_nodes = 40;
  cfg.num_events = 400;
  cfg.event_seed = 12;
  const ChurnModelChecker checker(cfg);
  const CheckOutcome outcome = checker.run();
  EXPECT_TRUE(outcome.ok) << format(outcome.violations);
}

TEST(Churn, CleanRunOnTransitStub) {
  ChurnConfig cfg;
  cfg.topo = ChurnTopo::kTransitStub;
  cfg.num_events = 300;
  cfg.event_seed = 13;
  const ChurnModelChecker checker(cfg);
  const CheckOutcome outcome = checker.run();
  EXPECT_TRUE(outcome.ok) << format(outcome.violations);
  EXPECT_GT(outcome.executed, 0);
}

TEST(Churn, EpochBatchedRunPassesTheEquivalenceCheck) {
  // epoch_interval > 0 drags the sequential shadow world along and audits
  // the batched-vs-sequential equivalence contract at every stride.
  ChurnConfig cfg;
  cfg.topo = ChurnTopo::kArpanet;
  cfg.num_events = 250;
  cfg.event_seed = 14;
  cfg.epoch_interval = 0.5;
  cfg.audit_stride = 5;
  const ChurnModelChecker checker(cfg);
  const CheckOutcome outcome = checker.run();
  EXPECT_TRUE(outcome.ok) << format(outcome.violations);
}

TEST(Churn, EpochBatchedLossyRunStillConverges) {
  ChurnConfig cfg;
  cfg.topo = ChurnTopo::kTransitStub;
  cfg.num_events = 120;
  cfg.event_seed = 15;
  cfg.epoch_interval = 1.0;
  cfg.control_loss_rate = 0.05;
  cfg.audit_stride = 10;
  const ChurnModelChecker checker(cfg);
  const CheckOutcome outcome = checker.run();
  EXPECT_TRUE(outcome.ok) << format(outcome.violations);
}

TEST(Churn, AuditStrideStillAuditsTheEnd) {
  ChurnConfig cfg;
  cfg.num_events = 97;  // not a multiple of the stride
  cfg.audit_stride = 10;
  const ChurnModelChecker checker(cfg);
  EXPECT_TRUE(checker.run().ok);
}

TEST(Churn, GenerationIsDeterministic) {
  ChurnConfig cfg;
  cfg.num_events = 200;
  cfg.event_seed = 42;
  const ChurnModelChecker checker(cfg);
  const auto a = checker.generate();
  const auto b = checker.generate();
  EXPECT_EQ(a, b);

  cfg.event_seed = 43;
  const auto c = ChurnModelChecker(cfg).generate();
  EXPECT_NE(a, c);  // different seed, different interleaving
}

TEST(Churn, GenerationCapsLinkFailures) {
  ChurnConfig cfg;
  cfg.num_events = 500;
  cfg.max_link_failures = 3;
  int failures = 0;
  for (const ChurnEvent& ev : ChurnModelChecker(cfg).generate()) {
    if (ev.type == ChurnEventType::kLinkFail) ++failures;
  }
  EXPECT_LE(failures, 3);
  EXPECT_GT(failures, 0);  // the 8% bucket hits within 500 draws
}

TEST(Churn, ReplayIsDeterministic) {
  ChurnConfig cfg;
  cfg.num_events = 150;
  cfg.event_seed = 7;
  cfg.fault = FaultSpec{sim::PacketType::kPrune, 1};
  const ChurnModelChecker checker(cfg);
  const auto events = checker.generate();
  const CheckOutcome first = checker.replay(events);
  const CheckOutcome second = checker.replay(events);
  EXPECT_EQ(first.ok, second.ok);
  EXPECT_EQ(first.executed, second.executed);
  EXPECT_EQ(first.failing_index, second.failing_index);
  ASSERT_EQ(first.violations.size(), second.violations.size());
  for (std::size_t i = 0; i < first.violations.size(); ++i) {
    EXPECT_EQ(first.violations[i].invariant, second.violations[i].invariant);
    EXPECT_EQ(first.violations[i].detail, second.violations[i].detail);
  }
}

// A PRUNE carries no install version, so it can race a tree install: here
// the link failure at event 26 rebuilds g2 and reinstalls it with TREE
// packets, while DR 45 leaves in the same burst, drops its own entry and
// PRUNEs router 44's. The rebuild's TREE then re-creates both entries (it
// reaches 44 at t = 0.5768 s and 45 at t = 0.5782 s), and only the epoch
// close's versioned CLEARs remove them again. The test pins the end state,
// not the CLEARs, so it holds for any fix of the race. Shrunk from seed 3
// of the epoch-batched ARPANET churn run with link failures.
TEST(Churn, EpochCloseClearsWhatARacingPruneMissed) {
  const TraceArtifact trace = deserialize(
      "scmp-churn-trace v1\n"
      "topo arpanet\n"
      "topo-seed 1\n"
      "groups 4\n"
      "event-seed 3\n"
      "max-link-failures 4\n"
      "audit-stride 25\n"
      "epoch 0.5\n"
      "events 27\n"
      "join g3 n43\n"
      "join g2 n14\n"
      "join g2 n45\n"
      "leave g3 n46\n"
      "join g2 n32\n"
      "join g3 n38\n"
      "leave g2 n14\n"
      "join g0 n31\n"
      "join g1 n32\n"
      "leave g0 n10\n"
      "join g0 n24\n"
      "linkfail n32 n31\n"
      "leave g1 n22\n"
      "leave g3 n24\n"
      "leave g3 n45\n"
      "join g2 n34\n"
      "join g1 n7\n"
      "join g0 n41\n"
      "join g1 n35\n"
      "join g0 n34\n"
      "join g1 n46\n"
      "join g3 n29\n"
      "leave g1 n23\n"
      "leave g1 n14\n"
      "join g0 n6\n"
      "linkfail n21 n22\n"
      "leave g2 n45\n");
  ASSERT_EQ(trace.events.size(), 27u);
  const CheckOutcome outcome =
      ChurnModelChecker(trace.config).replay(trace.events);
  EXPECT_TRUE(outcome.ok) << format(outcome.violations);
  EXPECT_EQ(outcome.executed, 27);
}

// ---- trace artifact round-trip ---------------------------------------------

TEST(Trace, SerializeDeserializeRoundTrip) {
  TraceArtifact trace;
  trace.config.topo = ChurnTopo::kWaxman;
  trace.config.topo_seed = 99;
  trace.config.waxman_nodes = 30;
  trace.config.num_groups = 2;
  trace.config.event_seed = 5;
  trace.config.audit_stride = 3;
  trace.config.fault = FaultSpec{sim::PacketType::kClear, 2};
  trace.config.control_loss_rate = 0.05;
  trace.config.loss_seed = 11;
  trace.config.epoch_interval = 0.75;
  trace.events = {
      {ChurnEventType::kJoin, 0, 7, graph::kInvalidNode},
      {ChurnEventType::kSend, 1, 3, graph::kInvalidNode},
      {ChurnEventType::kLinkFail, -1, 2, 9},
      {ChurnEventType::kLeave, 0, 7, graph::kInvalidNode},
  };
  trace.violations = {{kNoOrphanState, "g0: router 9 holds an entry"}};

  const TraceArtifact back = deserialize(serialize(trace));
  EXPECT_EQ(back.config.topo, trace.config.topo);
  EXPECT_EQ(back.config.topo_seed, trace.config.topo_seed);
  EXPECT_EQ(back.config.waxman_nodes, trace.config.waxman_nodes);
  EXPECT_EQ(back.config.num_groups, trace.config.num_groups);
  EXPECT_EQ(back.config.event_seed, trace.config.event_seed);
  EXPECT_EQ(back.config.audit_stride, trace.config.audit_stride);
  ASSERT_TRUE(back.config.fault.has_value());
  EXPECT_EQ(back.config.fault->drop, trace.config.fault->drop);
  EXPECT_EQ(back.config.fault->every_nth, trace.config.fault->every_nth);
  EXPECT_DOUBLE_EQ(back.config.control_loss_rate,
                   trace.config.control_loss_rate);
  EXPECT_EQ(back.config.loss_seed, trace.config.loss_seed);
  EXPECT_DOUBLE_EQ(back.config.epoch_interval, trace.config.epoch_interval);
  EXPECT_EQ(back.events, trace.events);
  ASSERT_EQ(back.violations.size(), 1u);
  EXPECT_EQ(back.violations[0].invariant, trace.violations[0].invariant);
  EXPECT_EQ(back.violations[0].detail, trace.violations[0].detail);
}

TEST(Trace, TransitStubTopoNameRoundTrips) {
  TraceArtifact trace;
  trace.config.topo = ChurnTopo::kTransitStub;
  trace.config.topo_seed = 4;
  const std::string text = serialize(trace);
  EXPECT_NE(text.find("topo transit-stub"), std::string::npos);
  EXPECT_EQ(deserialize(text).config.topo, ChurnTopo::kTransitStub);
}

TEST(Trace, FileRoundTripReplaysIdentically) {
  ChurnConfig cfg;
  cfg.num_events = 60;
  cfg.event_seed = 21;
  const ChurnModelChecker checker(cfg);

  TraceArtifact trace;
  trace.config = cfg;
  trace.events = checker.generate();
  const std::string path =
      testing::TempDir() + "/scmp_churn_roundtrip_trace.txt";
  write_trace(path, trace);
  const TraceArtifact back = read_trace(path);
  std::remove(path.c_str());

  EXPECT_EQ(back.events, trace.events);
  const CheckOutcome a = checker.replay(trace.events);
  const CheckOutcome b = ChurnModelChecker(back.config).replay(back.events);
  EXPECT_EQ(a.ok, b.ok);
  EXPECT_EQ(a.executed, b.executed);
}

// ---- the comparison protocols under their own self-check -------------------

/// Drives CBT/PIM-SM membership churn and data, then audit_state() at
/// quiescence must be clean (their hard-state symmetry invariants).
template <typename Protocol, typename Setup>
void churn_protocol_and_audit(Setup setup) {
  Rng rng(3);
  topo::Topology topo = topo::arpanet(rng);
  sim::EventQueue queue;
  sim::Network net(topo.graph, queue);
  igmp::IgmpDomain igmp(queue, topo.graph.num_nodes());
  Protocol protocol(net, igmp);
  setup(protocol);

  Rng events(17);
  for (int i = 0; i < 300; ++i) {
    const auto group = static_cast<proto::GroupId>(events.uniform_int(0, 1));
    const auto node = static_cast<graph::NodeId>(
        events.uniform_int(1, topo.graph.num_nodes() - 1));
    const double r = events.uniform01();
    if (r < 0.5) {
      protocol.host_join(node, group);
    } else if (r < 0.8) {
      protocol.host_leave(node, group);
    } else {
      protocol.send_data(node, group);
    }
    queue.run_all();
    std::vector<std::string> violations;
    protocol.audit_state(violations);
    ASSERT_TRUE(violations.empty())
        << "event " << i << ": " << violations.front();
  }
}

TEST(ProtocolSelfCheck, CbtCleanUnderChurn) {
  churn_protocol_and_audit<proto::Cbt>([](proto::Cbt& cbt) {
    cbt.set_core(0, 5);
    cbt.set_core(1, 20);
  });
}

TEST(ProtocolSelfCheck, PimSmCleanUnderChurn) {
  churn_protocol_and_audit<proto::PimSm>([](proto::PimSm& pim) {
    pim.set_rp(0, 5);
    pim.set_rp(1, 20);
  });
}

}  // namespace
}  // namespace scmp::verify
