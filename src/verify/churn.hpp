// Deterministic churn model-checker (the ISSUE's tentpole driver): explores
// a seeded random interleaving of JOIN / LEAVE / SEND / link-failure events
// against a fresh SCMP world, draining the event queue to quiescence after
// every event (in epoch mode: after every burst of audit_stride events) and
// re-validating the full invariant catalog. On a violation
// the failing event sequence is shrunk with delta debugging (ddmin) to a
// minimal reproducing trace, which serialises to a replayable text artifact.
//
// Everything is deterministic by construction: the topology and the event
// sequence derive from explicit seeds through the repo's portable Rng, and
// replay() rebuilds the world from scratch for any (sub)sequence — which is
// exactly what makes ddmin's subset replays and the dumped artifacts
// trustworthy reproducers.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "protocols/convergence.hpp"
#include "sim/packet.hpp"
#include "verify/auditor.hpp"

namespace scmp::verify {

enum class ChurnEventType { kJoin, kLeave, kSend, kLinkFail };

const char* to_string(ChurnEventType t);

struct ChurnEvent {
  ChurnEventType type = ChurnEventType::kJoin;
  GroupId group = -1;                         ///< join / leave / send
  graph::NodeId node = graph::kInvalidNode;   ///< router, or link endpoint u
  graph::NodeId node2 = graph::kInvalidNode;  ///< link endpoint v

  bool operator==(const ChurnEvent&) const = default;
};

/// Protocol mutant via fault injection: every `every_nth`-th packet of type
/// `drop` is silently lost at its sender's egress (Network::set_drop_filter).
/// Dropping every PRUNE, CLEAR or BRANCH turns the real protocol into the
/// ISSUE's intentionally-broken mutants without touching protocol code.
struct FaultSpec {
  sim::PacketType drop = sim::PacketType::kPrune;
  int every_nth = 1;  ///< 1 = drop all matching packets

  bool operator==(const FaultSpec&) const = default;
};

enum class ChurnTopo { kArpanet, kWaxman, kTransitStub };

struct ChurnConfig {
  ChurnTopo topo = ChurnTopo::kArpanet;
  std::uint64_t topo_seed = 1;  ///< link delays (and Waxman structure)
  int waxman_nodes = 50;        ///< paper §IV-A size; ignored for ARPANET
  double waxman_degree = 3.0;   ///< target average degree (paper: 3 and 5)
  int num_groups = 3;
  int num_events = 200;
  std::uint64_t event_seed = 1;
  int max_link_failures = 2;  ///< cap on generated link-failure events
  int audit_stride = 1;       ///< audit after every k-th event (and at the end)
  std::optional<FaultSpec> fault;
  /// Lossy-link fault model: every SCMP control packet (JOIN/LEAVE/TREE/
  /// BRANCH/PRUNE/CLEAR, and the ACKs themselves) is independently dropped
  /// with this probability, seeded by `loss_seed`. A nonzero rate enables the
  /// protocol's reliable delivery (Scmp::Config::reliability) and makes
  /// replay() run soft-state reconciliation to a fixpoint before each audit —
  /// exercising *recovery* instead of only proving invariants catch mutants.
  double control_loss_rate = 0.0;
  std::uint64_t loss_seed = 1;
  /// Epoch-batched membership (Scmp::Config::epoch_interval). When > 0 the
  /// batched world drains only at audit points, so each epoch close sees a
  /// burst of up to audit_stride events, and the replay additionally runs a
  /// *sequential shadow world* (identical config with interval 0, drained
  /// after every event) through the same event sequence. At every audit
  /// point both worlds must agree on database membership and tree member
  /// sets per group, and the shadow world must pass the full invariant
  /// catalog too. Divergence is reported as "epoch-equivalence" violations.
  double epoch_interval = 0.0;
  /// Runtime-only knob (never serialized into trace artifacts): enable the
  /// per-group convergence tracker on each replay world and copy its stats
  /// into CheckOutcome::convergence. Tracking schedules only event-queue
  /// timers — the packet trace of a fixed-seed replay is unchanged.
  bool track_convergence = false;
};

struct CheckOutcome {
  bool ok = true;
  int executed = 0;        ///< events actually applied (guards may skip some)
  int failing_index = -1;  ///< index of the event whose audit failed
  std::vector<Violation> violations;
  int audits = 0;             ///< invariant audits performed during replay
  double audit_seconds = 0.0; ///< wall-clock time spent in those audits
  /// Convergence stats snapshotted from the tracker before the world is torn
  /// down (engaged only when ChurnConfig::track_convergence is set).
  std::optional<proto::ConvergenceTracker::Stats> convergence;
};

class ChurnModelChecker {
 public:
  explicit ChurnModelChecker(ChurnConfig cfg);

  const ChurnConfig& config() const { return cfg_; }

  /// The seeded event sequence this configuration explores.
  std::vector<ChurnEvent> generate() const;

  /// Replays `events` against a fresh world, auditing per audit_stride.
  /// Inapplicable events (a link failure whose edge is already gone or whose
  /// removal would disconnect the topology) are skipped deterministically.
  CheckOutcome replay(const std::vector<ChurnEvent>& events) const;

  /// generate() + replay().
  CheckOutcome run() const;

  /// Delta-debugs `failing` (a sequence replay() rejects) down to a
  /// 1-minimal subsequence that still fails.
  std::vector<ChurnEvent> shrink(const std::vector<ChurnEvent>& failing) const;

 private:
  ChurnConfig cfg_;
};

// ---- replayable trace artifacts -------------------------------------------

struct TraceArtifact {
  ChurnConfig config;
  std::vector<ChurnEvent> events;
  std::vector<Violation> violations;  ///< what replaying the trace reproduces
};

/// Line-oriented text form (see churn.cpp header comment for the grammar).
std::string serialize(const TraceArtifact& trace);
TraceArtifact deserialize(const std::string& text);

void write_trace(const std::string& path, const TraceArtifact& trace);
TraceArtifact read_trace(const std::string& path);

}  // namespace scmp::verify
