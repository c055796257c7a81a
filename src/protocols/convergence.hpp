// Per-group time-to-convergence measurement for SCMP.
//
// A membership or link event opens a measurement (`note_event`); the owner
// calls `check(group, consistent)` whenever installed state may have
// changed, and the measurement resolves the first time the predicate holds
// (installed digests match the authoritative tree,
// Scmp::network_state_consistent). The tracker feeds the elapsed sim time
// into `scmp.convergence.seconds` (histogram, tagged with the protocol name)
// and a per-group RunningStats, and abandons measurements that outlive the
// deadline (`scmp.convergence.timeouts`).
//
// The deadline runs on the simulation event queue — no wall clock — and the
// tracker sends no packets. A deadline stays queued after its measurement
// resolves, so EventQueue::run_all() on a tracked world ends up to
// kTimeoutSeconds later than on an untracked one.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "igmp/igmp.hpp"
#include "sim/event_queue.hpp"
#include "util/stats.hpp"

namespace scmp::proto {

class ConvergenceTracker {
 public:
  /// A measurement still open this long (sim-s) after its latest event is
  /// abandoned and counted as a timeout.
  static constexpr double kTimeoutSeconds = 60.0;

  /// The queue must outlive the tracker (both owned by the same harness).
  ConvergenceTracker(sim::EventQueue& queue, std::string protocol);
  /// Scheduled deadlines hold the tracker's address.
  ConvergenceTracker(const ConvergenceTracker&) = delete;
  ConvergenceTracker& operator=(const ConvergenceTracker&) = delete;

  /// A membership/link event touched `group`: open its measurement at the
  /// current sim time (an open one keeps its start) and re-arm the deadline.
  void note_event(igmp::GroupId group);

  /// Resolves `group`'s measurement if one is open and `consistent` holds.
  void check(igmp::GroupId group, bool consistent);

  bool is_pending(igmp::GroupId group) const {
    return pending_.contains(group);
  }
  std::vector<igmp::GroupId> pending_groups() const;

  struct Stats {
    std::uint64_t events = 0;
    std::uint64_t converged = 0;
    std::uint64_t timeouts = 0;
    std::map<igmp::GroupId, Summary> per_group;  ///< seconds-to-converge
  };
  Stats stats() const;

 private:
  struct Pending {
    double start = 0.0;       ///< sim time of the opening event
    std::uint64_t epoch = 0;  ///< invalidates stale deadlines
  };

  void on_deadline(igmp::GroupId group, std::uint64_t epoch);
  void update_pending_gauge();

  sim::EventQueue* queue_;
  std::string protocol_;
  std::map<igmp::GroupId, Pending> pending_;
  std::map<igmp::GroupId, RunningStats> per_group_;
  std::uint64_t next_epoch_ = 0;
  std::uint64_t events_ = 0;
  std::uint64_t converged_ = 0;
  std::uint64_t timeouts_ = 0;
};

}  // namespace scmp::proto
