// The m-router's service database (paper §II-C): multicast address
// management (issue / revoke / publish), session lifecycle records, and the
// membership on-off log the paper calls out for scheduling and
// accounting/billing. All service-related state the m-router is the sole
// owner of lives here, queryable by outsiders. Per-group state (session
// records, member sets) lives in group-keyed ordered maps, so every query
// answers in group-sorted order.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include "graph/graph.hpp"

namespace scmp::core {

using GroupId = int;

/// A simulated class-D multicast address.
using McastAddress = std::uint32_t;

struct SessionRecord {
  GroupId group = -1;
  McastAddress address = 0;
  double started_at = 0.0;
  std::optional<double> ended_at;
  std::uint64_t data_packets_forwarded = 0;
  std::uint64_t data_bytes_forwarded = 0;
};

struct MembershipEvent {
  double time = 0.0;
  GroupId group = -1;
  graph::NodeId router = graph::kInvalidNode;
  bool joined = false;  ///< false = left
};

class MRouterDatabase {
 public:
  /// Starts a session for `group`, issuing a fresh multicast address.
  /// Idempotent: re-starting an active session returns its address.
  McastAddress start_session(GroupId group, double now);

  /// Tears down an expired session and revokes its address.
  void end_session(GroupId group, double now);

  bool session_active(GroupId group) const;
  std::optional<McastAddress> address_of(GroupId group) const;

  /// Published view of all active (group, address) bindings, group-sorted.
  std::vector<std::pair<GroupId, McastAddress>> published_addresses() const;

  /// Records a membership join for accounting/billing. Every call logs one
  /// record: a retransmitted JOIN never reaches the database, because the
  /// receiving m-router processes each request uid once.
  void record_join(GroupId group, graph::NodeId router, double now);
  void record_leave(GroupId group, graph::NodeId router, double now);
  void record_data_forwarded(GroupId group, std::uint64_t bytes);

  const std::set<graph::NodeId>& members_of(GroupId group) const;
  const std::vector<MembershipEvent>& membership_log() const { return log_; }
  /// Time of the group's latest logged membership event in its current
  /// session; nullopt when it has none.
  std::optional<double> last_membership_change(GroupId group) const;
  std::optional<SessionRecord> session(GroupId group) const;
  std::vector<SessionRecord> all_sessions() const;

  /// Accounting: number of membership events charged to a router.
  int billing_events(graph::NodeId router) const;

 private:
  /// Appends one record to the membership log, which grows with history
  /// (its length is the scmp.state.membership_log gauge).
  void log_change(const MembershipEvent& ev);

  std::map<GroupId, SessionRecord> active_;
  std::map<GroupId, std::set<graph::NodeId>> members_;
  std::vector<SessionRecord> ended_;
  std::vector<MembershipEvent> log_;
  /// Per group, the time of its latest log_ entry; dropped at end_session.
  std::map<GroupId, double> last_change_;
  McastAddress next_address_ = 0xE0000100;  // 224.0.1.0 onwards
};

}  // namespace scmp::core
