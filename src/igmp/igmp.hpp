// IGMP host/designated-router model (paper §II-C). Hosts register group
// membership on their subnet; the designated router (one per subnet, which in
// our domain model is the router the subnet hangs off) tracks which of its
// interfaces have at least one member host and notifies the multicast routing
// protocol of interface-level changes. IGMP traffic stays inside the subnet
// and therefore never crosses an inter-router link — it contributes zero to
// the paper's data/protocol overhead metrics — but Query/Report/Leave
// exchanges are still modelled and counted for completeness.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "graph/graph.hpp"
#include "sim/event_queue.hpp"

namespace scmp::igmp {

using GroupId = int;

/// Routing-protocol side of IGMP: interface-level membership transitions at a
/// designated router.
class MembershipListener {
 public:
  virtual ~MembershipListener() = default;

  /// Interface `iface` at `router` gained its first member host of `group`.
  /// `first_iface` is true when the router previously had no member
  /// interfaces for the group at all (the paper's trigger for JOIN requests).
  virtual void interface_joined(graph::NodeId router, GroupId group, int iface,
                                bool first_iface) = 0;

  /// Interface `iface` lost its last member host of `group`. `last_iface` is
  /// true when the router now has no member interfaces left for the group.
  virtual void interface_left(graph::NodeId router, GroupId group, int iface,
                              bool last_iface) = 0;
};

class IgmpDomain {
 public:
  IgmpDomain(sim::EventQueue& queue, int num_routers);

  void set_listener(MembershipListener* listener) { listener_ = listener; }

  /// Host `host` on subnet (`router`, `iface`) reports membership of `group`
  /// (an unsolicited IGMP Report). Idempotent per host.
  void host_join(graph::NodeId router, int iface, int host, GroupId group);

  /// Host leaves (IGMP Leave). Idempotent per host.
  void host_leave(graph::NodeId router, int iface, int host, GroupId group);

  /// True when any interface of `router` has a member host of `group`.
  bool router_is_member(graph::NodeId router, GroupId group) const;

  /// Interfaces of `router` that currently have member hosts of `group`.
  std::vector<int> member_ifaces(graph::NodeId router, GroupId group) const;

  /// All routers that are members of `group`.
  std::vector<graph::NodeId> member_routers(GroupId group) const;

  /// Every group with a member anywhere in the domain, mapped to its member
  /// routers in ascending order (member_routers of each), from one pass over
  /// the membership state: the ground truth the m-router's soft-state
  /// reconciliation pass compares with its database when re-soliciting
  /// membership lost to dropped JOIN/LEAVE packets.
  std::map<GroupId, std::vector<graph::NodeId>> member_routers_by_group()
      const;

  int host_count(graph::NodeId router, GroupId group) const;

  /// Schedules periodic Host Membership Queries on every router with members
  /// until `horizon`; each member interface with at least one live host
  /// answers with one (suppressed) Report per group.
  void start_query_cycle(double interval, double horizon);

  /// Enables soft-state membership: a host that stops answering queries (see
  /// host_crash) is expired `holdtime` seconds after its crash, at the next
  /// query tick — the DR-side robustness IGMP's query/report cycle exists
  /// for. Expiry triggers the same listener transitions as an explicit
  /// leave, but sends no IGMP Leave (the host is gone).
  void enable_soft_state(double holdtime);

  /// Marks a host as silently dead: it no longer refreshes its memberships.
  void host_crash(graph::NodeId router, int iface, int host);

  /// Total IGMP messages exchanged (Queries + Reports + Leaves).
  std::uint64_t igmp_message_count() const { return igmp_messages_; }

 private:
  void query_tick(double interval, double horizon);
  void expire_crashed_hosts();
  /// Removes one host's membership; `silent` suppresses the Leave counter
  /// (used by soft-state expiry).
  void remove_host(graph::NodeId router, int iface, int host, GroupId group,
                   bool silent);

  struct HostKey {
    graph::NodeId router;
    int iface;
    int host;
    auto operator<=>(const HostKey&) const = default;
  };
  /// One member host of a group on one of a router's interfaces.
  struct Member {
    GroupId group;
    int iface;
    int host;
    auto operator<=>(const Member&) const = default;
  };
  using Members = std::vector<Member>;

  const Members& members_of(graph::NodeId router) const;
  /// The first of `members`' records of `group` (or where it would go).
  static Members::const_iterator group_begin(const Members& members,
                                             GroupId group);
  /// Whether `members` holds a record of `group` on `iface`.
  static bool has_iface(const Members& members, GroupId group, int iface);

  sim::EventQueue* queue_;
  int num_routers_;
  /// Per router, one record per member host, ascending by (group, iface,
  /// host): a router's membership of a group is one contiguous run, so
  /// router_is_member (one call or two per DATA hop) is one binary search.
  std::vector<Members> membership_;
  MembershipListener* listener_ = nullptr;
  std::uint64_t igmp_messages_ = 0;
  double holdtime_ = 0.0;  ///< 0 = soft state disabled
  std::map<HostKey, double> crashed_;  ///< host -> crash time
};

}  // namespace scmp::igmp
