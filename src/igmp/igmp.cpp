#include "igmp/igmp.hpp"

#include <algorithm>
#include <limits>

#include "util/contracts.hpp"
#include "util/log.hpp"

namespace scmp::igmp {

IgmpDomain::IgmpDomain(sim::EventQueue& queue, int num_routers)
    : queue_(&queue), num_routers_(num_routers) {
  SCMP_EXPECTS(num_routers > 0);
  membership_.resize(static_cast<std::size_t>(num_routers));
}

IgmpDomain::Members::const_iterator IgmpDomain::group_begin(
    const Members& members, GroupId group) {
  return std::partition_point(
      members.begin(), members.end(),
      [group](const Member& m) { return m.group < group; });
}

bool IgmpDomain::has_iface(const Members& members, GroupId group, int iface) {
  const auto it =
      std::lower_bound(members.begin(), members.end(),
                       Member{group, iface, std::numeric_limits<int>::min()});
  return it != members.end() && it->group == group && it->iface == iface;
}

const IgmpDomain::Members& IgmpDomain::members_of(graph::NodeId router) const {
  SCMP_EXPECTS(router >= 0 && router < num_routers_);
  return membership_[static_cast<std::size_t>(router)];
}

void IgmpDomain::host_join(graph::NodeId router, int iface, int host,
                           GroupId group) {
  SCMP_EXPECTS(router >= 0 && router < num_routers_ && iface >= 0);
  Members& members = membership_[static_cast<std::size_t>(router)];
  const Member rec{group, iface, host};
  const auto pos = std::lower_bound(members.begin(), members.end(), rec);
  if (pos != members.end() && *pos == rec) return;  // duplicate report
  const bool had_any_iface = router_is_member(router, group);
  const bool iface_was_empty = !has_iface(members, group, iface);
  members.insert(pos, rec);
  ++igmp_messages_;  // the host's IGMP Report

  if (iface_was_empty && listener_ != nullptr) {
    log_debug("igmp: router ", router, " iface ", iface, " first member of g",
              group, had_any_iface ? "" : " (first iface)");
    listener_->interface_joined(router, group, iface, !had_any_iface);
  }
}

void IgmpDomain::host_leave(graph::NodeId router, int iface, int host,
                            GroupId group) {
  remove_host(router, iface, host, group, /*silent=*/false);
}

void IgmpDomain::remove_host(graph::NodeId router, int iface, int host,
                             GroupId group, bool silent) {
  SCMP_EXPECTS(router >= 0 && router < num_routers_ && iface >= 0);
  Members& members = membership_[static_cast<std::size_t>(router)];
  const Member rec{group, iface, host};
  const auto pos = std::lower_bound(members.begin(), members.end(), rec);
  if (pos == members.end() || *pos != rec) return;  // host was not a member
  members.erase(pos);
  if (!silent) ++igmp_messages_;  // the host's IGMP Leave

  // Other hosts keep the iface subscribed.
  if (has_iface(members, group, iface)) return;
  const bool last_iface = !router_is_member(router, group);
  if (listener_ != nullptr) {
    log_debug("igmp: router ", router, " iface ", iface, " lost members of g",
              group, last_iface ? " (last iface)" : "");
    listener_->interface_left(router, group, iface, last_iface);
  }
}

void IgmpDomain::enable_soft_state(double holdtime) {
  SCMP_EXPECTS(holdtime > 0.0);
  holdtime_ = holdtime;
}

void IgmpDomain::host_crash(graph::NodeId router, int iface, int host) {
  SCMP_EXPECTS(router >= 0 && router < num_routers_ && iface >= 0);
  crashed_.emplace(HostKey{router, iface, host}, queue_->now());
}

void IgmpDomain::expire_crashed_hosts() {
  if (holdtime_ <= 0.0 || crashed_.empty()) return;
  const double now = queue_->now();
  // Collect expired (router, iface, host, group) tuples before mutating.
  struct Expired {
    graph::NodeId router;
    int iface;
    int host;
    GroupId group;
  };
  std::vector<Expired> expired;
  for (const auto& [key, crash_time] : crashed_) {
    if (now < crash_time + holdtime_) continue;
    for (const Member& m : members_of(key.router))
      if (m.iface == key.iface && m.host == key.host)
        expired.push_back({key.router, key.iface, key.host, m.group});
  }
  for (const auto& e : expired)
    remove_host(e.router, e.iface, e.host, e.group, /*silent=*/true);
}

bool IgmpDomain::router_is_member(graph::NodeId router, GroupId group) const {
  const Members& members = members_of(router);
  const auto it = group_begin(members, group);
  return it != members.end() && it->group == group;
}

std::vector<int> IgmpDomain::member_ifaces(graph::NodeId router,
                                           GroupId group) const {
  const Members& members = members_of(router);
  std::vector<int> out;
  for (auto it = group_begin(members, group);
       it != members.end() && it->group == group; ++it)
    if (out.empty() || out.back() != it->iface) out.push_back(it->iface);
  return out;
}

std::vector<graph::NodeId> IgmpDomain::member_routers(GroupId group) const {
  std::vector<graph::NodeId> out;
  for (graph::NodeId r = 0; r < num_routers_; ++r)
    if (router_is_member(r, group)) out.push_back(r);
  return out;
}

std::map<GroupId, std::vector<graph::NodeId>>
IgmpDomain::member_routers_by_group() const {
  std::map<GroupId, std::vector<graph::NodeId>> out;
  for (graph::NodeId r = 0; r < num_routers_; ++r) {
    const Members& members = membership_[static_cast<std::size_t>(r)];
    for (std::size_t i = 0; i < members.size(); ++i)
      if (i == 0 || members[i].group != members[i - 1].group)
        out[members[i].group].push_back(r);
  }
  return out;
}

int IgmpDomain::host_count(graph::NodeId router, GroupId group) const {
  const Members& members = members_of(router);
  const auto first = group_begin(members, group);
  const auto last = std::partition_point(
      first, members.end(),
      [group](const Member& m) { return m.group == group; });
  return static_cast<int>(last - first);
}

void IgmpDomain::start_query_cycle(double interval, double horizon) {
  SCMP_EXPECTS(interval > 0.0);
  queue_->schedule_in(interval, [this, interval, horizon]() {
    query_tick(interval, horizon);
  });
}

void IgmpDomain::query_tick(double interval, double horizon) {
  expire_crashed_hosts();
  for (graph::NodeId r = 0; r < num_routers_; ++r) {
    const Members& members = membership_[static_cast<std::size_t>(r)];
    if (members.empty()) continue;
    ++igmp_messages_;  // the DR's Host Membership Query
    // Report suppression: one Report per member interface per group, from
    // interfaces that still have a live (non-crashed) host.
    for (auto it = members.begin(); it != members.end();) {
      const auto run_end =
          std::find_if(it, members.end(), [&](const Member& m) {
            return m.group != it->group || m.iface != it->iface;
          });
      if (std::any_of(it, run_end, [&](const Member& m) {
            return !crashed_.contains(HostKey{r, m.iface, m.host});
          }))
        ++igmp_messages_;
      it = run_end;
    }
  }
  if (queue_->now() + interval <= horizon) {
    queue_->schedule_in(interval, [this, interval, horizon]() {
      query_tick(interval, horizon);
    });
  }
}

}  // namespace scmp::igmp
