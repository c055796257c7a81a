#include "igmp/igmp.hpp"

#include "util/contracts.hpp"
#include "util/log.hpp"

namespace scmp::igmp {

IgmpDomain::IgmpDomain(sim::EventQueue& queue, int num_routers)
    : queue_(&queue), num_routers_(num_routers) {
  SCMP_EXPECTS(num_routers > 0);
  membership_.resize(static_cast<std::size_t>(num_routers));
}

void IgmpDomain::host_join(graph::NodeId router, int iface, int host,
                           GroupId group) {
  SCMP_EXPECTS(router >= 0 && router < num_routers_ && iface >= 0);
  auto& groups = membership_[static_cast<std::size_t>(router)];
  const bool had_any_iface = router_is_member(router, group);
  auto& hosts = groups[group][iface];
  const bool iface_was_empty = hosts.empty();
  if (!hosts.insert(host).second) return;  // duplicate report
  ++igmp_messages_;                        // the host's IGMP Report

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
  auto& groups = membership_[static_cast<std::size_t>(router)];
  auto git = groups.find(group);
  if (git == groups.end()) return;
  auto iit = git->second.find(iface);
  if (iit == git->second.end()) return;
  if (iit->second.erase(host) == 0) return;  // host was not a member
  if (!silent) ++igmp_messages_;             // the host's IGMP Leave

  if (!iit->second.empty()) return;  // other hosts keep the iface subscribed
  git->second.erase(iit);
  const bool last_iface = git->second.empty();
  if (last_iface) groups.erase(git);
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
    const auto& groups = membership_[static_cast<std::size_t>(key.router)];
    for (const auto& [group, ifaces] : groups) {
      const auto it = ifaces.find(key.iface);
      if (it != ifaces.end() && it->second.contains(key.host))
        expired.push_back({key.router, key.iface, key.host, group});
    }
  }
  for (const auto& e : expired)
    remove_host(e.router, e.iface, e.host, e.group, /*silent=*/true);
}

bool IgmpDomain::router_is_member(graph::NodeId router, GroupId group) const {
  SCMP_EXPECTS(router >= 0 && router < num_routers_);
  const auto& groups = membership_[static_cast<std::size_t>(router)];
  const auto it = groups.find(group);
  return it != groups.end() && !it->second.empty();
}

std::vector<int> IgmpDomain::member_ifaces(graph::NodeId router,
                                           GroupId group) const {
  SCMP_EXPECTS(router >= 0 && router < num_routers_);
  std::vector<int> out;
  const auto& groups = membership_[static_cast<std::size_t>(router)];
  const auto it = groups.find(group);
  if (it == groups.end()) return out;
  for (const auto& [iface, hosts] : it->second)
    if (!hosts.empty()) out.push_back(iface);
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
    for (const auto& [group, ifaces] : membership_[static_cast<std::size_t>(r)])
      if (!ifaces.empty()) out[group].push_back(r);
  }
  return out;
}

int IgmpDomain::host_count(graph::NodeId router, GroupId group) const {
  SCMP_EXPECTS(router >= 0 && router < num_routers_);
  const auto& groups = membership_[static_cast<std::size_t>(router)];
  const auto it = groups.find(group);
  if (it == groups.end()) return 0;
  int total = 0;
  for (const auto& [iface, hosts] : it->second)
    total += static_cast<int>(hosts.size());
  return total;
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
    const auto& groups = membership_[static_cast<std::size_t>(r)];
    if (groups.empty()) continue;
    ++igmp_messages_;  // the DR's Host Membership Query
    for (const auto& [group, ifaces] : groups) {
      // Report suppression: one Report per member interface per group, from
      // interfaces that still have a live (non-crashed) host.
      for (const auto& [iface, hosts] : ifaces) {
        for (int host : hosts) {
          if (!crashed_.contains(HostKey{r, iface, host})) {
            ++igmp_messages_;
            break;
          }
        }
      }
    }
  }
  if (queue_->now() + interval <= horizon) {
    queue_->schedule_in(interval, [this, interval, horizon]() {
      query_tick(interval, horizon);
    });
  }
}

}  // namespace scmp::igmp
