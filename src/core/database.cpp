#include "core/database.hpp"

#include "obs/metrics.hpp"
#include "util/contracts.hpp"

namespace scmp::core {

McastAddress MRouterDatabase::start_session(GroupId group, double now) {
  const auto it = active_.find(group);
  if (it != active_.end()) return it->second.address;
  SessionRecord rec;
  rec.group = group;
  rec.address = next_address_++;
  rec.started_at = now;
  active_.emplace(group, rec);
  return rec.address;
}

void MRouterDatabase::end_session(GroupId group, double now) {
  const auto it = active_.find(group);
  SCMP_EXPECTS(it != active_.end());
  it->second.ended_at = now;
  ended_.push_back(it->second);
  active_.erase(it);
  members_.erase(group);
  last_change_.erase(group);
}

bool MRouterDatabase::session_active(GroupId group) const {
  return active_.contains(group);
}

std::optional<McastAddress> MRouterDatabase::address_of(GroupId group) const {
  const auto it = active_.find(group);
  if (it == active_.end()) return std::nullopt;
  return it->second.address;
}

std::vector<std::pair<GroupId, McastAddress>>
MRouterDatabase::published_addresses() const {
  std::vector<std::pair<GroupId, McastAddress>> out;
  out.reserve(active_.size());
  for (const auto& [group, rec] : active_) out.emplace_back(group, rec.address);
  return out;
}

void MRouterDatabase::record_join(GroupId group, graph::NodeId router,
                                  double now) {
  members_[group].insert(router);
  log_change({now, group, router, true});
}

void MRouterDatabase::record_leave(GroupId group, graph::NodeId router,
                                   double now) {
  const auto it = members_.find(group);
  if (it != members_.end()) it->second.erase(router);
  log_change({now, group, router, false});
}

void MRouterDatabase::log_change(const MembershipEvent& ev) {
  static obs::Gauge& size = obs::gauge("scmp.state.membership_log");
  log_.push_back(ev);
  last_change_[ev.group] = ev.time;
  size.set(static_cast<double>(log_.size()));
}

void MRouterDatabase::record_data_forwarded(GroupId group,
                                            std::uint64_t bytes) {
  const auto it = active_.find(group);
  if (it == active_.end()) return;
  ++it->second.data_packets_forwarded;
  it->second.data_bytes_forwarded += bytes;
}

const std::set<graph::NodeId>& MRouterDatabase::members_of(
    GroupId group) const {
  static const std::set<graph::NodeId> kEmpty;
  const auto it = members_.find(group);
  return it == members_.end() ? kEmpty : it->second;
}

std::optional<double> MRouterDatabase::last_membership_change(
    GroupId group) const {
  const auto it = last_change_.find(group);
  if (it == last_change_.end()) return std::nullopt;
  return it->second;
}

std::optional<SessionRecord> MRouterDatabase::session(GroupId group) const {
  const auto it = active_.find(group);
  if (it != active_.end()) return it->second;
  for (const auto& rec : ended_)
    if (rec.group == group) return rec;
  return std::nullopt;
}

std::vector<SessionRecord> MRouterDatabase::all_sessions() const {
  std::vector<SessionRecord> out;
  out.reserve(active_.size() + ended_.size());
  for (const auto& [group, rec] : active_) out.push_back(rec);
  out.insert(out.end(), ended_.begin(), ended_.end());
  return out;
}

int MRouterDatabase::billing_events(graph::NodeId router) const {
  int count = 0;
  for (const auto& ev : log_)
    if (ev.router == router) ++count;
  return count;
}

}  // namespace scmp::core
