#include "protocols/convergence.hpp"

#include "obs/metrics.hpp"
#include "util/contracts.hpp"

namespace scmp::proto {

ConvergenceTracker::ConvergenceTracker(sim::EventQueue& queue,
                                       std::string protocol)
    : queue_(&queue), protocol_(std::move(protocol)) {}

void ConvergenceTracker::note_event(igmp::GroupId group) {
  ++events_;
  obs::counter("scmp.convergence.events", protocol_).inc();
  auto [it, fresh] = pending_.try_emplace(group);
  if (fresh) it->second.start = queue_->now();
  it->second.epoch = ++next_epoch_;
  const std::uint64_t epoch = it->second.epoch;
  queue_->schedule_in(kTimeoutSeconds,
                      [this, group, epoch] { on_deadline(group, epoch); });
  update_pending_gauge();
}

void ConvergenceTracker::check(igmp::GroupId group, bool consistent) {
  const auto it = pending_.find(group);
  if (it == pending_.end() || !consistent) return;
  const double seconds = queue_->now() - it->second.start;
  SCMP_ASSERT(seconds >= 0.0);  // the event queue's clock never runs back
  per_group_[group].add(seconds);
  obs::histogram("scmp.convergence.seconds", protocol_).observe(seconds);
  ++converged_;
  pending_.erase(it);
  update_pending_gauge();
}

void ConvergenceTracker::on_deadline(igmp::GroupId group,
                                     std::uint64_t epoch) {
  const auto it = pending_.find(group);
  if (it == pending_.end() || it->second.epoch != epoch) return;
  ++timeouts_;
  obs::counter("scmp.convergence.timeouts", protocol_).inc();
  pending_.erase(it);
  update_pending_gauge();
}

void ConvergenceTracker::update_pending_gauge() {
  obs::gauge("scmp.convergence.pending", protocol_)
      .set(static_cast<double>(pending_.size()));
}

std::vector<igmp::GroupId> ConvergenceTracker::pending_groups() const {
  std::vector<igmp::GroupId> out;
  out.reserve(pending_.size());
  for (const auto& [group, p] : pending_) out.push_back(group);
  return out;
}

ConvergenceTracker::Stats ConvergenceTracker::stats() const {
  Stats s;
  s.events = events_;
  s.converged = converged_;
  s.timeouts = timeouts_;
  for (const auto& [group, stats] : per_group_)
    s.per_group[group] = summarize(stats);
  return s;
}

}  // namespace scmp::proto
