#include "core/retx.hpp"

#include <utility>

#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "util/contracts.hpp"
#include "util/log.hpp"

namespace scmp::core {

RetxTable::RetxTable(sim::EventQueue& queue, RetxConfig cfg)
    : queue_(&queue), cfg_(cfg) {
  SCMP_EXPECTS(cfg_.max_retries >= 0);
}

void RetxTable::arm(graph::NodeId sender, std::uint64_t req,
                    double first_timeout, std::function<void()> resend,
                    std::optional<int> install_of) {
  if (!cfg_.enabled) return;
  SCMP_EXPECTS(req != 0);
  SCMP_EXPECTS(first_timeout > 0.0);
  SCMP_EXPECTS(resend != nullptr);
  Pending p;
  p.next_timeout = first_timeout * kRetxBackoff;
  p.resend = std::move(resend);
  p.install_of = install_of;
  const bool inserted =
      by_sender_[sender].emplace(req, std::move(p)).second;
  SCMP_EXPECTS(inserted && "request uids are never reused");
  if (install_of.has_value()) ++installs_in_flight_[*install_of];
  ++live_;
  if (live_ > pending_hwm_) {
    pending_hwm_ = live_;
    static obs::Gauge& hwm = obs::gauge("scmp.retx.pending_hwm");
    hwm.set(static_cast<double>(pending_hwm_));
  }
  obs::flight_record(obs::FlightEventKind::kArm, queue_->now(), req, "", -1,
                     sender, -1);
  schedule_timer(sender, req, first_timeout);
}

void RetxTable::ack(graph::NodeId sender, std::uint64_t req) {
  const auto sit = by_sender_.find(sender);
  if (sit == by_sender_.end()) return;
  const auto it = sit->second.find(req);
  if (it == sit->second.end()) return;  // duplicate/late ack
  retire(sit, it);
  ++acked_;
  static obs::Counter& acks = obs::counter("scmp.retx.acked");
  acks.inc();
  obs::flight_record(obs::FlightEventKind::kAck, queue_->now(), req, "", -1,
                     sender, -1);
}

bool RetxTable::pending(graph::NodeId sender, std::uint64_t req) const {
  const auto sit = by_sender_.find(sender);
  return sit != by_sender_.end() && sit->second.contains(req);
}

std::size_t RetxTable::pending_count() const {
  std::size_t total = 0;
  for (const auto& [sender, reqs] : by_sender_) total += reqs.size();
  return total;
}

void RetxTable::retire(Senders::iterator sit, Requests::iterator it) {
  if (it->second.install_of.has_value()) {
    const auto git = installs_in_flight_.find(*it->second.install_of);
    SCMP_ASSERT(git != installs_in_flight_.end());
    if (--git->second == 0) installs_in_flight_.erase(git);
  }
  sit->second.erase(it);
  --live_;
  if (sit->second.empty()) by_sender_.erase(sit);
}

void RetxTable::schedule_timer(graph::NodeId sender, std::uint64_t req,
                               double delay) {
  // One timer chain per entry: each fire either retransmits and schedules
  // the next fire, or exhausts the budget. An ack simply erases the entry;
  // the outstanding timer then fires as a no-op (request uids are unique, so
  // a retired req can never be confused with a live one).
  queue_->schedule_in(delay, [this, sender, req]() {
    const auto sit = by_sender_.find(sender);
    if (sit == by_sender_.end()) return;
    const auto it = sit->second.find(req);
    if (it == sit->second.end()) return;
    Pending& p = it->second;
    if (p.attempts >= cfg_.max_retries) {
      // Budget exhausted: degrade gracefully. The request's state transfer
      // is abandoned here; the soft-state reconciliation cycle repairs the
      // divergence it leaves behind.
      ++exhausted_;
      static obs::Counter& exhausted = obs::counter("scmp.retx.exhausted");
      exhausted.inc();
      obs::flight_record(obs::FlightEventKind::kExhausted, queue_->now(), req,
                         "", -1, sender, -1);
      log_debug("retx: sender ", sender, " abandoned request ", req, " after ",
                p.attempts, " retransmission(s)");
      retire(sit, it);
      return;
    }
    ++p.attempts;
    ++retransmissions_;
    static obs::Counter& retx = obs::counter("scmp.retx.packets");
    retx.inc();
    obs::flight_record(obs::FlightEventKind::kRetx, queue_->now(), req, "",
                       -1, sender, -1);
    const double next = p.next_timeout;
    p.next_timeout *= kRetxBackoff;
    p.resend();
    schedule_timer(sender, req, next);
  });
}

}  // namespace scmp::core
