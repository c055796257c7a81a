#include "core/retx.hpp"

#include <utility>

#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "util/contracts.hpp"
#include "util/log.hpp"

namespace scmp::core {

RetxTable::RetxTable(sim::EventQueue& queue, RetxConfig cfg)
    : queue_(&queue), cfg_(cfg) {}

void RetxTable::arm(graph::NodeId sender, std::uint64_t req,
                    double first_timeout, Resend resend,
                    std::optional<int> install_of) {
  if (!cfg_.enabled) return;
  SCMP_EXPECTS(req > last_armed_ && "requests are armed in mint order");
  SCMP_EXPECTS(req <= req_counter_ && "request ids come from next_req()");
  SCMP_EXPECTS(first_timeout > 0.0);
  SCMP_EXPECTS(static_cast<bool>(resend));
  last_armed_ = req;
  // Ids minted but never armed since the newest slot stay cleared slots; an
  // empty ring restarts at `req`.
  if (slots_.empty()) base_ = req;
  while (base_ + slots_.size() < req) slots_.emplace_back();
  Pending& p = slots_.emplace_back();
  p.sender = sender;
  p.next_timeout = first_timeout * kRetxBackoff;
  p.resend = std::move(resend);
  p.install_of = install_of;
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
  const std::size_t i = slot_of(sender, req);
  if (i == slots_.size()) return;  // duplicate/late/unknown ack
  retire(slots_[i]);
  ++acked_;
  static obs::Counter& acks = obs::counter("scmp.retx.acked");
  acks.inc();
  obs::flight_record(obs::FlightEventKind::kAck, queue_->now(), req, "", -1,
                     sender, -1);
}

bool RetxTable::pending(graph::NodeId sender, std::uint64_t req) const {
  return slot_of(sender, req) != slots_.size();
}

std::size_t RetxTable::slot_of(graph::NodeId sender,
                               std::uint64_t req) const {
  if (req < base_ || req - base_ >= slots_.size()) return slots_.size();
  const auto i = static_cast<std::size_t>(req - base_);
  const Pending& p = slots_[i];
  return p.resend && p.sender == sender ? i : slots_.size();
}

void RetxTable::retire(Pending& p) {
  if (p.install_of.has_value()) {
    const auto git = installs_in_flight_.find(*p.install_of);
    SCMP_ASSERT(git != installs_in_flight_.end());
    if (--git->second == 0) installs_in_flight_.erase(git);
  }
  p = Pending{};
  --live_;
  while (!slots_.empty() && !slots_.front().resend) {
    slots_.pop_front();
    ++base_;
  }
}

void RetxTable::schedule_timer(graph::NodeId sender, std::uint64_t req,
                               double delay) {
  // One timer chain per entry: each fire either retransmits and schedules
  // the next fire, or exhausts the budget. An ack simply clears the slot;
  // the outstanding timer then fires as a no-op (request ids are unique, so
  // a retired req can never be confused with a live one).
  queue_->schedule_in(delay, [this, sender, req]() {
    const std::size_t i = slot_of(sender, req);
    if (i == slots_.size()) return;
    Pending& p = slots_[i];
    if (p.attempts >= kRetxMaxRetries) {
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
      retire(p);
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
