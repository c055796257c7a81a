#include "core/retx.hpp"

#include <algorithm>
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
  if (size_ == 0) base_ = req;
  while (base_ + size_ < req) push_slot();
  Pending& p = push_slot();
  p.sender = sender;
  p.next_timeout = first_timeout * kRetxBackoff;
  p.resend = std::move(resend);
  p.install_of = install_of;
  if (install_of.has_value()) {
    const auto it = std::lower_bound(installs_in_flight_.begin(),
                                     installs_in_flight_.end(),
                                     InstallCount{*install_of, 0});
    if (it != installs_in_flight_.end() && it->first == *install_of) {
      ++it->second;
    } else {
      installs_in_flight_.insert(it, InstallCount{*install_of, 1});
    }
  }
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
  const std::size_t i = live_offset(sender, req);
  if (i == size_) return;  // duplicate/late/unknown ack
  retire(slot(i));
  ++acked_;
  static obs::Counter& acks = obs::counter("scmp.retx.acked");
  acks.inc();
  obs::flight_record(obs::FlightEventKind::kAck, queue_->now(), req, "", -1,
                     sender, -1);
}

bool RetxTable::pending(graph::NodeId sender, std::uint64_t req) const {
  return live_offset(sender, req) != size_;
}

std::size_t RetxTable::live_offset(graph::NodeId sender,
                                   std::uint64_t req) const {
  if (req < base_ || req - base_ >= size_) return size_;
  const auto i = static_cast<std::size_t>(req - base_);
  const Pending& p = slot(i);
  return p.resend && p.sender == sender ? i : size_;
}

RetxTable::Pending& RetxTable::push_slot() {
  if (size_ == ring_.size()) {
    // Full: move the slots oldest-first into a ring twice the size (a
    // fresh ring starts at 16).
    std::vector<Pending> grown(std::max<std::size_t>(16, 2 * ring_.size()));
    for (std::size_t i = 0; i < size_; ++i) grown[i] = std::move(slot(i));
    ring_.swap(grown);
    head_ = 0;
  }
  return slot(size_++);
}

std::size_t RetxTable::install_index(int group) const {
  const auto it =
      std::lower_bound(installs_in_flight_.begin(), installs_in_flight_.end(),
                       InstallCount{group, 0});
  return it != installs_in_flight_.end() && it->first == group
             ? static_cast<std::size_t>(it - installs_in_flight_.begin())
             : installs_in_flight_.size();
}

void RetxTable::retire(Pending& p) {
  if (p.install_of.has_value()) {
    const std::size_t i = install_index(*p.install_of);
    SCMP_ASSERT(i != installs_in_flight_.size());
    if (--installs_in_flight_[i].second == 0)
      installs_in_flight_.erase(installs_in_flight_.begin() +
                                static_cast<std::ptrdiff_t>(i));
  }
  p = Pending{};
  --live_;
  while (size_ > 0 && !slot(0).resend) {
    head_ = (head_ + 1) & (ring_.size() - 1);
    --size_;
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
    const std::size_t i = live_offset(sender, req);
    if (i == size_) return;
    Pending& p = slot(i);
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
    p.resend();  // arms nothing (see arm), so `p` stays put
    schedule_timer(sender, req, next);
  });
}

}  // namespace scmp::core
