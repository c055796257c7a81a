#include "sim/network.hpp"

#include <algorithm>
#include <array>

#include "obs/metrics.hpp"
#include "util/log.hpp"

namespace scmp::sim {

namespace {

// Link-level observability: packets/bytes transmitted by PacketType plus the
// three drop classes. The counters are resolved once (function-local static)
// so the per-packet cost with metrics disabled is a relaxed load + branch.
constexpr int kNumPacketTypes =
    static_cast<int>(PacketType::kIgmpLeave) + 1;

struct LinkCounters {
  std::array<obs::Counter*, kNumPacketTypes> packets{};
  std::array<obs::Counter*, kNumPacketTypes> bytes{};
  obs::Counter* no_link_drops = nullptr;
  obs::Counter* queue_drops = nullptr;
  obs::Counter* injected_drops = nullptr;
  obs::Counter* deliveries = nullptr;
};

const LinkCounters& link_counters() {
  static const LinkCounters counters = [] {
    LinkCounters c;
    for (int i = 0; i < kNumPacketTypes; ++i) {
      const auto t = static_cast<PacketType>(i);
      c.packets[static_cast<std::size_t>(i)] =
          &obs::counter("net.tx.packets", to_string(t));
      c.bytes[static_cast<std::size_t>(i)] =
          &obs::counter("net.tx.bytes", to_string(t));
    }
    c.no_link_drops = &obs::counter("net.drops.no_link");
    c.queue_drops = &obs::counter("net.drops.queue");
    c.injected_drops = &obs::counter("net.drops.injected");
    c.deliveries = &obs::counter("net.deliveries");
    return c;
  }();
  return counters;
}

}  // namespace

Network::Network(const graph::Graph& g, EventQueue& queue,
                 double bandwidth_bps, double delay_scale)
    : graph_(g),
      queue_(&queue),
      paths_(g),
      agents_(static_cast<std::size_t>(g.num_nodes()), nullptr),
      node_queue_limit_(static_cast<std::size_t>(g.num_nodes())),
      bandwidth_bps_(bandwidth_bps),
      delay_scale_(delay_scale) {
  SCMP_EXPECTS(bandwidth_bps > 0.0 && delay_scale > 0.0);
  egress_.resize(static_cast<std::size_t>(g.num_nodes()));
  link_bytes_.resize(static_cast<std::size_t>(g.num_nodes()));
  for (graph::NodeId u = 0; u < g.num_nodes(); ++u) {
    egress_[static_cast<std::size_t>(u)].resize(g.neighbors(u).size());
    link_bytes_[static_cast<std::size_t>(u)].assign(g.neighbors(u).size(), 0);
  }
}

void Network::set_node_queue_limit(graph::NodeId node, std::size_t packets) {
  SCMP_EXPECTS(graph_.valid(node));
  node_queue_limit_[static_cast<std::size_t>(node)] = packets;
}

std::size_t Network::node_queue_limit(graph::NodeId node) const {
  SCMP_EXPECTS(graph_.valid(node));
  return node_queue_limit_[static_cast<std::size_t>(node)].value_or(
      queue_limit_);
}

void Network::Egress::push(Stamp s) {
  if (size_ == ring_.size()) {
    // Full: unroll oldest-first, then double (a fresh ring starts at 4).
    std::rotate(ring_.begin(),
                ring_.begin() + static_cast<std::ptrdiff_t>(head_),
                ring_.end());
    head_ = 0;
    ring_.resize(std::max<std::size_t>(4, 2 * ring_.size()));
  }
  ring_[(head_ + size_) & (ring_.size() - 1)] = s;
  ++size_;
}

const Network::Egress& Network::egress(graph::NodeId from,
                                       graph::NodeId to) const {
  const auto& nbs = graph_.neighbors(from);
  std::size_t slot = 0;
  while (slot < nbs.size() && nbs[slot].to != to) ++slot;
  SCMP_EXPECTS(slot < nbs.size() && "no such link");
  return egress_[static_cast<std::size_t>(from)][slot];
}

int Network::link_backlog(graph::NodeId from, graph::NodeId to) const {
  // Stamps are in (time, seq) order, so the departed ones are a prefix.
  const Egress& q = egress(from, to);
  std::size_t departed = 0;
  while (departed < q.size() &&
         queue_->passed(q.at(departed).done, q.at(departed).seq))
    ++departed;
  return static_cast<int>(q.size() - departed);
}

std::size_t Network::link_stamps(graph::NodeId from, graph::NodeId to) const {
  return egress(from, to).size();
}

void Network::fail_link(graph::NodeId u, graph::NodeId v) {
  SCMP_EXPECTS(graph_.has_edge(u, v));
  // remove_edge erases {u, v} order-preservingly from rows u and v only.
  // Erasing the same slot from those two rows' link state keeps every
  // surviving directed link aligned with its byte counter and its egress
  // queue; only the dead link's state goes (its packets in flight still
  // arrive: their arrival events need no link state).
  const auto erase_slot = [this](graph::NodeId from, graph::NodeId to) {
    const auto f = static_cast<std::size_t>(from);
    const auto& nbs = graph_.neighbors(from);
    for (std::size_t i = 0; i < nbs.size(); ++i) {
      if (nbs[i].to != to) continue;
      const auto slot = static_cast<std::ptrdiff_t>(i);
      egress_[f].erase(egress_[f].begin() + slot);
      link_bytes_[f].erase(link_bytes_[f].begin() + slot);
      return;
    }
  };
  erase_slot(u, v);
  erase_slot(v, u);
  graph_.remove_edge(u, v);
  SCMP_EXPECTS(graph_.is_connected());  // unicast routing needs reachability
  paths_.apply_link_event(graph_, u, v);
  if (link_listener_ != nullptr) link_listener_->handle_link_event(u, v);
}

void Network::attach(graph::NodeId node, RouterAgent* agent) {
  SCMP_EXPECTS(graph_.valid(node));
  agents_[static_cast<std::size_t>(node)] = agent;
}

RouterAgent* Network::agent(graph::NodeId node) const {
  SCMP_EXPECTS(graph_.valid(node));
  return agents_[static_cast<std::size_t>(node)];
}

double Network::link_delay_seconds(graph::NodeId u, graph::NodeId v) const {
  const graph::EdgeAttr* e = graph_.edge(u, v);
  SCMP_EXPECTS(e != nullptr);
  return e->delay * delay_scale_;
}

double Network::idle_hop_seconds(graph::NodeId from, graph::NodeId to,
                                 std::size_t bytes) const {
  const graph::EdgeAttr* e = graph_.edge(from, to);
  if (e == nullptr) return 0.0;
  return static_cast<double>(bytes) * 8.0 / bandwidth_bps_ +
         e->delay * delay_scale_;
}

double Network::idle_route_seconds(graph::NodeId from, graph::NodeId to,
                                   std::size_t bytes) const {
  double total = 0.0;
  for (graph::NodeId at = from; at != to;) {
    const graph::NodeId hop = paths_.next_hop(at, to);
    total += idle_hop_seconds(at, hop, bytes);
    at = hop;
  }
  return total;
}

double Network::link_round_trip(graph::NodeId from, graph::NodeId to,
                                std::size_t request_bytes) const {
  return idle_hop_seconds(from, to, request_bytes) +
         idle_hop_seconds(to, from, kControlPacketBytes);
}

double Network::unicast_round_trip(graph::NodeId from, graph::NodeId to,
                                   graph::NodeId ack_to,
                                   std::size_t request_bytes) const {
  return idle_route_seconds(from, to, request_bytes) +
         idle_route_seconds(to, ack_to, kControlPacketBytes);
}

void Network::transmit(graph::NodeId from, graph::NodeId to, Packet&& pkt,
                       Arrival arrival) {
  // The link's slot in the sender's row indexes its egress queue and byte
  // counter; the row entry holds its attributes.
  const auto* nbs = graph_.valid(from) ? &graph_.neighbors(from) : nullptr;
  std::size_t slot = 0;
  while (nbs != nullptr && slot < nbs->size() && (*nbs)[slot].to != to) ++slot;
  if (nbs == nullptr || slot == nbs->size()) {
    // The interface is down (the link failed while this router still held
    // forwarding state across it): drop, as a real router would.
    ++stats_.no_link_drops;
    link_counters().no_link_drops->inc();
    return;
  }
  const graph::EdgeAttr& e = (*nbs)[slot].attr;

  // Injected loss (verification fault model) happens at the egress interface,
  // before the packet consumes any link resources.
  if (drop_filter_ && drop_filter_(from, to, pkt)) {
    ++stats_.injected_drops;
    link_counters().injected_drops->inc();
    return;
  }

  // Drop-tail egress queue (the finite buffers behind the paper's §I
  // traffic-concentration argument). Packets whose departure the event
  // queue has passed leave it first.
  const auto f = static_cast<std::size_t>(from);
  Egress& egress = egress_[f][slot];
  while (!egress.empty() &&
         queue_->passed(egress.at(0).done, egress.at(0).seq))
    egress.pop();
  if (egress.size() >= node_queue_limit(from)) {
    ++stats_.queue_drops;
    link_counters().queue_drops->inc();
    return;
  }

  // Overhead accounting: every link crossing contributes the link's cost
  // (paper §IV-B definition of data/protocol overhead). Only admitted
  // packets count — a queue-dropped packet never crosses the link, so it
  // must not inflate the overhead metrics.
  if (pkt.is_data()) {
    stats_.data_overhead += e.cost;
    ++stats_.data_link_crossings;
  } else {
    stats_.protocol_overhead += e.cost;
    ++stats_.protocol_link_crossings;
  }

  link_bytes_[f][slot] += pkt.size_bytes;
  {
    const auto type_idx = static_cast<std::size_t>(pkt.type);
    const LinkCounters& counters = link_counters();
    counters.packets[type_idx]->inc();
    counters.bytes[type_idx]->inc(pkt.size_bytes);
  }
  dispatching_observers_ = true;
  for (const TransmitCallback& observer : transmit_observers_)
    observer(from, to, pkt, queue_->now());
  dispatching_observers_ = false;

  // FIFO on the port: the packet starts once the newest queued one is out
  // (an empty queue means the port is idle), and leaves the egress queue
  // when its transmission completes.
  const SimTime now = queue_->now();
  const double tx = static_cast<double>(pkt.size_bytes) * 8.0 / bandwidth_bps_;
  const SimTime start =
      egress.empty() ? now : std::max(now, egress.back().done);
  const SimTime done = start + tx;
  const SimTime arrival_at = done + e.delay * delay_scale_;
  // The packet moves into the arrival closure — no copy — and the closure
  // is a fixed-size capture (this + endpoints + mode + the packet itself)
  // sized to the queue's inline handler buffer, so the hot delivery path
  // stores it without boxing; schedule_at builds it in its event node and
  // runs it there. Network guarantees the fit at compile time:
  auto deliver = [this, from, to, arrival, p = std::move(pkt)]() mutable {
    if (arrival == Arrival::kForward) {
      forward_unicast(to, from, std::move(p));
      return;
    }
    RouterAgent* a = agents_[static_cast<std::size_t>(to)];
    SCMP_ASSERT(a != nullptr);
    a->handle(p, from);
  };
  static_assert(EventQueue::Handler::stores_inline<decltype(deliver)>(),
                "delivery closure must fit kEventHandlerCapacity");
  // The stamp takes the arrival's sequence number: the departure sorts just
  // before the arrival scheduled with it.
  egress.push({done, queue_->next_seq()});
  queue_->schedule_at(arrival_at, std::move(deliver));
}

void Network::send_link(graph::NodeId from, graph::NodeId to, Packet pkt) {
  // describe() builds a string; guard so the disabled-trace hot path pays
  // only the level check.
  if (log_level() >= LogLevel::kTrace)
    log_trace("link ", from, "->", to, " ", describe(pkt));
  transmit(from, to, std::move(pkt), Arrival::kHandle);
}

void Network::forward_unicast(graph::NodeId at, graph::NodeId prev,
                              Packet&& pkt) {
  if (at == pkt.dst) {
    RouterAgent* a = agents_[static_cast<std::size_t>(at)];
    SCMP_ASSERT(a != nullptr);
    a->handle(pkt, prev);
    return;
  }
  const graph::NodeId hop = paths_.next_hop(at, pkt.dst);
  transmit(at, hop, std::move(pkt), Arrival::kForward);
}

void Network::send_unicast(graph::NodeId from, Packet pkt) {
  SCMP_EXPECTS(graph_.valid(pkt.dst));
  if (log_level() >= LogLevel::kTrace)
    log_trace("unicast ", from, "=>", pkt.dst, " ", describe(pkt));
  if (from == pkt.dst) {
    // Local delivery still goes through the event queue for determinism.
    queue_->schedule_in(0.0, [this, from, p = std::move(pkt)]() {
      RouterAgent* a = agents_[static_cast<std::size_t>(from)];
      SCMP_ASSERT(a != nullptr);
      a->handle(p, graph::kInvalidNode);
    });
    return;
  }
  forward_unicast(from, graph::kInvalidNode, std::move(pkt));
}

void Network::inject(graph::NodeId at, Packet pkt) {
  queue_->schedule_in(0.0, [this, at, p = std::move(pkt)]() {
    RouterAgent* a = agents_[static_cast<std::size_t>(at)];
    SCMP_ASSERT(a != nullptr);
    a->handle(p, graph::kInvalidNode);
  });
}

std::uint64_t Network::bytes_on_link(graph::NodeId u, graph::NodeId v) const {
  SCMP_EXPECTS(graph_.edge(u, v) != nullptr);
  std::uint64_t total = 0;
  auto add_direction = [&](graph::NodeId from, graph::NodeId to) {
    const auto& nbs = graph_.neighbors(from);
    for (std::size_t i = 0; i < nbs.size(); ++i) {
      if (nbs[i].to == to) {
        total += link_bytes_[static_cast<std::size_t>(from)][i];
        return;
      }
    }
  };
  add_direction(u, v);
  add_direction(v, u);
  return total;
}

void Network::report_delivery(const Packet& pkt, graph::NodeId member) {
  ++stats_.deliveries;
  link_counters().deliveries->inc();
  const double e2e = queue_->now() - pkt.created_at;
  stats_.max_end_to_end_delay = std::max(stats_.max_end_to_end_delay, e2e);
  if (on_delivery_) on_delivery_(pkt, member, queue_->now());
}

}  // namespace scmp::sim
