// The simulated domain: the topology, its shortest-path store (the
// link-state unicast substrate and the m-routers' P_sl / P_lc database in
// one), the per-router protocol agents, and the two bandwidth-accounting
// counters the paper evaluates (data overhead and protocol overhead, both in
// link-cost units per link crossing, §IV-B).
#pragma once

#include <functional>
#include <optional>
#include <vector>

#include "graph/graph.hpp"
#include "graph/paths.hpp"
#include "sim/event_queue.hpp"
#include "sim/packet.hpp"
#include "util/contracts.hpp"

namespace scmp::sim {

/// Protocol logic attached to one router. `from` is the neighbouring router
/// the packet arrived from, or kInvalidNode when locally injected.
class RouterAgent {
 public:
  virtual ~RouterAgent() = default;
  virtual void handle(const Packet& pkt, graph::NodeId from) = 0;
};

/// Told of every link failure (Network::set_link_listener), after the
/// network's shortest-path store has reconverged on the residual topology.
class LinkListener {
 public:
  virtual ~LinkListener() = default;
  virtual void handle_link_event(graph::NodeId u, graph::NodeId v) = 0;
};

struct NetStats {
  double data_overhead = 0.0;      ///< sum of link costs crossed by data
  double protocol_overhead = 0.0;  ///< sum of link costs crossed by control
  std::uint64_t data_link_crossings = 0;
  std::uint64_t protocol_link_crossings = 0;
  std::uint64_t deliveries = 0;
  double max_end_to_end_delay = 0.0;  ///< seconds, over all data deliveries
  /// Sends attempted over a non-existent (e.g. just-failed) link; the
  /// sending router sees the interface down and drops the packet.
  std::uint64_t no_link_drops = 0;
  /// Packets dropped because a finite egress queue overflowed (the paper's
  /// §I traffic-concentration failure mode).
  std::uint64_t queue_drops = 0;
  /// Packets dropped by an installed fault-injection filter
  /// (Network::set_drop_filter; the verification harness's loss model).
  std::uint64_t injected_drops = 0;
};

class Network {
 public:
  /// `bandwidth_bps` is the line rate of every port. `delay_scale` converts
  /// graph delay units (grid distances, up to ~65534) to seconds; the
  /// default puts a worst-case single link at ~65 ms.
  /// The network keeps its own copy of the topology so links can fail at
  /// runtime (fail_link).
  Network(const graph::Graph& g, EventQueue& queue,
          double bandwidth_bps = 1e9, double delay_scale = 1e-6);

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  const graph::Graph& graph() const { return graph_; }

  /// Removes the link {u, v}, repairs the shortest-path store once
  /// (graph::AllPairsPaths::apply_link_event: only the subtrees the cut
  /// orphans are re-settled) and then tells the link listener, if any.
  /// Packets already in flight on the link still arrive; every other link
  /// keeps its queue and byte counter. The residual topology must stay
  /// connected (unicast routing assumes reachability).
  void fail_link(graph::NodeId u, graph::NodeId v);
  /// The shortest-path store over the current topology, built with the
  /// network: unicast first hops (next_hop) and both DCDM path families.
  const graph::AllPairsPaths& paths() const { return paths_; }
  /// Registers the one listener fail_link notifies (non-owning; nullptr
  /// unregisters). The multicast protocol registers itself.
  void set_link_listener(LinkListener* listener) {
    link_listener_ = listener;
  }
  EventQueue& queue() { return *queue_; }
  SimTime now() const { return queue_->now(); }
  NetStats& stats() { return stats_; }
  const NetStats& stats() const { return stats_; }

  /// Registers the protocol agent for a router (non-owning).
  void attach(graph::NodeId node, RouterAgent* agent);
  RouterAgent* agent(graph::NodeId node) const;

  /// Transmits over the physical edge {from, to} (must exist); the agent at
  /// `to` receives handle(pkt, from) after propagation + transmission delay.
  void send_link(graph::NodeId from, graph::NodeId to, Packet pkt);

  /// IP unicast to pkt.dst: forwarded hop-by-hop on the shortest-delay path;
  /// only the destination's agent sees the packet (intermediate routers
  /// forward at the IP layer, exactly how SCMP JOIN/LEAVE and encapsulated
  /// data travel in the paper).
  void send_unicast(graph::NodeId from, Packet pkt);

  /// Hands a locally-originated packet to a node's own agent at current time.
  void inject(graph::NodeId at, Packet pkt);

  /// Fresh identity for an original data packet.
  std::uint64_t next_uid() { return ++uid_counter_; }

  using DeliveryCallback =
      std::function<void(const Packet&, graph::NodeId member, SimTime at)>;
  void set_delivery_callback(DeliveryCallback cb) { on_delivery_ = std::move(cb); }

  /// Fault injection for the verification harness (src/verify): when set, a
  /// packet the filter returns true for is dropped at the sender's egress —
  /// before any overhead accounting — and counted in stats().injected_drops.
  /// This models lossy links and lets the churn model-checker build protocol
  /// mutants (e.g. "every PRUNE is lost") without touching protocol code.
  using DropFilter = std::function<bool(graph::NodeId from, graph::NodeId to,
                                        const Packet&)>;
  void set_drop_filter(DropFilter filter) { drop_filter_ = std::move(filter); }

  /// Structured observation of every link transmission, called at send time.
  /// Observers chain: a TraceRecorder, the verification auditor's hooks and
  /// the metrics layer can all watch the same network — registering one
  /// never replaces another. Invoked in registration order.
  ///
  /// Thread/reentrancy confinement: the chain is part of the
  /// single-threaded simulation loop. Observers run on the sim thread and
  /// must not register further observers from inside their callback — that
  /// would invalidate the iterator driving the dispatch (and make the
  /// observation order depend on when the mutation landed). transmit()
  /// enforces this with a dispatch guard.
  using TransmitCallback = std::function<void(graph::NodeId from,
                                              graph::NodeId to,
                                              const Packet&, SimTime at)>;
  void add_transmit_observer(TransmitCallback cb) {
    SCMP_EXPECTS(!dispatching_observers_);
    transmit_observers_.push_back(std::move(cb));
  }
  std::size_t transmit_observer_count() const {
    return transmit_observers_.size();
  }

  /// Bytes transmitted over the undirected link {u, v} so far (both
  /// directions; the paper's utilisation-driven link-cost model feeds on
  /// this).
  std::uint64_t bytes_on_link(graph::NodeId u, graph::NodeId v) const;

  /// Protocol agents call this when a data packet reaches a member router.
  void report_delivery(const Packet& pkt, graph::NodeId member);

  /// Propagation delay of edge {u, v} in seconds.
  double link_delay_seconds(graph::NodeId u, graph::NodeId v) const;

  /// Idle round trip, in seconds, of a `request_bytes` control request and
  /// its kControlPacketBytes ACK: every link each packet crosses adds its
  /// propagation delay plus the packet's serialisation at the line rate,
  /// with every queue empty. The reliability layer derives its first
  /// retransmission timeout from it.
  /// link_round_trip: the request crosses the link {from, to} and is acked
  /// back over it (send_link); a link that is down adds nothing, since the
  /// request never leaves `from`.
  double link_round_trip(graph::NodeId from, graph::NodeId to,
                         std::size_t request_bytes) const;
  /// unicast_round_trip: the request follows the unicast route from `from`
  /// to `to`, and the ACK the route from `to` back to `ack_to`
  /// (send_unicast, end-to-end acks).
  double unicast_round_trip(graph::NodeId from, graph::NodeId to,
                            graph::NodeId ack_to,
                            std::size_t request_bytes) const;

  /// Caps every egress queue at `packets` waiting for transmission; packets
  /// arriving at a full queue are dropped (drop-tail). Default: unlimited.
  void set_queue_limit(std::size_t packets) { queue_limit_ = packets; }

  /// Per-router override of the egress queue depth — the m-router's large
  /// input/output buffers (paper Fig. 2(b)) that let it absorb many-to-many
  /// bursts an ordinary router would drop.
  void set_node_queue_limit(graph::NodeId node, std::size_t packets);
  std::size_t node_queue_limit(graph::NodeId node) const;

  /// Packets currently waiting on or being transmitted by the directed link
  /// from -> to (diagnostic for congestion tests).
  int link_backlog(graph::NodeId from, graph::NodeId to) const;

  /// Departure stamps the directed link from -> to holds: its backlog plus
  /// the departures not yet dropped, which go when the link is next used
  /// (diagnostic for the memory bound of the egress queues).
  std::size_t link_stamps(graph::NodeId from, graph::NodeId to) const;

 private:
  /// What happens when a transmitted packet arrives at `to`. A two-way enum
  /// instead of a callback keeps the arrival closure a fixed POD capture
  /// that fits the event queue's inline handler buffer — the hot delivery
  /// path schedules without allocating.
  enum class Arrival : std::uint8_t {
    kHandle,   ///< hand to the agent at `to` (link-level delivery)
    kForward,  ///< continue IP forwarding toward pkt.dst
  };
  /// Sends `pkt` over the link from -> to: one scan of `from`'s adjacency
  /// row finds the link's attributes, egress queue and byte counter, and
  /// the packet moves once, into the arrival event.
  void transmit(graph::NodeId from, graph::NodeId to, Packet&& pkt,
                Arrival arrival);

  /// One directed link's egress queue as departure stamps, oldest first:
  /// per admitted packet, the time its transmission ends and the sequence
  /// number of the arrival event scheduled with it. A packet has left the
  /// queue once the event queue has passed its stamp (EventQueue::passed),
  /// which is exactly where a departure event scheduled just before the
  /// arrival would have run, same-instant ties included, so a crossing
  /// costs one event, not two. transmit() drops the departed stamps before
  /// it admits a packet, so a link holds at most the packets that were on
  /// it when it was last used. A ring: its capacity is the link's peak
  /// backlog, rounded up to a power of two.
  class Egress {
   public:
    struct Stamp {
      SimTime done;       ///< the transmission ends
      std::uint64_t seq;  ///< the arrival event's sequence number
    };
    bool empty() const { return size_ == 0; }
    std::size_t size() const { return size_; }
    /// The i-th oldest stamp.
    const Stamp& at(std::size_t i) const {
      return ring_[(head_ + i) & (ring_.size() - 1)];
    }
    const Stamp& back() const { return at(size_ - 1); }
    void pop() {
      head_ = (head_ + 1) & (ring_.size() - 1);
      --size_;
    }
    void push(Stamp s);

   private:
    std::vector<Stamp> ring_;  ///< power-of-two size once used
    std::size_t head_ = 0;
    std::size_t size_ = 0;
  };
  const Egress& egress(graph::NodeId from, graph::NodeId to) const;
  /// Idle time for `bytes` to cross the link from -> to (0 if it is down).
  double idle_hop_seconds(graph::NodeId from, graph::NodeId to,
                          std::size_t bytes) const;
  /// idle_hop_seconds summed along the unicast route from -> to.
  double idle_route_seconds(graph::NodeId from, graph::NodeId to,
                            std::size_t bytes) const;
  void forward_unicast(graph::NodeId at, graph::NodeId prev, Packet&& pkt);

  graph::Graph graph_;
  EventQueue* queue_;
  graph::AllPairsPaths paths_;
  LinkListener* link_listener_ = nullptr;
  NetStats stats_;
  std::vector<RouterAgent*> agents_;
  /// Egress queue per directed link, indexed like adjacency; the newest
  /// stamp's end time is when the link is free for the next packet.
  std::vector<std::vector<Egress>> egress_;
  /// Bytes sent per directed link, indexed like adjacency.
  std::vector<std::vector<std::uint64_t>> link_bytes_;
  std::size_t queue_limit_ = SIZE_MAX;
  /// Per-router overrides of queue_limit_, indexed by router.
  std::vector<std::optional<std::size_t>> node_queue_limit_;
  double bandwidth_bps_;  ///< every port's line rate
  double delay_scale_;
  std::uint64_t uid_counter_ = 0;
  DeliveryCallback on_delivery_;
  std::vector<TransmitCallback> transmit_observers_;
  /// True while transmit() walks the observer chain; registration is
  /// rejected during dispatch (see add_transmit_observer).
  bool dispatching_observers_ = false;
  DropFilter drop_filter_;
};

}  // namespace scmp::sim
