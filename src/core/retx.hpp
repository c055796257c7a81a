// Reliable delivery for the SCMP control plane: a per-endpoint
// retransmission table. Every reliably-sent control packet (JOIN / LEAVE /
// TREE / BRANCH / PRUNE / CLEAR) carries a request uid (sim::Packet::req);
// the sender arms an entry here and the receiver answers with an ACK packet
// carrying the same uid. An unacknowledged request is first retransmitted
// one idle round trip plus kRetxMargin after it was sent — the sender
// computes that round trip from delays it already knows — and then with
// exponential backoff until a bounded retry budget runs out, at which point
// the request is abandoned gracefully (counter + debug log — the periodic
// soft-state reconciliation pass re-solicits whatever state the lost packet
// carried; see Scmp::reconcile_all).
//
// Modeled on HPIM-DM's sequence-numbered control-message reliability
// (PAPERS.md): acks + retransmission give at-least-once delivery, and the
// receiver-side dedup by request uid (kept in Scmp, which owns per-router
// state) plus SCMP's existing install versioning give idempotency. The
// timer follows RFC 6298's shape with a known rather than a sampled round
// trip: a simulated router knows its links' delays and port rates.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>

#include "graph/graph.hpp"
#include "sim/event_queue.hpp"

namespace scmp::core {

/// Slack added to a request's idle round trip to form its first timeout. It
/// absorbs what the idle estimate leaves out — queueing behind other
/// packets, such as a rebuild's install burst — so a loss-free run never
/// retransmits, while a lost request is resent after milliseconds.
inline constexpr double kRetxMargin = 0.005;  // seconds

/// Multiplier applied to a request's timeout after each retransmission.
inline constexpr double kRetxBackoff = 2.0;

struct RetxConfig {
  /// Off by default: the control plane stays fire-and-forget and the packet
  /// streams stay bit-identical to the unreliable protocol.
  bool enabled = false;
  /// Retransmissions after the original send before giving up.
  int max_retries = 4;
};

/// Retransmission state of every in-flight reliable request, grouped by the
/// sending endpoint (each router retransmits its own requests; the table is
/// centralised only because the simulation hosts all routers in one object).
class RetxTable {
 public:
  RetxTable(sim::EventQueue& queue, RetxConfig cfg);

  const RetxConfig& config() const { return cfg_; }

  /// Fresh request uid (never 0; 0 marks fire-and-forget packets).
  std::uint64_t next_req() { return ++req_counter_; }

  /// Arms retransmission of request `req` sent by `sender`: the first after
  /// `first_timeout` seconds without an ack, each later one after
  /// kRetxBackoff times the previous wait. `resend` is invoked for every
  /// retransmission; it must repeat the original packet (same req) so the
  /// receiver can dedup. A request that installs state for a group (TREE,
  /// BRANCH, CLEAR) names the group in `install_of`; the group then has an
  /// install in flight until the request is acked or abandoned. No-op
  /// unless enabled.
  void arm(graph::NodeId sender, std::uint64_t req, double first_timeout,
           std::function<void()> resend,
           std::optional<int> install_of = std::nullopt);

  /// Acknowledges `req` at `sender`: the pending entry (if any) is retired
  /// and its outstanding timer becomes a no-op.
  void ack(graph::NodeId sender, std::uint64_t req);

  bool pending(graph::NodeId sender, std::uint64_t req) const;
  std::size_t pending_count() const;

  /// True while any install request armed for `group` is neither acked nor
  /// abandoned — the union, over every router, of the "install in flight"
  /// bit of its digest. Reconciliation defers such a group: its installed
  /// state is still changing.
  bool install_in_flight(int group) const {
    return installs_in_flight_.contains(group);
  }

  /// Most entries ever simultaneously pending — the table's high-water mark.
  /// A join storm under loss grows the table to O(in-flight requests); the
  /// mark (mirrored to the scmp.retx.pending_hwm gauge) bounds that growth
  /// and regression tests assert the table drains back to zero after
  /// reconciliation.
  std::size_t pending_hwm() const { return pending_hwm_; }

  // Lifetime totals (plain counters for tests; obs mirrors them).
  std::uint64_t retransmissions() const { return retransmissions_; }
  std::uint64_t acked() const { return acked_; }
  std::uint64_t exhausted() const { return exhausted_; }

 private:
  struct Pending {
    int attempts = 0;  ///< retransmissions already sent
    double next_timeout = 0.0;
    std::function<void()> resend;
    std::optional<int> install_of;
  };
  using Requests = std::map<std::uint64_t, Pending>;
  using Senders = std::map<graph::NodeId, Requests>;

  void schedule_timer(graph::NodeId sender, std::uint64_t req, double delay);
  /// Erases an acked or abandoned entry, and its group's install count.
  void retire(Senders::iterator sit, Requests::iterator it);

  sim::EventQueue* queue_;
  RetxConfig cfg_;
  Senders by_sender_;
  /// Pending install requests per group; a group is absent at zero.
  std::map<int, std::size_t> installs_in_flight_;
  std::size_t live_ = 0;  ///< entries currently pending (all senders)
  std::size_t pending_hwm_ = 0;
  std::uint64_t req_counter_ = 0;
  std::uint64_t retransmissions_ = 0;
  std::uint64_t acked_ = 0;
  std::uint64_t exhausted_ = 0;
};

}  // namespace scmp::core
