// Reliable delivery for the SCMP control plane: a retransmission table
// keyed by request uid. Every reliably-sent control packet (JOIN / LEAVE /
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
#include <optional>
#include <utility>
#include <vector>

#include "graph/graph.hpp"
#include "sim/event_queue.hpp"
#include "util/inline_function.hpp"

namespace scmp::core {

/// Slack added to a request's idle round trip to form its first timeout. It
/// absorbs what the idle estimate leaves out — queueing behind other
/// packets, such as a rebuild's install burst — so a loss-free run never
/// retransmits, while a lost request is resent after milliseconds.
inline constexpr double kRetxMargin = 0.005;  // seconds

/// Multiplier applied to a request's timeout after each retransmission.
inline constexpr double kRetxBackoff = 2.0;

/// Retransmissions after the original send before a request is abandoned.
inline constexpr int kRetxMaxRetries = 4;

struct RetxConfig {
  /// Off by default: the control plane stays fire-and-forget and the packet
  /// streams stay bit-identical to the unreliable protocol.
  bool enabled = false;
};

/// Retransmission state of every in-flight reliable request. Each router
/// retransmits its own requests; the table is centralised only because the
/// simulation hosts all routers in one object, so one counter mints every
/// request id and the table is a ring of slots indexed by id. Arm, ack and
/// each timer fire cost O(1), with no tree node and no boxed closure; once
/// the ring and the install counts have grown to the peak in-flight load,
/// they allocate nothing.
class RetxTable {
 public:
  /// Repeats a request's original packet. Sized like an event handler, so
  /// a closure holding the sending Scmp, its endpoints and a Packet copy
  /// stores inline.
  using Resend = util::InlineFunction<void(), sim::kEventHandlerCapacity>;

  RetxTable(sim::EventQueue& queue, RetxConfig cfg);

  const RetxConfig& config() const { return cfg_; }

  /// Fresh request uid (never 0; 0 marks fire-and-forget packets).
  std::uint64_t next_req() { return ++req_counter_; }

  /// Arms retransmission of request `req` sent by `sender`: the first after
  /// `first_timeout` seconds without an ack, each later one after
  /// kRetxBackoff times the previous wait. `resend` is invoked for every
  /// retransmission; it must repeat the original packet (same req) so the
  /// receiver can dedup, and arm or ack nothing: it runs in its ring slot.
  /// A request that installs state for a group (TREE, BRANCH, CLEAR) names
  /// the group in `install_of`; the group then has an install in flight
  /// until the request is acked or abandoned. Requests are armed in the
  /// order next_req() minted them; a minted id that is never armed just
  /// leaves a cleared slot. No-op unless enabled.
  void arm(graph::NodeId sender, std::uint64_t req, double first_timeout,
           Resend resend, std::optional<int> install_of = std::nullopt);

  /// Acknowledges `req` at `sender`: the pending entry (if any) is retired
  /// and its outstanding timer becomes a no-op. An unknown, retired or
  /// wrong-sender id is a no-op (an ACK's id is packet input).
  void ack(graph::NodeId sender, std::uint64_t req);

  bool pending(graph::NodeId sender, std::uint64_t req) const;
  std::size_t pending_count() const { return live_; }

  /// True while any install request armed for `group` is neither acked nor
  /// abandoned — the union, over every router, of the "install in flight"
  /// bit of its digest. Reconciliation defers such a group: its installed
  /// state is still changing.
  bool install_in_flight(int group) const {
    return install_index(group) != installs_in_flight_.size();
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
  /// One request's slot; a cleared slot (no resend) is retired or was never
  /// armed.
  struct Pending {
    graph::NodeId sender = graph::kInvalidNode;
    int attempts = 0;  ///< retransmissions already sent
    double next_timeout = 0.0;
    Resend resend;
    std::optional<int> install_of;
  };

  /// One group's pending install requests (count > 0).
  using InstallCount = std::pair<int, std::size_t>;

  /// The offset from base_ of `req`'s live slot if `sender` armed it, else
  /// size_.
  std::size_t live_offset(graph::NodeId sender, std::uint64_t req) const;
  /// The ring slot of request base_ + i (i < size_).
  Pending& slot(std::size_t i) {
    return ring_[(head_ + i) & (ring_.size() - 1)];
  }
  const Pending& slot(std::size_t i) const {
    return ring_[(head_ + i) & (ring_.size() - 1)];
  }
  /// Appends a cleared slot for request base_ + size_, doubling the ring
  /// when it is full.
  Pending& push_slot();
  /// Index of `group` in installs_in_flight_, or its size when absent.
  std::size_t install_index(int group) const;
  void schedule_timer(graph::NodeId sender, std::uint64_t req, double delay);
  /// Clears an acked or abandoned slot, and its group's install count, then
  /// pops cleared slots off the ring's front.
  void retire(Pending& p);

  sim::EventQueue* queue_;
  RetxConfig cfg_;
  /// A ring of size_ slots from head_: slot i holds request base_ + i, and
  /// the front slot is live whenever the ring is non-empty. Its capacity is
  /// the peak in-flight span, rounded up to a power of two; slots outside
  /// the ring are cleared.
  std::vector<Pending> ring_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
  std::uint64_t base_ = 0;
  std::uint64_t last_armed_ = 0;  ///< newest armed id; 0 before the first
  /// Pending install requests per group, ascending by group; a group is
  /// absent at zero.
  std::vector<InstallCount> installs_in_flight_;
  std::size_t live_ = 0;  ///< entries currently pending (all senders)
  std::size_t pending_hwm_ = 0;
  std::uint64_t req_counter_ = 0;
  std::uint64_t retransmissions_ = 0;
  std::uint64_t acked_ = 0;
  std::uint64_t exhausted_ = 0;
};

}  // namespace scmp::core
