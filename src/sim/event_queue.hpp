// Discrete-event engine: a time-ordered queue of closures. Events scheduled
// at the same timestamp execute in scheduling order (a monotone sequence
// number breaks ties), which keeps every simulation fully deterministic.
//
// Implementation: a calendar queue (Brown 1988) instead of a binary heap.
// Pending events live in an array of time buckets of width `width_`; the
// bucket an event lands in is `floor(time / width_) mod bucket_count`. A
// cursor sweeps the calendar; when it reaches an occupied slot the slot's
// events are staged once into `active_`, sorted descending by the exact
// (time, seq) relation the old heap used, and popped from the back in O(1).
// Events scheduled *into* the already-staged slot (zero-delay cascades) go
// to a small (time, seq) min-heap (`overflow_`); the front of the queue is
// whichever of the two is earlier. Because (time, seq) is a total order,
// the execution sequence — and therefore every golden trace — is
// bit-identical to the heap implementation. Insert and pop are O(1)
// amortized: the calendar resizes (bucket count doubles/halves, width
// re-estimated from the live event span) when the population crosses load
// thresholds, keeping roughly one event per bucket.
//
// Allocation never happens in steady state: event nodes come from a slab-
// backed free list owned by the queue, and handlers are stored in an
// InlineFunction whose buffer is sized to fit the network's delivery
// closures (see kEventHandlerCapacity). schedule_at builds each closure in
// its node and run_next invokes it there, so a closure moves once, from the
// caller into the node. tools/lint.py pins schedule_at, enqueue and
// run_next allocation-free; docs/performance.md has the design notes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "util/contracts.hpp"
#include "util/inline_function.hpp"

namespace scmp::sim {

using SimTime = double;

/// Inline storage for event handlers. Sized so Network's delivery closure —
/// the hottest scheduled lambda, carrying a full Packet by value — fits
/// without boxing; Network static_asserts that it actually does.
inline constexpr std::size_t kEventHandlerCapacity = 120;

class EventQueue {
 public:
  using Handler = util::InlineFunction<void(), kEventHandlerCapacity>;

  /// Current simulation time (the timestamp of the most recent event).
  SimTime now() const { return now_; }

  bool empty() const { return pending_ == 0; }
  std::size_t pending() const { return pending_; }

  /// Schedules `fn` — any void() callable, or a Handler — at absolute time
  /// `t`. Requires t >= now() and a non-empty `fn`. The closure is built in
  /// its event node, where run_next() later invokes it.
  template <typename F>
  void schedule_at(SimTime t, F&& fn);

  /// Schedules `fn` after a relative delay (>= 0).
  template <typename F>
  void schedule_in(SimTime delay, F&& fn) {
    schedule_at(now_ + delay, std::forward<F>(fn));
  }

  /// Executes the earliest event; returns false when the queue is empty.
  bool run_next();

  /// Runs events with timestamp <= t, then advances the clock to t.
  void run_until(SimTime t);

  /// Runs until the queue drains or `max_events` have executed; returns the
  /// number of events executed.
  std::size_t run_all(std::size_t max_events = SIZE_MAX);

  /// Sequence number the next schedule_at() assigns.
  std::uint64_t next_seq() const { return next_seq_; }

  /// Whether execution has passed the point of the (time, seq) order just
  /// before the event (t, seq): an event scheduled at `t` immediately
  /// before that one would already have run. Inside a handler the position
  /// is the running event; after run_until() it is past every event
  /// scheduled so far at or before now(). Lets a component keep a deadline
  /// it would otherwise schedule as an event of its own — Network's egress
  /// departures — and test it when it next looks, with the same tie-breaks.
  bool passed(SimTime t, std::uint64_t seq) const {
    // determinism: allow((time, seq) order, as in Later: bit-equal
    // timestamps fall through to the seq tie-break)
    return t < now_ || (t == now_ && seq < passed_seq_);
  }

  /// Calendar introspection (tests and benches): current bucket-array size
  /// and bucket width. The calendar starts at kMinBuckets and resizes as
  /// the pending population crosses load thresholds.
  std::size_t bucket_count() const { return buckets_.size(); }
  double bucket_width() const { return width_; }

  /// Total event nodes backed by the slab pool (its memory footprint in
  /// nodes); free-list reuse keeps this within twice the queue's
  /// high-water population.
  std::size_t pool_allocated() const { return pool_allocated_; }

  static constexpr std::size_t kMinBuckets = 16;

 private:
  /// No default member initializers on the scalars: slabs are allocated
  /// with make_unique_for_overwrite so only the Handler's (necessary)
  /// default construction touches fresh memory, and acquire_node() and
  /// enqueue() write every scalar before the node is ever read.
  struct Event {
    SimTime time;
    std::uint64_t seq;
    Handler fn;
    Event* next;  ///< bucket LIFO link / free-list link
  };
  /// One calendar bucket: an unsorted LIFO of events whose slot hashes
  /// here. Inserts prepend — the only memory touched is the just-acquired
  /// (cache-hot) node and this 8-byte head — and the order is irrelevant
  /// for determinism because staging re-sorts by the total (time, seq)
  /// order before execution.
  struct Bucket {
    Event* head = nullptr;
  };
  /// "a runs after b": sorts a staged slot descending (earliest at the
  /// back) and orders the overflow min-heap.
  struct Later {
    bool operator()(const Event* a, const Event* b) const {
      // determinism: allow(strict weak order over (time, seq): bit-equal
      // timestamps fall through to the seq tie-break, so the ordering is
      // deterministic for any float values)
      if (a->time != b->time) return a->time > b->time;
      return a->seq > b->seq;
    }
  };

  /// Stamps a node whose handler schedule_at just built with time `t` and
  /// the next sequence number, and files it.
  void enqueue(Event* ev, SimTime t);
  /// The slot (integer-valued double, exact under floor) of time t.
  double slot_of(SimTime t) const;
  std::size_t bucket_index(double slot) const;

  /// Files `ev` into the staged slot or its calendar bucket, maintaining
  /// the invariant: active_ + overflow_ hold exactly the pending events
  /// whose slot is cursor_slot_; buckets hold every event with a later
  /// slot.
  void file_event(Event* ev);
  /// Spills the staged slot back into the calendar and pulls the cursor
  /// back to `slot` (an insert landed before the cursor).
  void rewind_cursor(double slot);
  /// Advances the cursor to the next occupied slot and stages its events
  /// in active_. Requires pending_ > 0 and an exhausted staged slot.
  void advance_cursor();
  /// Unlinks events of exactly `slot` from bucket `b` into active_ and
  /// sorts them for back-to-front draining; returns whether any were
  /// staged.
  bool extract_slot(Bucket& b, double slot);
  /// O(n) fallback: finds the minimum occupied slot across all buckets and
  /// stages it. Used when a full calendar sweep found nothing (events far
  /// beyond one calendar year) or slot arithmetic saturates.
  void seek_min_slot();
  /// Earliest pending event (staging the active slot on demand), or
  /// nullptr when empty. The returned node stays owned by the queue.
  Event* front_event();

  /// Re-estimates the bucket width from the live event span and rebuilds
  /// the calendar with `nbuckets` buckets.
  void rebuild_calendar(std::size_t nbuckets);
  /// Rebuilds when the population has outgrown (load > 2) or outshrunk
  /// (load < 1/4) the calendar. Called at slot-advance boundaries only:
  /// inserts stay pure O(1) prepends (load factor never hurts them — only
  /// extraction scans crowded buckets), so bulk loading costs exactly one
  /// rebuild when draining starts.
  void resize_if_needed();

  /// Slab-backed node pool. acquire() prefers the free list — which holds
  /// only release()d nodes, so every hit there is one recycled node
  /// (counted as sim.pool.events.reuse) — and otherwise bumps a pointer
  /// through the newest slab, allocating a fresh slab when it runs out.
  /// run_next releases a node once its handler has returned.
  Event* acquire_node();
  void release_node(Event* ev);
  void allocate_slab();

  std::vector<Bucket> buckets_{kMinBuckets};
  std::vector<Event*> active_;    ///< staged slot, sorted by Later (earliest last)
  std::vector<Event*> overflow_;  ///< (time, seq) min-heap: late arrivals to the slot
  std::vector<Event*> scratch_;   ///< rebuild_calendar's gather buffer
  bool front_is_overflow_ = false;  ///< which structure front_event() chose
  double cursor_slot_ = 0.0;
  double width_ = 1.0;
  SimTime now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  /// Events at now_ with a smaller seq have started (see passed()).
  std::uint64_t passed_seq_ = 0;
  std::size_t pending_ = 0;

  struct Slab {
    std::unique_ptr<Event[]> nodes;
    std::size_t count = 0;
  };
  std::vector<Slab> slabs_;
  Event* free_ = nullptr;   ///< released nodes, LIFO
  Event* bump_ = nullptr;   ///< next never-used node in the newest slab
  Event* bump_end_ = nullptr;
  std::size_t pool_allocated_ = 0;
};

template <typename F>
void EventQueue::schedule_at(SimTime t, F&& fn) {
  SCMP_EXPECTS(t >= now_);
  Event* ev = acquire_node();
  ev->fn.emplace(std::forward<F>(fn));
  SCMP_EXPECTS(static_cast<bool>(ev->fn));
  enqueue(ev, t);
}

}  // namespace scmp::sim
