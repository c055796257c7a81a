#include "sim/event_queue.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "obs/metrics.hpp"

namespace scmp::sim {

namespace {

/// Lower bound on the calendar's bucket width. Keeps slot indices finite
/// when the pending events are packed into a vanishingly small time span.
constexpr double kMinWidth = 1e-9;

// Counter references are resolved once (function-local static); a disabled
// metric costs one relaxed load, so the instrumentation stays in the event
// loop permanently (docs/observability.md).
struct QueueCounters {
  obs::Counter* executed;
  obs::Counter* node_reuse;
};

const QueueCounters& queue_counters() {
  static const QueueCounters counters = [] {
    QueueCounters c;
    c.executed = &obs::counter("sim.events.executed");
    c.node_reuse = &obs::counter("sim.pool.events.reuse");
    return c;
  }();
  return counters;
}

}  // namespace

double EventQueue::slot_of(SimTime t) const {
  // floor() of a non-negative quotient is an exact, integer-valued double
  // and monotone in t, so slot comparisons order exactly like times do.
  return std::floor(t / width_);
}

std::size_t EventQueue::bucket_index(double slot) const {
  SCMP_EXPECTS(slot >= 0.0);
  // The bucket count is always a power of two, so for slots in exact
  // integer range the modulo is a cast-and-mask; fmod of exact
  // non-negative integer values is the (exact) fallback beyond 2^53.
  constexpr double kExactLimit = 9007199254740992.0;  // 2^53
  if (slot < kExactLimit) {
    return static_cast<std::size_t>(slot) & (buckets_.size() - 1);
  }
  return static_cast<std::size_t>(
      std::fmod(slot, static_cast<double>(buckets_.size())));
}

void EventQueue::enqueue(Event* ev, SimTime t) {
  ev->time = t;
  ev->seq = next_seq_++;
  ev->next = nullptr;
  file_event(ev);
  ++pending_;
}

void EventQueue::file_event(Event* ev) {
  const double slot = slot_of(ev->time);
  if (pending_ == 0) {
    // Empty calendar: re-anchor the cursor at the new event's slot (it may
    // have drifted arbitrarily far ahead after run_until past the last
    // event, or arbitrarily far behind after a width change).
    cursor_slot_ = slot;
  } else if (slot < cursor_slot_) {
    rewind_cursor(slot);
  }
  // determinism: allow(calendar slot indices are integer-valued doubles
  // (floor results over identical inputs), so equal slots are bit-identical
  // by construction)
  if (slot == cursor_slot_) {
    overflow_.push_back(ev);
    std::push_heap(overflow_.begin(), overflow_.end(), Later{});
    return;
  }
  Bucket& b = buckets_[bucket_index(slot)];
  ev->next = b.head;
  b.head = ev;
}

void EventQueue::rewind_cursor(double slot) {
  // An insert landed before the staged slot: possible whenever run_until
  // advanced the clock into a gap the cursor had already swept past. Spill
  // the staged events back into their bucket and pull the cursor back; the
  // spilled slot will be re-staged when the sweep reaches it again.
  Bucket& b = buckets_[bucket_index(cursor_slot_)];
  auto spill = [&b](Event* ev) {
    ev->next = b.head;
    b.head = ev;
  };
  for (Event* ev : active_) spill(ev);
  for (Event* ev : overflow_) spill(ev);
  active_.clear();
  overflow_.clear();
  cursor_slot_ = slot;
}

void EventQueue::advance_cursor() {
  SCMP_EXPECTS(pending_ > 0);
  SCMP_EXPECTS(active_.empty());
  SCMP_EXPECTS(overflow_.empty());
  // Sweep at most one calendar year (every bucket once) looking for the
  // next occupied slot; beyond that the remaining events are more than a
  // year ahead and a direct minimum search is cheaper than spinning.
  double slot = cursor_slot_;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    const double next = slot + 1.0;
    // determinism: allow(saturation probe: beyond 2^53 adding one to a
    // double is an exact no-op, detected by bit-identical equality)
    if (next == slot) break;
    slot = next;
    if (extract_slot(buckets_[bucket_index(slot)], slot)) {
      cursor_slot_ = slot;
      return;
    }
  }
  seek_min_slot();
}

bool EventQueue::extract_slot(Bucket& b, double slot) {
  Event* ev = b.head;
  b.head = nullptr;
  while (ev != nullptr) {
    Event* next = ev->next;
    const double ev_slot = slot_of(ev->time);
    // determinism: allow(calendar slot indices are integer-valued doubles
    // (floor results over identical inputs), so equal slots are
    // bit-identical by construction)
    if (ev_slot == slot) {
      ev->next = nullptr;
      active_.push_back(ev);
    } else {
      ev->next = b.head;
      b.head = ev;
    }
    ev = next;
  }
  if (active_.empty()) return false;
  // One descending sort per staged slot; every pop is then an O(1)
  // pop_back. (time, seq) is a total order, so the result is independent
  // of the bucket's LIFO arrangement — which, for a same-timestamp burst,
  // already comes out in descending seq order, so the common case is a
  // linear is_sorted pass and no sort at all.
  if (!std::is_sorted(active_.begin(), active_.end(), Later{})) {
    std::sort(active_.begin(), active_.end(), Later{});
  }
  return true;
}

void EventQueue::seek_min_slot() {
  SCMP_EXPECTS(pending_ > 0);
  SCMP_EXPECTS(active_.empty());
  bool found = false;
  double min_slot = 0.0;
  for (const Bucket& b : buckets_) {
    for (const Event* ev = b.head; ev != nullptr; ev = ev->next) {
      const double slot = slot_of(ev->time);
      if (!found || slot < min_slot) {
        min_slot = slot;
        found = true;
      }
    }
  }
  SCMP_ASSERT(found);
  extract_slot(buckets_[bucket_index(min_slot)], min_slot);
  cursor_slot_ = min_slot;
  SCMP_ENSURES(!active_.empty());
}

EventQueue::Event* EventQueue::front_event() {
  if (pending_ == 0) return nullptr;
  if (active_.empty() && overflow_.empty()) {
    // Slot boundary: the only place calendar load matters is the upcoming
    // extraction scan, so this is where the calendar resizes. The rebuild
    // may itself stage the new cursor slot (via overflow_).
    resize_if_needed();
    if (active_.empty() && overflow_.empty()) advance_cursor();
  }
  if (active_.empty()) {
    front_is_overflow_ = true;
    return overflow_.front();
  }
  if (overflow_.empty()) {
    front_is_overflow_ = false;
    return active_.back();
  }
  front_is_overflow_ = Later{}(active_.back(), overflow_.front());
  return front_is_overflow_ ? overflow_.front() : active_.back();
}

bool EventQueue::run_next() {
  Event* ev = front_event();
  if (ev == nullptr) return false;
  if (front_is_overflow_) {
    std::pop_heap(overflow_.begin(), overflow_.end(), Later{});
    overflow_.pop_back();
  } else {
    active_.pop_back();
  }
  SCMP_ASSERT(ev->time >= now_);
  now_ = ev->time;
  passed_seq_ = ev->seq + 1;
  --pending_;
  if (obs::metrics_enabled()) queue_counters().executed->inc();
  // The handler runs in its node, which no queue structure references any
  // more (a node whose event has passed is not pending; see
  // rebuild_calendar), and the node is recycled once the handler returns or
  // throws. A follow-up event the handler schedules takes another free node.
  struct Release {
    EventQueue* queue;
    Event* ev;
    ~Release() { queue->release_node(ev); }
  } release{this, ev};
  ev->fn();
  return true;
}

void EventQueue::run_until(SimTime t) {
  SCMP_EXPECTS(t >= now_);
  while (true) {
    Event* ev = front_event();
    if (ev == nullptr || ev->time > t) break;
    run_next();
  }
  now_ = t;
  passed_seq_ = next_seq_;  // every event scheduled so far at <= t has run
}

std::size_t EventQueue::run_all(std::size_t max_events) {
  std::size_t executed = 0;
  while (executed < max_events && run_next()) ++executed;
  return executed;
}

namespace {

/// Smallest power of two >= n (n >= 1).
std::size_t pow2_ceil(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

void EventQueue::resize_if_needed() {
  // Growth rebuilds straight to ~one bucket per event (instead of doubling
  // one step), so the next growth is a population doubling away. Shrinking
  // is deliberately lazy (1/32 occupancy, rebuilt to half-occupancy): the
  // cursor sweeps slots monotonically, so an oversized calendar costs
  // almost nothing per pop, while every shrink rebuild pays a full
  // re-gather of the pending events.
  const bool loaded = pending_ > 2 * buckets_.size();
  const bool sparse =
      buckets_.size() > kMinBuckets && pending_ < buckets_.size() / 32;
  if (loaded) {
    rebuild_calendar(std::max(kMinBuckets, pow2_ceil(pending_)));
  } else if (sparse) {
    rebuild_calendar(std::max(kMinBuckets, pow2_ceil(2 * pending_)));
  }
}

void EventQueue::rebuild_calendar(std::size_t nbuckets) {
  SCMP_EXPECTS(nbuckets >= kMinBuckets);
  // Gather every pending event into scratch_. When most pool nodes are
  // live (growth rebuilds), sweep the slabs sequentially — a node is
  // pending exactly when it holds a handler (schedule_at requires one;
  // release_node drops it) and its event has not passed (a handler running
  // in its node has passed) — which is far cheaper than chasing the
  // scattered bucket chains. When the pool is mostly free (shrink rebuilds
  // after a drain), the sweep would scan the whole high-water pool, so
  // chase the chains instead. Gather order is irrelevant either way:
  // refiling normalizes through the total (time, seq) order.
  scratch_.clear();
  if (pool_allocated_ <= 2 * pending_) {
    for (const auto& slab : slabs_) {
      Event* const nodes = slab.nodes.get();
      for (std::size_t i = 0; i < slab.count; ++i) {
        const Event& ev = nodes[i];
        if (ev.fn && !passed(ev.time, ev.seq)) scratch_.push_back(&nodes[i]);
      }
    }
  } else {
    scratch_.insert(scratch_.end(), active_.begin(), active_.end());
    scratch_.insert(scratch_.end(), overflow_.begin(), overflow_.end());
    for (const Bucket& b : buckets_) {
      for (Event* ev = b.head; ev != nullptr; ev = ev->next) {
        scratch_.push_back(ev);
      }
    }
  }
  active_.clear();
  overflow_.clear();
  // No need to null the old bucket heads: the assign below rewrites them.
  SCMP_ASSERT(scratch_.size() == pending_);

  buckets_.assign(nbuckets, Bucket{});
  if (scratch_.empty()) {
    cursor_slot_ = slot_of(now_);
    return;
  }
  SimTime t_min = scratch_.front()->time;
  SimTime t_max = t_min;
  for (const Event* ev : scratch_) {
    t_min = std::min(t_min, ev->time);
    t_max = std::max(t_max, ev->time);
  }
  // Re-estimate the bucket width as twice the average inter-event gap:
  // roughly half an event per bucket, so the cursor finds the next occupied
  // slot in O(1) expected probes while same-timestamp bursts share one
  // bucket. Derived only from min/max/count, so it is order-independent
  // and deterministic. A zero span (all events at one instant) keeps the
  // current width.
  const double span = t_max - t_min;
  if (span > 0.0) {
    width_ = std::max(2.0 * span / static_cast<double>(scratch_.size()),
                      kMinWidth);
  }
  // Refiling goes through file_event with pending_ at its true (non-zero)
  // value: the cursor is pre-anchored at the earliest slot, every refiled
  // event lands at or after it, and the earliest slot's events re-enter
  // the active heap, whose (time, seq) order is insertion-independent.
  cursor_slot_ = slot_of(t_min);
  for (Event* ev : scratch_) file_event(ev);
  scratch_.clear();
}

EventQueue::Event* EventQueue::acquire_node() {
  // The free list holds only release()d nodes, so popping it is by
  // definition a reuse; fresh nodes come off the newest slab's bump
  // pointer without ever having been linked.
  if (free_ != nullptr) {
    Event* ev = free_;
    free_ = ev->next;
    ev->next = nullptr;
    if (obs::metrics_enabled()) queue_counters().node_reuse->inc();
    return ev;
  }
  if (bump_ == bump_end_) allocate_slab();
  Event* ev = bump_++;
  ev->next = nullptr;
  return ev;
}

void EventQueue::release_node(Event* ev) {
  // Destroy the handler that just ran, so its captures (a delivered
  // packet, a boxed closure) are freed eagerly — an empty fn is also what
  // marks the node dead for the rebuild gather's slab sweep — then push
  // onto the free list.
  ev->fn.reset();
  ev->next = free_;
  free_ = ev;
}

void EventQueue::allocate_slab() {
  SCMP_EXPECTS(free_ == nullptr);
  SCMP_EXPECTS(bump_ == bump_end_);
  // Slab sizes double, so the pool reaches the queue's high-water node
  // population in O(log n) allocations and never exceeds twice of it.
  // make_unique_for_overwrite default-initializes: only each Handler's
  // default construction touches the fresh pages; the scalars are written
  // by acquire_node()/enqueue before first use.
  const std::size_t count = std::max<std::size_t>(64, pool_allocated_);
  auto nodes = std::make_unique_for_overwrite<Event[]>(count);
  bump_ = nodes.get();
  bump_end_ = bump_ + count;
  pool_allocated_ += count;
  slabs_.push_back(Slab{std::move(nodes), count});
}

}  // namespace scmp::sim
