// The bounded record ring behind SpanSink (span.hpp) and FlightRecorder
// (flight.hpp): recording never blocks on I/O or grows memory, and when the
// ring is full the oldest record is overwritten.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/contracts.hpp"
#include "util/thread_annotations.hpp"

namespace scmp::obs {

/// Fixed-capacity ring of `Record`s, oldest-overwritten. `dropped()` counts
/// overwritten records so truncated traces are detectable; `record()`
/// reports each overwrite so its caller can feed a drop counter.
/// Thread-safe: any thread may record concurrently with exporter snapshots;
/// every member is guarded by `mu_` and clang's thread-safety analysis (the
/// `tsa` preset) enforces the discipline.
template <typename Record>
class Ring {
 public:
  static constexpr std::size_t kDefaultCapacity = 1 << 16;

  explicit Ring(std::size_t capacity = kDefaultCapacity)
      : capacity_(capacity) {
    SCMP_EXPECTS(capacity > 0);
  }

  /// Appends `r`; true when it overwrote the oldest retained record.
  bool record(const Record& r) EXCLUDES(mu_) {
    const util::LockGuard lock(mu_);
    const bool overwrote = ring_.size() >= capacity_;
    if (overwrote) {
      ring_[next_] = r;
      ++dropped_;
    } else {
      ring_.push_back(r);
    }
    next_ = (next_ + 1) % capacity_;
    ++total_;
    return overwrote;
  }

  /// Retained records, oldest first.
  std::vector<Record> snapshot() const EXCLUDES(mu_) {
    const util::LockGuard lock(mu_);
    if (ring_.size() < capacity_) return ring_;
    // Full ring: next_ is the oldest record.
    std::vector<Record> out;
    out.reserve(ring_.size());
    out.insert(out.end(), ring_.begin() + static_cast<std::ptrdiff_t>(next_),
               ring_.end());
    out.insert(out.end(), ring_.begin(),
               ring_.begin() + static_cast<std::ptrdiff_t>(next_));
    return out;
  }

  /// Records ever recorded (>= snapshot().size() once wrapped).
  std::uint64_t total_recorded() const EXCLUDES(mu_) {
    const util::LockGuard lock(mu_);
    return total_;
  }

  /// Records overwritten because the ring was full.
  std::uint64_t dropped() const EXCLUDES(mu_) {
    const util::LockGuard lock(mu_);
    return dropped_;
  }

  /// Resizes the ring; drops currently retained records.
  void set_capacity(std::size_t capacity) EXCLUDES(mu_) {
    SCMP_EXPECTS(capacity > 0);
    const util::LockGuard lock(mu_);
    capacity_ = capacity;
    ring_.clear();
    next_ = 0;
  }

  void clear() EXCLUDES(mu_) {
    const util::LockGuard lock(mu_);
    ring_.clear();
    next_ = 0;
    total_ = 0;
    dropped_ = 0;
  }

 private:
  mutable util::Mutex mu_;
  std::vector<Record> ring_ GUARDED_BY(mu_);
  std::size_t capacity_ GUARDED_BY(mu_);
  std::size_t next_ GUARDED_BY(mu_) = 0;  ///< next write slot
  std::uint64_t total_ GUARDED_BY(mu_) = 0;
  std::uint64_t dropped_ GUARDED_BY(mu_) = 0;
};

}  // namespace scmp::obs
