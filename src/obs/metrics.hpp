// Process-wide metrics registry — the unified observability layer's
// counters, gauges and fixed-bucket histograms (docs/observability.md).
//
// Design constraints:
//   * A disabled metric costs one relaxed atomic load and a branch — cheap
//     enough to leave instrumentation in every hot path permanently.
//   * Enabled updates are relaxed atomic operations: safe from any thread,
//     with no locks on the hot path.
//   * Registration is mutex-guarded and returns references that stay valid
//     for the process lifetime, so call sites cache them in function-local
//     statics and pay the name lookup exactly once.
//
// Every metric name used in src/, bench/ or examples/ must be declared in
// src/obs/metrics_manifest.json (tools/lint.py obs-hygiene rule).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/stats.hpp"

namespace scmp::obs {

namespace detail {
inline std::atomic<bool> g_metrics_enabled{false};
}  // namespace detail

/// Process-wide metrics switch. Off by default so simulations and benches
/// run uninstrumented; ObsSession / tests flip it on.
inline bool metrics_enabled() {
  return detail::g_metrics_enabled.load(std::memory_order_relaxed);
}
void set_metrics_enabled(bool on);

/// Monotone event counter.
class Counter {
 public:
  void inc(std::uint64_t by = 1) {
    if (!metrics_enabled()) return;
    v_.fetch_add(by, std::memory_order_relaxed);
  }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Last-write-wins instantaneous value (queue depths, sizes).
class Gauge {
 public:
  void set(double v) {
    if (!metrics_enabled()) return;
    v_.store(v, std::memory_order_relaxed);
  }
  double value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

/// Fixed-bucket histogram (LogBuckets layout, see util/stats.hpp) with
/// approximate p50/p95/p99. Updates are relaxed per-bucket increments.
class Histogram {
 public:
  void observe(double x) {
    if (!metrics_enabled()) return;
    const auto i = static_cast<std::size_t>(LogBuckets::index(x));
    counts_[i].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    double cur = sum_.load(std::memory_order_relaxed);
    while (!sum_.compare_exchange_weak(cur, cur + x,
                                       std::memory_order_relaxed)) {
    }
  }
  std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  /// Approximate quantile; 0 when empty.
  double quantile(double q) const;
  std::vector<std::uint64_t> bucket_counts() const;
  void reset();

 private:
  std::array<std::atomic<std::uint64_t>, LogBuckets::kCount> counts_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// Registration / lookup. A (name, tag) pair identifies one time series; the
/// optional tag is exported as a Prometheus label (e.g. the PacketType of a
/// per-type counter). The returned reference is valid forever.
Counter& counter(std::string_view name, std::string_view tag = {});
Gauge& gauge(std::string_view name, std::string_view tag = {});
Histogram& histogram(std::string_view name, std::string_view tag = {});

/// The latency histogram fed by OBS_SPAN's metrics side: registered under
/// "span.<name>.seconds" so span timings appear in the Prometheus export.
Histogram& span_stats(std::string_view span_name);

enum class MetricKind { kCounter, kGauge, kHistogram };

/// One exported sample; what the exporters (obs/export.hpp) consume.
struct MetricSample {
  std::string name;
  std::string tag;
  MetricKind kind = MetricKind::kCounter;
  double value = 0.0;        ///< counter / gauge reading
  std::uint64_t count = 0;   ///< histogram observations
  double sum = 0.0;          ///< histogram sum
  double p50 = 0.0, p95 = 0.0, p99 = 0.0;
};

/// Consistent-enough snapshot of every registered metric, sorted by
/// (name, tag) for deterministic export.
std::vector<MetricSample> snapshot();

/// Zeroes every registered metric's value. Registrations (and therefore all
/// cached references) stay valid — tests use this between cases.
void reset_values();

}  // namespace scmp::obs
