// Deterministic time-series sampling of the metrics registry — snapshots
// taken on a *simulated-time* cadence (the caller reports sim time from its
// event loop; no wall clock, no scheduled threads) and serialized as a
// `scmp-timeseries-v1` JSONL stream of per-window counter deltas, gauge
// readings and histogram quantiles.
//
// Determinism: windows are stamped with exact window boundaries, emission is
// sparse (zero counter deltas, zero gauges and unchanged histograms are
// omitted, and fully empty windows are skipped), and wall-clock-fed
// `span.*` histograms are always excluded — so two fixed-seed runs
// serialize bit-identically regardless of metric registration timing.
//
// Stream format (one JSON object per line):
//   {"schema":"scmp-timeseries-v1","interval":1}
//   {"run":0,"t":1,"counters":{"scmp.joins":3,...},
//    "gauges":{...},"histograms":{"name":{"count":4,"delta":2,
//    "p50":...,"p95":...,"p99":...}}}
// Tagged metrics key as "name{tag}". `t` is the window's *end* boundary;
// counters hold the delta accrued inside (t - interval, t]. `run`
// partitions multi-world processes (scmp_churn_check seeds); begin_run()
// starts a new partition with time rebased to zero.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "util/thread_annotations.hpp"

namespace scmp::obs {

class TimeseriesSampler {
 public:
  struct HistEntry {
    std::uint64_t count = 0;  ///< cumulative observations at window end
    std::uint64_t delta = 0;  ///< observations inside the window
    double p50 = 0.0, p95 = 0.0, p99 = 0.0;
  };
  struct Window {
    int run = 0;
    double t = 0.0;  ///< window end boundary, simulated seconds
    std::map<std::string, double> counters;  ///< per-window deltas
    std::map<std::string, double> gauges;
    std::map<std::string, HistEntry> histograms;
  };

  /// Process-wide sampling switch; maybe_sample() is one relaxed load and a
  /// branch while off.
  void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }
  bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Window length in simulated seconds (default 1.0); rebases the next
  /// window boundary, so set it before sampling starts.
  void set_interval(double seconds) EXCLUDES(mu_);
  double interval() const EXCLUDES(mu_);

  /// Starts a new run partition: bumps the run id (if sampling already
  /// happened) and rebases the window clock to zero. Counter baselines are
  /// kept — the registry accumulates across runs.
  void begin_run() EXCLUDES(mu_);

  /// Emits every window boundary passed up to `now` (simulated seconds).
  /// Call from the simulation loop; cheap no-op while disabled.
  void maybe_sample(double now) EXCLUDES(mu_);

  std::vector<Window> windows() const EXCLUDES(mu_);

  /// The full scmp-timeseries-v1 stream (header line + one line per
  /// retained window).
  std::string serialize() const EXCLUDES(mu_);
  void write_jsonl(std::ostream& out) const EXCLUDES(mu_);

  /// Drops windows, baselines and the run partition (keeps interval and
  /// enablement).
  void reset() EXCLUDES(mu_);

 private:
  void sample_window(double t) REQUIRES(mu_);

  std::atomic<bool> enabled_{false};
  mutable util::Mutex mu_;
  double interval_ GUARDED_BY(mu_) = 1.0;
  double next_ GUARDED_BY(mu_) = 1.0;  ///< next window end boundary
  bool started_ GUARDED_BY(mu_) = false;  ///< any window sampled yet
  int run_ GUARDED_BY(mu_) = 0;
  std::map<std::string, double> prev_counters_ GUARDED_BY(mu_);
  std::map<std::string, std::uint64_t> prev_hist_counts_ GUARDED_BY(mu_);
  std::vector<Window> windows_ GUARDED_BY(mu_);
};

/// The process-wide sampler ObsSession's --timeseries flag enables.
TimeseriesSampler& timeseries();

}  // namespace scmp::obs
