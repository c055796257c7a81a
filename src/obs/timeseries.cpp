#include "obs/timeseries.hpp"

#include <cstdio>
#include <ostream>
#include <string_view>

#include "obs/metrics.hpp"
#include "util/contracts.hpp"

namespace scmp::obs {

namespace {

/// Shortest round-trippable decimal; integers print without an exponent.
std::string num(double v) {
  char buf[64];
  if (v == static_cast<double>(static_cast<long long>(v)) &&
      v >= -1e15 && v <= 1e15) {
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
  } else {
    std::snprintf(buf, sizeof(buf), "%.9g", v);
  }
  return buf;
}

std::string series_key(const MetricSample& s) {
  return s.tag.empty() ? s.name : s.name + "{" + s.tag + "}";
}

}  // namespace

void TimeseriesSampler::set_interval(double seconds) {
  SCMP_EXPECTS(seconds > 0.0);
  const util::LockGuard lock(mu_);
  interval_ = seconds;
  next_ = seconds;
}

double TimeseriesSampler::interval() const {
  const util::LockGuard lock(mu_);
  return interval_;
}

void TimeseriesSampler::begin_run() {
  const util::LockGuard lock(mu_);
  if (started_) ++run_;
  started_ = false;
  next_ = interval_;
}

void TimeseriesSampler::maybe_sample(double now) {
  if (!enabled()) return;
  const util::LockGuard lock(mu_);
  while (now >= next_) {
    sample_window(next_);
    next_ += interval_;
  }
}

void TimeseriesSampler::sample_window(double t) {
  started_ = true;
  Window w;
  w.run = run_;
  w.t = t;
  for (const MetricSample& s : obs::snapshot()) {
    const std::string key = series_key(s);
    switch (s.kind) {
      case MetricKind::kCounter: {
        const double delta = s.value - prev_counters_[key];
        prev_counters_[key] = s.value;
        if (delta != 0.0) w.counters[key] = delta;
        break;
      }
      case MetricKind::kGauge:
        if (s.value != 0.0) w.gauges[key] = s.value;
        break;
      case MetricKind::kHistogram: {
        // Wall-clock-fed span.* histograms would break the stream's
        // fixed-seed reproducibility.
        if (std::string_view(s.name).starts_with("span.")) break;
        const std::uint64_t delta = s.count - prev_hist_counts_[key];
        prev_hist_counts_[key] = s.count;
        if (delta != 0) {
          w.histograms[key] = HistEntry{s.count, delta, s.p50, s.p95, s.p99};
        }
        break;
      }
    }
  }
  if (w.counters.empty() && w.gauges.empty() && w.histograms.empty()) return;
  windows_.push_back(std::move(w));
}

std::vector<TimeseriesSampler::Window> TimeseriesSampler::windows() const {
  const util::LockGuard lock(mu_);
  return windows_;
}

std::string TimeseriesSampler::serialize() const {
  const util::LockGuard lock(mu_);
  std::string out = "{\"schema\":\"scmp-timeseries-v1\",\"interval\":" +
                    num(interval_) + "}\n";
  for (const Window& w : windows_) {
    out += "{\"run\":" + std::to_string(w.run) + ",\"t\":" + num(w.t) +
           ",\"counters\":{";
    bool first = true;
    for (const auto& [key, delta] : w.counters) {
      if (!first) out += ",";
      first = false;
      out += "\"" + key + "\":" + num(delta);
    }
    out += "},\"gauges\":{";
    first = true;
    for (const auto& [key, value] : w.gauges) {
      if (!first) out += ",";
      first = false;
      out += "\"" + key + "\":" + num(value);
    }
    out += "},\"histograms\":{";
    first = true;
    for (const auto& [key, h] : w.histograms) {
      if (!first) out += ",";
      first = false;
      out += "\"" + key + "\":{\"count\":" + std::to_string(h.count) +
             ",\"delta\":" + std::to_string(h.delta) + ",\"p50\":" +
             num(h.p50) + ",\"p95\":" + num(h.p95) + ",\"p99\":" +
             num(h.p99) + "}";
    }
    out += "}}\n";
  }
  return out;
}

void TimeseriesSampler::write_jsonl(std::ostream& out) const {
  SCMP_EXPECTS(out.good());
  out << serialize();
}

void TimeseriesSampler::reset() {
  const util::LockGuard lock(mu_);
  windows_.clear();
  prev_counters_.clear();
  prev_hist_counts_.clear();
  started_ = false;
  run_ = 0;
  next_ = interval_;
}

TimeseriesSampler& timeseries() {
  static TimeseriesSampler sampler;
  return sampler;
}

}  // namespace scmp::obs
