#include "obs/span.hpp"

#include <chrono>

#include "util/contracts.hpp"

namespace scmp::obs {

void set_tracing_enabled(bool on) {
  detail::g_tracing_enabled.store(on, std::memory_order_relaxed);
}

SpanSink& span_sink() {
  static SpanSink sink;
  return sink;
}

namespace {

std::chrono::steady_clock::time_point process_anchor() {
  static const auto anchor = std::chrono::steady_clock::now();
  return anchor;
}

}  // namespace

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - process_anchor())
          .count());
}

std::uint32_t this_thread_tid() {
  static std::atomic<std::uint32_t> next_tid{0};
  thread_local const std::uint32_t tid =
      next_tid.fetch_add(1, std::memory_order_relaxed);
  return tid;
}

void Span::begin(const char* name) {
  SCMP_EXPECTS(name != nullptr);
  name_ = name;
  depth_ = ++detail::tls_span_depth;
  start_ = now_ns();
}

void Span::end() {
  const std::uint64_t dur = now_ns() - start_;
  --detail::tls_span_depth;
  if (tracing_enabled() &&
      span_sink().record(
          SpanRecord{name_, start_, dur, this_thread_tid(), depth_})) {
    static Counter& drops = obs::counter("obs.spans.dropped");
    drops.inc();
  }
  if (metrics_enabled())
    span_stats(name_).observe(static_cast<double>(dur) * 1e-9);
}

}  // namespace scmp::obs
