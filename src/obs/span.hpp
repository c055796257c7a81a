// Scoped control-plane spans — `OBS_SPAN("dcdm.join")` times the enclosing
// scope and records it into (a) a thread-safe ring-buffer trace sink, for
// the JSONL / Chrome-trace exporters, and (b) a registry histogram
// ("span.<name>.seconds"), for p50/p95/p99 in the Prometheus export.
//
// Cost model: with both tracing and metrics disabled a span is two relaxed
// loads and a branch — no clock read, no allocation. Spans nest; each thread
// tracks its own depth, and records carry a small sequential thread id so
// traces from different threads stay distinguishable.
//
// Span names must be string literals declared under "spans" in
// src/obs/metrics_manifest.json (tools/lint.py obs-hygiene rule).
#pragma once

#include <atomic>
#include <cstdint>

#include "obs/metrics.hpp"
#include "obs/ring.hpp"

namespace scmp::obs {

namespace detail {
inline std::atomic<bool> g_tracing_enabled{false};
inline thread_local std::uint32_t tls_span_depth = 0;
}  // namespace detail

/// Process-wide tracing switch (the span ring buffer); independent of the
/// metrics switch so traces can be captured without histogram overhead.
inline bool tracing_enabled() {
  return detail::g_tracing_enabled.load(std::memory_order_relaxed);
}
void set_tracing_enabled(bool on);

struct SpanRecord {
  const char* name = nullptr;  ///< the OBS_SPAN string literal
  std::uint64_t start_ns = 0;  ///< steady-clock ns since process start
  std::uint64_t dur_ns = 0;
  std::uint32_t tid = 0;    ///< small sequential per-thread id
  std::uint32_t depth = 0;  ///< nesting depth on its thread (1 = top level)
};

/// Ring of completed spans; an overwritten record also counts on the
/// obs.spans.dropped counter.
using SpanSink = Ring<SpanRecord>;

/// The process-wide sink every Span records into.
SpanSink& span_sink();

/// Steady-clock nanoseconds since the process's first observability call.
std::uint64_t now_ns();

/// Small sequential id of the calling thread (0 for the first caller).
std::uint32_t this_thread_tid();

/// RAII scope timer; prefer the OBS_SPAN macro.
class Span {
 public:
  explicit Span(const char* name) {
    if (!tracing_enabled() && !metrics_enabled()) return;
    begin(name);
  }
  ~Span() {
    if (name_ != nullptr) end();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  void begin(const char* name);
  void end();

  const char* name_ = nullptr;
  std::uint64_t start_ = 0;
  std::uint32_t depth_ = 0;
};

#define OBS_CONCAT_INNER(a, b) a##b
#define OBS_CONCAT(a, b) OBS_CONCAT_INNER(a, b)

/// Times the enclosing scope under `name` (a string literal).
#define OBS_SPAN(name) \
  const ::scmp::obs::Span OBS_CONCAT(obs_span_, __LINE__) { name }

}  // namespace scmp::obs
