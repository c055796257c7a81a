// Concurrency stress for the metrics registry and span sink — meaningful
// under ThreadSanitizer (the tsan CI job runs the whole test suite): writer
// threads hammer counters/gauges/histograms and spans while others register
// new series and take snapshots.
#include <gtest/gtest.h>

#include <atomic>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace scmp::obs {
namespace {

TEST(MetricsRace, ConcurrentUpdateRegisterSnapshot) {
  set_metrics_enabled(true);
  set_tracing_enabled(true);
  reset_values();
  span_sink().clear();

  constexpr int kWriters = 4;
  constexpr int kIters = 2000;
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  // Registered up front: the reader below may snapshot before any writer
  // thread has started, and it expects a non-empty registry.
  counter("test.race.counter");

  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([w] {
      Counter& c = counter("test.race.counter");
      Gauge& g = gauge("test.race.gauge");
      Histogram& h = histogram("test.race.hist");
      for (int i = 0; i < kIters; ++i) {
        OBS_SPAN("test.race.span");
        c.inc();
        g.set(static_cast<double>(w * kIters + i));
        h.observe(static_cast<double>(i % 100) + 0.5);
      }
    });
  }
  // Churn registrations of fresh series while the writers run.
  threads.emplace_back([] {
    for (int i = 0; i < 200; ++i)
      counter("test.race.fresh", std::to_string(i)).inc();
  });
  // Snapshot and export continuously until the writers finish.
  std::thread reader([&stop] {
    while (!stop.load(std::memory_order_acquire)) {
      const auto samples = snapshot();
      EXPECT_FALSE(samples.empty());
      std::ostringstream sink;
      write_prometheus(sink, samples);
      (void)span_sink().snapshot();
    }
  });

  for (auto& t : threads) t.join();
  stop.store(true, std::memory_order_release);
  reader.join();

  EXPECT_EQ(counter("test.race.counter").value(),
            static_cast<std::uint64_t>(kWriters) * kIters);
  EXPECT_EQ(histogram("test.race.hist").count(),
            static_cast<std::uint64_t>(kWriters) * kIters);
  EXPECT_EQ(span_sink().total_recorded(),
            static_cast<std::uint64_t>(kWriters) * kIters);

  set_tracing_enabled(false);
  set_metrics_enabled(false);
  span_sink().clear();
}

}  // namespace
}  // namespace scmp::obs
