// Unit tests for the deterministic time-series sampler: per-window counter
// deltas, sparse emission, run partitioning, span-stat exclusion, and the
// golden scmp-timeseries-v1 serialization.
#include "obs/timeseries.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "obs/metrics.hpp"

namespace scmp::obs {
namespace {

/// Each test samples the process-wide registry through its own sampler,
/// starting from zeroed metric values (registrations persist across tests
/// in this binary; zero values are omitted from windows, so leftovers from
/// other suites cannot leak in).
class TimeseriesTest : public ::testing::Test {
 protected:
  void SetUp() override {
    set_metrics_enabled(true);
    reset_values();
    sampler_.set_enabled(true);
  }
  void TearDown() override {
    reset_values();
    set_metrics_enabled(false);
  }
  TimeseriesSampler sampler_;
};

TEST_F(TimeseriesTest, WindowsHoldCounterDeltasNotTotals) {
  Counter& c = counter("test.ts.joins");
  c.inc(3);
  sampler_.maybe_sample(1.0);
  c.inc(2);
  sampler_.maybe_sample(2.0);
  const std::vector<TimeseriesSampler::Window> windows = sampler_.windows();
  ASSERT_EQ(windows.size(), 2u);
  EXPECT_DOUBLE_EQ(windows[0].t, 1.0);
  EXPECT_DOUBLE_EQ(windows[0].counters.at("test.ts.joins"), 3.0);
  EXPECT_DOUBLE_EQ(windows[1].counters.at("test.ts.joins"), 2.0);
}

TEST_F(TimeseriesTest, EmissionIsSparse) {
  counter("test.ts.burst").inc(5);
  // One call crossing four boundaries: only the first window (holding the
  // delta) is emitted; the three idle windows are skipped entirely.
  sampler_.maybe_sample(4.5);
  const std::vector<TimeseriesSampler::Window> windows = sampler_.windows();
  ASSERT_EQ(windows.size(), 1u);
  EXPECT_DOUBLE_EQ(windows[0].t, 1.0);
  // A window's counter map omits series that did not move.
  counter("test.ts.other").inc(1);
  sampler_.maybe_sample(5.0);
  ASSERT_EQ(sampler_.windows().size(), 2u);
  EXPECT_EQ(sampler_.windows()[1].counters.count("test.ts.burst"), 0u);
}

TEST_F(TimeseriesTest, DisabledSamplerEmitsNothing) {
  sampler_.set_enabled(false);
  counter("test.ts.off").inc(1);
  sampler_.maybe_sample(10.0);
  EXPECT_TRUE(sampler_.windows().empty());
}

TEST_F(TimeseriesTest, GaugesAndHistogramsAppearWhenLive) {
  gauge("test.ts.pending").set(2.5);
  histogram("test.ts.latency").observe(0.5);
  sampler_.maybe_sample(1.0);
  // The histogram did not move in window two: it is omitted; the gauge is a
  // level, not a delta, so it reappears while nonzero.
  sampler_.maybe_sample(2.0);
  const std::vector<TimeseriesSampler::Window> windows = sampler_.windows();
  ASSERT_EQ(windows.size(), 2u);
  EXPECT_DOUBLE_EQ(windows[0].gauges.at("test.ts.pending"), 2.5);
  const TimeseriesSampler::HistEntry& h =
      windows[0].histograms.at("test.ts.latency");
  EXPECT_EQ(h.count, 1u);
  EXPECT_EQ(h.delta, 1u);
  EXPECT_GT(h.p50, 0.0);
  EXPECT_EQ(windows[1].histograms.count("test.ts.latency"), 0u);
  EXPECT_DOUBLE_EQ(windows[1].gauges.at("test.ts.pending"), 2.5);
}

TEST_F(TimeseriesTest, SpanStatsExcludedByDefault) {
  histogram("span.test_ts.seconds").observe(0.25);
  counter("test.ts.tick").inc(1);
  sampler_.maybe_sample(1.0);
  ASSERT_EQ(sampler_.windows().size(), 1u);
  EXPECT_EQ(sampler_.windows()[0].histograms.count("span.test_ts.seconds"),
            0u);
}

TEST_F(TimeseriesTest, BeginRunPartitionsAndRebasesClock) {
  // begin_run before any window is sampled keeps run 0 (fresh processes
  // call it once up front).
  sampler_.begin_run();
  counter("test.ts.run").inc(1);
  sampler_.maybe_sample(3.0);
  sampler_.begin_run();
  counter("test.ts.run").inc(4);
  sampler_.maybe_sample(1.0);  // rebased: t=1 is a fresh boundary
  const std::vector<TimeseriesSampler::Window> windows = sampler_.windows();
  ASSERT_EQ(windows.size(), 2u);
  EXPECT_EQ(windows[0].run, 0);
  EXPECT_DOUBLE_EQ(windows[0].t, 1.0);
  EXPECT_EQ(windows[1].run, 1);
  EXPECT_DOUBLE_EQ(windows[1].t, 1.0);
  EXPECT_DOUBLE_EQ(windows[1].counters.at("test.ts.run"), 4.0);
}

TEST_F(TimeseriesTest, SerializeGolden) {
  sampler_.set_interval(0.5);
  counter("test.ts.golden").inc(3);
  gauge("test.ts.depth").set(2.5);
  histogram("test.ts.wait").observe(1.0);
  histogram("test.ts.wait").observe(1.0);
  sampler_.maybe_sample(0.5);
  const double q = histogram("test.ts.wait").quantile(0.5);
  char want[512];
  std::snprintf(
      want, sizeof(want),
      "{\"schema\":\"scmp-timeseries-v1\",\"interval\":0.5}\n"
      "{\"run\":0,\"t\":0.5,\"counters\":{\"test.ts.golden\":3},"
      "\"gauges\":{\"test.ts.depth\":2.5},"
      "\"histograms\":{\"test.ts.wait\":{\"count\":2,\"delta\":2,"
      "\"p50\":%.9g,\"p95\":%.9g,\"p99\":%.9g}}}\n",
      q, q, q);
  EXPECT_EQ(sampler_.serialize(), want);
}

TEST_F(TimeseriesTest, ResetDropsWindowsAndBaselines) {
  counter("test.ts.reset").inc(2);
  sampler_.maybe_sample(1.0);
  sampler_.reset();
  EXPECT_TRUE(sampler_.windows().empty());
  // Baselines cleared: the next window sees the counter's absolute value.
  sampler_.maybe_sample(1.0);
  ASSERT_EQ(sampler_.windows().size(), 1u);
  EXPECT_EQ(sampler_.windows()[0].run, 0);
  EXPECT_DOUBLE_EQ(sampler_.windows()[0].counters.at("test.ts.reset"), 2.0);
}

}  // namespace
}  // namespace scmp::obs
