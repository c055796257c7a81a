// ThreadSanitizer-targeted stress test for the logger: worker threads log
// while the driver changes the level. The level is a relaxed atomic —
// before that fix this test was a guaranteed TSan data-race report on
// g_level.
#include "util/log.hpp"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

namespace scmp {
namespace {

class LogLevelGuard {
 public:
  LogLevelGuard() : saved_(log_level()) {}
  ~LogLevelGuard() { set_log_level(saved_); }

 private:
  LogLevel saved_;
};

TEST(LogRace, ConcurrentLoggingWhileLevelToggles) {
  LogLevelGuard guard;
  constexpr int kWriters = 4;
  constexpr int kIterations = 2000;

  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([w] {
      for (int i = 0; i < kIterations; ++i) {
        // kOff/kError toggling keeps these suppressed (no stderr spam);
        // the point is the concurrent level *reads*.
        log_info("writer ", w, " iteration ", i);
        log_trace("writer ", w, " detail ", i);
      }
    });
  }
  // Toggle the level concurrently with the readers.
  for (int i = 0; i < 500; ++i)
    set_log_level(i % 2 == 0 ? LogLevel::kError : LogLevel::kOff);
  for (auto& t : writers) t.join();

  const LogLevel final = log_level();
  EXPECT_TRUE(final == LogLevel::kError || final == LogLevel::kOff);
}

TEST(LogRace, ConcurrentEmissionKeepsLinesWhole) {
  // Lines from concurrent log_line calls may interleave with each other but
  // never tear mid-line (single fprintf per line); this exercises the
  // emission path itself from several threads.
  LogLevelGuard guard;
  set_log_level(LogLevel::kInfo);
  constexpr int kWriters = 4;
  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([w] {
      for (int i = 0; i < 5; ++i) log_info("emitter ", w, " line ", i);
    });
  }
  for (auto& t : writers) t.join();
}

}  // namespace
}  // namespace scmp
