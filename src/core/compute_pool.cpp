#include "core/compute_pool.hpp"

#include <algorithm>
#include <cstdlib>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "util/contracts.hpp"

namespace scmp::core {

namespace {

/// Automatic worker count for `threads <= 0`: the SCMP_THREADS environment
/// override when set to a positive integer, else the detected hardware
/// concurrency. hardware_concurrency() is allowed to return 0 ("not
/// computable"); that must degrade to a serial pool, not a zero-thread one.
int auto_thread_count() {
  // NOLINTNEXTLINE(concurrency-mt-unsafe) — read once at pool construction,
  // before any worker exists; nothing writes the environment concurrently.
  if (const char* env = std::getenv("SCMP_THREADS")) {
    char* end = nullptr;
    const long parsed = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && parsed > 0 && parsed <= 1 << 16)
      return static_cast<int>(parsed);
  }
  // determinism: allow(thread count shapes work partitioning only; results
  // are bit-identical at any count — pinned by PoolDeterminism/
  // ParallelEqualsSerial and
  // ComputePoolRace.BitIdenticalDigestAcrossThreadCounts)
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

}  // namespace

TreeComputePool::TreeComputePool(int threads)
    : threads_(std::max(threads <= 0 ? auto_thread_count() : threads, 1)) {}

void TreeComputePool::for_each_index(
    std::size_t count, const std::function<void(std::size_t)>& fn) const {
  SCMP_EXPECTS(fn != nullptr);
  if (count == 0) return;
  OBS_SPAN("pool.for_each");
  static obs::Counter& tasks = obs::counter("pool.tasks");
  tasks.inc(count);
  const auto workers =
      std::min<std::size_t>(static_cast<std::size_t>(threads_), count);
  if (workers == 1) {
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }
  // Static block partitioning: worker w handles [w*chunk, min((w+1)*chunk, n)).
  // Each index is touched by exactly one worker, so no synchronisation is
  // needed beyond the joins, and the result cannot depend on scheduling.
  const std::size_t chunk = (count + workers - 1) / workers;
  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    const std::size_t begin = w * chunk;
    const std::size_t end = std::min(begin + chunk, count);
    if (begin >= end) break;
    pool.emplace_back([&fn, begin, end] {
      for (std::size_t i = begin; i < end; ++i) fn(i);
    });
  }
  for (auto& t : pool) t.join();
}

}  // namespace scmp::core
