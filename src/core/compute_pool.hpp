// Parallel multicast-task engine for the m-router (paper §II-B: "Many tasks
// in the m-router, such as managing multicast group membership, generating
// multicast trees, scheduling, routing and transmission, are relatively
// independent, which can be performed in parallel. Thus, the m-router can
// adopt a multiprocessor or a cluster computer architecture").
//
// Per-group work (tree computation) is embarrassingly parallel: each group's
// DCDM tree depends only on that group's membership. The pool partitions an
// index range over a fixed set of worker threads; callers write results into
// per-index slots, so the outcome is bit-identical to a serial run
// regardless of thread count or scheduling. Scmp::set_compute_pool routes
// the path-database refreshes and per-group tree rebuilds through it.
#pragma once

#include <cstddef>
#include <functional>

#include "graph/paths.hpp"

namespace scmp::core {

/// Thread-safety: the pool is share-nothing by construction. Workers
/// receive disjoint index ranges and write only into caller-provided
/// per-index slots; the only cross-thread state is the caller's `fn`, which
/// must itself be safe to invoke concurrently on distinct indices. There is
/// consequently no mutex to annotate (util/thread_annotations.hpp policy);
/// the `tsa` preset and the compute_pool_race_test TSan stress pin this
/// property.
class TreeComputePool {
 public:
  /// `threads` <= 0 selects an automatic thread count: the SCMP_THREADS
  /// environment variable when set to a positive integer (so CI runs are
  /// reproducible across runners with different core counts), otherwise the
  /// hardware concurrency (which may report 0 on some platforms — treated
  /// as 1). Results never depend on the choice, only wall-clock does.
  explicit TreeComputePool(int threads = 0);

  int thread_count() const { return threads_; }

  /// Generic parallel-for over indices with static partitioning
  /// (deterministic assignment of work to slots).
  void for_each_index(std::size_t count,
                      const std::function<void(std::size_t)>& fn) const;

  /// Adapter exposing the pool as the graph layer's ParallelFor executor, so
  /// AllPairsPaths::rebuild / apply_link_event can run their full Dijkstra
  /// runs (one source, or one run, per task) on the pool's workers. The
  /// returned closure references `this`; the pool must outlive it.
  graph::ParallelFor parallel_for() const {
    return [this](std::size_t count,
                  const std::function<void(std::size_t)>& fn) {
      for_each_index(count, fn);
    };
  }

 private:
  int threads_;
};

}  // namespace scmp::core
