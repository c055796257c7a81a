// ThreadSanitizer-targeted stress tests for TreeComputePool. The pool's
// determinism claim (bit-identical trees for any thread count) only holds if
// workers share nothing mutable; these tests hammer the pool through Scmp's
// one rebuild path hard enough that an introduced race is near-certain to
// trip TSan, and assert the determinism contract directly by comparing
// structural digests.
#include "core/compute_pool.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "core/scmp.hpp"
#include "helpers.hpp"
#include "igmp/igmp.hpp"
#include "sim/event_queue.hpp"
#include "sim/network.hpp"

namespace scmp::core {
namespace {

/// FNV-1a over every group tree's full structure after a failover rebuild
/// of `count` groups of 2-10 random members on `pool` (serial when null):
/// parent pointers, membership flags and on-tree sets. Any divergence
/// between runs changes the digest.
std::uint64_t rebuild_digest(const graph::Graph& graph, int count,
                             std::uint64_t seed, const DcdmConfig& dcdm,
                             const TreeComputePool* pool) {
  sim::EventQueue queue;
  sim::Network net(graph, queue);
  igmp::IgmpDomain igmp(queue, graph.num_nodes());
  Scmp::Config cfg;
  cfg.dcdm = dcdm;
  Scmp scmp(net, igmp, cfg);
  scmp.set_compute_pool(pool);
  Rng rng(seed);
  for (int group = 1; group <= count; ++group) {
    const int size = static_cast<int>(rng.uniform_int(2, 10));
    for (int v : rng.sample_without_replacement(graph.num_nodes() - 1, size))
      scmp.host_join(v + 1, group);
  }
  queue.run_all();
  scmp.fail_over_to(1);
  queue.run_all();

  std::uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ULL;
  };
  for (GroupId group : scmp.active_groups()) {
    const graph::MulticastTree& tree = scmp.group_tree(group)->tree();
    mix(static_cast<std::uint64_t>(group));
    for (graph::NodeId v = 0; v < graph.num_nodes(); ++v) {
      if (!tree.on_tree(v)) continue;
      mix(static_cast<std::uint64_t>(v) * 3 + 1);
      mix(static_cast<std::uint64_t>(tree.parent(v)) * 3 + 2);
      mix(tree.is_member(v) ? 7 : 11);
    }
  }
  return h;
}

TEST(ComputePoolRace, BitIdenticalDigestAcrossThreadCounts) {
  const auto topo = test::random_topology(31, 24);
  const DcdmConfig cfg{1.5};
  const std::uint64_t expected =
      rebuild_digest(topo.graph, 12, 17, cfg, nullptr);

  for (int round = 0; round < 3; ++round) {
    for (int threads : {1, 2, 3, 4, 8}) {
      const TreeComputePool pool(threads);
      EXPECT_EQ(rebuild_digest(topo.graph, 12, 17, cfg, &pool), expected)
          << "threads=" << threads << " round=" << round;
    }
  }
}

TEST(ComputePoolRace, ConcurrentBuildTreesOnSharedPool) {
  // for_each_index is const; several simulation drivers may share one pool
  // and rebuild through it at once. Every caller must get the same digest,
  // and TSan must stay silent.
  const auto topo = test::random_topology(32, 24);
  const DcdmConfig cfg{2.0};
  const TreeComputePool pool(4);
  const std::uint64_t expected =
      rebuild_digest(topo.graph, 10, 23, cfg, &pool);

  constexpr int kCallers = 4;
  std::vector<std::uint64_t> digests(kCallers, 0);
  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      digests[static_cast<std::size_t>(c)] =
          rebuild_digest(topo.graph, 10, 23, cfg, &pool);
    });
  }
  for (auto& t : callers) t.join();
  for (std::uint64_t d : digests) EXPECT_EQ(d, expected);
}

TEST(ComputePoolRace, ForEachIndexHammered) {
  // Repeated wide fan-out with per-index slots: workers write disjoint
  // entries, the driver reads them after the implicit join. A lost write,
  // double dispatch, or missing join shows up as a wrong sum or a TSan race.
  const TreeComputePool pool(8);

  constexpr std::size_t kIndices = 96;
  for (int round = 0; round < 20; ++round) {
    std::vector<std::uint64_t> slots(kIndices, 0);
    pool.for_each_index(kIndices, [&](std::size_t i) {
      slots[i] = static_cast<std::uint64_t>(i) + 1;
    });
    std::uint64_t sum = 0;
    for (std::uint64_t v : slots) sum += v;
    ASSERT_EQ(sum, kIndices * (kIndices + 1) / 2) << "round=" << round;
  }
}

}  // namespace
}  // namespace scmp::core
