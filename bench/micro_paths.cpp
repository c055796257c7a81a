// Micro-benchmarks of the dual-weight path database: full rebuilds (serial
// and on the compute pool, one Dijkstra source per task), incremental
// single-link updates, and path materialization into a reused buffer.
#include <benchmark/benchmark.h>

#include "core/compute_pool.hpp"
#include "graph/paths.hpp"
#include "topo/waxman.hpp"

namespace {

using namespace scmp;

topo::Topology make_topo(int n) {
  Rng rng(42);
  topo::WaxmanConfig cfg;
  cfg.num_nodes = n;
  cfg.alpha = 0.25;
  cfg.beta = 0.2;
  return topo::waxman(cfg, rng);
}

void BM_PathsRebuildSerial(benchmark::State& state) {
  const auto topo = make_topo(static_cast<int>(state.range(0)));
  graph::AllPairsPaths paths(topo.graph);
  for (auto _ : state) {
    paths.rebuild(topo.graph);
    benchmark::DoNotOptimize(paths);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_PathsRebuildSerial)->Arg(50)->Arg(100)->Arg(200)->Complexity();

// Arg pair: (nodes, threads). On a single-core host the parallel numbers
// track the serial ones plus thread overhead; the thread axis is what CI
// machines with real parallelism exercise.
void BM_PathsRebuildPool(benchmark::State& state) {
  const auto topo = make_topo(static_cast<int>(state.range(0)));
  graph::AllPairsPaths paths(topo.graph);
  const core::TreeComputePool pool(static_cast<int>(state.range(1)));
  const graph::ParallelFor pf = pool.parallel_for();
  for (auto _ : state) {
    paths.rebuild(topo.graph, pf);
    benchmark::DoNotOptimize(paths);
  }
}
BENCHMARK(BM_PathsRebuildPool)
    ->Args({100, 1})
    ->Args({100, 2})
    ->Args({100, 4})
    ->Args({100, 8})
    ->Args({200, 8});

// One link fails, then comes back, alternately: each iteration is one
// incremental apply_link_event on the dirty-source subset. Compare against
// BM_PathsRebuildSerial at the same node count for the incremental win.
void BM_PathsLinkEvent(benchmark::State& state) {
  auto topo = make_topo(static_cast<int>(state.range(0)));
  // A mid-degree node's first edge: representative, deterministic.
  const graph::NodeId u = 1;
  const auto& nbs = topo.graph.neighbors(u);
  const graph::NodeId v = nbs.front().to;
  const graph::EdgeAttr attr = nbs.front().attr;
  graph::AllPairsPaths paths(topo.graph);
  bool present = true;
  for (auto _ : state) {
    if (present) {
      topo.graph.remove_edge(u, v);
    } else {
      topo.graph.add_edge(u, v, attr.delay, attr.cost);
    }
    present = !present;
    benchmark::DoNotOptimize(paths.apply_link_event(topo.graph, u, v));
  }
}
BENCHMARK(BM_PathsLinkEvent)->Arg(50)->Arg(100)->Arg(200);

void BM_PathToInto(benchmark::State& state) {
  const auto topo = make_topo(100);
  const graph::AllPairsPaths paths(topo.graph);
  std::vector<graph::NodeId> buf;
  graph::NodeId dst = 1;
  for (auto _ : state) {
    paths.sl_path_into(0, dst, buf);
    benchmark::DoNotOptimize(buf);
    dst = dst % 99 + 1;
  }
}
BENCHMARK(BM_PathToInto);

}  // namespace
