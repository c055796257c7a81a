// Micro-benchmarks of the shortest-path store: full builds, incremental
// single-link updates (failures repair the orphaned subtrees, link-ups re-run
// the dirty sources), the network's whole link-failure path, and path
// materialization into a reused buffer.
#include <benchmark/benchmark.h>

#include <memory>
#include <utility>
#include <vector>

#include "graph/paths.hpp"
#include "sim/event_queue.hpp"
#include "sim/network.hpp"
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
  for (auto _ : state) {
    const graph::AllPairsPaths paths(topo.graph);
    benchmark::DoNotOptimize(paths);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_PathsRebuildSerial)->Arg(50)->Arg(100)->Arg(200)->Complexity();

/// Up to n / 4 links that can fail one after another, in this order, with
/// the topology staying connected: a fixed, deterministic failure sequence.
std::vector<std::pair<graph::NodeId, graph::NodeId>> failure_sequence(
    graph::Graph g) {
  std::vector<std::pair<graph::NodeId, graph::NodeId>> out;
  const auto want = static_cast<std::size_t>(g.num_nodes() / 4);
  for (graph::NodeId u = 0; u < g.num_nodes() && out.size() < want; ++u) {
    std::vector<graph::NodeId> higher;
    for (const graph::Graph::Neighbor& nb : g.neighbors(u))
      if (nb.to > u) higher.push_back(nb.to);
    for (const graph::NodeId v : higher) {
      if (out.size() == want) break;
      graph::Graph probe = g;
      probe.remove_edge(u, v);
      if (!probe.is_connected()) continue;
      g = std::move(probe);
      out.emplace_back(u, v);
    }
  }
  return out;
}

// Each iteration fails the next link of the sequence and repairs the
// database incrementally; once the sequence is exhausted the topology and
// database are reset outside the timed region. Compare against
// BM_PathsRebuildSerial at the same node count for the incremental win.
void BM_PathsLinkFail(benchmark::State& state) {
  const auto topo = make_topo(static_cast<int>(state.range(0)));
  const auto links = failure_sequence(topo.graph);
  graph::Graph g = topo.graph;
  graph::AllPairsPaths paths(g);
  std::size_t next = 0;
  for (auto _ : state) {
    if (next == links.size()) {
      state.PauseTiming();
      g = topo.graph;
      paths = graph::AllPairsPaths(g);
      next = 0;
      state.ResumeTiming();
    }
    const auto [u, v] = links[next++];
    g.remove_edge(u, v);
    benchmark::DoNotOptimize(paths.apply_link_event(g, u, v));
  }
}
BENCHMARK(BM_PathsLinkFail)->Arg(50)->Arg(100)->Arg(200);

// The same sequence coming back up, most recent failure first: each
// iteration restores one link, re-running the dirty sources in full.
void BM_PathsLinkRestore(benchmark::State& state) {
  const auto topo = make_topo(static_cast<int>(state.range(0)));
  const auto links = failure_sequence(topo.graph);
  graph::Graph failed = topo.graph;
  for (const auto& [u, v] : links) failed.remove_edge(u, v);
  graph::Graph g = failed;
  graph::AllPairsPaths paths(g);
  std::size_t next = links.size();
  for (auto _ : state) {
    if (next == 0) {
      state.PauseTiming();
      g = failed;
      paths = graph::AllPairsPaths(g);
      next = links.size();
      state.ResumeTiming();
    }
    const auto [u, v] = links[--next];
    const graph::EdgeAttr attr = *topo.graph.edge(u, v);
    g.add_edge(u, v, attr.delay, attr.cost);
    benchmark::DoNotOptimize(paths.apply_link_event(g, u, v));
  }
}
BENCHMARK(BM_PathsLinkRestore)->Arg(50)->Arg(100)->Arg(200);

// Network::fail_link over the same sequence: the per-link state edit plus
// the store's whole repair (both metrics' subtrees and the first hops); no
// protocol listens. A fresh network is built outside the timed region
// whenever the sequence is exhausted.
void BM_NetworkFailLink(benchmark::State& state) {
  const auto topo = make_topo(static_cast<int>(state.range(0)));
  const auto links = failure_sequence(topo.graph);
  sim::EventQueue queue;
  auto net = std::make_unique<sim::Network>(topo.graph, queue);
  std::size_t next = 0;
  for (auto _ : state) {
    if (next == links.size()) {
      state.PauseTiming();
      net = std::make_unique<sim::Network>(topo.graph, queue);
      next = 0;
      state.ResumeTiming();
    }
    const auto [u, v] = links[next++];
    net->fail_link(u, v);
    benchmark::DoNotOptimize(net->paths());
  }
}
BENCHMARK(BM_NetworkFailLink)->Arg(50)->Arg(100)->Arg(200);

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
