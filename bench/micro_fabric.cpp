// Micro-benchmarks of the m-router switching fabric: Beneš looping-algorithm
// routing, full sandwich (PN/CCN/DN) session configuration, and per-cell
// forwarding.
#include <benchmark/benchmark.h>

#include <numeric>

#include "fabric/mrouter_fabric.hpp"
#include "util/rng.hpp"

namespace {

using namespace scmp;

void BM_BenesRoute(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  fabric::BenesNetwork net(n);
  Rng rng(23);
  std::vector<int> perm(static_cast<std::size_t>(n));
  std::iota(perm.begin(), perm.end(), 0);
  for (auto _ : state) {
    state.PauseTiming();
    rng.shuffle(perm);
    state.ResumeTiming();
    net.route(perm);
    benchmark::DoNotOptimize(net);
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_BenesRoute)->Arg(16)->Arg(64)->Arg(256)->Complexity();

std::vector<fabric::FabricSession> make_sessions(int ports, int groups,
                                                 Rng& rng) {
  std::vector<int> all(static_cast<std::size_t>(ports));
  std::iota(all.begin(), all.end(), 0);
  rng.shuffle(all);
  std::vector<fabric::FabricSession> sessions;
  std::size_t pos = 0;
  for (int group = 0; group < groups; ++group) {
    fabric::FabricSession s;
    s.group = group;
    const std::size_t take = static_cast<std::size_t>(ports / groups);
    for (std::size_t i = 0; i < take; ++i)
      s.input_ports.push_back(all[pos++]);
    sessions.push_back(std::move(s));
  }
  return sessions;
}

void BM_FabricConfigure(benchmark::State& state) {
  const int ports = static_cast<int>(state.range(0));
  fabric::MRouterFabric fab(ports);
  Rng rng(29);
  const auto sessions = make_sessions(ports, 8, rng);
  for (auto _ : state) {
    fab.configure(sessions);
    benchmark::DoNotOptimize(fab);
  }
}
BENCHMARK(BM_FabricConfigure)->Arg(32)->Arg(128)->Arg(256);

void BM_FabricRouteCell(benchmark::State& state) {
  fabric::MRouterFabric fab(256);
  Rng rng(31);
  fab.configure(make_sessions(256, 16, rng));
  int port = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(fab.route_cell(port));
    port = (port + 1) & 255;
  }
}
BENCHMARK(BM_FabricRouteCell);

}  // namespace
