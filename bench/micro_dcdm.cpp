// Micro-benchmarks of the DCDM dynamic tree algorithm: join-storm throughput
// (the m-router's hot path) and single join/leave latency, on a 100-node
// Waxman graph and on membench's 624-router transit-stub internetwork.
#include <benchmark/benchmark.h>

#include "bench_common.hpp"
#include "core/dcdm.hpp"
#include "topo/waxman.hpp"

namespace {

using namespace scmp;

struct Env {
  topo::Topology topo;
  graph::AllPairsPaths paths;
  std::vector<graph::NodeId> members;

  Env(int n, int group)
      : topo([n] {
          Rng rng(11);
          topo::WaxmanConfig cfg;
          cfg.num_nodes = n;
          cfg.alpha = 0.25;
          cfg.beta = 0.2;
          return topo::waxman(cfg, rng);
        }()),
        paths(topo.graph) {
    Rng rng(13);
    for (int v : rng.sample_without_replacement(n - 1, group))
      members.push_back(v + 1);
  }
};

void BM_DcdmJoinStorm(benchmark::State& state) {
  const Env env(100, static_cast<int>(state.range(0)));
  for (auto _ : state) {
    core::DcdmTree tree(env.topo.graph, env.paths, 0, core::DcdmConfig{1.0});
    for (graph::NodeId m : env.members) tree.join(m);
    benchmark::DoNotOptimize(tree.tree_cost());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(env.members.size()));
}
BENCHMARK(BM_DcdmJoinStorm)->Arg(10)->Arg(50)->Arg(90);

void BM_DcdmChurn(benchmark::State& state) {
  const Env env(100, 40);
  for (auto _ : state) {
    core::DcdmTree tree(env.topo.graph, env.paths, 0, core::DcdmConfig{2.0});
    for (graph::NodeId m : env.members) tree.join(m);
    for (std::size_t i = 0; i < env.members.size(); i += 2)
      tree.leave(env.members[i]);
    for (std::size_t i = 0; i < env.members.size(); i += 2)
      tree.join(env.members[i]);
    benchmark::DoNotOptimize(tree.tree_delay());
  }
}
BENCHMARK(BM_DcdmChurn);

void BM_DcdmLoosestVsTightest(benchmark::State& state) {
  const Env env(100, 50);
  const double slack = state.range(0) == 0 ? 1.0 : core::kLoosest;
  for (auto _ : state) {
    core::DcdmTree tree(env.topo.graph, env.paths, 0, core::DcdmConfig{slack});
    for (graph::NodeId m : env.members) tree.join(m);
    benchmark::DoNotOptimize(tree.tree_cost());
  }
}
BENCHMARK(BM_DcdmLoosestVsTightest)->Arg(0)->Arg(1);

/// membench's internetwork (m-router 0) and `group` distinct members.
struct TransitStubEnv {
  topo::Topology topo;
  graph::AllPairsPaths paths;
  std::vector<graph::NodeId> members;

  explicit TransitStubEnv(int group)
      : topo(bench::membench_internetwork()), paths(topo.graph) {
    const int n = topo.graph.num_nodes();
    Rng rng(13);
    for (int v : rng.sample_without_replacement(n - 1, group))
      members.push_back(v + 1);
  }
};

// At this n a join or leave touches a few dozen routers out of 624: the
// series weighs per-operation costs that scale with n against those that
// scale with the change.
void BM_DcdmTransitStubChurn(benchmark::State& state) {
  static const TransitStubEnv env(200);
  for (auto _ : state) {
    core::DcdmTree tree(env.topo.graph, env.paths, 0, core::DcdmConfig{1.0});
    for (graph::NodeId m : env.members) tree.join(m);
    for (graph::NodeId m : env.members) tree.leave(m);
    benchmark::DoNotOptimize(tree.tree().tree_size());
  }
  state.SetItemsProcessed(state.iterations() * 2 *
                          static_cast<std::int64_t>(env.members.size()));
}
BENCHMARK(BM_DcdmTransitStubChurn);

}  // namespace
