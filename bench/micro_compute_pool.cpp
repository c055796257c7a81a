// Micro-benchmark of the m-router's parallel tree-compute pool (§II-B):
// a hot-standby failover rebuilding many group trees serially vs on worker
// threads — the hot path of failover at an ISP m-router serving many
// sessions. Each iteration fails the anchor over to the other of two
// routers, so every group is rebuilt at a new root through Scmp's one
// rebuild path; draining the resulting install wave is not timed.
#include <benchmark/benchmark.h>

#include "core/compute_pool.hpp"
#include "core/scmp.hpp"
#include "igmp/igmp.hpp"
#include "sim/event_queue.hpp"
#include "sim/network.hpp"
#include "topo/waxman.hpp"

namespace {

using namespace scmp;

constexpr int kGroups = 64;

struct Domain {
  explicit Domain(const core::TreeComputePool* pool)
      : topo([] {
          Rng rng(3);
          topo::WaxmanConfig cfg;
          cfg.num_nodes = 100;
          cfg.alpha = 0.25;
          cfg.beta = 0.2;
          return topo::waxman(cfg, rng);
        }()),
        net(topo.graph, queue),
        igmp(queue, topo.graph.num_nodes()),
        scmp(net, igmp, [] {
          core::Scmp::Config cfg;
          cfg.mrouter = 0;
          cfg.dcdm = core::DcdmConfig{1.0};
          return cfg;
        }()) {
    scmp.set_compute_pool(pool);
    Rng rng(5);
    for (int group = 1; group <= kGroups; ++group) {
      for (int v : rng.sample_without_replacement(98, 20))
        scmp.host_join(v + 2, group);  // neither anchor is a member
    }
    queue.run_all();
  }

  topo::Topology topo;
  sim::EventQueue queue;
  sim::Network net;
  igmp::IgmpDomain igmp;
  core::Scmp scmp;
};

void BM_FailoverRebuildThreads(benchmark::State& state) {
  const core::TreeComputePool pool(static_cast<int>(state.range(0)));
  Domain d(&pool);
  graph::NodeId standby = 1;
  for (auto _ : state) {
    d.scmp.fail_over(d.scmp.mrouter(), standby);
    benchmark::DoNotOptimize(d.scmp.group_tree(1));
    state.PauseTiming();
    d.queue.run_all();
    standby = 1 - standby;
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() * kGroups);
}
BENCHMARK(BM_FailoverRebuildThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->UseRealTime()->MeasureProcessCPUTime();

}  // namespace
