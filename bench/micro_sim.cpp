// Micro-benchmarks of the discrete-event simulator: event-queue throughput,
// SCMP's DATA forwarding on an installed tree, and end-to-end SCMP scenario
// execution speed (events per second is the figure of merit for scaling the
// Fig. 8/9 sweeps).
#include <benchmark/benchmark.h>

#include "bench_common.hpp"
#include "core/scmp.hpp"
#include "sim/event_queue.hpp"

namespace {

using namespace scmp;

void BM_EventQueueThroughput(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    sim::EventQueue q;
    long counter = 0;
    for (std::size_t i = 0; i < n; ++i)
      q.schedule_at(static_cast<double>(i % 97), [&counter] { ++counter; });
    q.run_all();
    benchmark::DoNotOptimize(counter);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_EventQueueThroughput)->Arg(1000)->Arg(100000);

/// membench's internetwork (m-router 0) with one installed group of 100
/// members. Data comes from a member, which sends on the tree, and from the
/// highest-numbered router off the tree, which encapsulates to the m-router.
struct DataPathEnv {
  static constexpr proto::GroupId kGroup = 1;
  topo::Topology topo = bench::membench_internetwork();
  sim::EventQueue queue;
  sim::Network net{topo.graph, queue};
  igmp::IgmpDomain igmp{queue, topo.graph.num_nodes()};
  core::Scmp scmp{net, igmp, core::Scmp::Config{}};
  graph::NodeId on_tree = graph::kInvalidNode;
  graph::NodeId off_tree = graph::kInvalidNode;

  DataPathEnv() {
    const int n = topo.graph.num_nodes();
    Rng rng(13);
    const auto members = rng.sample_without_replacement(n - 1, 100);
    for (int v : members) scmp.host_join(v + 1, kGroup);
    queue.run_all();
    on_tree = members.front() + 1;
    const graph::MulticastTree& tree = scmp.group_tree(kGroup)->tree();
    for (off_tree = n - 1; tree.on_tree(off_tree);) --off_tree;
  }
};

// Per iteration one DATA packet from each source crosses every tree link
// (the off-tree one after its unicast leg): the per-hop cost of the data
// plane, event core and egress queues included. Items are link crossings.
void BM_ScmpDataForwarding(benchmark::State& state) {
  static DataPathEnv env;
  const std::uint64_t before = env.net.stats().data_link_crossings;
  for (auto _ : state) {
    env.scmp.send_data(env.on_tree, DataPathEnv::kGroup);
    env.scmp.send_data(env.off_tree, DataPathEnv::kGroup);
    env.queue.run_all();
    benchmark::DoNotOptimize(env.net.stats().deliveries);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(
      env.net.stats().data_link_crossings - before));
}
BENCHMARK(BM_ScmpDataForwarding);

void BM_ScenarioScmp(benchmark::State& state) {
  const auto topos = bench::evaluation_topologies(100);
  const graph::Graph& g = topos[1].graph;  // random n=50 deg 3
  const core::ScenarioConfig cfg = bench::scenario_for(g, 20, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::run_scenario(core::ProtocolKind::kScmp, g, cfg));
  }
}
BENCHMARK(BM_ScenarioScmp);

void BM_ScenarioDvmrp(benchmark::State& state) {
  const auto topos = bench::evaluation_topologies(100);
  const graph::Graph& g = topos[1].graph;
  const core::ScenarioConfig cfg = bench::scenario_for(g, 20, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::run_scenario(core::ProtocolKind::kDvmrp, g, cfg));
  }
}
BENCHMARK(BM_ScenarioDvmrp);

}  // namespace
