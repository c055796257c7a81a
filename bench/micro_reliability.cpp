// Micro-benchmarks of the reliable control-plane delivery layer: raw
// retransmission-table throughput, the zero-loss overhead the ack machinery
// adds to membership churn (the cost of turning Config::reliability on), and
// the price of a soft-state reconciliation pass over a healthy domain.
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "bench_common.hpp"
#include "core/retx.hpp"
#include "core/scmp.hpp"
#include "igmp/igmp.hpp"
#include "sim/event_queue.hpp"
#include "sim/network.hpp"
#include "topo/arpanet.hpp"
#include "util/rng.hpp"

namespace {

using namespace scmp;

void BM_RetxArmAck(benchmark::State& state) {
  // A control round trip on the evaluation topologies is a few ms.
  constexpr double kFirstTimeout = 0.01;
  // Timers drain every window, as in BM_RetxAckNewestFirst: the event queue
  // holds one window of timers, not every request.
  constexpr std::size_t kWindow = 1000;
  const auto n = static_cast<std::size_t>(state.range(0));
  core::RetxConfig cfg;
  cfg.enabled = true;
  for (auto _ : state) {
    sim::EventQueue q;
    core::RetxTable table(q, cfg);
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t req = table.next_req();
      table.arm(static_cast<graph::NodeId>(i % 32), req, kFirstTimeout, [] {});
      table.ack(static_cast<graph::NodeId>(i % 32), req);
      if ((i + 1) % kWindow == 0) q.run_all();  // retired timers: no-ops
    }
    q.run_all();
    benchmark::DoNotOptimize(table.acked());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_RetxArmAck)->Arg(1000)->Arg(100000);

/// 100,000 requests armed in windows of `window` and each window acked
/// newest-first: every ack but a window's last clears a slot behind a live
/// oldest request, and the last one retires the whole window. Each window's
/// timers fire before the next is armed, so the event queue holds one
/// window, not every request.
void BM_RetxAckNewestFirst(benchmark::State& state) {
  constexpr double kFirstTimeout = 0.01;
  constexpr std::size_t kRequests = 100000;
  const auto window = static_cast<std::size_t>(state.range(0));
  const auto sender = [](std::size_t k) {
    return static_cast<graph::NodeId>(k % 32);
  };
  core::RetxConfig cfg;
  cfg.enabled = true;
  std::vector<std::uint64_t> reqs(window);
  for (auto _ : state) {
    sim::EventQueue q;
    core::RetxTable table(q, cfg);
    for (std::size_t done = 0; done < kRequests; done += window) {
      for (std::size_t k = 0; k < window; ++k) {
        reqs[k] = table.next_req();
        table.arm(sender(k), reqs[k], kFirstTimeout, [] {});
      }
      for (std::size_t k = window; k-- > 0;) table.ack(sender(k), reqs[k]);
      q.run_all();  // retired timers fire as no-ops
    }
    benchmark::DoNotOptimize(table.acked());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kRequests));
}
BENCHMARK(BM_RetxAckNewestFirst)->Arg(64);

/// A fresh churn world: the network (and with it the all-pairs path store),
/// IGMP and SCMP anchored at m-router 0.
struct ChurnWorld {
  static core::Scmp::Config config(bool reliable) {
    core::Scmp::Config cfg;
    cfg.mrouter = 0;
    cfg.reliability.enabled = reliable;
    return cfg;
  }
  ChurnWorld(const graph::Graph& g, bool reliable)
      : net(g, queue),
        igmp(queue, g.num_nodes()),
        scmp(net, igmp, config(reliable)) {}

  sim::EventQueue queue;
  sim::Network net;
  igmp::IgmpDomain igmp;
  core::Scmp scmp;
};

/// `rounds` join/leave pairs of one group, each drained to quiescence, on a
/// fresh world per iteration, with the reliability layer on or off and the
/// convergence tracker optionally enabled. Each world is built and torn
/// down with the timer paused, so only the churn is timed.
void churn_rounds(benchmark::State& state, bool reliable, bool tracked) {
  const int rounds = static_cast<int>(state.range(0));
  Rng rng(7);
  const topo::Topology topo = topo::arpanet(rng);
  std::unique_ptr<ChurnWorld> w;
  for (auto _ : state) {
    state.PauseTiming();
    w.reset();
    w = std::make_unique<ChurnWorld>(topo.graph, reliable);
    if (tracked) w->scmp.enable_convergence_tracking();
    state.ResumeTiming();
    for (int r = 0; r < rounds; ++r) {
      const graph::NodeId member = 3 + (r * 7) % (topo::kArpanetNodes - 4);
      w->scmp.host_join(member, /*group=*/0);
      w->queue.run_all();
      w->scmp.host_leave(member, /*group=*/0);
      w->queue.run_all();
    }
    benchmark::DoNotOptimize(w->scmp.retx().acked());
  }
  state.SetItemsProcessed(state.iterations() * 2 * rounds);
}

void BM_ChurnFireAndForget(benchmark::State& state) {
  churn_rounds(state, /*reliable=*/false, /*tracked=*/false);
}
BENCHMARK(BM_ChurnFireAndForget)->Arg(50);

void BM_ChurnReliable(benchmark::State& state) {
  churn_rounds(state, /*reliable=*/true, /*tracked=*/false);
}
BENCHMARK(BM_ChurnReliable)->Arg(50);

/// Reliable churn with the per-group convergence tracker enabled — the cost
/// of measuring time-to-convergence (pending-set upkeep, a consistency
/// predicate per handled control packet, timeout timers) relative to
/// BM_ChurnReliable's identical workload.
void BM_ChurnConvergenceTracked(benchmark::State& state) {
  churn_rounds(state, /*reliable=*/true, /*tracked=*/true);
}
BENCHMARK(BM_ChurnConvergenceTracked)->Arg(50);

void BM_ReconcileHealthyDomain(benchmark::State& state) {
  const int groups = static_cast<int>(state.range(0));
  Rng rng(7);
  const topo::Topology topo = topo::arpanet(rng);
  sim::EventQueue queue;
  sim::Network net(topo.graph, queue);
  igmp::IgmpDomain igmp(queue, topo.graph.num_nodes());
  core::Scmp::Config cfg;
  cfg.mrouter = 0;
  cfg.reliability.enabled = true;
  core::Scmp scmp(net, igmp, cfg);
  for (int g = 0; g < groups; ++g) {
    for (graph::NodeId m : {5 + g, 12 + g, 19 + g}) scmp.host_join(m, g);
    queue.run_all();
  }
  for (auto _ : state) {
    // A healthy domain: both phases diff everything and repair nothing.
    benchmark::DoNotOptimize(scmp.reconcile_all());
    queue.run_all();
  }
  state.SetItemsProcessed(state.iterations() * groups);
}
BENCHMARK(BM_ReconcileHealthyDomain)->Arg(1)->Arg(8);

}  // namespace
