// Macro benchmark for the epoch-batched membership pipeline: how much DCDM
// work does the control plane pay per membership event, and how fast does
// it chew through a membership storm?
//
// Two workloads on a GT-ITM-style transit-stub internetwork (624 routers):
//
//   flash  — 10k joins hit 20 hot groups inside a 5-second window (the
//            flash-crowd regime). Per-request processing runs one DCDM call
//            for every JOIN/LEAVE reaching the m-router; an epoch close
//            replays only each group's net membership delta.
//   zipf   — 20k Zipf-popular join/leave churn events over 50 seconds across
//            500 groups (the steady-state regime).
//
// Each workload sweeps the epoch close interval; x = interval seconds.
// Emitted series (BENCH_macro_membership.json, schema scmp-bench-v1):
//
//   <wl>/dcdm_calls_per_event — DcdmTree::join plus DcdmTree::leave calls
//       per membership event (counters dcdm.join.calls, dcdm.leave.calls).
//       Deterministic and committed to bench/baseline/: lower is better, so
//       bench_diff.py flags a batching regression as a slowdown.
//   <wl>/seconds_per_event — wall-clock per event. Machine-dependent, NOT
//       committed to the baseline (bench_diff reports it informally as
//       "new").
//
// The binary also enforces the acceptance bar directly: at every swept
// interval, on both workloads, batched mode must make no more DCDM calls
// than per-request mode, else it exits non-zero.
#include <chrono>
#include <cstdio>
#include <vector>

#include "bench_common.hpp"

#include "core/scmp.hpp"
#include "igmp/igmp.hpp"
#include "obs/metrics.hpp"
#include "sim/event_queue.hpp"
#include "sim/network.hpp"
#include "topo/transit_stub.hpp"
#include "topo/workload.hpp"
#include "util/rng.hpp"

namespace {

using namespace scmp;

struct RunResult {
  int events = 0;
  std::uint64_t dcdm_calls = 0;  ///< DcdmTree::join + DcdmTree::leave calls
  std::uint64_t flushes = 0;     ///< epoch closes (0 in per-request mode)
  std::uint64_t replayed = 0;    ///< net-changed groups replayed at closes
  std::uint64_t coalesced = 0;   ///< groups skipped as net no-ops at a close
  double seconds = 0.0;          ///< wall clock for the whole storm
};

/// Replays `events` through a fresh world at the given epoch interval.
RunResult run_storm(const topo::Topology& topo,
                    const std::vector<topo::MemberEvent>& events,
                    double interval) {
  sim::EventQueue queue;
  sim::Network net(topo.graph, queue);
  igmp::IgmpDomain igmp(queue, topo.graph.num_nodes());
  core::Scmp::Config cfg;
  cfg.mrouter = 0;
  cfg.epoch_interval = interval;
  core::Scmp scmp(net, igmp, cfg);

  for (const topo::MemberEvent& ev : events) {
    queue.schedule_in(ev.time, [&scmp, ev] {
      if (ev.join)
        scmp.host_join(ev.router, ev.group, ev.iface, ev.host);
      else
        scmp.host_leave(ev.router, ev.group, ev.iface, ev.host);
    });
  }

  const obs::Counter& joins = obs::counter("dcdm.join.calls");
  const obs::Counter& leaves = obs::counter("dcdm.leave.calls");
  const obs::Counter& epoch_replayed = obs::counter("scmp.epoch.recomputes");
  const obs::Counter& epoch_flushes = obs::counter("scmp.epoch.flushes");
  const obs::Counter& epoch_coalesced = obs::counter("scmp.epoch.coalesced");
  const std::uint64_t calls0 = joins.value() + leaves.value();
  const std::uint64_t replayed0 = epoch_replayed.value();
  const std::uint64_t flushes0 = epoch_flushes.value();
  const std::uint64_t coalesced0 = epoch_coalesced.value();

  const auto t0 = std::chrono::steady_clock::now();
  queue.run_all();
  const auto t1 = std::chrono::steady_clock::now();

  RunResult r;
  r.events = static_cast<int>(events.size());
  r.dcdm_calls = joins.value() + leaves.value() - calls0;
  r.replayed = epoch_replayed.value() - replayed0;
  r.flushes = epoch_flushes.value() - flushes0;
  r.coalesced = epoch_coalesced.value() - coalesced0;
  r.seconds = std::chrono::duration<double>(t1 - t0).count();
  return r;
}

RunningStats single(double v) {
  RunningStats s;
  s.add(v);
  return s;
}

RunResult report(bench::BenchJson& json, const char* workload,
                 const topo::Topology& topo,
                 const std::vector<topo::MemberEvent>& events,
                 double interval) {
  const RunResult out = run_storm(topo, events, interval);
  const double per_event =
      out.events == 0 ? 0.0
                      : static_cast<double>(out.dcdm_calls) / out.events;
  std::printf(
      "  %-5s interval=%-4g  %6d events  %7llu DCDM calls  (%7.4f/event)  "
      "%4llu flush(es)  %5llu replayed  %5llu coalesced  %7.3fs wall  "
      "(%.0f events/s)\n",
      workload, interval, out.events,
      static_cast<unsigned long long>(out.dcdm_calls), per_event,
      static_cast<unsigned long long>(out.flushes),
      static_cast<unsigned long long>(out.replayed),
      static_cast<unsigned long long>(out.coalesced), out.seconds,
      out.seconds > 0.0 ? out.events / out.seconds : 0.0);
  const std::string prefix = std::string(workload) + "/";
  json.add_point(prefix + "dcdm_calls_per_event", interval,
                 single(per_event));
  json.add_point(prefix + "seconds_per_event", interval,
                 single(out.events == 0 ? 0.0 : out.seconds / out.events));
  return out;
}

/// Sweeps `intervals` after the per-request run; returns false when some
/// batched run made more DCDM calls than per-request processing.
bool sweep(bench::BenchJson& json, const char* workload,
           const topo::Topology& topo,
           const std::vector<topo::MemberEvent>& events,
           const std::vector<double>& intervals) {
  const RunResult base = report(json, workload, topo, events, 0.0);
  bool ok = true;
  for (const double interval : intervals) {
    const RunResult batched = report(json, workload, topo, events, interval);
    if (batched.dcdm_calls > base.dcdm_calls) {
      std::printf("  FAIL: %s at interval=%g makes %llu DCDM calls, "
                  "per-request %llu\n",
                  workload, interval,
                  static_cast<unsigned long long>(batched.dcdm_calls),
                  static_cast<unsigned long long>(base.dcdm_calls));
      ok = false;
    }
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  obs::set_metrics_enabled(true);
  bench::BenchJson json("macro_membership", argc, argv);

  // 4 transit domains x 6 routers, 5 stub domains of 5 routers per transit
  // node: 624 routers, the ROADMAP's "large internetwork" scale.
  topo::TransitStubConfig tcfg;
  tcfg.transit_domains = 4;
  tcfg.transit_nodes = 6;
  tcfg.stub_domains_per_node = 5;
  tcfg.stub_nodes = 5;
  Rng topo_rng(7);
  const topo::Topology topo = topo::transit_stub(tcfg, topo_rng);
  const int n = topo.graph.num_nodes();
  std::printf("macro_membership: %s (%d routers, %d edges)\n\n",
              topo.name.c_str(), n, topo.graph.num_edges());

  topo::FlashCrowdConfig fcfg;  // 10k joins, 20 hot groups, 5 s window
  fcfg.num_groups = 20;
  fcfg.crowd = 10000;
  Rng flash_rng(11);
  const std::vector<topo::MemberEvent> flash =
      topo::flash_crowd(fcfg, n, flash_rng);

  topo::ZipfChurnConfig zcfg;  // 20k churn events, 500 groups, 50 s horizon
  zcfg.num_groups = 500;
  zcfg.num_events = 20000;
  zcfg.horizon = 50.0;
  Rng zipf_rng(13);
  const std::vector<topo::MemberEvent> zipf =
      topo::zipf_churn(zcfg, n, zipf_rng);

  // Acceptance bar: at every swept interval, on both workloads, batching
  // makes no more DCDM calls than per-request processing.
  bool ok = sweep(json, "flash", topo, flash, {0.5, 1.0, 2.0});
  std::printf("\n");
  ok = sweep(json, "zipf", topo, zipf, {0.5}) && ok;
  std::printf("\nbatched DCDM calls <= per-request at every interval: %s\n",
              ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}
