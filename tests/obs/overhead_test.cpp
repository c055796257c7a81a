// Overhead guard for the "instrumentation stays in permanently" promise:
// with metrics and tracing both off, OBS_SPAN and counter updates must not
// touch the heap, the instrumented DCDM hot path must allocate exactly as
// much as an identical uninstrumented-equivalent run (i.e. the obs layer
// adds zero allocations), and the event path, SCMP's DATA forwarding and
// the retransmission table allocate nothing once warm. Global operator
// new/delete are replaced with counting versions — crude but exact.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <optional>
#include <vector>

#include "core/dcdm.hpp"
#include "core/retx.hpp"
#include "core/scmp.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "sim/event_queue.hpp"
#include "helpers.hpp"

namespace {
std::atomic<std::uint64_t> g_news{0};
}  // namespace

void* operator new(std::size_t size) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace scmp::obs {
namespace {

std::uint64_t alloc_count() {
  return g_news.load(std::memory_order_relaxed);
}

TEST(Overhead, DisabledInstrumentationNeverAllocates) {
  set_metrics_enabled(false);
  set_tracing_enabled(false);
  // Warm up: the one-time registrations in the function-local statics are
  // the only allocations the pattern is allowed.
  static Counter& warm_counter = counter("test.overhead.counter");
  static Histogram& warm_hist = histogram("test.overhead.hist");
  { OBS_SPAN("test.overhead.span"); }
  warm_counter.inc();
  warm_hist.observe(1.0);

  const std::uint64_t before = alloc_count();
  for (int i = 0; i < 100000; ++i) {
    OBS_SPAN("test.overhead.span");
    warm_counter.inc();
    warm_hist.observe(1.0);
  }
  EXPECT_EQ(alloc_count(), before);
}

TEST(Overhead, DcdmHotPathAllocStableWithMetricsOff) {
  set_metrics_enabled(false);
  set_tracing_enabled(false);
  const graph::Graph g = test::random_topology(11).graph;
  const graph::AllPairsPaths paths(g);

  auto run = [&] {
    core::DcdmTree tree(g, paths, 0);
    for (graph::NodeId v = 1; v < g.num_nodes(); v += 2) tree.join(v);
    for (graph::NodeId v = 1; v < g.num_nodes(); v += 4) tree.leave(v);
  };

  run();  // warm up one-time statics (span tls, cached metric registrations)
  const std::uint64_t before = alloc_count();
  run();
  const std::uint64_t per_run = alloc_count() - before;
  run();
  // Identical runs must allocate identically: the obs layer contributes no
  // per-operation heap traffic when disabled.
  EXPECT_EQ(alloc_count() - before - per_run, per_run);
}

TEST(Overhead, EventPathAllocFreeWithMetricsOff) {
  set_metrics_enabled(false);
  set_tracing_enabled(false);
  sim::EventQueue q;
  auto round = [&q] {
    for (int i = 0; i < 512; ++i)
      q.schedule_in(static_cast<double>(i % 13), [] {});
    q.run_all();
  };
  // Warm up: slab allocation, calendar growth and the staging vectors'
  // capacity all happen in the first rounds and then stabilise.
  for (int r = 0; r < 3; ++r) round();
  const std::uint64_t before = alloc_count();
  for (int r = 0; r < 10; ++r) round();
  // Steady state: schedule_at/run_next recycle pooled event nodes and store
  // handlers inline — the event path makes zero heap allocations.
  EXPECT_EQ(alloc_count(), before);
}

TEST(Overhead, ScmpDataForwardingAllocFree) {
  set_metrics_enabled(false);
  set_tracing_enabled(false);
  // 0-1-2-3-4-5 with a spur 2-6-7; m-router 0, members 3 and 5: the tree is
  // the whole line. Router 4 sends on the tree (up to 3, down to 5); router
  // 7 is off it and encapsulates to the m-router over 7-6-2-1-0.
  graph::Graph g(8);
  for (graph::NodeId v = 0; v < 5; ++v) g.add_edge(v, v + 1, 1, 1);
  g.add_edge(2, 6, 1, 1);
  g.add_edge(6, 7, 1, 1);
  sim::EventQueue q;
  sim::Network net(g, q);
  igmp::IgmpDomain igmp(q, g.num_nodes());
  core::Scmp scmp(net, igmp, core::Scmp::Config{});
  constexpr proto::GroupId kGroup = 1;
  scmp.host_join(3, kGroup);
  scmp.host_join(5, kGroup);
  q.run_all();
  ASSERT_NE(scmp.entry_at(4, kGroup), nullptr);
  ASSERT_EQ(scmp.entry_at(7, kGroup), nullptr);

  auto round = [&] {
    scmp.send_data(4, kGroup);
    scmp.send_data(7, kGroup);
    q.run_all();
  };
  // Warm up: the event pool, egress rings, the sender record.
  for (int r = 0; r < 3; ++r) round();
  const std::uint64_t deliveries = net.stats().deliveries;
  const std::uint64_t before = alloc_count();
  for (int r = 0; r < 100; ++r) round();
  // Every hop — the entry lookup, the in-place F check and fan-out, the
  // fan-out copies, the one-event link crossing — reuses what it has.
  EXPECT_EQ(alloc_count(), before);
  EXPECT_EQ(net.stats().deliveries, deliveries + 100 * 4);
}

TEST(Overhead, RetxTableAllocFreeOnceWarm) {
  set_metrics_enabled(false);
  set_tracing_enabled(false);
  sim::EventQueue q;
  core::RetxConfig cfg;
  cfg.enabled = true;
  core::RetxTable table(q, cfg);
  constexpr std::size_t kWindow = 64;
  std::vector<std::uint64_t> reqs(kWindow);
  const auto sender = [](std::size_t k) {
    return static_cast<graph::NodeId>(k % 7);
  };
  // One round: a window of requests, every third an install for one of
  // five groups, acked newest-first (each ack but the last clears a slot
  // behind a live oldest request), then their timers fire as no-ops.
  auto round = [&] {
    for (std::size_t k = 0; k < kWindow; ++k) {
      reqs[k] = table.next_req();
      const std::optional<int> install =
          k % 3 == 0 ? std::optional<int>(static_cast<int>(k % 5))
                     : std::nullopt;
      table.arm(sender(k), reqs[k], 0.01, [] {}, install);
    }
    for (std::size_t k = kWindow; k-- > 0;) table.ack(sender(k), reqs[k]);
    q.run_all();
  };
  // Warm up: ring and install-count capacity, the event pool, the gauge.
  for (int r = 0; r < 3; ++r) round();
  const std::uint64_t before = alloc_count();
  for (int r = 0; r < 50; ++r) round();
  EXPECT_EQ(alloc_count(), before);
  EXPECT_EQ(table.pending_count(), 0u);
  EXPECT_EQ(table.acked(), 53u * kWindow);
  EXPECT_FALSE(table.install_in_flight(0));
}

}  // namespace
}  // namespace scmp::obs
