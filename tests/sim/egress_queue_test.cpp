// The egress queue's one-event model against the two-event model it
// replaced. Network::transmit schedules only the arrival; a packet leaves
// its link's egress queue when the event queue passes its departure stamp.
// The reference below — kept here as an oracle, the way
// event_queue_calendar_test keeps the old heap — schedules a backlog
// decrement at the end of every transmission, just before the arrival, and
// re-resolves the link when it fires. Random schedules with integer delays
// and rates (so same-instant ties are everywhere) run through both models
// in lockstep; after every event the drops, the deliveries and every
// link's backlog must agree.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <tuple>
#include <utility>
#include <vector>

#include "helpers.hpp"
#include "sim/network.hpp"

namespace scmp::sim {
namespace {

/// 8 bps, so a packet of b bytes serialises in b seconds; delays are
/// integer seconds (0 included).
constexpr double kBps = 8.0;

/// A ring 0-1-2-3-4 with chords {0, 2} and {1, 3}.
graph::Graph chorded_ring() {
  graph::Graph g(5);
  g.add_edge(0, 1, /*delay=*/1, /*cost=*/1);
  g.add_edge(1, 2, 0, 1);
  g.add_edge(2, 3, 2, 1);
  g.add_edge(3, 4, 1, 1);
  g.add_edge(4, 0, 0, 1);
  g.add_edge(0, 2, 1, 1);
  g.add_edge(1, 3, 2, 1);
  return g;
}

/// One arrival: (packet id, hop index, receiving router, sender, time).
using Arrival = std::tuple<std::uint64_t, int, graph::NodeId, graph::NodeId,
                           SimTime>;

/// Packet ids index `routes`; a packet carries the index of the hop it is
/// crossing in `src`, and each router it reaches sends it on.
struct Traffic {
  std::vector<std::vector<graph::NodeId>> routes;
  std::vector<std::size_t> sizes;
};

Packet packet_for(std::uint64_t id, int hop, const Traffic& traffic) {
  Packet p;
  p.uid = id;
  p.src = hop;
  p.size_bytes = traffic.sizes[id];
  return p;
}

/// The two-event model: a backlog counter per directed link, decremented by
/// an event scheduled at the end of each transmission.
class TwoEventLinks {
 public:
  TwoEventLinks(const graph::Graph& g, EventQueue& q, const Traffic& traffic)
      : g_(g), q_(&q), traffic_(&traffic) {}

  void set_queue_limit(std::size_t n) { limit_ = n; }
  void set_node_queue_limit(graph::NodeId v, std::size_t n) {
    node_limit_[v] = n;
  }
  void fail_link(graph::NodeId u, graph::NodeId v) {
    links_.erase({u, v});
    links_.erase({v, u});
    g_.remove_edge(u, v);
  }

  void send(graph::NodeId from, graph::NodeId to, std::uint64_t id, int hop) {
    const graph::EdgeAttr* e = g_.edge(from, to);
    if (e == nullptr) {
      ++no_link_drops;
      return;
    }
    Link& link = links_[{from, to}];
    const auto it = node_limit_.find(from);
    if (static_cast<std::size_t>(link.backlog) >=
        (it == node_limit_.end() ? limit_ : it->second)) {
      ++queue_drops;
      return;
    }
    ++link.backlog;
    const double bits = static_cast<double>(traffic_->sizes[id]) * 8.0;
    const SimTime start = std::max(q_->now(), link.free_at);
    link.free_at = start + bits / kBps;
    q_->schedule_at(link.free_at, [this, from, to] {
      const auto found = links_.find({from, to});
      if (found != links_.end()) --found->second.backlog;
    });
    q_->schedule_at(link.free_at + e->delay, [this, from, to, id, hop] {
      visible_ = true;
      arrive(to, from, id, hop);
    });
  }

  /// Runs events until one other than a backlog decrement has run.
  bool run_next_visible() {
    visible_ = false;
    while (!visible_) {
      if (!q_->run_next()) return false;
    }
    return true;
  }

  /// Marks a test-scheduled send action as an event of its own.
  void mark_visible() { visible_ = true; }

  int backlog(graph::NodeId from, graph::NodeId to) const {
    const auto it = links_.find({from, to});
    return it == links_.end() ? 0 : it->second.backlog;
  }

  std::vector<Arrival> arrivals;
  std::uint64_t queue_drops = 0;
  std::uint64_t no_link_drops = 0;

 private:
  struct Link {
    int backlog = 0;
    SimTime free_at = 0.0;
  };

  void arrive(graph::NodeId at, graph::NodeId from, std::uint64_t id,
              int hop) {
    arrivals.emplace_back(id, hop, at, from, q_->now());
    const auto& route = traffic_->routes[id];
    const auto next = static_cast<std::size_t>(hop) + 1;
    if (next < route.size()) send(at, route[next], id, hop + 1);
  }

  graph::Graph g_;
  EventQueue* q_;
  const Traffic* traffic_;
  std::map<std::pair<graph::NodeId, graph::NodeId>, Link> links_;
  std::size_t limit_ = SIZE_MAX;
  std::map<graph::NodeId, std::size_t> node_limit_;
  bool visible_ = false;
};

/// The Network side: every router records what reaches it and sends the
/// packet on along its route.
struct Relay final : RouterAgent {
  Network* net = nullptr;
  const Traffic* traffic = nullptr;
  std::vector<Arrival>* arrivals = nullptr;
  graph::NodeId self = graph::kInvalidNode;
  void handle(const Packet& pkt, graph::NodeId from) override {
    arrivals->emplace_back(pkt.uid, pkt.src, self, from, net->now());
    const auto& route = traffic->routes[pkt.uid];
    const auto next = static_cast<std::size_t>(pkt.src) + 1;
    if (next < route.size())
      net->send_link(self, route[next],
                     packet_for(pkt.uid, pkt.src + 1, *traffic));
  }
};

void run_episode(std::uint32_t seed) {
  std::mt19937 rng(seed);
  const graph::Graph g = chorded_ring();
  Traffic traffic;

  EventQueue q;
  Network net(g, q, kBps, /*delay_scale=*/1.0);
  std::vector<Arrival> arrivals;
  std::vector<Relay> relays(static_cast<std::size_t>(g.num_nodes()));
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    Relay& r = relays[static_cast<std::size_t>(v)];
    r.net = &net;
    r.traffic = &traffic;
    r.arrivals = &arrivals;
    r.self = v;
    net.attach(v, &r);
  }
  EventQueue ref_q;
  TwoEventLinks ref(g, ref_q, traffic);

  // Finite global and per-node queues.
  net.set_queue_limit(3);
  ref.set_queue_limit(3);
  net.set_node_queue_limit(2, 1);
  ref.set_node_queue_limit(2, 1);
  net.set_node_queue_limit(4, 6);
  ref.set_node_queue_limit(4, 6);

  // A random walk of 1-4 hops over the intact ring, 1, 2 or 4 bytes long.
  auto new_packet = [&] {
    std::vector<graph::NodeId> route{static_cast<graph::NodeId>(rng() % 5)};
    const int hops = 1 + static_cast<int>(rng() % 4);
    for (int h = 0; h < hops; ++h) {
      const auto& nbs = g.neighbors(route.back());
      route.push_back(nbs[rng() % nbs.size()].to);
    }
    traffic.routes.push_back(std::move(route));
    traffic.sizes.push_back(std::size_t{1} << (rng() % 3));
    return static_cast<std::uint64_t>(traffic.routes.size() - 1);
  };
  auto first_hop = [&](std::uint64_t id, auto& sender) {
    const auto& route = traffic.routes[id];
    sender(route[0], route[1], id);
  };
  auto net_send = [&](graph::NodeId u, graph::NodeId v, std::uint64_t id) {
    net.send_link(u, v, packet_for(id, 1, traffic));
  };
  auto ref_send = [&](graph::NodeId u, graph::NodeId v, std::uint64_t id) {
    ref.send(u, v, id, 1);
  };

  const graph::Graph& live = net.graph();
  auto compare = [&](const char* where) {
    ASSERT_EQ(q.now(), ref_q.now()) << where;
    ASSERT_EQ(arrivals, ref.arrivals) << where;
    ASSERT_EQ(net.stats().queue_drops, ref.queue_drops) << where;
    ASSERT_EQ(net.stats().no_link_drops, ref.no_link_drops) << where;
    for (graph::NodeId u = 0; u < live.num_nodes(); ++u) {
      for (const auto& nb : live.neighbors(u)) {
        ASSERT_EQ(net.link_backlog(u, nb.to), ref.backlog(u, nb.to))
            << where << ": link " << u << "->" << nb.to << " at " << q.now();
      }
    }
  };
  auto same_state = [&](const char* where) {
    compare(where);
    return !::testing::Test::HasFatalFailure();
  };

  bool failed = false;
  for (int step = 0; step < 400; ++step) {
    const int what = static_cast<int>(rng() % 10);
    if (what < 4) {
      // A burst of sends as events at one integer instant.
      const double t = q.now() + static_cast<double>(rng() % 4);
      const int n = 1 + static_cast<int>(rng() % 4);
      for (int i = 0; i < n; ++i) {
        const std::uint64_t id = new_packet();
        q.schedule_at(t, [&, id] { first_hop(id, net_send); });
        ref_q.schedule_at(t, [&, id] {
          ref.mark_visible();
          first_hop(id, ref_send);
        });
      }
    } else if (what < 8) {
      for (int i = 0; i < 6; ++i) {
        const bool ran = q.run_next();
        ASSERT_EQ(ran, ref.run_next_visible());
        if (!ran) break;
        if (!same_state("after an event")) return;
      }
    } else {
      // run_until an integer boundary, then sends from outside any event.
      const double t = q.now() + static_cast<double>(rng() % 3);
      q.run_until(t);
      ref_q.run_until(t);
      if (!same_state("after run_until")) return;
      for (int i = static_cast<int>(rng() % 3); i > 0; --i) {
        const std::uint64_t id = new_packet();
        first_hop(id, net_send);
        first_hop(id, ref_send);
      }
      if (!same_state("after top-level sends")) return;
    }
    if (!failed && step >= 200 && net.link_backlog(0, 2) > 0) {
      // The chord fails while a packet is still serialising on it.
      net.fail_link(0, 2);
      ref.fail_link(0, 2);
      failed = true;
      if (!same_state("after fail_link")) return;
    }
  }
  while (true) {
    const bool ran = q.run_next();
    ASSERT_EQ(ran, ref.run_next_visible());
    if (!ran) break;
    if (!same_state("while draining")) return;
  }
  EXPECT_TRUE(failed);
  EXPECT_GT(ref.queue_drops, 0u);
  EXPECT_GT(arrivals.size(), 500u);
}

TEST(EgressQueueOracle, MatchesTwoEventModelSeed1) { run_episode(1); }
TEST(EgressQueueOracle, MatchesTwoEventModelSeed2) { run_episode(2); }
TEST(EgressQueueOracle, MatchesTwoEventModelSeed3) { run_episode(3); }
TEST(EgressQueueOracle, MatchesTwoEventModelSeed4) { run_episode(0xC0FFEE); }

struct Sink final : RouterAgent {
  int received = 0;
  void handle(const Packet&, graph::NodeId) override { ++received; }
};

TEST(EgressQueue, BusyLinkHoldsOnlyInFlightStamps) {
  // 10^4 packets over one link: first back to back (one a second, each
  // serialising for a second), then offered at twice the line rate into a
  // queue of 8. A link holds stamps for the packets on it, not for every
  // packet it has carried.
  const graph::Graph g = test::line(2);
  EventQueue q;
  Network net(g, q, kBps, /*delay_scale=*/1.0);
  Sink sinks[2];
  net.attach(0, &sinks[0]);
  net.attach(1, &sinks[1]);
  std::size_t most = 0;
  auto send = [&] {
    Packet p;
    p.size_bytes = 1;
    net.send_link(0, 1, std::move(p));
    most = std::max(most, net.link_stamps(0, 1));
  };
  for (int i = 0; i < 5000; ++i) q.schedule_at(static_cast<double>(i), send);
  q.run_all();
  EXPECT_EQ(sinks[1].received, 5000);
  EXPECT_LE(most, 2u);

  net.set_queue_limit(8);
  const double t0 = q.now();
  for (int i = 0; i < 5000; ++i)
    q.schedule_at(t0 + 0.5 * static_cast<double>(i), send);
  q.run_all();
  EXPECT_GT(net.stats().queue_drops, 2000u);
  EXPECT_LE(most, 8u);
  EXPECT_EQ(net.link_backlog(0, 1), 0);
}

}  // namespace
}  // namespace scmp::sim
