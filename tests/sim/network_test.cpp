#include "sim/network.hpp"

#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "helpers.hpp"

namespace scmp::sim {
namespace {

struct RecordingAgent final : RouterAgent {
  std::vector<std::pair<Packet, graph::NodeId>> received;
  void handle(const Packet& pkt, graph::NodeId from) override {
    received.emplace_back(pkt, from);
  }
};

class NetworkTest : public ::testing::Test {
 protected:
  NetworkTest() : g_(test::line(4)), net_(g_, queue_) {
    for (graph::NodeId v = 0; v < g_.num_nodes(); ++v)
      net_.attach(v, &agents_[static_cast<std::size_t>(v)]);
  }

  graph::Graph g_;
  EventQueue queue_;
  Network net_;
  RecordingAgent agents_[4];
};

TEST_F(NetworkTest, SendLinkDeliversToNeighborAgent) {
  Packet p;
  p.type = PacketType::kJoin;
  net_.send_link(0, 1, p);
  queue_.run_all();
  ASSERT_EQ(agents_[1].received.size(), 1u);
  EXPECT_EQ(agents_[1].received[0].second, 0);
  EXPECT_EQ(agents_[1].received[0].first.type, PacketType::kJoin);
  EXPECT_TRUE(agents_[0].received.empty());
}

TEST_F(NetworkTest, LinkDelayIsApplied) {
  Packet p;  // default control packet: 64 bytes
  double arrival = -1.0;
  net_.send_link(0, 1, p);
  queue_.run_all();
  arrival = queue_.now();
  // line() edges have delay 1 unit = 1e-6 s plus 64B/1Gbps = 5.12e-7 s tx.
  EXPECT_NEAR(arrival, 1e-6 + 5.12e-7, 1e-12);
}

TEST_F(NetworkTest, UnicastSkipsIntermediateAgents) {
  Packet p;
  p.type = PacketType::kLeave;
  p.dst = 3;
  net_.send_unicast(0, p);
  queue_.run_all();
  EXPECT_TRUE(agents_[1].received.empty());
  EXPECT_TRUE(agents_[2].received.empty());
  ASSERT_EQ(agents_[3].received.size(), 1u);
  EXPECT_EQ(agents_[3].received[0].second, 2);  // last hop
}

TEST_F(NetworkTest, UnicastToSelfDelivers) {
  Packet p;
  p.dst = 2;
  net_.send_unicast(2, p);
  queue_.run_all();
  ASSERT_EQ(agents_[2].received.size(), 1u);
  EXPECT_EQ(agents_[2].received[0].second, graph::kInvalidNode);
}

TEST_F(NetworkTest, OverheadClassifiesDataVsProtocol) {
  Packet data;
  data.type = PacketType::kData;
  net_.send_link(0, 1, data);
  Packet ctrl;
  ctrl.type = PacketType::kPrune;
  net_.send_link(0, 1, ctrl);
  queue_.run_all();
  // line() edges have cost 1.
  EXPECT_DOUBLE_EQ(net_.stats().data_overhead, 1.0);
  EXPECT_DOUBLE_EQ(net_.stats().protocol_overhead, 1.0);
  EXPECT_EQ(net_.stats().data_link_crossings, 1u);
  EXPECT_EQ(net_.stats().protocol_link_crossings, 1u);
}

TEST_F(NetworkTest, UnicastAccountsEveryHop) {
  Packet p;
  p.type = PacketType::kJoin;
  p.dst = 3;
  net_.send_unicast(0, p);
  queue_.run_all();
  EXPECT_DOUBLE_EQ(net_.stats().protocol_overhead, 3.0);  // 3 links crossed
}

TEST_F(NetworkTest, EncapCountsAsData) {
  Packet p;
  p.type = PacketType::kDataEncap;
  p.dst = 2;
  net_.send_unicast(0, p);
  queue_.run_all();
  EXPECT_DOUBLE_EQ(net_.stats().data_overhead, 2.0);
  EXPECT_DOUBLE_EQ(net_.stats().protocol_overhead, 0.0);
}

TEST_F(NetworkTest, InjectDeliversLocally) {
  Packet p;
  net_.inject(2, p);
  queue_.run_all();
  ASSERT_EQ(agents_[2].received.size(), 1u);
  EXPECT_EQ(agents_[2].received[0].second, graph::kInvalidNode);
  EXPECT_DOUBLE_EQ(net_.stats().data_overhead, 0.0);  // no link crossed
}

TEST_F(NetworkTest, FifoSerializesSameLink) {
  // Two packets queued back-to-back share the link: the second's arrival is
  // delayed by one transmission time.
  Packet a, b;
  net_.send_link(0, 1, a);
  net_.send_link(0, 1, b);
  queue_.run_all();
  // With 512 ns transmission each and 1 us propagation the second packet
  // arrives at 2 * 512 ns + 1 us.
  EXPECT_EQ(agents_[1].received.size(), 2u);
  EXPECT_NEAR(queue_.now(), 2 * 5.12e-7 + 1e-6, 1e-12);
}

TEST_F(NetworkTest, DeliveryCallbackAndMaxDelay) {
  Packet p;
  p.type = PacketType::kData;
  p.created_at = 0.0;
  int calls = 0;
  net_.set_delivery_callback(
      [&](const Packet&, graph::NodeId member, SimTime) {
        ++calls;
        EXPECT_EQ(member, 1);
      });
  net_.send_link(0, 1, p);
  queue_.run_all();
  net_.report_delivery(agents_[1].received[0].first, 1);
  EXPECT_EQ(calls, 1);
  EXPECT_GT(net_.stats().max_end_to_end_delay, 0.0);
  EXPECT_EQ(net_.stats().deliveries, 1u);
}

TEST_F(NetworkTest, UidsAreUnique) {
  EXPECT_NE(net_.next_uid(), net_.next_uid());
}

TEST_F(NetworkTest, SendOverMissingLinkIsDropped) {
  Packet p;
  net_.send_link(0, 2, p);  // no 0-2 edge on the line topology
  queue_.run_all();
  EXPECT_EQ(net_.stats().no_link_drops, 1u);
  EXPECT_TRUE(agents_[2].received.empty());
  EXPECT_DOUBLE_EQ(net_.stats().protocol_overhead, 0.0);
}

TEST_F(NetworkTest, QueueDroppedPacketAccruesNoOverhead) {
  // Regression: overhead used to be accounted before the drop-tail admission
  // check, so packets that never crossed the link still inflated the
  // overhead metrics. With a 1-deep queue the second and third back-to-back
  // sends are dropped and must leave no trace in the counters.
  net_.set_queue_limit(1);
  Packet a, b, c;
  a.type = PacketType::kData;
  b.type = PacketType::kData;
  c.type = PacketType::kPrune;
  net_.send_link(0, 1, a);  // admitted: queue was empty
  net_.send_link(0, 1, b);  // drop-tail: a is still in transmission
  net_.send_link(0, 1, c);  // drop-tail
  queue_.run_all();
  EXPECT_EQ(net_.stats().queue_drops, 2u);
  ASSERT_EQ(agents_[1].received.size(), 1u);
  EXPECT_DOUBLE_EQ(net_.stats().data_overhead, 1.0);  // only packet a
  EXPECT_EQ(net_.stats().data_link_crossings, 1u);
  EXPECT_DOUBLE_EQ(net_.stats().protocol_overhead, 0.0);
  EXPECT_EQ(net_.stats().protocol_link_crossings, 0u);
  EXPECT_EQ(net_.bytes_on_link(0, 1), a.size_bytes);
}

TEST_F(NetworkTest, FailLinkReconvergesRouting) {
  // Failing 1-2 on the line would disconnect it; use a ring instead.
  graph::Graph ring(4);
  ring.add_edge(0, 1, 1, 1);
  ring.add_edge(1, 2, 1, 1);
  ring.add_edge(2, 3, 1, 1);
  ring.add_edge(3, 0, 1, 1);
  EventQueue q;
  Network net(ring, q);
  RecordingAgent agents[4];
  for (graph::NodeId v = 0; v < 4; ++v) net.attach(v, &agents[v]);

  EXPECT_EQ(net.paths().next_hop(0, 2), 1);  // tie-break: smaller id
  net.fail_link(1, 2);
  EXPECT_FALSE(net.graph().has_edge(1, 2));
  EXPECT_EQ(net.paths().next_hop(0, 2), 3);  // rerouted the long way

  Packet p;
  p.dst = 2;
  net.send_unicast(1, p);
  q.run_all();
  ASSERT_EQ(agents[2].received.size(), 1u);  // via 1-0-3-2
  EXPECT_EQ(agents[2].received[0].second, 3);
}

TEST_F(NetworkTest, FailLinkTellsListenerAfterTheStoreReconverged) {
  graph::Graph ring(4);
  ring.add_edge(0, 1, 1, 1);
  ring.add_edge(1, 2, 1, 1);
  ring.add_edge(2, 3, 1, 1);
  ring.add_edge(3, 0, 1, 1);
  ring.add_edge(1, 3, 5, 5);  // a slow chord, so a second failure is safe
  EventQueue q;
  Network net(ring, q);
  // Records each call and the route 0 -> 2 the store gives at that moment.
  struct Listener final : LinkListener {
    const Network* net = nullptr;
    std::vector<std::tuple<graph::NodeId, graph::NodeId, graph::NodeId>>
        calls;
    void handle_link_event(graph::NodeId u, graph::NodeId v) override {
      calls.emplace_back(u, v, net->paths().next_hop(0, 2));
    }
  } listener;
  listener.net = &net;
  net.set_link_listener(&listener);
  net.fail_link(1, 2);
  net.set_link_listener(nullptr);
  net.fail_link(1, 3);  // unregistered: not told
  ASSERT_EQ(listener.calls.size(), 1u);
  EXPECT_EQ(listener.calls[0], std::make_tuple(1, 2, 3));
}

TEST_F(NetworkTest, FailLinkPreservesByteCounters) {
  graph::Graph ring(4);
  ring.add_edge(0, 1, 1, 1);
  ring.add_edge(1, 2, 1, 1);
  ring.add_edge(2, 3, 1, 1);
  ring.add_edge(3, 0, 1, 1);
  EventQueue q;
  Network net(ring, q);
  RecordingAgent agent;
  for (graph::NodeId v = 0; v < 4; ++v) net.attach(v, &agent);
  Packet p;
  p.size_bytes = 77;
  net.send_link(0, 1, p);
  q.run_all();
  net.fail_link(2, 3);
  EXPECT_EQ(net.bytes_on_link(0, 1), 77u);
}

TEST_F(NetworkTest, FailLinkKeepsOtherLinksQueues) {
  // Regression: fail_link used to reset every link's backlog and busy-until
  // time. A packet still serialising on another link then started a later
  // packet early and, on completing, drove that link's backlog to -1, which
  // the drop-tail check reads as a full queue: every later packet dropped.
  graph::Graph ring(4);
  ring.add_edge(0, 1, 1, 1);
  ring.add_edge(1, 2, 1, 1);
  ring.add_edge(2, 3, 1, 1);
  ring.add_edge(3, 0, 1, 1);
  EventQueue q;
  Network net(ring, q, /*bandwidth_bps=*/1e6);  // 64 B serialise in 512 us
  RecordingAgent agents[4];
  for (graph::NodeId v = 0; v < 4; ++v) net.attach(v, &agents[v]);

  net.send_link(0, 1, Packet{});
  q.run_until(1e-4);  // mid-transmission
  net.fail_link(2, 3);
  EXPECT_EQ(net.link_backlog(0, 1), 1);
  net.send_link(0, 1, Packet{});  // queues behind the first packet
  q.run_all();
  ASSERT_EQ(agents[1].received.size(), 2u);
  // FIFO kept: the second packet started when the first finished.
  EXPECT_NEAR(q.now(), 2 * 5.12e-4 + 1e-6, 1e-12);
  EXPECT_EQ(net.link_backlog(0, 1), 0);

  net.send_link(0, 1, Packet{});
  q.run_all();
  EXPECT_EQ(agents[1].received.size(), 3u);
  EXPECT_EQ(net.stats().queue_drops, 0u);
}

TEST(NetworkDeath, FailLinkRejectsDisconnection) {
  const auto g = test::line(4);
  EventQueue q;
  Network net(g, q);
  EXPECT_DEATH(net.fail_link(1, 2), "Precondition");
}

}  // namespace
}  // namespace scmp::sim
