// Finite egress queues at one line rate: the physical model behind the
// paper's §I traffic-concentration argument.
#include <gtest/gtest.h>

#include "helpers.hpp"
#include "sim/network.hpp"

namespace scmp::sim {
namespace {

struct CountingAgent final : RouterAgent {
  int received = 0;
  void handle(const Packet&, graph::NodeId) override { ++received; }
};

class CongestionTest : public ::testing::Test {
 protected:
  CongestionTest() : g_(test::line(3)), net_(g_, queue_, /*bw=*/8000.0) {
    // 8 kbps: a 1000-byte packet takes exactly one second to transmit.
    for (graph::NodeId v = 0; v < g_.num_nodes(); ++v)
      net_.attach(v, &agents_[static_cast<std::size_t>(v)]);
  }

  Packet data() {
    Packet p;
    p.type = PacketType::kData;
    p.size_bytes = 1000;
    return p;
  }

  graph::Graph g_;
  EventQueue queue_;
  Network net_;
  CountingAgent agents_[3];
};

TEST_F(CongestionTest, UnlimitedQueueDropsNothing) {
  for (int i = 0; i < 20; ++i) net_.send_link(0, 1, data());
  queue_.run_all();
  EXPECT_EQ(agents_[1].received, 20);
  EXPECT_EQ(net_.stats().queue_drops, 0u);
}

TEST_F(CongestionTest, DropTailWhenQueueOverflows) {
  net_.set_queue_limit(4);
  for (int i = 0; i < 10; ++i) net_.send_link(0, 1, data());
  queue_.run_all();
  EXPECT_EQ(agents_[1].received, 4);
  EXPECT_EQ(net_.stats().queue_drops, 6u);
}

TEST_F(CongestionTest, BacklogDrainsOverTime) {
  net_.set_queue_limit(4);
  net_.send_link(0, 1, data());
  net_.send_link(0, 1, data());
  EXPECT_EQ(net_.link_backlog(0, 1), 2);
  queue_.run_until(1.5);  // first transmission (1 s) completed
  EXPECT_EQ(net_.link_backlog(0, 1), 1);
  queue_.run_all();
  EXPECT_EQ(net_.link_backlog(0, 1), 0);
  EXPECT_EQ(net_.stats().queue_drops, 0u);
}

TEST_F(CongestionTest, QueueFreesUpAfterDrain) {
  net_.set_queue_limit(2);
  net_.send_link(0, 1, data());
  net_.send_link(0, 1, data());
  net_.send_link(0, 1, data());  // dropped
  EXPECT_EQ(net_.stats().queue_drops, 1u);
  queue_.run_until(2.5);  // both queued packets transmitted
  net_.send_link(0, 1, data());  // fits again
  queue_.run_all();
  EXPECT_EQ(net_.stats().queue_drops, 1u);
  EXPECT_EQ(agents_[1].received, 3);
}

TEST_F(CongestionTest, PerNodeQueueLimitOverridesGlobal) {
  net_.set_queue_limit(2);
  net_.set_node_queue_limit(0, 10);  // deep buffers at node 0 only
  for (int i = 0; i < 8; ++i) net_.send_link(0, 1, data());
  queue_.run_all();
  EXPECT_EQ(net_.stats().queue_drops, 0u);
  EXPECT_EQ(agents_[1].received, 8);
  // Node 1 still has the shallow queue.
  for (int i = 0; i < 8; ++i) net_.send_link(1, 2, data());
  queue_.run_all();
  EXPECT_EQ(net_.stats().queue_drops, 6u);
}

TEST_F(CongestionTest, QueueingDelayShowsInEndToEnd) {
  Packet p = data();
  p.created_at = 0.0;
  net_.send_link(0, 1, p);
  net_.send_link(0, 1, p);
  net_.send_link(0, 1, p);
  queue_.run_all();
  net_.report_delivery(p, 1);
  // The third packet waited ~2 s behind the first two.
  EXPECT_GT(queue_.now(), 3.0);
}

}  // namespace
}  // namespace scmp::sim
