// Golden-trace pin for the SCMP control plane (the ISSUE's bit-identical
// acceptance gate): a fixed join/send/leave scenario on the seeded ARPANET
// topology must transmit exactly the packet stream recorded in
// tests/data/scmp_golden_trace.txt.
//
//  - With reliability *disabled* (the default) the serialized trace must be
//    byte-identical — timestamps included, printed as C hexfloats so no
//    rounding can hide a drift. Any control-plane change that perturbs the
//    zero-loss packet stream fails here first.
//  - With reliability *enabled* on a loss-free network the protocol may add
//    ACKs (and their queueing can shift timestamps), but it must send the
//    same control packets — same endpoints, types, groups and install
//    versions, no retransmissions — and converge to the same final state.
//
// Regenerating the golden (only after an *intentional* protocol change):
// rebuild this scenario's trace with the serializer below and overwrite the
// data file, then justify the diff in the commit message.
#include "core/scmp.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "igmp/igmp.hpp"
#include "sim/event_queue.hpp"
#include "sim/network.hpp"
#include "sim/trace.hpp"
#include "topo/arpanet.hpp"
#include "util/rng.hpp"

namespace scmp::core {
namespace {

std::string read_golden() {
  const std::string path =
      std::string(SCMP_TEST_DATA_DIR) + "/scmp_golden_trace.txt";
  std::ifstream in(path);
  EXPECT_TRUE(in.is_open()) << "missing golden trace: " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// The pinned scenario: two groups sharing the ARPANET domain, concurrent
/// joins, on-tree and off-tree (unicast-encapsulated) senders, leaf prunes, a
/// leave racing a join, and both trees emptying out.
void run_scenario(proto::MulticastProtocol& p, sim::EventQueue& q) {
  auto drain = [&] { q.run_all(); };
  p.host_join(5, 0);
  p.host_join(12, 0);
  drain();
  p.host_join(19, 0);
  p.host_join(3, 0);  // two joins in flight together
  drain();
  p.send_data(5, 0);
  drain();
  p.send_data(33, 0);  // off-tree source: unicast-encapsulated
  drain();
  p.host_join(7, 1);
  p.host_join(21, 1);
  drain();
  p.host_join(9, 1);
  drain();
  p.send_data(21, 1);
  drain();
  p.host_leave(12, 0);
  drain();
  p.host_leave(19, 0);
  p.host_join(27, 0);  // leave racing a join
  drain();
  p.host_leave(3, 0);
  drain();
  p.host_leave(5, 0);
  drain();
  p.send_data(9, 1);
  drain();
  p.host_leave(7, 1);
  p.host_leave(21, 1);
  drain();
  p.host_leave(9, 1);
  drain();
}

/// One line per link transmission; times as hexfloats (%a) so equality means
/// bit-identical doubles, not just same-looking decimals.
std::string serialize_trace(const std::vector<sim::TraceEvent>& events) {
  std::ostringstream out;
  for (const sim::TraceEvent& ev : events) {
    char time[64];
    std::snprintf(time, sizeof time, "%a", ev.time);
    out << time << ' ' << ev.from << ' ' << ev.to << ' '
        << sim::to_string(ev.type) << ' ' << ev.group << ' ' << ev.src << ' '
        << ev.uid << ' ' << ev.size_bytes << '\n';
  }
  return out.str();
}

struct GoldenWorld {
  explicit GoldenWorld(Scmp::Config cfg = {})
      : topo(topo::arpanet(rng)),
        net(topo.graph, queue),
        igmp(queue, topo.graph.num_nodes()),
        scmp(net, igmp, [&] {
          cfg.mrouter = 0;
          return cfg;
        }()),
        recorder(net) {}

  Rng rng{7};
  topo::Topology topo;
  sim::EventQueue queue;
  sim::Network net;
  igmp::IgmpDomain igmp;
  Scmp scmp;
  sim::TraceRecorder recorder;
};

TEST(ScmpGoldenTrace, FireAndForgetTraceIsBitIdentical) {
  GoldenWorld w;
  run_scenario(w.scmp, w.queue);
  EXPECT_EQ(serialize_trace(w.recorder.events()), read_golden())
      << "zero-loss SCMP control trace diverged from the golden; if the "
         "protocol change is intentional, regenerate tests/data/"
         "scmp_golden_trace.txt (see this file's header comment)";
}

TEST(ScmpGoldenTrace, ReliableDeliveryAddsOnlyAcks) {
  Scmp::Config cfg;
  cfg.reliability.enabled = true;
  GoldenWorld w(cfg);
  run_scenario(w.scmp, w.queue);

  // Same control packets, ACKs aside. Timestamps are excluded (ACKs share
  // FIFO link queues, shifting later departures) and so is the event order
  // they induce: compare the sorted multiset of timeless event lines.
  auto timeless_sorted = [](const std::string& trace) {
    std::vector<std::string> lines;
    std::istringstream in(trace);
    std::string line;
    while (std::getline(in, line)) {
      if (line.find(" ACK ") != std::string::npos) continue;
      lines.push_back(line.substr(line.find(' ') + 1));  // drop the timestamp
    }
    std::sort(lines.begin(), lines.end());
    return lines;
  };
  EXPECT_EQ(timeless_sorted(serialize_trace(w.recorder.events())),
            timeless_sorted(read_golden()));

  // Loss-free means no timer may fire before its ACK lands: each request's
  // first timeout is its own idle round trip plus kRetxMargin, which covers
  // the queueing this scenario adds.
  EXPECT_EQ(w.scmp.retx().retransmissions(), 0u);
  EXPECT_EQ(w.scmp.retx().exhausted(), 0u);
  EXPECT_GT(w.scmp.retx().acked(), 0u);
  EXPECT_EQ(w.scmp.retx().pending_count(), 0u);
  EXPECT_GT(w.recorder.count(sim::PacketType::kAck), 0u);
}

}  // namespace
}  // namespace scmp::core
