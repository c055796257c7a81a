#include "sim/trace.hpp"

namespace scmp::sim {

TraceRecorder::TraceRecorder(Network& net) {
  net.add_transmit_observer([this](graph::NodeId from, graph::NodeId to,
                                   const Packet& pkt, SimTime at) {
    events_.push_back(TraceEvent{at, from, to, pkt.type, pkt.group, pkt.src,
                                 pkt.uid, pkt.size_bytes});
  });
}

std::vector<TraceEvent> TraceRecorder::of_type(PacketType type) const {
  std::vector<TraceEvent> out;
  for (const TraceEvent& e : events_)
    if (e.type == type) out.push_back(e);
  return out;
}

std::size_t TraceRecorder::count(PacketType type) const {
  std::size_t n = 0;
  for (const TraceEvent& e : events_)
    if (e.type == type) ++n;
  return n;
}

}  // namespace scmp::sim
