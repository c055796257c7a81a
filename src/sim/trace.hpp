// Structured packet tracing: records every link transmission so tests and
// analyses can assert *routes*, not just outcomes (e.g. that a BRANCH packet
// really walked the tree path, or that a JOIN followed the unicast shortest
// path), in the spirit of NS-2's trace files.
#pragma once

#include <vector>

#include "sim/network.hpp"

namespace scmp::sim {

struct TraceEvent {
  SimTime time = 0.0;
  graph::NodeId from = graph::kInvalidNode;
  graph::NodeId to = graph::kInvalidNode;
  PacketType type = PacketType::kData;
  int group = -1;
  graph::NodeId src = graph::kInvalidNode;
  std::uint64_t uid = 0;
  std::size_t size_bytes = 0;
};

/// Captures the network's transmit stream. Construction registers a transmit
/// observer on the network; other observers (the verification auditor's
/// hooks, the metrics layer, further recorders) coexist with it. The
/// recorder must outlive the network's last transmission.
class TraceRecorder {
 public:
  explicit TraceRecorder(Network& net);

  const std::vector<TraceEvent>& events() const { return events_; }
  void clear() { events_.clear(); }

  /// Events of one packet type, in time order.
  std::vector<TraceEvent> of_type(PacketType type) const;

  /// Number of link crossings of a given type.
  std::size_t count(PacketType type) const;

 private:
  std::vector<TraceEvent> events_;
};

}  // namespace scmp::sim
