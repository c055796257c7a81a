#include "core/mrouter_node.hpp"

namespace scmp::core {

MRouterNode::MRouterNode(sim::Network& net, igmp::IgmpDomain& igmp,
                         Scmp::Config cfg, int fabric_ports)
    : scmp_(net, igmp, cfg), fabric_(fabric_ports) {}

MRouterNode::FabricSync MRouterNode::sync_fabric() {
  FabricSync result;
  input_ports_.clear();

  std::vector<fabric::FabricSession> sessions;
  int next_port = 0;
  for (GroupId group : scmp_.active_groups()) {
    const auto senders = scmp_.senders_of(group);
    if (senders.empty()) continue;
    if (next_port + static_cast<int>(senders.size()) > fabric_.ports()) {
      result.unplaced.push_back(group);
      continue;
    }
    fabric::FabricSession session;
    session.group = group;
    for (graph::NodeId sender : senders) {
      input_ports_[group][sender] = next_port;
      session.input_ports.push_back(next_port++);
    }
    sessions.push_back(std::move(session));
  }
  fabric_.configure(sessions);
  result.sessions_placed = static_cast<int>(sessions.size());
  return result;
}

void MRouterNode::enable_fabric_transit(double per_stage_seconds) {
  SCMP_EXPECTS(per_stage_seconds >= 0.0);
  scmp_.set_mrouter_transit_model([this, per_stage_seconds](
                                      const sim::Packet& pkt) {
    const int baseline = fabric_.pn().stage_count() + fabric_.dn().stage_count();
    int stages = baseline;
    if (pkt.src != graph::kInvalidNode) {
      const int port = input_port_of(pkt.group, pkt.src);
      if (port >= 0) stages = fabric_.path_depth(port);
    }
    return per_stage_seconds * stages;
  });
}

WfqScheduler& MRouterNode::port_scheduler(int port) {
  SCMP_EXPECTS(port >= 0 && port < fabric_.ports());
  auto it = schedulers_.find(port);
  if (it == schedulers_.end())
    it = schedulers_.emplace(port, WfqScheduler(kPortCapacityBps)).first;
  return it->second;
}

int MRouterNode::input_port_of(GroupId group, graph::NodeId sender) const {
  const auto git = input_ports_.find(group);
  if (git == input_ports_.end()) return -1;
  const auto sit = git->second.find(sender);
  return sit == git->second.end() ? -1 : sit->second;
}

}  // namespace scmp::core
