#include "protocols/multicast_protocol.hpp"

#include "obs/metrics.hpp"
#include "util/contracts.hpp"
#include "util/log.hpp"

namespace scmp::proto {

MulticastProtocol::MulticastProtocol(sim::Network& net, igmp::IgmpDomain& igmp)
    : net_(&net), igmp_(&igmp) {
  const int n = net.graph().num_nodes();
  SCMP_EXPECTS(n > 0);
  adapters_.reserve(static_cast<std::size_t>(n));
  for (graph::NodeId v = 0; v < n; ++v) {
    auto adapter = std::make_unique<NodeAdapter>();
    adapter->protocol = this;
    adapter->node = v;
    net.attach(v, adapter.get());
    adapters_.push_back(std::move(adapter));
  }
  igmp.set_listener(this);
  net.set_link_listener(this);
}

MulticastProtocol::~MulticastProtocol() {
  igmp_->set_listener(nullptr);
  net_->set_link_listener(nullptr);
  for (graph::NodeId v = 0; v < net_->graph().num_nodes(); ++v)
    net_->attach(v, nullptr);
}

void MulticastProtocol::audit_state(
    std::vector<std::string>& violations) const {
  (void)violations;  // nothing to check by default
}

void MulticastProtocol::host_join(graph::NodeId router, GroupId group,
                                  int iface, int host) {
  igmp_->host_join(router, iface, host, group);
}

void MulticastProtocol::host_leave(graph::NodeId router, GroupId group,
                                   int iface, int host) {
  igmp_->host_leave(router, iface, host, group);
}

void MulticastProtocol::drop_unexpected(graph::NodeId at,
                                        const sim::Packet& pkt) {
  obs::counter("net.drops.unexpected_type", name()).inc();
  log_debug(name(), ": dropping unexpected ", sim::to_string(pkt.type),
            " packet at node ", at);
}

sim::Packet MulticastProtocol::make_data_packet(graph::NodeId source,
                                                GroupId group) {
  // A DATA packet carries no path and no payload, so it allocates nothing.
  sim::Packet pkt;
  pkt.type = sim::PacketType::kData;
  pkt.group = group;
  pkt.src = source;
  pkt.uid = net_->next_uid();
  pkt.created_at = net_->now();
  pkt.size_bytes = sim::kDataPacketBytes;
  return pkt;
}

}  // namespace scmp::proto
