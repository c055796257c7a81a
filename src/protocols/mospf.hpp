// MOSPF baseline (paper ref [3]): link-state multicast. Every membership
// change at a designated router floods a group-membership LSA through the
// whole domain (the cause of MOSPF's steep protocol-overhead curve in
// Fig. 8), after which every router shares the membership view and forwards
// data along the per-source shortest-path tree pruned to member subtrees.
#pragma once

#include <cstdint>
#include <map>
#include <set>

#include "protocols/multicast_protocol.hpp"

namespace scmp::proto {

class Mospf final : public MulticastProtocol {
 public:
  Mospf(sim::Network& net, igmp::IgmpDomain& igmp);

  std::string name() const override { return "MOSPF"; }

  void handle_packet(graph::NodeId at, const sim::Packet& pkt,
                     graph::NodeId from) override;
  void send_data(graph::NodeId source, GroupId group) override;

  void interface_joined(graph::NodeId router, GroupId group, int iface,
                        bool first_iface) override;
  void interface_left(graph::NodeId router, GroupId group, int iface,
                      bool last_iface) override;

  /// Membership view a particular router currently holds (exposed for tests
  /// of flood convergence).
  std::set<graph::NodeId> view_of(graph::NodeId router, GroupId group) const;

 private:
  void flood_lsa(graph::NodeId origin, GroupId group, bool is_member);
  void handle_lsa(graph::NodeId at, const sim::Packet& pkt,
                  graph::NodeId from);
  void handle_data(graph::NodeId at, const sim::Packet& pkt,
                   graph::NodeId from);

  /// views_[router][group] = member routers, per that router's LSA database.
  std::vector<std::map<GroupId, std::set<graph::NodeId>>> views_;
  /// seen_[router] = (origin, seq) pairs already flooded through.
  std::vector<std::set<std::pair<graph::NodeId, std::uint64_t>>> seen_;
  std::vector<std::uint64_t> next_seq_;
};

}  // namespace scmp::proto
