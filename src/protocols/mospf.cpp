#include "protocols/mospf.hpp"

#include "util/log.hpp"

namespace scmp::proto {

Mospf::Mospf(sim::Network& net, igmp::IgmpDomain& igmp)
    : MulticastProtocol(net, igmp) {
  const auto n = static_cast<std::size_t>(net.graph().num_nodes());
  views_.resize(n);
  seen_.resize(n);
  next_seq_.assign(n, 0);
}

void Mospf::handle_packet(graph::NodeId at, const sim::Packet& pkt,
                          graph::NodeId from) {
  switch (pkt.type) {
    case sim::PacketType::kData:
      handle_data(at, pkt, from);
      break;
    case sim::PacketType::kGroupLsa:
      handle_lsa(at, pkt, from);
      break;
    default:
      // Foreign-protocol traffic through the shared Network plumbing:
      // counted + logged (net.drops.unexpected_type), not a crash.
      drop_unexpected(at, pkt);
      break;
  }
}

void Mospf::flood_lsa(graph::NodeId origin, GroupId group, bool is_member) {
  sim::Packet lsa;
  lsa.type = sim::PacketType::kGroupLsa;
  lsa.group = group;
  lsa.src = origin;
  lsa.uid = ++next_seq_[static_cast<std::size_t>(origin)];
  lsa.payload = {static_cast<std::uint8_t>(is_member ? 1 : 0)};

  // The originator applies the LSA to its own view, then floods.
  seen_[static_cast<std::size_t>(origin)].insert({origin, lsa.uid});
  auto& view = views_[static_cast<std::size_t>(origin)][group];
  if (is_member) view.insert(origin); else view.erase(origin);

  for (const auto& nb : net().graph().neighbors(origin))
    net().send_link(origin, nb.to, lsa);
}

void Mospf::handle_lsa(graph::NodeId at, const sim::Packet& pkt,
                       graph::NodeId from) {
  if (!seen_[static_cast<std::size_t>(at)].insert({pkt.src, pkt.uid}).second)
    return;  // already flooded through this router
  auto& view = views_[static_cast<std::size_t>(at)][pkt.group];
  SCMP_EXPECTS(!pkt.payload.empty());
  if (pkt.payload[0] != 0) view.insert(pkt.src); else view.erase(pkt.src);
  for (const auto& nb : net().graph().neighbors(at)) {
    if (nb.to != from) net().send_link(at, nb.to, pkt);
  }
}

void Mospf::handle_data(graph::NodeId at, const sim::Packet& pkt,
                        graph::NodeId from) {
  // The per-source shortest-path tree every router derives from the
  // link-state database: the network's path store, repaired on link failure.
  const graph::ShortestPaths& tree = net().paths().sl_from(pkt.src);

  // RPF against the canonical SPT: accept only from the tree parent.
  if (from != graph::kInvalidNode &&
      tree.parent[static_cast<std::size_t>(at)] != from) {
    return;
  }

  if (router_is_member(at, pkt.group)) deliver_locally(at, pkt);

  // Forward to exactly those SPT children whose subtree contains a member
  // according to this router's LSA view: for each viewed member, the child
  // on the member's root path (if it runs through `at`) must receive a copy.
  const auto& view = views_[static_cast<std::size_t>(at)][pkt.group];
  std::set<graph::NodeId> forward_to;
  for (graph::NodeId member : view) {
    if (member == at) continue;
    // Walk the member's path toward the source; if `at` is on it, the node
    // walked through just before `at` is the child that needs the packet.
    graph::NodeId prev = graph::kInvalidNode;
    for (graph::NodeId cur = member; cur != graph::kInvalidNode;
         cur = tree.parent[static_cast<std::size_t>(cur)]) {
      if (cur == at) {
        if (prev != graph::kInvalidNode) forward_to.insert(prev);
        break;
      }
      prev = cur;
    }
  }
  for (graph::NodeId child : forward_to) net().send_link(at, child, pkt);
}

void Mospf::send_data(graph::NodeId source, GroupId group) {
  sim::Packet pkt = make_data_packet(source, group);
  net().inject(source, std::move(pkt));
}

void Mospf::interface_joined(graph::NodeId router, GroupId group,
                             int /*iface*/, bool /*first_iface*/) {
  // The paper attributes MOSPF's steep protocol overhead to an LSA flood on
  // *every* membership change, so we flood per host transition, not only on
  // first/last interface.
  flood_lsa(router, group, /*is_member=*/true);
}

void Mospf::interface_left(graph::NodeId router, GroupId group, int /*iface*/,
                           bool last_iface) {
  flood_lsa(router, group, /*is_member=*/!last_iface ||
                               router_is_member(router, group));
}

std::set<graph::NodeId> Mospf::view_of(graph::NodeId router,
                                       GroupId group) const {
  const auto& groups = views_[static_cast<std::size_t>(router)];
  const auto it = groups.find(group);
  return it == groups.end() ? std::set<graph::NodeId>{} : it->second;
}

}  // namespace scmp::proto
