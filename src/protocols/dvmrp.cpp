#include "protocols/dvmrp.hpp"

#include "util/log.hpp"

namespace scmp::proto {

Dvmrp::Dvmrp(sim::Network& net, igmp::IgmpDomain& igmp, double prune_lifetime)
    : MulticastProtocol(net, igmp), prune_lifetime_(prune_lifetime) {
  SCMP_EXPECTS(prune_lifetime > 0.0);
  const auto n = static_cast<std::size_t>(net.graph().num_nodes());
  prunes_received_.resize(n);
  prune_sent_.resize(n);
}

std::vector<graph::NodeId> Dvmrp::rpf_children(graph::NodeId at,
                                               graph::NodeId source) const {
  std::vector<graph::NodeId> kids;
  for (const auto& nb : net().graph().neighbors(at)) {
    if (nb.to == source) continue;
    if (net().paths().next_hop(nb.to, source) == at) kids.push_back(nb.to);
  }
  return kids;
}

void Dvmrp::send_data(graph::NodeId source, GroupId group) {
  sim::Packet pkt = make_data_packet(source, group);
  net().inject(source, std::move(pkt));
}

void Dvmrp::handle_packet(graph::NodeId at, const sim::Packet& pkt,
                          graph::NodeId from) {
  switch (pkt.type) {
    case sim::PacketType::kData:
      handle_data(at, pkt, from);
      break;
    case sim::PacketType::kDvmrpPrune:
      handle_prune(at, pkt, from);
      break;
    case sim::PacketType::kDvmrpGraft:
      handle_graft(at, pkt, from);
      break;
    default:
      // Foreign-protocol traffic through the shared Network plumbing:
      // counted + logged (net.drops.unexpected_type), not a crash.
      drop_unexpected(at, pkt);
      break;
  }
}

void Dvmrp::handle_data(graph::NodeId at, const sim::Packet& pkt,
                        graph::NodeId from) {
  const graph::NodeId source = pkt.src;
  const SgKey key{pkt.group, source};

  // RPF check: accept only from the reverse-path neighbour toward the source.
  if (from != graph::kInvalidNode && at != source &&
      net().paths().next_hop(at, source) != from) {
    return;  // duplicate off-tree copy; dropped
  }

  if (router_is_member(at, pkt.group)) deliver_locally(at, pkt);

  // Forward down the truncated broadcast tree, skipping pruned branches.
  const double now = net().now();
  auto& pruned = prunes_received_[static_cast<std::size_t>(at)][key];
  int forwarded = 0;
  for (graph::NodeId child : rpf_children(at, source)) {
    const auto it = pruned.find(child);
    if (it != pruned.end() && it->second > now) continue;  // prune active
    net().send_link(at, child, pkt);
    ++forwarded;
  }

  // A leaf of the broadcast tree with no members prunes itself upstream.
  if (forwarded == 0 && !router_is_member(at, pkt.group) && at != source &&
      from != graph::kInvalidNode) {
    send_prune_upstream(at, pkt.group, source);
  }
}

void Dvmrp::send_prune_upstream(graph::NodeId at, GroupId group,
                                graph::NodeId source) {
  auto& sent = prune_sent_[static_cast<std::size_t>(at)];
  const SgKey key{group, source};
  const double now = net().now();
  const auto it = sent.find(key);
  if (it != sent.end() && it->second > now) return;  // already pruned
  sent[key] = now + prune_lifetime_;

  sim::Packet prune;
  prune.type = sim::PacketType::kDvmrpPrune;
  prune.group = group;
  prune.src = source;  // identifies the (source, group) pair being pruned
  prune.created_at = now;  // the lifetime is anchored at the sender's clock
  net().send_link(at, net().paths().next_hop(at, source), prune);
}

void Dvmrp::handle_prune(graph::NodeId at, const sim::Packet& pkt,
                         graph::NodeId from) {
  SCMP_EXPECTS(from != graph::kInvalidNode);
  const graph::NodeId source = pkt.src;
  const SgKey key{pkt.group, source};
  const double now = net().now();
  // Expiry anchored at the sender's timestamp so both ends of the link agree
  // on when the prune lapses (no one-propagation-delay suppression window).
  prunes_received_[static_cast<std::size_t>(at)][key][from] =
      pkt.created_at + prune_lifetime_;

  // If every downstream branch is now pruned and we have no members either,
  // the prune cascades upstream.
  if (router_is_member(at, pkt.group) || at == source) return;
  for (graph::NodeId child : rpf_children(at, source)) {
    const auto& pruned = prunes_received_[static_cast<std::size_t>(at)][key];
    const auto it = pruned.find(child);
    if (it == pruned.end() || it->second <= now) return;  // live branch left
  }
  send_prune_upstream(at, pkt.group, source);
}

void Dvmrp::send_graft_upstream(graph::NodeId at, GroupId group,
                                graph::NodeId source) {
  sim::Packet graft;
  graft.type = sim::PacketType::kDvmrpGraft;
  graft.group = group;
  graft.src = source;
  net().send_link(at, net().paths().next_hop(at, source), graft);
}

void Dvmrp::handle_graft(graph::NodeId at, const sim::Packet& pkt,
                         graph::NodeId from) {
  SCMP_EXPECTS(from != graph::kInvalidNode);
  const SgKey key{pkt.group, pkt.src};
  auto& pruned = prunes_received_[static_cast<std::size_t>(at)];
  const auto it = pruned.find(key);
  if (it != pruned.end()) it->second.erase(from);

  // The graft propagates all the way to the source, clearing any suppression
  // a cascade may have left on the reverse path (a cascaded ancestor's prune
  // can outlive the joiner's own record, so stopping at routers without an
  // active prune_sent entry would strand the branch).
  prune_sent_[static_cast<std::size_t>(at)].erase(key);
  if (at != pkt.src) send_graft_upstream(at, pkt.group, pkt.src);
}

void Dvmrp::interface_joined(graph::NodeId router, GroupId group,
                             int /*iface*/, bool first_iface) {
  if (!first_iface) return;
  // Graft back every (source, group) branch this router had pruned. The
  // graft is sent even when the local prune record has already expired: the
  // upstream's copy expires one propagation delay later, so a join landing
  // in that window would otherwise leave the branch suppressed while no
  // graft repairs it. A stale graft is harmless.
  auto& sent = prune_sent_[static_cast<std::size_t>(router)];
  for (auto it = sent.begin(); it != sent.end();) {
    if (it->first.group == group) {
      send_graft_upstream(router, group, it->first.source);
      it = sent.erase(it);
    } else {
      ++it;
    }
  }
}

void Dvmrp::interface_left(graph::NodeId /*router*/, GroupId /*group*/,
                           int /*iface*/, bool /*last_iface*/) {
  // Nothing proactive: the next data packet arriving at a now-memberless
  // leaf triggers the prune (dense-mode behaviour).
}

bool Dvmrp::prune_active(graph::NodeId at, GroupId group,
                         graph::NodeId source) const {
  const auto& sent = prune_sent_[static_cast<std::size_t>(at)];
  const auto it = sent.find(SgKey{group, source});
  return it != sent.end() && it->second > net().now();
}

}  // namespace scmp::proto
