#include "protocols/pimsm.hpp"

#include <algorithm>

#include "util/log.hpp"

namespace scmp::proto {

PimSm::PimSm(sim::Network& net, igmp::IgmpDomain& igmp, bool spt_switchover)
    : MulticastProtocol(net, igmp), spt_switchover_(spt_switchover) {
  const auto n = static_cast<std::size_t>(net.graph().num_nodes());
  rpt_state_.resize(n);
  spt_state_.resize(n);
  switched_.resize(n);
}

void PimSm::set_rp(GroupId group, graph::NodeId rp) {
  SCMP_EXPECTS(net().graph().valid(rp));
  rps_[group] = rp;
}

graph::NodeId PimSm::rp_of(GroupId group) const {
  const auto it = rps_.find(group);
  SCMP_EXPECTS(it != rps_.end());
  return it->second;
}

PimSm::RptEntry* PimSm::rpt(graph::NodeId at, GroupId group) {
  auto& groups = rpt_state_[static_cast<std::size_t>(at)];
  const auto it = groups.find(group);
  return it == groups.end() ? nullptr : &it->second;
}

const PimSm::RptEntry* PimSm::rpt(graph::NodeId at, GroupId group) const {
  const auto& groups = rpt_state_[static_cast<std::size_t>(at)];
  const auto it = groups.find(group);
  return it == groups.end() ? nullptr : &it->second;
}

PimSm::SptEntry* PimSm::spt(graph::NodeId at, GroupId group,
                            graph::NodeId source) {
  auto& entries = spt_state_[static_cast<std::size_t>(at)];
  const auto it = entries.find({group, source});
  return it == entries.end() ? nullptr : &it->second;
}

const PimSm::SptEntry* PimSm::spt(graph::NodeId at, GroupId group,
                                  graph::NodeId source) const {
  const auto& entries = spt_state_[static_cast<std::size_t>(at)];
  const auto it = entries.find({group, source});
  return it == entries.end() ? nullptr : &it->second;
}

bool PimSm::on_rp_tree(graph::NodeId router, GroupId group) const {
  return router == rp_of(group) || rpt(router, group) != nullptr;
}

bool PimSm::has_spt_state(graph::NodeId router, GroupId group,
                          graph::NodeId source) const {
  return spt(router, group, source) != nullptr;
}

void PimSm::audit_state(std::vector<std::string>& violations) const {
  const int n = net().graph().num_nodes();
  auto note = [&](GroupId group, const std::string& what) {
    violations.push_back("PIM-SM g" + std::to_string(group) + ": " + what);
  };
  for (const auto& [group, rp] : rps_) {
    for (graph::NodeId v = 0; v < n; ++v) {
      const RptEntry* e = rpt(v, group);
      if (e == nullptr) {
        if (router_is_member(v, group) && v != rp)
          note(group, "member router " + std::to_string(v) +
                          " is off the RP tree");
        continue;
      }
      if (v != rp) {
        if (e->upstream == graph::kInvalidNode) {
          note(group, "(*,G) at " + std::to_string(v) + " has no upstream");
        } else {
          const RptEntry* up = rpt(e->upstream, group);
          if (up == nullptr || !up->downstream.contains(v))
            note(group, "(*,G) upstream " + std::to_string(e->upstream) +
                            " does not list " + std::to_string(v));
        }
        if (e->downstream.empty() && !router_is_member(v, group))
          note(group, "memberless (*,G) leaf at " + std::to_string(v));
      }
      for (graph::NodeId d : e->downstream) {
        const RptEntry* down = rpt(d, group);
        if (down == nullptr || down->upstream != v)
          note(group, "(*,G) downstream " + std::to_string(d) + " of " +
                          std::to_string(v) + " lacks the reverse edge");
      }
      for (const auto& [source, kids] : e->rpt_pruned) {
        for (graph::NodeId k : kids) {
          if (!e->downstream.contains(k))
            note(group, "(S,G,rpt) prune by non-child " + std::to_string(k) +
                            " at " + std::to_string(v));
        }
      }
      // Acyclicity: the (*,G) upstream chain must reach the RP in <= n hops.
      graph::NodeId walk = v;
      int hops = 0;
      while (walk != rp && walk != graph::kInvalidNode && hops <= n) {
        const RptEntry* w = rpt(walk, group);
        walk = w == nullptr ? graph::kInvalidNode : w->upstream;
        ++hops;
      }
      if (hops > n)
        note(group, "(*,G) upstream chain from " + std::to_string(v) +
                        " never reaches the RP");
    }
  }
  // (S,G) source trees.
  for (graph::NodeId v = 0; v < n; ++v) {
    for (const auto& [key, e] : spt_state_[static_cast<std::size_t>(v)]) {
      const auto& [group, source] = key;
      if (v != source) {
        if (e.upstream == graph::kInvalidNode) {
          note(group, "(S,G) at " + std::to_string(v) + " for source " +
                          std::to_string(source) + " has no upstream");
        } else {
          const SptEntry* up = spt(e.upstream, group, source);
          if (up == nullptr || !up->downstream.contains(v))
            note(group, "(S,G) upstream " + std::to_string(e.upstream) +
                            " does not list " + std::to_string(v));
        }
        if (e.downstream.empty() &&
            !(router_is_member(v, group) &&
              switched_[static_cast<std::size_t>(v)].contains(key)))
          note(group, "useless (S,G) leaf at " + std::to_string(v) +
                          " for source " + std::to_string(source));
      }
      for (graph::NodeId d : e.downstream) {
        const SptEntry* down = spt(d, group, source);
        if (down == nullptr || down->upstream != v)
          note(group, "(S,G) downstream " + std::to_string(d) + " of " +
                          std::to_string(v) + " lacks the reverse edge");
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Joins.
// ---------------------------------------------------------------------------

void PimSm::interface_joined(graph::NodeId router, GroupId group,
                             int /*iface*/, bool first_iface) {
  if (!first_iface) return;
  send_star_join(router, group);
}

void PimSm::send_star_join(graph::NodeId router, GroupId group) {
  const graph::NodeId rp = rp_of(group);
  if (on_rp_tree(router, group)) return;
  // Unidirectional shared tree: the join creates (*,G) state at every hop on
  // its way toward the RP, starting with the joining DR itself.
  RptEntry& e = rpt_state_[static_cast<std::size_t>(router)][group];
  e.upstream = net().paths().next_hop(router, rp);

  sim::Packet join;
  join.type = sim::PacketType::kPimJoin;
  join.group = group;
  join.payload = {kStarG};
  net().send_link(router, e.upstream, join);
}

void PimSm::send_sg_join(graph::NodeId router, GroupId group,
                         graph::NodeId source) {
  if (router == source || spt(router, group, source) != nullptr) return;
  SptEntry& e =
      spt_state_[static_cast<std::size_t>(router)][{group, source}];
  e.upstream = net().paths().next_hop(router, source);

  sim::Packet join;
  join.type = sim::PacketType::kPimJoin;
  join.group = group;
  join.src = source;
  join.payload = {kSG};
  net().send_link(router, e.upstream, join);
}

void PimSm::handle_join(graph::NodeId at, const sim::Packet& pkt,
                        graph::NodeId from) {
  SCMP_EXPECTS(from != graph::kInvalidNode && !pkt.payload.empty());
  if (pkt.payload[0] == kStarG) {
    const graph::NodeId rp = rp_of(pkt.group);
    RptEntry& e = rpt_state_[static_cast<std::size_t>(at)][pkt.group];
    const bool was_on_tree = e.upstream != graph::kInvalidNode || at == rp;
    const bool new_child = e.downstream.insert(from).second;
    if (new_child && e.upstream != graph::kInvalidNode) {
      // This router may have (S,G,rpt)-pruned sources off its shared-tree
      // uplink while it was a leaf; the new child still needs them, so the
      // prunes are cancelled (otherwise the child would starve of S and
      // never get the packet that triggers its own switchover).
      for (const auto& [group, source] : switched_[static_cast<std::size_t>(at)]) {
        if (group != pkt.group) continue;
        sim::Packet cancel;
        cancel.type = sim::PacketType::kPimPrune;
        cancel.group = group;
        cancel.src = source;
        cancel.payload = {kSGrptCancel};
        net().send_link(at, e.upstream, cancel);
      }
    }
    if (was_on_tree) return;  // the join spliced into the existing tree
    e.upstream = net().paths().next_hop(at, rp);
    net().send_link(at, e.upstream, pkt);
    return;
  }
  SCMP_EXPECTS(pkt.payload[0] == kSG);
  const graph::NodeId source = pkt.src;
  SptEntry& e = spt_state_[static_cast<std::size_t>(at)][{pkt.group, source}];
  const bool was_on_tree = e.upstream != graph::kInvalidNode || at == source;
  e.downstream.insert(from);
  if (was_on_tree) return;
  e.upstream = net().paths().next_hop(at, source);
  net().send_link(at, e.upstream, pkt);
}

// ---------------------------------------------------------------------------
// Prunes / leaves.
// ---------------------------------------------------------------------------

void PimSm::interface_left(graph::NodeId router, GroupId group,
                           int /*iface*/, bool last_iface) {
  if (!last_iface) return;
  // Drop switchover decisions and any now-useless (S,G) state, then the
  // shared-tree membership itself.
  auto& marks = switched_[static_cast<std::size_t>(router)];
  for (auto it = marks.begin(); it != marks.end();) {
    if (it->first == group) it = marks.erase(it); else ++it;
  }
  std::vector<graph::NodeId> sources;
  for (const auto& [key, entry] : spt_state_[static_cast<std::size_t>(router)])
    if (key.first == group) sources.push_back(key.second);
  for (graph::NodeId s : sources) maybe_prune_spt(router, group, s);
  maybe_prune_rpt(router, group);
}

void PimSm::maybe_prune_rpt(graph::NodeId at, GroupId group) {
  RptEntry* e = rpt(at, group);
  if (e == nullptr || at == rp_of(group)) return;
  if (router_is_member(at, group) || !e->downstream.empty()) return;
  const graph::NodeId up = e->upstream;
  rpt_state_[static_cast<std::size_t>(at)].erase(group);
  if (up == graph::kInvalidNode) return;
  sim::Packet prune;
  prune.type = sim::PacketType::kPimPrune;
  prune.group = group;
  prune.payload = {kStarG};
  net().send_link(at, up, prune);
}

void PimSm::maybe_prune_spt(graph::NodeId at, GroupId group,
                            graph::NodeId source) {
  SptEntry* e = spt(at, group, source);
  if (e == nullptr || at == source) return;
  if (!e->downstream.empty()) return;
  // A member that switched to this SPT still needs the state.
  if (router_is_member(at, group) &&
      switched_[static_cast<std::size_t>(at)].contains({group, source}))
    return;
  const graph::NodeId up = e->upstream;
  spt_state_[static_cast<std::size_t>(at)].erase({group, source});
  if (up == graph::kInvalidNode) return;
  sim::Packet prune;
  prune.type = sim::PacketType::kPimPrune;
  prune.group = group;
  prune.src = source;
  prune.payload = {kSG};
  net().send_link(at, up, prune);
}

void PimSm::handle_prune(graph::NodeId at, const sim::Packet& pkt,
                         graph::NodeId from) {
  SCMP_EXPECTS(from != graph::kInvalidNode && !pkt.payload.empty());
  switch (pkt.payload[0]) {
    case kStarG: {
      RptEntry* e = rpt(at, pkt.group);
      if (e == nullptr) return;
      e->downstream.erase(from);
      for (auto& [source, kids] : e->rpt_pruned) kids.erase(from);
      maybe_prune_rpt(at, pkt.group);
      return;
    }
    case kSG: {
      SptEntry* e = spt(at, pkt.group, pkt.src);
      if (e == nullptr) return;
      e->downstream.erase(from);
      maybe_prune_spt(at, pkt.group, pkt.src);
      return;
    }
    case kSGrpt: {
      RptEntry* e = rpt(at, pkt.group);
      if (e != nullptr) e->rpt_pruned[pkt.src].insert(from);
      return;
    }
    case kSGrptCancel: {
      RptEntry* e = rpt(at, pkt.group);
      if (e != nullptr) {
        const auto it = e->rpt_pruned.find(pkt.src);
        if (it != e->rpt_pruned.end()) it->second.erase(from);
      }
      return;
    }
    default:
      SCMP_ASSERT(false && "bad PIM prune flag");
  }
}

// ---------------------------------------------------------------------------
// Data plane.
// ---------------------------------------------------------------------------

void PimSm::send_data(graph::NodeId source, GroupId group) {
  sim::Packet pkt = make_data_packet(source, group);
  net().inject(source, std::move(pkt));
}

void PimSm::consider_switchover(graph::NodeId at, GroupId group,
                                graph::NodeId source) {
  if (!spt_switchover_) return;
  if (at == source || at == rp_of(group)) return;
  if (!router_is_member(at, group)) return;
  auto& marks = switched_[static_cast<std::size_t>(at)];
  if (!marks.insert({group, source}).second) return;  // already decided

  send_sg_join(at, group, source);
  // If this DR is a shared-tree leaf, also stop S's packets from coming down
  // the shared tree (one-hop (S,G,rpt) prune); non-leaves keep receiving the
  // shared-tree copy for their children and just do not deliver it locally.
  const RptEntry* e = rpt(at, group);
  if (e != nullptr && e->downstream.empty() &&
      e->upstream != graph::kInvalidNode) {
    sim::Packet prune;
    prune.type = sim::PacketType::kPimPrune;
    prune.group = group;
    prune.src = source;
    prune.payload = {kSGrpt};
    net().send_link(at, e->upstream, prune);
  }
}

void PimSm::handle_data(graph::NodeId at, const sim::Packet& pkt,
                        graph::NodeId from) {
  const GroupId group = pkt.group;
  const graph::NodeId source = pkt.src;
  const graph::NodeId rp = rp_of(group);
  const SptEntry* se = spt(at, group, source);
  const RptEntry* re = rpt(at, group);

  // Each data copy carries a tree tag in payload[0] (kSG = source tree,
  // kStarG = shared tree). Real PIM disambiguates the two trees by the RPF
  // *interface* a copy arrives on; the simulator's links do not model
  // interfaces, and when the paths toward S and toward the RP share the
  // upstream link the copies would otherwise be indistinguishable.
  auto tagged = [&](Flag tree) {
    sim::Packet data = pkt;
    data.type = sim::PacketType::kData;
    data.dst = graph::kInvalidNode;
    data.payload = {static_cast<std::uint8_t>(tree)};
    return data;
  };

  // Forwards a shared-tree copy to this router's shared-tree children,
  // skipping the (S,G,rpt)-pruned ones.
  auto forward_rpt = [&](graph::NodeId skip) {
    if (re == nullptr) return;
    const sim::Packet data = tagged(kStarG);
    const auto pruned_it = re->rpt_pruned.find(source);
    for (graph::NodeId child : re->downstream) {
      if (child == skip) continue;
      if (pruned_it != re->rpt_pruned.end() &&
          pruned_it->second.contains(child))
        continue;
      net().send_link(at, child, data);
    }
  };
  auto forward_spt = [&](graph::NodeId skip) {
    if (se == nullptr) return;
    const sim::Packet data = tagged(kSG);
    for (graph::NodeId child : se->downstream) {
      if (child != skip) net().send_link(at, child, data);
    }
  };

  // --- Source origination ---
  if (from == graph::kInvalidNode && pkt.type == sim::PacketType::kData &&
      at == source) {
    if (router_is_member(at, group)) deliver_locally(at, pkt);
    forward_spt(graph::kInvalidNode);
    if (at == rp) {
      // The source is the RP: the packet enters the shared tree directly.
      forward_rpt(graph::kInvalidNode);
    } else {
      // Register-encapsulation toward the RP (register-stop not modelled).
      sim::Packet reg = pkt;
      reg.type = sim::PacketType::kDataEncap;
      reg.dst = rp;
      reg.payload.clear();
      net().send_unicast(at, std::move(reg));
    }
    return;
  }

  // --- Register arrival at the RP: decapsulate into the shared tree ---
  if (pkt.type == sim::PacketType::kDataEncap) {
    SCMP_ASSERT(at == rp);
    if (router_is_member(at, group) && se == nullptr && at != source)
      deliver_locally(at, pkt);
    forward_rpt(graph::kInvalidNode);
    consider_switchover(at, group, source);
    return;
  }

  SCMP_EXPECTS(!pkt.payload.empty());
  // --- Source-tree copy ---
  if (pkt.payload[0] == kSG) {
    if (se == nullptr || from != se->upstream) return;  // stray: drop
    // (at != source: the source delivered locally at origination.)
    if (router_is_member(at, group) && at != source)
      deliver_locally(at, pkt);
    forward_spt(from);
    return;
  }

  // --- Shared-tree copy ---
  SCMP_EXPECTS(pkt.payload[0] == kStarG);
  if (re == nullptr || from != re->upstream) return;  // stray: drop
  // Routers holding (S,G) state receive S on the source tree; the shared-
  // tree copy is forward-only for them (this kills switchover duplicates).
  // The source itself delivered at origination.
  if (router_is_member(at, group) && se == nullptr && at != source)
    deliver_locally(at, pkt);
  forward_rpt(from);
  consider_switchover(at, group, source);
}

// ---------------------------------------------------------------------------
// Dispatch.
// ---------------------------------------------------------------------------

void PimSm::handle_packet(graph::NodeId at, const sim::Packet& pkt,
                          graph::NodeId from) {
  switch (pkt.type) {
    case sim::PacketType::kPimJoin: handle_join(at, pkt, from); break;
    case sim::PacketType::kPimPrune: handle_prune(at, pkt, from); break;
    case sim::PacketType::kData:
    case sim::PacketType::kDataEncap: handle_data(at, pkt, from); break;
    default:
      // Foreign-protocol traffic through the shared Network plumbing:
      // counted + logged (net.drops.unexpected_type), not a crash.
      drop_unexpected(at, pkt);
      break;
  }
}

}  // namespace scmp::proto
