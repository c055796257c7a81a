#include "protocols/cbt.hpp"

#include <algorithm>
#include <string>

#include "util/log.hpp"

namespace scmp::proto {

Cbt::Cbt(sim::Network& net, igmp::IgmpDomain& igmp)
    : MulticastProtocol(net, igmp) {
  const auto n = static_cast<std::size_t>(net.graph().num_nodes());
  state_.resize(n);
  pending_.resize(n);
}

void Cbt::set_core(GroupId group, graph::NodeId core) {
  SCMP_EXPECTS(net().graph().valid(core));
  cores_[group] = core;
}

graph::NodeId Cbt::core_of(GroupId group) const {
  const auto it = cores_.find(group);
  SCMP_EXPECTS(it != cores_.end());
  return it->second;
}

Cbt::Entry* Cbt::entry(graph::NodeId at, GroupId group) {
  auto& groups = state_[static_cast<std::size_t>(at)];
  const auto it = groups.find(group);
  return it == groups.end() ? nullptr : &it->second;
}

const Cbt::Entry* Cbt::entry(graph::NodeId at, GroupId group) const {
  const auto& groups = state_[static_cast<std::size_t>(at)];
  const auto it = groups.find(group);
  return it == groups.end() ? nullptr : &it->second;
}

bool Cbt::on_tree(graph::NodeId router, GroupId group) const {
  return entry(router, group) != nullptr || router == core_of(group);
}

graph::NodeId Cbt::upstream_of(graph::NodeId router, GroupId group) const {
  const Entry* e = entry(router, group);
  return e == nullptr ? graph::kInvalidNode : e->upstream;
}

std::set<graph::NodeId> Cbt::downstream_of(graph::NodeId router,
                                           GroupId group) const {
  const Entry* e = entry(router, group);
  return e == nullptr ? std::set<graph::NodeId>{} : e->downstream;
}

void Cbt::fail_core(GroupId group) {
  SCMP_EXPECTS(cores_.contains(group));
  failed_cores_.insert(group);
}

bool Cbt::core_failed(GroupId group) const {
  return failed_cores_.contains(group);
}

void Cbt::handle_packet(graph::NodeId at, const sim::Packet& pkt,
                        graph::NodeId from) {
  if (core_failed(pkt.group) && at == core_of(pkt.group)) {
    return;  // the dead core processes nothing
  }
  switch (pkt.type) {
    case sim::PacketType::kCbtJoin: handle_join(at, pkt, from); break;
    case sim::PacketType::kCbtAck: handle_ack(at, pkt, from); break;
    case sim::PacketType::kCbtQuit: handle_quit(at, pkt, from); break;
    case sim::PacketType::kData:
    case sim::PacketType::kDataEncap: handle_data(at, pkt, from); break;
    default:
      // Foreign-protocol traffic through the shared Network plumbing:
      // counted + logged (net.drops.unexpected_type), not a crash.
      drop_unexpected(at, pkt);
      break;
  }
}

void Cbt::interface_joined(graph::NodeId router, GroupId group, int /*iface*/,
                           bool first_iface) {
  if (!first_iface) return;
  start_join(router, group);
}

void Cbt::start_join(graph::NodeId router, GroupId group) {
  const graph::NodeId core = core_of(group);
  if (on_tree(router, group)) return;
  if (router == core) return;  // core is implicitly on the tree
  auto& pend = pending_[static_cast<std::size_t>(router)];
  if (!pend.insert(group).second) return;  // join already in flight

  sim::Packet join;
  join.type = sim::PacketType::kCbtJoin;
  join.group = group;
  join.src = router;
  join.path = {router};
  net().send_link(router, net().paths().next_hop(router, core), join);
}

void Cbt::handle_join(graph::NodeId at, const sim::Packet& pkt,
                      graph::NodeId from) {
  SCMP_EXPECTS(from != graph::kInvalidNode);
  const GroupId group = pkt.group;
  const graph::NodeId core = core_of(group);

  if (on_tree(at, group)) {
    // Graft node found: acknowledge back along the recorded path; the ACK
    // instantiates the forwarding state hop by hop (and this node learns the
    // new downstream branch).
    if (at != core || entry(at, group) == nullptr)
      state_[static_cast<std::size_t>(at)][group];  // ensure core entry exists
    entry(at, group)->downstream.insert(from);

    sim::Packet ack = pkt;
    ack.type = sim::PacketType::kCbtAck;
    ack.path.push_back(at);
    net().send_link(at, from, ack);
    return;
  }

  // Transit router: keep forwarding toward the core.
  sim::Packet join = pkt;
  join.path.push_back(at);
  net().send_link(at, net().paths().next_hop(at, core), join);
}

void Cbt::handle_ack(graph::NodeId at, const sim::Packet& pkt,
                     graph::NodeId from) {
  SCMP_EXPECTS(from != graph::kInvalidNode);
  const GroupId group = pkt.group;
  // path = [joiner, ..., graft]; this router appears somewhere before graft.
  const auto& path = pkt.path;
  const auto pos = std::find(path.begin(), path.end(), at);
  SCMP_ASSERT(pos != path.end() && pos + 1 != path.end());

  Entry& e = state_[static_cast<std::size_t>(at)][group];
  if (e.upstream == graph::kInvalidNode && at != core_of(group))
    e.upstream = *(pos + 1);
  if (pos != path.begin()) {
    e.downstream.insert(*(pos - 1));
    net().send_link(at, *(pos - 1), pkt);
    return;
  }

  // The original joiner: join complete.
  pending_[static_cast<std::size_t>(at)].erase(group);
  // The hosts may have left while the join was in flight.
  maybe_quit(at, group);
}

void Cbt::interface_left(graph::NodeId router, GroupId group, int /*iface*/,
                         bool last_iface) {
  if (!last_iface) return;
  maybe_quit(router, group);
}

void Cbt::maybe_quit(graph::NodeId at, GroupId group) {
  Entry* e = entry(at, group);
  if (e == nullptr || at == core_of(group)) return;
  if (router_is_member(at, group) || !e->downstream.empty()) return;
  // Leaf without members: quit upstream and drop state.
  const graph::NodeId up = e->upstream;
  state_[static_cast<std::size_t>(at)].erase(group);
  if (up == graph::kInvalidNode) return;
  sim::Packet quit;
  quit.type = sim::PacketType::kCbtQuit;
  quit.group = group;
  quit.src = at;
  net().send_link(at, up, quit);
}

void Cbt::handle_quit(graph::NodeId at, const sim::Packet& pkt,
                      graph::NodeId from) {
  SCMP_EXPECTS(from != graph::kInvalidNode);
  Entry* e = entry(at, pkt.group);
  if (e == nullptr) return;
  e->downstream.erase(from);
  maybe_quit(at, pkt.group);
}

void Cbt::audit_state(std::vector<std::string>& violations) const {
  const int n = net().graph().num_nodes();
  auto note = [&](GroupId group, const std::string& what) {
    violations.push_back("CBT g" + std::to_string(group) + ": " + what);
  };
  for (const auto& [group, core] : cores_) {
    if (core_failed(group)) continue;
    for (graph::NodeId v = 0; v < n; ++v) {
      const Entry* e = entry(v, group);
      if (e == nullptr) {
        if (router_is_member(v, group) && v != core)
          note(group, "member router " + std::to_string(v) + " is off-tree");
        continue;
      }
      if (v != core && e->upstream == graph::kInvalidNode) {
        note(group, "router " + std::to_string(v) + " has no upstream");
      } else if (v != core) {
        const Entry* up = entry(e->upstream, group);
        if (up == nullptr || !up->downstream.contains(v))
          note(group, "upstream " + std::to_string(e->upstream) +
                          " does not list " + std::to_string(v) +
                          " as downstream");
      }
      for (graph::NodeId d : e->downstream) {
        const Entry* down = entry(d, group);
        if (down == nullptr || down->upstream != v)
          note(group, "downstream " + std::to_string(d) + " of " +
                          std::to_string(v) + " lacks the reverse edge");
      }
      if (e->downstream.empty() && v != core && !router_is_member(v, group))
        note(group, "memberless leaf state at " + std::to_string(v));
      // Acyclicity: the upstream chain must reach the core within n hops.
      graph::NodeId walk = v;
      int hops = 0;
      while (walk != core && walk != graph::kInvalidNode && hops <= n) {
        const Entry* w = entry(walk, group);
        walk = w == nullptr ? graph::kInvalidNode : w->upstream;
        ++hops;
      }
      if (hops > n)
        note(group,
             "upstream chain from " + std::to_string(v) + " never ends");
    }
  }
}

void Cbt::send_data(graph::NodeId source, GroupId group) {
  sim::Packet pkt = make_data_packet(source, group);
  if (on_tree(source, group)) {
    net().inject(source, std::move(pkt));
    return;
  }
  // Off-tree source: unicast-encapsulate toward the core (paper §I: packets
  // from sources outside the tree reach the core first).
  pkt.type = sim::PacketType::kDataEncap;
  pkt.dst = core_of(group);
  net().send_unicast(source, std::move(pkt));
}

void Cbt::handle_data(graph::NodeId at, const sim::Packet& pkt,
                      graph::NodeId from) {
  const GroupId group = pkt.group;
  sim::Packet data = pkt;

  if (pkt.type == sim::PacketType::kDataEncap) {
    // Only the core decapsulates.
    SCMP_ASSERT(at == core_of(group));
    data.type = sim::PacketType::kData;
    data.dst = graph::kInvalidNode;
    from = graph::kInvalidNode;  // treat as locally originated on the tree
  }

  const Entry* e = entry(at, group);
  if (e == nullptr) {
    // The core with no joined members yet, or a stray copy: deliver locally
    // if we are a member (core can be a member), otherwise drop.
    if (router_is_member(at, group)) deliver_locally(at, pkt);
    return;
  }

  // Bidirectional shared-tree forwarding: F = {upstream} ∪ downstream.
  std::vector<graph::NodeId> fset(e->downstream.begin(), e->downstream.end());
  if (e->upstream != graph::kInvalidNode) fset.push_back(e->upstream);

  if (from != graph::kInvalidNode &&
      std::find(fset.begin(), fset.end(), from) == fset.end()) {
    return;  // arrived from outside the tree: drop (paper's forwarding rule)
  }

  if (router_is_member(at, group)) deliver_locally(at, data);
  for (graph::NodeId next : fset) {
    if (next != from) net().send_link(at, next, data);
  }
}

}  // namespace scmp::proto
