#include "core/scmp.hpp"

#include <algorithm>
#include <iterator>
#include <ranges>
#include <span>

#include "core/tree_packet.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "util/log.hpp"

namespace scmp::core {

namespace {

/// SCMP control types that travel reliably when Config::reliability is on.
/// Exhaustive on purpose: adding a PacketType forces a decision here
/// (-Wswitch) about whether it participates in the reliability machinery.
bool is_scmp_control(sim::PacketType t) {
  switch (t) {
    case sim::PacketType::kJoin:
    case sim::PacketType::kLeave:
    case sim::PacketType::kTree:
    case sim::PacketType::kBranch:
    case sim::PacketType::kPrune:
    case sim::PacketType::kClear:
      return true;
    case sim::PacketType::kData:
    case sim::PacketType::kDataEncap:
    case sim::PacketType::kAck:
    case sim::PacketType::kCbtJoin:
    case sim::PacketType::kCbtAck:
    case sim::PacketType::kCbtQuit:
    case sim::PacketType::kDvmrpPrune:
    case sim::PacketType::kDvmrpGraft:
    case sim::PacketType::kPimJoin:
    case sim::PacketType::kPimPrune:
    case sim::PacketType::kGroupLsa:
    case sim::PacketType::kIgmpQuery:
    case sim::PacketType::kIgmpReport:
    case sim::PacketType::kIgmpLeave:
      return false;
  }
  return false;
}

/// The group whose installed state a control packet writes, if it is an
/// install (TREE, BRANCH, CLEAR): reconciliation defers that group until
/// the request is acked or abandoned.
std::optional<int> install_group(const sim::Packet& pkt) {
  const bool install = pkt.type == sim::PacketType::kTree ||
                       pkt.type == sim::PacketType::kBranch ||
                       pkt.type == sim::PacketType::kClear;
  return install ? std::optional<int>(pkt.group) : std::nullopt;
}

/// Whether `child` hangs under `parent` in `tree`. `child` may be any id an
/// installed entry lists, so its range is checked before the tree reads it.
bool hangs_under(const graph::MulticastTree& tree, graph::NodeId child,
                 graph::NodeId parent) {
  return child >= 0 && child < tree.num_nodes() && tree.on_tree(child) &&
         tree.parent(child) == parent;
}

// scmp.rx.dropped counters for the packets ordinary races make the i-router
// handlers drop. Each is looked up once: obs::counter() takes the registry
// lock on every call.

/// An install older than the entry it would overwrite.
obs::Counter& stale_install_drops() {
  static obs::Counter& c = obs::counter("scmp.rx.dropped", "stale_install");
  return c;
}
/// An install older than the CLEAR that removed its entry.
obs::Counter& tombstoned_drops() {
  static obs::Counter& c = obs::counter("scmp.rx.dropped", "tombstoned");
  return c;
}
/// A PRUNE or detaching CLEAR for an entry the router does not hold.
obs::Counter& no_entry_drops() {
  static obs::Counter& c = obs::counter("scmp.rx.dropped", "no_entry");
  return c;
}

}  // namespace

Scmp::Scmp(sim::Network& net, igmp::IgmpDomain& igmp, Config cfg)
    : MulticastProtocol(net, igmp),
      cfg_(cfg),
      entries_(net.graph().num_nodes()),
      retx_(net.queue(), cfg.reliability) {
  SCMP_EXPECTS(cfg.epoch_interval >= 0.0);
  mrouters_ = cfg.mrouters.empty()
                  ? std::vector<graph::NodeId>{cfg.mrouter}
                  : cfg.mrouters;
  for (graph::NodeId m : mrouters_) SCMP_EXPECTS(net.graph().valid(m));
  {
    auto sorted = mrouters_;
    std::sort(sorted.begin(), sorted.end());
    SCMP_EXPECTS(std::adjacent_find(sorted.begin(), sorted.end()) ==
                 sorted.end());
  }
  cleared_version_.resize(static_cast<std::size_t>(net.graph().num_nodes()));
  seen_req_.resize(static_cast<std::size_t>(net.graph().num_nodes()));
}

// ---------------------------------------------------------------------------
// Reliable control-plane delivery (acks + retransmission, src/core/retx.hpp).
// ---------------------------------------------------------------------------

void Scmp::send_control_link(graph::NodeId from, graph::NodeId to,
                             sim::Packet pkt) {
  if (!retx_.config().enabled) {
    net().send_link(from, to, std::move(pkt));
    return;
  }
  pkt.req = retx_.next_req();
  obs::flight_record(obs::FlightEventKind::kSend, net().now(), pkt.req,
                     sim::to_string(pkt.type), pkt.group, from, to);
  // Hop-by-hop ack: one round trip over the link itself.
  const double timeout =
      net().link_round_trip(from, to, pkt.size_bytes) + kRetxMargin;
  auto resend = [this, from, to, copy = pkt]() {
    net().send_link(from, to, copy);
  };
  static_assert(RetxTable::Resend::stores_inline<decltype(resend)>(),
                "link resend closure must fit kEventHandlerCapacity");
  retx_.arm(from, pkt.req, timeout, std::move(resend), install_group(pkt));
  net().send_link(from, to, std::move(pkt));
}

void Scmp::send_control_unicast(graph::NodeId from, sim::Packet pkt) {
  if (!retx_.config().enabled) {
    net().send_unicast(from, std::move(pkt));
    return;
  }
  pkt.req = retx_.next_req();
  obs::flight_record(obs::FlightEventKind::kSend, net().now(), pkt.req,
                     sim::to_string(pkt.type), pkt.group, from, pkt.dst);
  // The receiver acknowledges unicast control end to end, to pkt.src (see
  // send_ack), so the request is tracked there, and its round trip runs
  // from -> dst -> src. That is `from` itself, except when a stale m-router
  // re-sends a requester's packet (redirect).
  const double timeout =
      net().unicast_round_trip(from, pkt.dst, pkt.src, pkt.size_bytes) +
      kRetxMargin;
  auto resend = [this, from, copy = pkt]() { net().send_unicast(from, copy); };
  static_assert(RetxTable::Resend::stores_inline<decltype(resend)>(),
                "unicast resend closure must fit kEventHandlerCapacity");
  retx_.arm(pkt.src, pkt.req, timeout, std::move(resend), install_group(pkt));
  net().send_unicast(from, std::move(pkt));
}

void Scmp::redirect_to_mrouter(graph::NodeId at, const sim::Packet& pkt) {
  // A JOIN, LEAVE or encapsulated data packet that reached a router no
  // longer anchoring its group: a failover happened while it was in flight.
  // The stale anchor forwards it to the group's current m-router.
  obs::counter("scmp.rx.redirected", sim::to_string(pkt.type)).inc();
  sim::Packet fwd = pkt;
  fwd.dst = mrouter_of(pkt.group);
  if (pkt.type == sim::PacketType::kDataEncap) {
    // protocol: fire-and-forget(data traffic is best-effort by design — the
    // paper's reliability machinery covers control packets only (DATA_ENCAP
    // redirected from a stale m-router).)
    net().send_unicast(at, std::move(fwd));
    return;
  }
  send_control_unicast(at, std::move(fwd));
}

void Scmp::drop_malformed(graph::NodeId at, const sim::Packet& pkt,
                          const char* reason) {
  obs::counter("scmp.rx.dropped", reason).inc();
  log_debug("scmp: router ", at, " dropped ", sim::to_string(pkt.type),
            " packet for g", pkt.group, ": ", reason);
}

void Scmp::send_ack(graph::NodeId at, const sim::Packet& pkt,
                    graph::NodeId from) {
  sim::Packet ack;
  ack.type = sim::PacketType::kAck;
  ack.group = pkt.group;
  ack.src = at;
  ack.req = pkt.req;
  switch (pkt.type) {
    case sim::PacketType::kTree:
    case sim::PacketType::kBranch:
    case sim::PacketType::kPrune:
      // Link-delivered control is acknowledged hop-by-hop: the retransmitting
      // endpoint is the neighbour that put the packet on this link.
      SCMP_ASSERT(from != graph::kInvalidNode);
      ack.dst = from;
      // protocol: fire-and-forget(acks terminate the reliability handshake —
      // retransmitting an ACK reliably would itself need ACKs; a lost ack is
      // repaired by the sender's retry of the original request (hop-by-hop
      // ack).)
      net().send_link(at, from, std::move(ack));
      break;
    case sim::PacketType::kJoin:
    case sim::PacketType::kLeave:
    case sim::PacketType::kClear:
      // JOIN / LEAVE / CLEAR travel by unicast; the originator is pkt.src.
      SCMP_ASSERT(pkt.src != graph::kInvalidNode);
      ack.dst = pkt.src;
      // protocol: fire-and-forget(acks terminate the reliability handshake —
      // retransmitting an ACK reliably would itself need ACKs; a lost ack is
      // repaired by the sender's retry of the original request (end-to-end
      // ack).)
      net().send_unicast(at, std::move(ack));
      break;
    default:
      // Acknowledgements exist only for the SCMP control grammar; asking for
      // one on any other type is a programming error, not network input.
      SCMP_ASSERT(false && "ack requested for a non-control packet type");
      break;
  }
}

graph::NodeId Scmp::mrouter_of(GroupId group) const {
  // The published group -> m-router mapping every DR knows (§II-A): a static
  // function of the group id over the configured m-router set.
  const auto idx = static_cast<std::size_t>(group) % mrouters_.size();
  return mrouters_[idx];
}

DcdmTree& Scmp::tree_for(GroupId group) {
  auto it = trees_.find(group);
  if (it == trees_.end()) {
    it = trees_
             .emplace(group, DcdmTree(net().graph(), net().paths(),
                                      mrouter_of(group), cfg_.dcdm))
             .first;
  }
  return it->second;
}

const DcdmTree* Scmp::group_tree(GroupId group) const {
  const auto it = trees_.find(group);
  return it == trees_.end() ? nullptr : &it->second;
}

std::vector<GroupId> Scmp::active_groups() const {
  std::vector<GroupId> out;
  out.reserve(trees_.size());
  for (const auto& [group, tree] : trees_) out.push_back(group);
  return out;
}

std::vector<GroupId> Scmp::groups_with_installed_state() const {
  return entries_.groups();
}

std::set<graph::NodeId> Scmp::senders_of(GroupId group) const {
  const auto it = senders_.find(group);
  return it == senders_.end() ? std::set<graph::NodeId>{} : it->second;
}

Scmp::Entry* Scmp::mutable_entry_at(graph::NodeId router, GroupId group) {
  return entries_.find(router, group);
}

const Scmp::Entry* Scmp::entry_at(graph::NodeId router, GroupId group) const {
  return entries_.find(router, group);
}

std::size_t Scmp::EntryTable::index_of(GroupId group) const {
  const auto it = std::lower_bound(groups_.begin(), groups_.end(), group);
  return it != groups_.end() && *it == group
             ? static_cast<std::size_t>(it - groups_.begin())
             : groups_.size();
}

const Scmp::Entry* Scmp::EntryTable::find(GroupId group) const {
  const std::size_t i = index_of(group);
  return i == groups_.size() ? nullptr : &entries_[i];
}

Scmp::Entry* Scmp::EntryTable::find(GroupId group) {
  const std::size_t i = index_of(group);
  return i == groups_.size() ? nullptr : &entries_[i];
}

std::pair<Scmp::Entry*, bool> Scmp::EntryTable::get(GroupId group) {
  const auto it = std::lower_bound(groups_.begin(), groups_.end(), group);
  const auto i = it - groups_.begin();
  const bool create = it == groups_.end() || *it != group;
  if (create) {
    groups_.insert(it, group);
    entries_.emplace(entries_.begin() + i);
  }
  return {&entries_[static_cast<std::size_t>(i)], create};
}

bool Scmp::EntryTable::erase(GroupId group) {
  const std::size_t i = index_of(group);
  if (i == groups_.size()) return false;
  const auto at = static_cast<std::ptrdiff_t>(i);
  groups_.erase(groups_.begin() + at);
  entries_.erase(entries_.begin() + at);
  return true;
}

Scmp::Entry& Scmp::EntryStore::get(graph::NodeId router, GroupId group) {
  const auto [entry, created] =
      tables_[static_cast<std::size_t>(router)].get(group);
  if (created) {
    std::vector<graph::NodeId>& routers = holders_[group];
    routers.insert(std::upper_bound(routers.begin(), routers.end(), router),
                   router);
  }
  return *entry;
}

void Scmp::EntryStore::erase(graph::NodeId router, GroupId group) {
  if (!tables_[static_cast<std::size_t>(router)].erase(group)) return;
  const auto it = holders_.find(group);
  std::vector<graph::NodeId>& routers = it->second;
  routers.erase(std::lower_bound(routers.begin(), routers.end(), router));
  if (routers.empty()) holders_.erase(it);
}

const std::vector<graph::NodeId>& Scmp::EntryStore::holders(
    GroupId group) const {
  static const std::vector<graph::NodeId> kNone;
  const auto it = holders_.find(group);
  return it == holders_.end() ? kNone : it->second;
}

std::vector<GroupId> Scmp::EntryStore::groups() const {
  std::vector<GroupId> out;
  out.reserve(holders_.size());
  for (const auto& [group, routers] : holders_) out.push_back(group);
  return out;
}

// ---------------------------------------------------------------------------
// Designated-router side (paper §III-B/§III-C pseudo-code).
// ---------------------------------------------------------------------------

void Scmp::interface_joined(graph::NodeId router, GroupId group,
                            int /*iface*/, bool first_iface) {
  // Only a router's first member interface joins it to the group; a later
  // one is subnet-local (IGMP records it) and would only bill the same
  // membership twice. A lost first JOIN is recovered by retransmission and
  // reconciliation.
  if (!first_iface) return;
  // The convergence clock starts at the membership event itself, so the
  // measured time covers request loss, retransmission and repair latency.
  if (convergence_ != nullptr) convergence_->note_event(group);
  const graph::NodeId root = mrouter_of(group);
  if (router == root) {
    mrouter_handle_join(group, root, 0);
    // No packet will flow for a root-local join; resolve the measurement now.
    check_convergence(group);
    return;
  }
  // A relay already on the tree still sends the JOIN: its tree does not
  // change, but the m-router needs it for accounting and billing (paper
  // §III-B).
  send_join(router, group);
}

void Scmp::interface_left(graph::NodeId router, GroupId group, int /*iface*/,
                          bool last_iface) {
  if (!last_iface) return;  // other interfaces keep the DR a member
  if (convergence_ != nullptr) convergence_->note_event(group);
  const graph::NodeId root = mrouter_of(group);
  if (router == root) {
    mrouter_handle_leave(group, root);
    check_convergence(group);
    return;
  }
  send_leave(router, group);
}

void Scmp::send_join(graph::NodeId router, GroupId group) {
  sim::Packet join;
  join.type = sim::PacketType::kJoin;
  join.group = group;
  join.src = router;
  join.dst = mrouter_of(group);
  send_control_unicast(router, std::move(join));
}

void Scmp::send_leave(graph::NodeId router, GroupId group) {
  const Entry* e = entry_at(router, group);
  // A DR that is now a leaf prunes upstream first (paper §III-C); one that
  // still relays to downstream routers, or whose entry has not been
  // installed yet, only sends the LEAVE.
  if (e != nullptr && e->downstream_routers.empty())
    prune_upstream(router, group);
  sim::Packet leave;
  leave.type = sim::PacketType::kLeave;
  leave.group = group;
  leave.src = router;
  leave.dst = mrouter_of(group);
  send_control_unicast(router, std::move(leave));
}

void Scmp::prune_upstream(graph::NodeId at, GroupId group) {
  const Entry* e = entry_at(at, group);
  SCMP_EXPECTS(e != nullptr);
  const graph::NodeId up = e->upstream;
  entries_.erase(at, group);
  if (up == graph::kInvalidNode) return;
  sim::Packet prune;
  prune.type = sim::PacketType::kPrune;
  prune.group = group;
  prune.src = at;
  send_control_link(at, up, std::move(prune));
}

// ---------------------------------------------------------------------------
// m-router side (paper §III-D/§III-E).
// ---------------------------------------------------------------------------

void Scmp::mrouter_handle_join(GroupId group, graph::NodeId requester,
                               std::uint64_t req) {
  // The span covers the m-router's whole JOIN turnaround: DCDM admission,
  // diffing, and handing the install packets to the network.
  OBS_SPAN("scmp.join");
  static obs::Counter& joins = obs::counter("scmp.joins");
  joins.inc();
  const double now = net().now();
  obs::flight_record(obs::FlightEventKind::kHandle, now, req, "JOIN", group,
                     requester, mrouter_of(group));
  db_.start_session(group, now);
  db_.record_join(group, requester, now);

  if (epoch_enabled()) {
    // Batched mode: the database record above keeps billing and session
    // semantics identical, but the tree work is deferred to the epoch
    // close, which replays the group's net-resolved delta.
    epoch_enqueue(group);
    return;
  }

  const JoinResult res = tree_for(group).join(requester);
  obs::flight_record(obs::FlightEventKind::kCompute, now, req, "DCDM", group,
                     requester, mrouter_of(group));
  if (!res.is_new_member || res.already_on_tree) return;  // no topology change

  const std::uint64_t version = next_install_version(group);
  if (cfg_.always_full_tree) {
    install_full_tree(group, res.removed_nodes, version);
    return;
  }
  // A loop-eliminating join installs as a minimal diff: routers that fell
  // off the tree drop their entries, and surviving routers that lost a
  // child (the re-parented node or a pruned chain head) detach it. Child
  // *additions* all lie on the new branch, which the BRANCH packet
  // installs, including the re-parented node's new upstream.
  for (graph::NodeId r : res.removed_nodes) send_clear(group, r, {}, version);
  for (const auto& [router, child] : res.detached)
    send_clear(group, router, {child}, version);
  install_branch(group, requester, version);
}

void Scmp::send_clear(GroupId group, graph::NodeId target,
                      std::vector<graph::NodeId> detach,
                      std::uint64_t version) {
  const graph::NodeId root = mrouter_of(group);
  if (target == root) return;  // the anchor holds no Entry for its group
  sim::Packet clear;
  clear.type = sim::PacketType::kClear;
  clear.group = group;
  clear.src = root;
  clear.dst = target;
  clear.uid = version;
  clear.path = std::move(detach);  // empty = drop entry, else detach children
  send_control_unicast(root, std::move(clear));
}

void Scmp::set_session_idle_expiry(double idle_seconds) {
  SCMP_EXPECTS(idle_seconds >= 0.0);
  session_idle_expiry_ = idle_seconds;
}

void Scmp::mrouter_handle_leave(GroupId group, graph::NodeId requester) {
  if (!db_.session_active(group)) {
    // A LEAVE that outlived its session (end_group_session, or idle expiry,
    // overtook it) has no membership to end and no tree to prune.
    static obs::Counter& dropped =
        obs::counter("scmp.rx.dropped", "no_session");
    dropped.inc();
    log_debug("scmp: m-router dropped LEAVE of router ", requester, " for g",
              group, ": no_session");
    return;
  }
  OBS_SPAN("scmp.leave");
  static obs::Counter& leaves = obs::counter("scmp.leaves");
  leaves.inc();
  obs::flight_record(obs::FlightEventKind::kHandle, net().now(),
                     obs::current_cause(), "LEAVE", group, requester,
                     mrouter_of(group));
  db_.record_leave(group, requester, net().now());
  if (epoch_enabled()) {
    epoch_enqueue(group, requester);
  } else {
    tree_for(group).leave(requester);
  }
  // The physical prune travels hop-by-hop from the leaving DR (§III-C); the
  // m-router only updates its authoritative copy.

  // Session lifecycle policy (§II-C): an abandoned session expires after the
  // configured idle time unless someone rejoins in the meantime.
  if (session_idle_expiry_ > 0.0 && db_.members_of(group).empty()) {
    const double emptied_at = net().now();
    net().queue().schedule_in(session_idle_expiry_, [this, group,
                                                     emptied_at]() {
      if (!db_.session_active(group)) return;
      if (!db_.members_of(group).empty()) return;  // someone rejoined
      // Still empty: confirm no membership event happened since.
      const std::optional<double> changed = db_.last_membership_change(group);
      if (changed.has_value() && *changed > emptied_at) return;
      end_group_session(group);
    });
  }
}

void Scmp::install_branch(GroupId group, graph::NodeId member,
                          std::uint64_t version) {
  OBS_SPAN("scmp.install.branch");
  const graph::MulticastTree& tree = tree_for(group).tree();
  SCMP_EXPECTS(tree.on_tree(member));
  const std::vector<graph::NodeId> path = tree.path_from_root(member);
  if (path.size() < 2) return;  // member is the anchoring m-router itself
  static obs::Counter& installs = obs::counter("scmp.installs.branch");
  installs.inc();

  sim::Packet branch;
  branch.type = sim::PacketType::kBranch;
  branch.group = group;
  branch.src = path.front();
  branch.uid = version;
  branch.path = path;
  branch.size_bytes = sim::kControlPacketBytes + 4 * path.size();
  send_control_link(path.front(), path[1], std::move(branch));
}

void Scmp::install_full_tree(GroupId group,
                             const std::vector<graph::NodeId>& removed,
                             std::uint64_t version) {
  OBS_SPAN("scmp.install.tree");
  static obs::Counter& installs = obs::counter("scmp.installs.tree");
  installs.inc();
  const graph::MulticastTree& tree = tree_for(group).tree();
  const graph::NodeId root = mrouter_of(group);

  // Routers that fell off the tree drop their entries.
  for (graph::NodeId r : removed) {
    SCMP_ASSERT(!tree.on_tree(r));
    send_clear(group, r, {}, version);
  }

  // One self-routing TREE packet per subtree hanging off the root (§III-E).
  for (graph::NodeId child : tree.children(root)) {
    const TreeWords words = encode_subtree(tree, child);
    sim::Packet tp;
    tp.type = sim::PacketType::kTree;
    tp.group = group;
    tp.src = root;
    tp.uid = version;
    tp.payload = to_bytes(words);
    tp.size_bytes = sim::kControlPacketBytes + tp.payload.size();
    send_control_link(root, child, std::move(tp));
  }
}

void Scmp::end_group_session(GroupId group) {
  const auto it = trees_.find(group);
  if (it == trees_.end()) return;
  if (convergence_ != nullptr) convergence_->note_event(group);
  const std::uint64_t version = next_install_version(group);
  // send_clear skips the root, which holds no Entry for its own group.
  for (graph::NodeId v : it->second.tree().on_tree_nodes())
    send_clear(group, v, {}, version);
  senders_.erase(group);
  trees_.erase(it);
  if (db_.session_active(group)) db_.end_session(group, net().now());
}

// ---------------------------------------------------------------------------
// Soft-state reconciliation (the control-plane analogue of the IGMP query
// cycle): the m-router diffs per-group state digests against the domain's
// ground truth and repairs divergence left behind by lost control packets —
// including requests the retransmission budget abandoned.
// ---------------------------------------------------------------------------

int Scmp::resolicit_membership() {
  static obs::Counter& resolicits = obs::counter("scmp.reconcile.resolicits");
  int count = 0;
  // One sweep of the IGMP ground truth: each group's member routers.
  const auto members_by_group = igmp().member_routers_by_group();
  std::vector<GroupId> groups;
  std::ranges::set_union(std::views::keys(members_by_group), active_groups(),
                         std::back_inserter(groups));
  for (GroupId g : groups) {
    const auto found = members_by_group.find(g);
    std::span<const graph::NodeId> actual;  // ascending
    if (found != members_by_group.end()) actual = found->second;
    const std::set<graph::NodeId>& live = db_.members_of(g);
    if (std::equal(actual.begin(), actual.end(), live.begin(), live.end()))
      continue;
    const graph::NodeId root = mrouter_of(g);
    // Copy: the m-router-local transitions below mutate the live set.
    const std::set<graph::NodeId> recorded = live;

    for (graph::NodeId r : actual) {
      if (recorded.contains(r)) continue;
      // The DR's JOIN never registered (lost, or its retries ran out): the
      // soft-state probe makes it re-report its membership.
      ++count;
      if (r == root) {
        mrouter_handle_join(g, root, 0);
        continue;
      }
      send_join(r, g);
    }
    for (graph::NodeId r : recorded) {
      if (std::binary_search(actual.begin(), actual.end(), r)) continue;
      // The DR's LEAVE never registered: it re-announces its departure.
      ++count;
      if (r == root) {
        mrouter_handle_leave(g, root);
        continue;
      }
      send_leave(r, g);  // a stale leaf redoes the whole exit
    }
  }
  resolicits.inc(static_cast<std::uint64_t>(count));
  return count;
}

template <typename Report>
std::size_t Scmp::diff_installed(GroupId group, Report&& report) const {
  const auto it = trees_.find(group);
  const graph::MulticastTree* tree =
      it == trees_.end() ? nullptr : &it->second.tree();
  const graph::NodeId root = mrouter_of(group);
  constexpr graph::NodeId kNone = graph::kInvalidNode;
  std::size_t checked = 0;
  // Orphans: the holders at the anchor or off the tree. Every other holder
  // is on the tree, where the walk below judges it.
  for (graph::NodeId v : entries_.holders(group)) {
    if (tree != nullptr && v != root && tree->on_tree(v)) continue;
    ++checked;
    if (!report(v, Drift::kOrphaned, kNone)) return checked;
  }
  if (tree == nullptr) return checked;
  tree->walk_subtree(root, [&](graph::NodeId v) {
    if (v == root) return true;
    ++checked;
    // The edge p -> v is installed when v's entry names p upstream and p's
    // entry lists v; the anchor forwards from the tree itself. A child c
    // that p's entry misses is reported here, at c.
    const graph::NodeId p = tree->parent(v);
    const Entry* e = entry_at(v, group);
    const Entry* pe = p == root ? nullptr : entry_at(p, group);
    const bool installed =
        e != nullptr && e->upstream == p &&
        (p == root || (pe != nullptr && pe->downstream_routers.contains(v)));
    if (!installed && !report(v, Drift::kMissingEdge, kNone)) return false;
    if (e == nullptr) return true;
    for (graph::NodeId c : e->downstream_routers) {
      if (!hangs_under(*tree, c, v) && !report(v, Drift::kExtraChild, c))
        return false;
    }
    return true;
  });
  return checked;
}

int Scmp::repair_installed_state() {
  static obs::Counter& repair_counter = obs::counter("scmp.reconcile.repairs");
  static obs::Counter& deferred_counter =
      obs::counter("scmp.reconcile.deferred");
  static obs::Counter& checked_counter =
      obs::counter("scmp.reconcile.routers_checked");
  int repairs = 0;
  int deferred = 0;
  std::size_t checked = 0;
  // Candidates: every live session plus every group some i-router still
  // holds an entry for (orphans of an ended or restructured session).
  std::vector<GroupId> groups;
  std::ranges::set_union(active_groups(), groups_with_installed_state(),
                         std::back_inserter(groups));

  for (GroupId g : groups) {
    if (retx_.install_in_flight(g)) {
      // An install of this group is still unacked: its routers' digests are
      // mid-change, and a repair now would race it — re-sending BRANCHes to
      // routers the install has not reached yet. A later pass judges the
      // settled state.
      ++deferred;
      continue;
    }
    // Digest diff against the authoritative tree.
    std::vector<graph::NodeId> orphaned;  // entry but off-tree: drop it
    std::map<graph::NodeId, std::vector<graph::NodeId>> extra_children;
    std::vector<graph::NodeId> missing;  // tree edge not installed, preorder
    checked += diff_installed(
        g, [&](graph::NodeId v, Drift drift, graph::NodeId child) {
          switch (drift) {
            case Drift::kOrphaned: orphaned.push_back(v); break;
            case Drift::kExtraChild: extra_children[v].push_back(child); break;
            case Drift::kMissingEdge: missing.push_back(v); break;
          }
          return true;
        });
    if (orphaned.empty() && extra_children.empty() && missing.empty())
      continue;
    const graph::NodeId root = mrouter_of(g);

    // One install operation per group per pass versions every repair.
    const std::uint64_t version = next_install_version(g);
    const double now = net().now();
    for (graph::NodeId v : orphaned) {
      obs::flight_record(obs::FlightEventKind::kRepair, now, 0, "clear", g,
                         root, v);
      send_clear(g, v, {}, version);
      ++repairs;
    }
    for (auto& [v, extras] : extra_children) {
      obs::flight_record(obs::FlightEventKind::kRepair, now, 0, "detach", g,
                         root, v);
      send_clear(g, v, std::move(extras), version);
      ++repairs;
    }
    // Each BRANCH rewrites upstream + downstream of every hop en route and
    // terminates at a member DR, so it can never trigger the terminal-relay
    // prune cascade a truncated reinstall could.
    for (graph::NodeId m : branch_cover(g, missing)) {
      obs::flight_record(obs::FlightEventKind::kRepair, now, 0, "branch", g,
                         root, m);
      install_branch(g, m, version);
      ++repairs;
    }
  }
  repair_counter.inc(static_cast<std::uint64_t>(repairs));
  deferred_counter.inc(static_cast<std::uint64_t>(deferred));
  checked_counter.inc(checked);
  return repairs + deferred;
}

int Scmp::reconcile_all() {
  OBS_SPAN("scmp.reconcile");
  const int resolicited = resolicit_membership();
  const int repaired = repair_installed_state();
  // A clean pass (nothing to repair) is the moment a group whose install
  // packets were all lost finally proves consistent: resolve pending
  // convergence measurements that no packet arrival will ever check.
  if (convergence_ != nullptr) {
    for (GroupId g : convergence_->pending_groups()) check_convergence(g);
  }
  return resolicited + repaired;
}

void Scmp::enable_convergence_tracking() {
  convergence_ =
      std::make_unique<proto::ConvergenceTracker>(net().queue(), name());
}

void Scmp::check_convergence(GroupId group) {
  if (convergence_ == nullptr || !convergence_->is_pending(group)) return;
  convergence_->check(group, network_state_consistent(group));
}

void Scmp::start_reconciliation(double interval, double horizon) {
  SCMP_EXPECTS(interval > 0.0);
  // Mirrors igmp::IgmpDomain::start_query_cycle: one tick per interval until
  // the horizon passes.
  if (net().now() + interval > horizon) return;
  net().queue().schedule_in(interval, [this, interval, horizon]() {
    static obs::Counter& cycles = obs::counter("scmp.reconcile.cycles");
    cycles.inc();
    reconcile_all();
    start_reconciliation(interval, horizon);
  });
}

// ---------------------------------------------------------------------------
// Epoch-batched membership pipeline: a flash crowd of JOIN/LEAVE arrivals is
// coalesced per epoch and net-resolved per group; the close replays only the
// net delta through DCDM (a member that joined and left inside the epoch
// costs nothing) and installs only the resulting tree diff, with one
// install version per group.
// ---------------------------------------------------------------------------

void Scmp::epoch_enqueue(GroupId group, graph::NodeId left) {
  static obs::Counter& deferred = obs::counter("scmp.epoch.deferred");
  deferred.inc();
  std::set<graph::NodeId>& leaves = epoch_touched_[group];
  if (left != graph::kInvalidNode) leaves.insert(left);
  if (epoch_flush_scheduled_) return;
  // One-shot close, scheduled only while work is pending: the event queue
  // stays drainable (a periodic tick would never let run_all terminate), and
  // a drained queue implies every deferred membership change was flushed.
  epoch_flush_scheduled_ = true;
  net().queue().schedule_in(cfg_.epoch_interval, [this]() { flush_epoch(); });
}

void Scmp::flush_epoch() {
  OBS_SPAN("scmp.epoch.flush");
  static obs::Counter& flushes = obs::counter("scmp.epoch.flushes");
  static obs::Counter& recomputes = obs::counter("scmp.epoch.recomputes");
  static obs::Counter& coalesced = obs::counter("scmp.epoch.coalesced");
  epoch_flush_scheduled_ = false;
  if (epoch_touched_.empty()) return;
  flushes.inc();
  std::map<GroupId, std::set<graph::NodeId>> batch;
  batch.swap(epoch_touched_);  // arrivals after this instant open a new epoch
  // std::map iteration = ascending group order, whatever the arrival
  // interleaving.
  for (const auto& [group, left] : batch) {
    if (!db_.session_active(group) && !trees_.contains(group))
      continue;  // session ended mid-epoch (idle expiry raced the close)
    if (replay_delta(group, left)) {
      recomputes.inc();
    } else {
      coalesced.inc();
    }
  }
}

bool Scmp::replay_delta(GroupId group, const std::set<graph::NodeId>& left) {
  DcdmTree& dcdm = tree_for(group);
  const graph::MulticastTree& tree = dcdm.tree();
  const std::set<graph::NodeId>& want = db_.members_of(group);
  // Net resolution: a member that joined and left within the epoch is in
  // neither the tree nor the database and costs nothing. A member whose
  // LEAVE arrived leaves the tree even when it rejoined: its DR's PRUNE
  // erased the installed path, so the rejoin must graft and install anew.
  std::vector<graph::NodeId> leaving;
  for (graph::NodeId m : tree.members()) {
    if (!want.contains(m) || left.contains(m)) leaving.push_back(m);
  }
  const bool grows = std::any_of(
      want.begin(), want.end(),
      [&](graph::NodeId m) { return !tree.is_member(m); });
  if (leaving.empty() && !grows) return false;
  if (convergence_ != nullptr) convergence_->note_event(group);

  // The tree before the replay as (router, child) edges in detach-CLEAR
  // order: routers ascending, then each router's child order.
  const graph::NodeId n = tree.num_nodes();
  std::vector<std::pair<graph::NodeId, graph::NodeId>> old_edges;
  old_edges.reserve(static_cast<std::size_t>(tree.tree_size()));
  for (graph::NodeId w = 0; w < n; ++w) {
    if (!tree.on_tree(w)) continue;
    for (graph::NodeId c : tree.children(w)) old_edges.emplace_back(w, c);
  }
  // Per node, the parent whose installed edge to it is still intact: its
  // old tree parent, unless a leave pruned it — the DR's PRUNE cascade
  // already erased that router's entry, even if a join grafts it back.
  std::vector<graph::NodeId> intact_parent(static_cast<std::size_t>(n),
                                           graph::kInvalidNode);
  for (const auto& [w, c] : old_edges)
    intact_parent[static_cast<std::size_t>(c)] = w;

  // The replay: leaves first, then the missing members in ascending order.
  for (graph::NodeId m : leaving) {
    for (graph::NodeId v : dcdm.leave(m).removed_nodes)
      intact_parent[static_cast<std::size_t>(v)] = graph::kInvalidNode;
  }
  for (graph::NodeId m : want) {
    if (!tree.is_member(m)) dcdm.join(m);
  }

  // Install the diff. Every packet below touches its own (router, child)
  // pairs, so one version serves them all in any arrival order.
  const std::uint64_t version = next_install_version(group);
  std::vector<graph::NodeId> removed;
  for (const auto& [w, c] : old_edges) {
    if (!tree.on_tree(c)) removed.push_back(c);
  }
  std::sort(removed.begin(), removed.end());
  for (graph::NodeId r : removed) send_clear(group, r, {}, version);
  for (std::size_t i = 0; i < old_edges.size();) {
    const graph::NodeId w = old_edges[i].first;
    std::vector<graph::NodeId> lost;
    for (; i < old_edges.size() && old_edges[i].first == w; ++i) {
      const graph::NodeId c = old_edges[i].second;
      if (tree.on_tree(w) && (!tree.on_tree(c) || tree.parent(c) != w))
        lost.push_back(c);
    }
    if (!lost.empty()) send_clear(group, w, std::move(lost), version);
  }
  // A BRANCH across every new, re-parented or regrafted edge: the routers
  // whose intact parent is not their tree parent (the root has neither, so
  // it is never listed). Every non-root leaf is a member, and the database
  // members are now the tree's, so each listed router has one below it.
  std::vector<graph::NodeId> made;
  tree.walk_subtree(tree.root(), [&](graph::NodeId v) {
    if (intact_parent[static_cast<std::size_t>(v)] != tree.parent(v))
      made.push_back(v);
    return true;
  });
  for (graph::NodeId m : branch_cover(group, made))
    install_branch(group, m, version);
  return true;
}

std::vector<graph::NodeId> Scmp::branch_cover(
    GroupId group, std::span<const graph::NodeId> routers) const {
  if (routers.empty()) return {};
  const graph::MulticastTree& tree = trees_.at(group).tree();
  const std::set<graph::NodeId>& members = db_.members_of(group);
  std::vector<char> crossed(static_cast<std::size_t>(tree.num_nodes()), 0);
  std::vector<graph::NodeId> out;
  for (graph::NodeId v : std::views::reverse(routers)) {
    if (crossed[static_cast<std::size_t>(v)]) continue;
    graph::NodeId below = graph::kInvalidNode;
    tree.walk_subtree(v, [&](graph::NodeId x) {
      if (members.contains(x)) below = x;
      return below == graph::kInvalidNode;
    });
    if (below == graph::kInvalidNode) continue;
    out.push_back(below);
    // The BRANCH crosses every router from the member up to the root; an
    // already crossed router's ancestors are crossed too.
    for (graph::NodeId x = below;
         x != tree.root() && !crossed[static_cast<std::size_t>(x)];
         x = tree.parent(x))
      crossed[static_cast<std::size_t>(x)] = 1;
  }
  return out;
}

void Scmp::rebuild_trees(const std::vector<GroupId>& groups) {
  OBS_SPAN("scmp.rebuild");
  static obs::Counter& rebuilt = obs::counter("scmp.rebuild.groups");
  rebuilt.inc(groups.size());
  if (convergence_ != nullptr) {
    for (GroupId group : groups) convergence_->note_event(group);
  }
  for (GroupId group : groups) {
    // A fresh tree from the membership database, joined in its ascending
    // member order.
    DcdmTree fresh(net().graph(), net().paths(), mrouter_of(group),
                   cfg_.dcdm);
    for (graph::NodeId member : db_.members_of(group)) fresh.join(member);
    DcdmTree& tree = trees_.at(group);
    // The old tree's routers the new tree drops lose their entries; the TREE
    // install overwrites every other one. The old root (a failed m-router)
    // held no Entry, and send_clear skips the new one.
    const graph::MulticastTree& old_tree = tree.tree();
    std::vector<graph::NodeId> dropped;
    for (graph::NodeId v : old_tree.on_tree_nodes()) {
      if (v != old_tree.root() && !fresh.tree().on_tree(v))
        dropped.push_back(v);
    }
    tree = std::move(fresh);
    install_full_tree(group, dropped, next_install_version(group));
  }
}

void Scmp::fail_over(graph::NodeId failed, graph::NodeId standby) {
  OBS_SPAN("scmp.failover");
  SCMP_EXPECTS(net().graph().valid(standby));
  if (failed == standby) return;
  const auto it = std::find(mrouters_.begin(), mrouters_.end(), failed);
  SCMP_EXPECTS(it != mrouters_.end());
  SCMP_EXPECTS(std::find(mrouters_.begin(), mrouters_.end(), standby) ==
               mrouters_.end());
  *it = standby;  // the published mapping now points at the standby

  // Groups anchored at the failed m-router get rebuilt at the standby.
  std::vector<GroupId> affected;
  for (const auto& [group, tree] : trees_) {
    if (mrouter_of(group) == standby) {
      affected.push_back(group);
      // The standby may have been an ordinary i-router relay for the group;
      // as its new root it forwards from the authoritative tree instead.
      entries_.erase(standby, group);
    }
  }
  rebuild_trees(affected);
}

std::vector<GroupId> Scmp::broken_trees(graph::NodeId u,
                                        graph::NodeId v) const {
  // A failed link shortens no path, so a tree whose edges all survive keeps
  // every member's delay and admitted bound: only a tree that hung a node
  // from {u, v} needs rebuilding. The auditor's tree-well-formed check
  // (validate: every parent edge exists) guards the premise.
  std::vector<GroupId> out;
  for (const auto& [group, dcdm] : trees_) {
    if (hangs_under(dcdm.tree(), u, v) || hangs_under(dcdm.tree(), v, u))
      out.push_back(group);
  }
  return out;
}

void Scmp::handle_link_event(graph::NodeId u, graph::NodeId v) {
  OBS_SPAN("scmp.link_event");
  // Network::fail_link is the only topology change the simulator makes, and
  // it has already repaired the path database the rebuild reads.
  SCMP_EXPECTS(!net().graph().has_edge(u, v));
  rebuild_trees(broken_trees(u, v));
}

// ---------------------------------------------------------------------------
// i-router side.
// ---------------------------------------------------------------------------

bool Scmp::install_is_current(graph::NodeId at,
                              const sim::Packet& pkt) const {
  // Never let an older install overwrite newer state or resurrect a cleared
  // entry. An entry is never older than its router's tombstone: only an
  // install no older than the tombstone creates one, and only the CLEAR
  // that erases an entry raises it.
  if (const Entry* e = entry_at(at, pkt.group)) {
    if (e->version <= pkt.uid) return true;
    stale_install_drops().inc();
    return false;
  }
  const auto& tombs = cleared_version_[static_cast<std::size_t>(at)];
  const auto tomb = tombs.find(pkt.group);
  if (tomb == tombs.end() || tomb->second <= pkt.uid) return true;
  tombstoned_drops().inc();
  return false;
}

void Scmp::ir_handle_tree(graph::NodeId at, const sim::Packet& pkt,
                          graph::NodeId from) {
  SCMP_EXPECTS(from != graph::kInvalidNode);
  if (!install_is_current(at, pkt)) return;
  if (pkt.payload.size() % 4 != 0) {  // not a whole number of words
    drop_malformed(at, pkt, "tree_length");
    return;
  }
  const TreeWords words = from_bytes(pkt.payload);
  if (!is_well_formed(words)) {
    drop_malformed(at, pkt, "tree_malformed");
    return;
  }

  Entry fresh;
  fresh.upstream = from;
  fresh.version = pkt.uid;

  for (const TreeChild& child : split_tree_packet(words)) {
    fresh.downstream_routers.insert(child.id);
    sim::Packet sub;
    sub.type = sim::PacketType::kTree;
    sub.group = pkt.group;
    sub.src = pkt.src;
    sub.uid = pkt.uid;  // the split keeps the install version
    sub.payload = to_bytes(child.subpacket);
    sub.size_bytes = sim::kControlPacketBytes + sub.payload.size();
    send_control_link(at, child.id, std::move(sub));
  }
  entries_.get(at, pkt.group) = std::move(fresh);
  obs::flight_record(obs::FlightEventKind::kInstalled, net().now(), pkt.req,
                     "TREE", pkt.group, from, at);
}

void Scmp::ir_handle_branch(graph::NodeId at, const sim::Packet& pkt,
                            graph::NodeId from) {
  SCMP_EXPECTS(from != graph::kInvalidNode);
  const auto& path = pkt.path;
  const auto pos = std::find(path.begin(), path.end(), at);
  if (pos == path.end()) {
    drop_malformed(at, pkt, "branch_off_path");
    return;
  }

  if (!install_is_current(at, pkt)) return;
  Entry& e = entries_.get(at, pkt.group);
  e.version = std::max(e.version, pkt.uid);
  // The BRANCH always arrives over this node's (possibly new, after a loop
  // elimination) tree edge toward the root, so the upstream is authoritative.
  e.upstream = from;
  if (pos + 1 != path.end()) {
    e.downstream_routers.insert(*(pos + 1));
    obs::flight_record(obs::FlightEventKind::kInstalled, net().now(), pkt.req,
                       "BRANCH", pkt.group, from, at);
    // Forwarded under a fresh request uid: each hop retransmits toward its
    // own next hop, so reliability is hop-by-hop like the delivery itself.
    send_control_link(at, *(pos + 1), pkt);
    return;
  }

  // Terminal hop: the new member's DR, whose marked interfaces IGMP holds.
  if (e.downstream_routers.empty() && !router_is_member(at, pkt.group)) {
    // The hosts already left while the BRANCH was in flight: undo.
    send_leave(at, pkt.group);
    return;
  }
  obs::flight_record(obs::FlightEventKind::kInstalled, net().now(), pkt.req,
                     "BRANCH", pkt.group, from, at);
}

void Scmp::ir_handle_prune(graph::NodeId at, const sim::Packet& pkt,
                           graph::NodeId from) {
  SCMP_EXPECTS(from != graph::kInvalidNode);
  if (at == mrouter_of(pkt.group)) {
    // The authoritative copy is updated by the LEAVE message; the PRUNE
    // reaching the root needs no further action.
    return;
  }
  Entry* e = mutable_entry_at(at, pkt.group);
  if (e == nullptr) {
    no_entry_drops().inc();
    return;
  }
  e->downstream_routers.erase(from);
  if (e->downstream_routers.empty() && !router_is_member(at, pkt.group)) {
    // Relay became a useless leaf; prune continues upstream (§III-C). No
    // LEAVE is sent: a pure relay never joined the group.
    prune_upstream(at, pkt.group);
  }
}

void Scmp::ir_handle_clear(graph::NodeId at, const sim::Packet& pkt) {
  Entry* e = mutable_entry_at(at, pkt.group);
  if (e != nullptr && e->version > pkt.uid) {  // overtaken CLEAR
    stale_install_drops().inc();
    return;
  }
  if (pkt.path.empty()) {
    entries_.erase(at, pkt.group);
    static obs::Gauge& tombs = obs::gauge("scmp.state.tombstones");
    const auto [tomb, fresh] =
        cleared_version_[static_cast<std::size_t>(at)].try_emplace(pkt.group,
                                                                   pkt.uid);
    tomb->second = std::max(tomb->second, pkt.uid);
    if (fresh) tombs.set(static_cast<double>(++tombstone_count_));
    return;
  }
  if (e == nullptr) {
    no_entry_drops().inc();
    return;
  }
  for (graph::NodeId child : pkt.path) e->downstream_routers.erase(child);
  e->version = std::max(e->version, pkt.uid);
}

// ---------------------------------------------------------------------------
// Data plane (paper §III-F).
// ---------------------------------------------------------------------------

void Scmp::send_data(graph::NodeId source, GroupId group) {
  sim::Packet pkt = make_data_packet(source, group);
  if (source == mrouter_of(group) ||
      mutable_entry_at(source, group) != nullptr) {
    // protocol: fire-and-forget(data traffic is best-effort by design — the
    // paper's reliability machinery covers control packets only (on-tree
    // DATA injection).)
    net().inject(source, std::move(pkt));
    return;
  }
  // Off-tree source: encapsulate in a unicast packet to the m-router.
  pkt.type = sim::PacketType::kDataEncap;
  pkt.dst = mrouter_of(group);
  // protocol: fire-and-forget(data traffic is best-effort by design — the
  // paper's reliability machinery covers control packets only (DATA_ENCAP
  // toward the m-router).)
  net().send_unicast(source, std::move(pkt));
}

void Scmp::forward_data(graph::NodeId at, const sim::Packet& pkt,
                        graph::NodeId from) {
  const graph::NodeId root = mrouter_of(pkt.group);
  const graph::MulticastTree* tree = nullptr;  // set at the anchor
  const Entry* e = nullptr;                    // set at an i-router
  if (at == root) {
    const auto it = trees_.find(pkt.group);
    if (it != trees_.end()) {
      tree = &it->second.tree();
      // Only a live session records senders: end_group_session is what
      // forgets them.
      if (pkt.src != graph::kInvalidNode) senders_[pkt.group].insert(pkt.src);
    }
    db_.record_data_forwarded(pkt.group, pkt.size_bytes);
  } else {
    e = entry_at(at, pkt.group);
    if (e == nullptr) {
      if (router_is_member(at, pkt.group)) deliver_locally(at, pkt);
      return;
    }
  }

  // The paper's forwarding rule: accept only from F = {upstream} ∪
  // downstream, forward to the rest of F. F is read in place: the anchor's
  // tree children, or the entry's downstream routers and then its upstream.
  if (from != graph::kInvalidNode) {
    bool in_f = false;
    if (e != nullptr) {
      in_f = from == e->upstream || e->downstream_routers.contains(from);
    } else if (tree != nullptr) {
      const auto& kids = tree->children(root);
      in_f = std::find(kids.begin(), kids.end(), from) != kids.end();
    }
    if (!in_f) return;
  }
  if (router_is_member(at, pkt.group)) deliver_locally(at, pkt);
  if (e == nullptr && tree == nullptr) return;  // an anchor with no session

  // At the anchoring m-router, the configured transit model (fabric stage
  // depth + scheduling) holds the packet before it leaves on the tree.
  const double transit =
      (tree != nullptr && transit_model_) ? transit_model_(pkt) : 0.0;
  if (transit > 0.0) {
    const auto& kids = tree->children(root);
    net().queue().schedule_in(
        transit,
        // hot-path: allow(the fabric holds the packet, so the fan-out is
        // copied as the tree stands now; the tree may change meanwhile)
        [this, at, from, fset = std::vector<graph::NodeId>(kids), p = pkt]() {
          for (graph::NodeId next : fset) {
            // protocol: fire-and-forget(data traffic is best-effort by
            // design — the paper's reliability machinery covers control
            // packets only (delayed on-tree DATA fan-out behind the fabric
            // transit model).)
            if (next != from) net().send_link(at, next, sim::Packet(p));
          }
        });
    return;
  }
  // Each branch gets its own copy. A DATA packet's path and payload are
  // empty, so the copy allocates nothing.
  const auto send = [this, at, from, &pkt](graph::NodeId next) {
    // protocol: fire-and-forget(data traffic is best-effort by design — the
    // paper's reliability machinery covers control packets only (on-tree
    // DATA fan-out).)
    if (next != from) net().send_link(at, next, sim::Packet(pkt));
  };
  if (tree != nullptr) {
    for (graph::NodeId next : tree->children(root)) send(next);
    return;
  }
  for (graph::NodeId next : e->downstream_routers) send(next);
  if (e->upstream != graph::kInvalidNode) send(e->upstream);
}

// ---------------------------------------------------------------------------
// Dispatch.
// ---------------------------------------------------------------------------

void Scmp::handle_packet(graph::NodeId at, const sim::Packet& pkt,
                         graph::NodeId from) {
  if (pkt.type == sim::PacketType::kAck) {
    retx_.ack(at, pkt.req);
    return;
  }
  // JOIN, LEAVE and CLEAR name their originator in pkt.src: the m-router
  // records and grafts it, and the end-to-end ack is unicast back to it. A
  // packet naming no router is discarded before any of that.
  const bool src_named = pkt.type == sim::PacketType::kJoin ||
                         pkt.type == sim::PacketType::kLeave ||
                         pkt.type == sim::PacketType::kClear;
  if (src_named && !net().graph().valid(pkt.src)) {
    drop_malformed(at, pkt, "bad_src");
    return;
  }
  if (pkt.req != 0 && is_scmp_control(pkt.type)) {
    // At-least-once delivery: every copy is (re-)acknowledged — the original
    // ack may have been lost — but only the first copy is processed.
    send_ack(at, pkt, from);
    // Ids arrive nearly in mint order, so the insert is almost always an
    // append.
    std::vector<std::uint64_t>& seen = seen_req_[static_cast<std::size_t>(at)];
    const auto pos = std::lower_bound(seen.begin(), seen.end(), pkt.req);
    if (pos != seen.end() && *pos == pkt.req) {
      static obs::Counter& dups = obs::counter("scmp.retx.duplicates");
      dups.inc();
      obs::flight_record(obs::FlightEventKind::kDuplicate, net().now(),
                         pkt.req, sim::to_string(pkt.type), pkt.group, from,
                         at);
      return;
    }
    seen.insert(pos, pkt.req);
    static obs::Gauge& seen_gauge = obs::gauge("scmp.state.seen_requests");
    seen_gauge.set(static_cast<double>(++seen_req_total_));
    obs::flight_record(obs::FlightEventKind::kRecv, net().now(), pkt.req,
                       sim::to_string(pkt.type), pkt.group, from, at);
  }
  // Causal scope: flight records appended while this packet is dispatched —
  // including records for new requests sent when forwarding — carry its
  // request id as their cause, chaining hops into one story.
  obs::FlightCause flight_scope(pkt.req);
  switch (pkt.type) {
    case sim::PacketType::kJoin:
      if (at != mrouter_of(pkt.group)) {
        redirect_to_mrouter(at, pkt);
        break;
      }
      mrouter_handle_join(pkt.group, pkt.src, pkt.req);
      break;
    case sim::PacketType::kLeave:
      if (at != mrouter_of(pkt.group)) {
        redirect_to_mrouter(at, pkt);
        break;
      }
      mrouter_handle_leave(pkt.group, pkt.src);
      break;
    case sim::PacketType::kTree:
      ir_handle_tree(at, pkt, from);
      break;
    case sim::PacketType::kBranch:
      ir_handle_branch(at, pkt, from);
      break;
    case sim::PacketType::kPrune:
      ir_handle_prune(at, pkt, from);
      break;
    case sim::PacketType::kClear:
      ir_handle_clear(at, pkt);
      break;
    case sim::PacketType::kData:
      forward_data(at, pkt, from);
      break;
    case sim::PacketType::kDataEncap: {
      if (at != mrouter_of(pkt.group)) {
        redirect_to_mrouter(at, pkt);
        break;
      }
      sim::Packet data = pkt;
      data.type = sim::PacketType::kData;
      data.dst = graph::kInvalidNode;
      forward_data(at, data, graph::kInvalidNode);
      break;
    }
    default:
      // Foreign-protocol traffic arriving through the shared Network
      // plumbing: counted + logged (net.drops.unexpected_type), not a crash.
      drop_unexpected(at, pkt);
      break;
  }
  // Every control packet either mutates installed state (TREE/BRANCH/PRUNE/
  // CLEAR) or the authoritative tree (JOIN/LEAVE); either side of the
  // convergence predicate may have flipped.
  if (is_scmp_control(pkt.type)) check_convergence(pkt.group);
}

bool Scmp::network_state_consistent(GroupId group) const {
  bool consistent = true;
  diff_installed(group, [&](graph::NodeId, Drift, graph::NodeId) {
    consistent = false;
    return false;  // the first difference decides
  });
  return consistent;
}

}  // namespace scmp::core
