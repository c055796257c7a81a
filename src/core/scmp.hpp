// SCMP — the Service-Centric Multicast Protocol (paper §II-D and §III).
//
// One or more m-routers per domain (paper §II-A: "An ISP may own more than
// one m-routers in the Internet for serving its customers in different
// geographic regions"; the default is one) own global topology and
// membership information. Every group is anchored at exactly one m-router —
// the mapping is a published static function of the group id, so every
// designated router can address its JOIN/LEAVE requests without discovery.
//
// The anchoring m-router maintains a delay-constrained shared tree per group
// with DCDM and installs it into the network with self-routing TREE packets
// (full subtree installs) or BRANCH packets (single-path incremental
// installs); restructuring joins are installed as a minimal diff (BRANCH +
// targeted CLEARs). Members leave with hop-by-hop PRUNEs. The shared tree is
// bidirectional; off-tree sources unicast-encapsulate data to the m-router.
//
// Failure handling (paper §V, advantage 4, extended): fail_over moves every
// group anchored at a failed m-router to a hot standby, rebuilding trees
// from the replicated service database; after a link failure, the network's
// hook handle_link_event rebuilds just the trees that lost an edge. Both
// share one rebuild path. Installed state a rebuild or teardown cannot name
// is left to the one anti-entropy mechanism, digest reconciliation
// (reconcile_all).
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <vector>

#include "core/database.hpp"
#include "core/dcdm.hpp"
#include "core/retx.hpp"
#include "protocols/convergence.hpp"
#include "protocols/multicast_protocol.hpp"
#include "util/flat_set.hpp"

namespace scmp::core {

class Scmp final : public proto::MulticastProtocol {
 public:
  struct Config {
    /// The (primary) m-router; used when `mrouters` is empty.
    graph::NodeId mrouter = 0;
    /// Optional: several m-routers sharing the domain's groups
    /// (group g is anchored at mrouters[g % mrouters.size()]).
    std::vector<graph::NodeId> mrouters;
    DcdmConfig dcdm;
    /// Ablation knob: install every change with full TREE packets instead of
    /// BRANCH packets where possible (§III-E discusses why BRANCH is used
    /// for small changes).
    bool always_full_tree = false;
    /// Reliable control-plane delivery (acks + retransmission with backoff,
    /// src/core/retx.hpp). Off by default: every control packet stream stays
    /// bit-identical to the fire-and-forget protocol.
    RetxConfig reliability;
    /// Epoch-batched membership: when > 0, JOIN/LEAVE arrivals at an
    /// anchoring m-router are recorded in the service database immediately
    /// (billing, dedup and session lifecycle are unchanged) but the DCDM /
    /// install work is deferred to the close of the current epoch, this many
    /// simulated seconds after the first deferred arrival. At the close every
    /// touched group is net-resolved (a member that joined and left within
    /// one epoch cancels out); a net-changed group replays its delta on its
    /// live DCDM tree — leaves, then ascending joins — and installs only the
    /// tree diff under one install version. 0 (the default) keeps the
    /// per-request path bit-identical to the pre-epoch protocol.
    double epoch_interval = 0.0;
  };

  Scmp(sim::Network& net, igmp::IgmpDomain& igmp, Config cfg);

  std::string name() const override { return "SCMP"; }

  void handle_packet(graph::NodeId at, const sim::Packet& pkt,
                     graph::NodeId from) override;
  void send_data(graph::NodeId source, GroupId group) override;

  void interface_joined(graph::NodeId router, GroupId group, int iface,
                        bool first_iface) override;
  void interface_left(graph::NodeId router, GroupId group, int iface,
                      bool last_iface) override;

  /// The primary m-router (the only one when Config::mrouters is empty).
  graph::NodeId mrouter() const { return mrouters_.front(); }
  const std::vector<graph::NodeId>& mrouters() const { return mrouters_; }
  /// The m-router anchoring `group` (its trees' root).
  graph::NodeId mrouter_of(GroupId group) const;

  /// Promotes `standby` to replace the failed m-router: every group anchored
  /// at `failed` is re-anchored, its tree rebuilt from the database replica
  /// and reinstalled, and the old tree's routers the new tree drops are
  /// cleared (paper §V hot-standby failover).
  void fail_over(graph::NodeId failed, graph::NodeId standby);

  /// Single-m-router convenience: fails the primary over to `standby`.
  void fail_over_to(graph::NodeId standby) { fail_over(mrouter(), standby); }

  /// The failure of link {u, v}, which must already be gone from the graph:
  /// Network::fail_link calls this once its path store (the m-routers'
  /// global P_sl / P_lc database) has been repaired. The m-routers rebuild
  /// and reinstall every group tree with a parent edge the graph no longer
  /// has — the service-centric repair story: no other router runs any
  /// algorithm. A failure shortens no path, so every other tree keeps its
  /// members' delays and admitted bounds and is left as it is. Idempotent:
  /// a repeated call finds no cut tree and sends nothing.
  void handle_link_event(graph::NodeId u, graph::NodeId v) override;

  /// Tears down a whole multicast session (paper §II-C): clears the installed
  /// state of every router on the current tree, drops the tree and revokes
  /// the address. State the tree shed earlier and a lost CLEAR missed is
  /// orphan state for reconcile_all() to repair.
  void end_group_session(GroupId group);

  /// Session lifecycle policy (paper §II-C: "the m-router is responsible ...
  /// to tear down an expired multicast session", with the lifetime driven by
  /// service requirements): a session whose membership stays empty for
  /// `idle_seconds` is ended automatically. 0 disables the policy (default).
  void set_session_idle_expiry(double idle_seconds);

  /// Groups touched in the currently open epoch. Zero whenever the event
  /// queue is drained: every deferred arrival schedules an epoch-close
  /// event, so run-to-quiescence always flushes.
  std::size_t epoch_pending() const { return epoch_touched_.size(); }

  /// Models the m-router's internal transit (switching fabric stages plus
  /// any scheduling): when set, data an anchoring m-router forwards is held
  /// for `fn(packet)` seconds before leaving on the tree (paper Fig. 3: the
  /// fabric sits between the arriving flows and the tree's root port).
  /// MRouterNode wires this to the sandwich fabric's real stage depths.
  using TransitModel = std::function<double(const sim::Packet&)>;
  void set_mrouter_transit_model(TransitModel fn) {
    transit_model_ = std::move(fn);
  }

  /// The m-router's service database (sessions, addresses, accounting).
  const MRouterDatabase& database() const { return db_; }

  /// m-router's authoritative tree for a group (nullptr if no session).
  const DcdmTree* group_tree(GroupId group) const;

  /// Groups with a live session at the m-routers.
  std::vector<GroupId> active_groups() const;

  /// Groups any i-router still holds an installed Entry for — a superset of
  /// active_groups() only when stale state leaked. The verification
  /// auditor's orphan-state invariant diffs the two (src/verify). Ascending,
  /// read from the entry store's holder index in O(groups).
  std::vector<GroupId> groups_with_installed_state() const;

  /// Distinct source routers the anchoring m-router has seen data from, per
  /// group (drives the switching fabric's input-port assignment).
  std::set<graph::NodeId> senders_of(GroupId group) const;

  /// One soft-state reconciliation pass (the control-plane analogue of the
  /// IGMP query cycle, and the protocol's one anti-entropy mechanism — it
  /// also re-converges installed state after *concurrent* membership
  /// operations raced each other's install packets): first re-solicits
  /// membership lost to dropped JOIN/LEAVE packets by diffing the service
  /// database against one sweep of the IGMP ground truth, then diffs each
  /// group's installed digests (upstream + downstream set) — its holders'
  /// and its tree routers' — against the anchoring m-router's
  /// authoritative tree and repairs the differences with CLEARs and the
  /// BRANCH cover of the missing tree edges (branch_cover). The pass costs
  /// O(live state), not O(groups × routers). A group with an install (TREE,
  /// BRANCH or CLEAR) still unacked is deferred, not diffed: its digests are
  /// mid-change (counted in scmp.reconcile.deferred). Returns the number of
  /// repair actions initiated plus the groups deferred (0 = the domain
  /// matched the digests; repairs travel as ordinary — reliable, if
  /// enabled — control packets, so convergence needs the queue drained and
  /// possibly further passes when those packets can be lost too).
  int reconcile_all();

  /// Schedules reconcile_all() every `interval` seconds until `horizon`
  /// (exclusive), mirroring igmp::IgmpDomain::start_query_cycle.
  void start_reconciliation(double interval, double horizon);

  /// The control plane's retransmission table (zeros when reliability is
  /// disabled; tests and benches read its lifetime counters).
  const RetxTable& retx() const { return retx_; }

  /// Opt-in per-group time-to-convergence measurement (off by default).
  /// Every membership, rebuild or teardown event opens a measurement, which
  /// resolves once the group's installed state matches its authoritative
  /// tree (network_state_consistent). It sends no packets; its deadlines
  /// are event-queue timers (see ConvergenceTracker).
  void enable_convergence_tracking();
  /// The tracker when enabled, nullptr otherwise.
  const proto::ConvergenceTracker* convergence_tracker() const {
    return convergence_.get();
  }

  /// An i-router's installed multicast routing entry (paper §III-A):
  /// (group id, upstream, downstream routers); a DR's downstream interfaces
  /// are its IGMP member interfaces (igmp().member_ifaces), not copied here.
  /// `version` is the m-router install operation that last wrote the entry;
  /// i-routers ignore install packets older than their entry (a BRANCH
  /// overtaken by a newer restructure must not resurrect stale state).
  /// The downstream routers are an ascending flat set: forward_data tests
  /// and walks it on every DATA hop, in ascending order.
  struct Entry {
    graph::NodeId upstream = graph::kInvalidNode;
    util::FlatSet<graph::NodeId> downstream_routers;
    std::uint64_t version = 0;
  };
  const Entry* entry_at(graph::NodeId router, GroupId group) const;

  /// Verifies that the routing state installed in the network matches the
  /// anchoring m-router's authoritative tree for `group`.
  bool network_state_consistent(GroupId group) const;

 private:
  /// Resolves a pending convergence measurement for `group` if the installed
  /// network state now matches the authoritative tree.
  void check_convergence(GroupId group);

  Entry* mutable_entry_at(graph::NodeId router, GroupId group);
  DcdmTree& tree_for(GroupId group);

  /// One router's installed entries behind a sorted contiguous group index:
  /// a lookup (forward_data makes one per DATA hop) is a binary search over
  /// adjacent keys, and the entries sit by value in a parallel vector. An
  /// Entry* is valid until the next get or erase at the same router: no
  /// caller keeps one across a call that creates or erases an entry there
  /// (handlers send by scheduling, so no entry changes under them).
  class EntryTable {
   public:
    const Entry* find(GroupId group) const;
    Entry* find(GroupId group);
    /// The group's entry, created empty when there is none; the flag is
    /// true when it was created.
    std::pair<Entry*, bool> get(GroupId group);
    /// False when there was no entry to erase.
    bool erase(GroupId group);

   private:
    /// Index of `group` in groups_, or groups_.size() when it has none.
    std::size_t index_of(GroupId group) const;

    std::vector<GroupId> groups_;
    std::vector<Entry> entries_;  ///< parallel to groups_
  };

  /// Every router's EntryTable plus, per group, the ascending list of the
  /// routers that hold an entry for it. get and erase are the only way an
  /// entry appears or disappears, and they write the holder index only then
  /// (never when an entry is updated), so a group leaves the index with its
  /// last holder and the index stays bounded by live state.
  class EntryStore {
   public:
    explicit EntryStore(int num_routers)
        : tables_(static_cast<std::size_t>(num_routers)) {}
    const Entry* find(graph::NodeId router, GroupId group) const {
      return tables_[static_cast<std::size_t>(router)].find(group);
    }
    Entry* find(graph::NodeId router, GroupId group) {
      return tables_[static_cast<std::size_t>(router)].find(group);
    }
    /// The router's entry for the group, created empty when there is none.
    Entry& get(graph::NodeId router, GroupId group);
    void erase(graph::NodeId router, GroupId group);
    /// The routers holding an entry for `group`, ascending.
    const std::vector<graph::NodeId>& holders(GroupId group) const;
    /// The groups some router holds an entry for, ascending.
    std::vector<GroupId> groups() const;

   private:
    std::vector<EntryTable> tables_;
    std::map<GroupId, std::vector<graph::NodeId>> holders_;
  };

  // m-router side, for JOIN/LEAVE packets and the anchor's own hosts alike.
  // `req` is the JOIN's request uid for the flight record (0 when
  // fire-and-forget or root-local). A LEAVE for a group with no session is
  // dropped (scmp.rx.dropped, no_session).
  void mrouter_handle_join(GroupId group, graph::NodeId requester,
                           std::uint64_t req);
  void mrouter_handle_leave(GroupId group, graph::NodeId requester);
  void install_branch(GroupId group, graph::NodeId member,
                      std::uint64_t version);
  void install_full_tree(GroupId group,
                         const std::vector<graph::NodeId>& removed,
                         std::uint64_t version);
  /// Unicasts a CLEAR to `target`: empty `detach` drops the whole entry,
  /// otherwise only the listed children are removed from its downstream.
  void send_clear(GroupId group, graph::NodeId target,
                  std::vector<graph::NodeId> detach, std::uint64_t version);
  void ir_handle_clear(graph::NodeId at, const sim::Packet& pkt);
  /// Rebuilds the given groups' trees at their (current) anchors from the
  /// membership database, joining members in ascending order, then, per
  /// group under one install version, CLEARs the old tree's routers the new
  /// tree drops (ascending, neither root) and reinstalls the new tree with
  /// TREE packets.
  void rebuild_trees(const std::vector<GroupId>& groups);
  /// The groups whose tree hangs a node from the failed link {u, v}. Every
  /// other tree edge still exists: each earlier failure rebuilt the trees it
  /// cut, and every graft follows current paths.
  std::vector<GroupId> broken_trees(graph::NodeId u, graph::NodeId v) const;

  // Epoch-batched membership pipeline (Config::epoch_interval > 0).
  bool epoch_enabled() const { return cfg_.epoch_interval > 0.0; }
  /// Marks `group` touched in the open epoch — recording `left` as a member
  /// whose LEAVE arrived, when given — and schedules the one-shot epoch-close
  /// event when none is outstanding.
  void epoch_enqueue(GroupId group, graph::NodeId left = graph::kInvalidNode);
  /// Epoch close: net-resolves every touched group against the service
  /// database and replays each net-changed group's delta (replay_delta).
  void flush_epoch();
  /// Brings `group`'s live tree to the database membership: leave() every
  /// member the database no longer lists or whose LEAVE is in `left`, then
  /// join() the missing members in ascending order, and install exactly the
  /// tree diff under one version — an entry-drop CLEAR per router that left
  /// the tree, a detach CLEAR per surviving router that lost children, and
  /// the BRANCH cover (branch_cover) of every new, re-parented or
  /// pruned-and-regrafted edge. Returns false (and does nothing) when the
  /// delta is empty.
  bool replay_delta(GroupId group, const std::set<graph::NodeId>& left);
  /// The one BRANCH selection of the epoch close and reconciliation: the
  /// members whose BRANCHes (re)install the edge from its tree parent to
  /// every router in `routers`, which lists on-tree routers of `group`'s
  /// tree in preorder. The routers are taken deepest first (reverse
  /// preorder), so a router's listed descendants come before it and their
  /// BRANCH has already crossed it; each one no earlier BRANCH crosses gets
  /// a BRANCH to the first database member below it, in preorder. At a
  /// close the database members are the tree's; between closes a member
  /// that left may still sit on the tree, and no BRANCH goes to a DR whose
  /// hosts are gone. A router with no database member below gets none: the
  /// next close removes that path. Returns the members in send order.
  std::vector<graph::NodeId> branch_cover(
      GroupId group, std::span<const graph::NodeId> routers) const;
  /// Starts a new install operation for the group and returns its version.
  std::uint64_t next_install_version(GroupId group) {
    return ++install_version_[group];
  }

  // Reliability layer: both helpers behave exactly like Network::send_link /
  // send_unicast when Config::reliability is disabled; when enabled they
  // stamp a fresh request uid and arm retransmission until acknowledged.
  void send_control_link(graph::NodeId from, graph::NodeId to,
                         sim::Packet pkt);
  void send_control_unicast(graph::NodeId from, sim::Packet pkt);
  void send_ack(graph::NodeId at, const sim::Packet& pkt, graph::NodeId from);

  // Packets are input: no packet content or timing may abort the process.
  /// Forwards a JOIN, LEAVE or DATA_ENCAP that reached `at` although `at` no
  /// longer anchors its group (a failover overtook it) to the current
  /// m-router; counted in scmp.rx.redirected.
  void redirect_to_mrouter(graph::NodeId at, const sim::Packet& pkt);
  /// Counts (scmp.rx.dropped, tagged by `reason`) and logs a malformed
  /// control packet the handler at `at` discards.
  void drop_malformed(graph::NodeId at, const sim::Packet& pkt,
                      const char* reason);

  // Soft-state reconciliation (reconcile_all phases). Each returns its
  // actions initiated; repair_installed_state adds the groups it deferred.
  int resolicit_membership();
  int repair_installed_state();

  /// How one router's installed entry for a group differs from the
  /// anchoring m-router's tree.
  enum class Drift {
    kOrphaned,    ///< an entry off the tree, or at the anchor itself
    kExtraChild,  ///< the entry lists a downstream router the tree does not
    /// On the tree, the edge from its tree parent is not installed at both
    /// ends: the router has no entry or another upstream, or the parent is
    /// not the anchor and holds no entry or one that does not list it.
    kMissingEdge,
  };
  /// The one scan behind network_state_consistent and reconciliation, in
  /// O(holders + tree): it calls `report(router, drift, child)` for every
  /// difference, `child` naming the extra downstream router of a kExtraChild
  /// (kInvalidNode otherwise). First the orphans, from the group's holder
  /// index in ascending router order; then one preorder walk of the tree
  /// below the root reports, per on-tree router, a kMissingEdge and then
  /// its extra children. `report` returns false to stop the scan. Returns
  /// the routers examined: the orphans and the on-tree routers walked.
  /// Allocates nothing.
  template <typename Report>
  std::size_t diff_installed(GroupId group, Report&& report) const;

  // i-router side.
  /// The install-version gate of TREE and BRANCH: false, counted, when the
  /// packet is older than `at`'s entry (stale_install) or, with no entry,
  /// older than the CLEAR that dropped it (tombstoned).
  bool install_is_current(graph::NodeId at, const sim::Packet& pkt) const;
  void ir_handle_tree(graph::NodeId at, const sim::Packet& pkt,
                      graph::NodeId from);
  void ir_handle_branch(graph::NodeId at, const sim::Packet& pkt,
                        graph::NodeId from);
  void ir_handle_prune(graph::NodeId at, const sim::Packet& pkt,
                       graph::NodeId from);

  // A DR's membership reports, shared by host membership changes, the
  // soft-state re-reports and the undo of a BRANCH that arrived after its
  // hosts left.
  /// Sends `router`'s JOIN for `group` to the m-router.
  void send_join(graph::NodeId router, GroupId group);
  /// Sends `router`'s LEAVE to the m-router; a leaf DR first drops its
  /// entry and PRUNEs upstream (prune_upstream).
  void send_leave(graph::NodeId router, GroupId group);
  /// Erases `at`'s entry for `group` and PRUNEs its upstream, if any.
  void prune_upstream(graph::NodeId at, GroupId group);

  // Data plane.
  void forward_data(graph::NodeId at, const sim::Packet& pkt,
                    graph::NodeId from);

  Config cfg_;
  std::vector<graph::NodeId> mrouters_;
  MRouterDatabase db_;
  std::map<GroupId, DcdmTree> trees_;
  std::map<GroupId, std::set<graph::NodeId>> senders_;
  /// Monotone install-operation counter per group (carried in TREE/BRANCH/
  /// CLEAR packets as Packet::uid).
  std::map<GroupId, std::uint64_t> install_version_;
  /// Tombstones: the version of the last applied entry-drop CLEAR, per
  /// (router, group); install packets older than the tombstone must not
  /// resurrect the entry. Never collected; tombstone_count_ counts them.
  std::vector<std::map<GroupId, std::uint64_t>> cleared_version_;
  std::size_t tombstone_count_ = 0;
  /// Per-router installed entries; a group's anchoring m-router forwards
  /// from its tree and holds no Entry for that group (it may hold entries
  /// for groups anchored elsewhere). A DR's member interfaces, the paper's
  /// "marked interfaces", are read from the IGMP state.
  EntryStore entries_;
  /// Control-plane retransmission tables (one logical table per endpoint).
  RetxTable retx_;
  /// Receiver-side dedup of reliably-delivered control packets, per router:
  /// a retransmitted request is re-acknowledged but processed only once.
  /// Each router's ids ascend. Insert-only; seen_req_total_ is the vectors'
  /// total size.
  std::vector<std::vector<std::uint64_t>> seen_req_;
  std::size_t seen_req_total_ = 0;
  TransitModel transit_model_;
  double session_idle_expiry_ = 0.0;  ///< 0 = sessions never auto-expire
  /// Groups with membership changes recorded but tree work still deferred,
  /// each with the members whose LEAVE reached the m-router this epoch (a
  /// leaf's PRUNE erased its installed path, so a rejoin must reinstall it).
  /// Cleared at every close: bounded by one epoch's arrivals.
  std::map<GroupId, std::set<graph::NodeId>> epoch_touched_;
  bool epoch_flush_scheduled_ = false;
  /// Null unless enable_convergence_tracking() was called.
  std::unique_ptr<proto::ConvergenceTracker> convergence_;
};

}  // namespace scmp::core
