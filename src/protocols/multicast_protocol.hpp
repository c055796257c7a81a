// Common frame for all four simulated multicast routing protocols (SCMP plus
// the DVMRP / MOSPF / CBT baselines of §IV). A protocol instance owns the
// routing state of *every* router in the domain and receives:
//   * interface-level membership transitions from the IGMP domain,
//   * every packet any router receives (dispatched with the router id), and
//   * every link failure, once the network's shortest-path store has
//     reconverged.
// Harnesses drive it through host_join/host_leave/send_data.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "igmp/igmp.hpp"
#include "sim/network.hpp"

namespace scmp::proto {

using GroupId = igmp::GroupId;

class MulticastProtocol : public igmp::MembershipListener,
                          public sim::LinkListener {
 public:
  /// Registers this protocol as the agent of every router, as the IGMP
  /// membership listener and as the network's link listener. The network
  /// and IGMP domain must outlive it.
  MulticastProtocol(sim::Network& net, igmp::IgmpDomain& igmp);
  ~MulticastProtocol() override;

  MulticastProtocol(const MulticastProtocol&) = delete;
  MulticastProtocol& operator=(const MulticastProtocol&) = delete;

  virtual std::string name() const = 0;

  /// Packet dispatch: `at` received `pkt` from neighbour `from`
  /// (kInvalidNode when locally injected).
  virtual void handle_packet(graph::NodeId at, const sim::Packet& pkt,
                             graph::NodeId from) = 0;

  /// Originates one multicast data packet for `group` at router `source`
  /// (scheduled through the event queue at the current time).
  virtual void send_data(graph::NodeId source, GroupId group) = 0;

  /// Network::fail_link calls this after the link {u, v} failed and the
  /// network's shortest-path store reconverged — the moment a link-state
  /// protocol would notify its clients. Default: no reaction (DVMRP, MOSPF
  /// and PIM-SM read the reconverged routes on their next lookup; CBT has no
  /// repair mechanism in this model).
  void handle_link_event(graph::NodeId u, graph::NodeId v) override {
    (void)u;
    (void)v;
  }

  /// Hard-state self-check, the attachment point of the invariant auditor in
  /// src/verify: appends one human-readable line per violated internal-state
  /// invariant (upstream/downstream symmetry, acyclicity, ...). Only
  /// meaningful at a quiescent instant — with control packets in flight the
  /// distributed state is legitimately mid-transition. The default reports
  /// nothing (soft-state protocols have no hard invariants to cross-check);
  /// SCMP's full catalog lives in verify::InvariantAuditor instead, which
  /// inspects the m-router's authoritative tree directly.
  virtual void audit_state(std::vector<std::string>& violations) const;

  /// Convenience wrappers for harnesses: a single host on iface 0.
  void host_join(graph::NodeId router, GroupId group, int iface = 0,
                 int host = 0);
  void host_leave(graph::NodeId router, GroupId group, int iface = 0,
                  int host = 0);

  sim::Network& net() { return *net_; }
  const sim::Network& net() const { return *net_; }
  igmp::IgmpDomain& igmp() { return *igmp_; }
  const igmp::IgmpDomain& igmp() const { return *igmp_; }

 protected:
  bool router_is_member(graph::NodeId router, GroupId group) const {
    return igmp_->router_is_member(router, group);
  }

  /// Reports application-level delivery of a data packet at a member router.
  void deliver_locally(graph::NodeId at, const sim::Packet& pkt) {
    net_->report_delivery(pkt, at);
  }

  /// A fresh data packet (uid, timestamps and default size filled in).
  sim::Packet make_data_packet(graph::NodeId source, GroupId group);

  /// Counts + debug-logs a packet the dispatch switch had no case for.
  /// Foreign-protocol traffic can reach any agent through the shared Network
  /// plumbing, so an unknown type is dropped visibly — one tick on the
  /// net.drops.unexpected_type counter tagged with name() — never swallowed
  /// silently and never a crash.
  void drop_unexpected(graph::NodeId at, const sim::Packet& pkt);

 private:
  struct NodeAdapter final : sim::RouterAgent {
    MulticastProtocol* protocol = nullptr;
    graph::NodeId node = graph::kInvalidNode;
    void handle(const sim::Packet& pkt, graph::NodeId from) override {
      protocol->handle_packet(node, pkt, from);
    }
  };

  sim::Network* net_;
  igmp::IgmpDomain* igmp_;
  std::vector<std::unique_ptr<NodeAdapter>> adapters_;
};

}  // namespace scmp::proto
