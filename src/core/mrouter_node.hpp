// The complete m-router device model (paper §II-B, Fig. 2(b)): the SCMP
// protocol engine with its service database and the n x n sandwich switching
// fabric, wired together.
//
//   * sync_fabric() maps every active group onto a fabric session: the
//     sources the m-router has seen occupy input ports, the fabric merges
//     them (PN -> CCN) and the DN delivers the merged stream to the output
//     port that roots the group's multicast tree in the domain.
#pragma once

#include <map>
#include <memory>

#include "core/scheduler.hpp"
#include "core/scmp.hpp"
#include "fabric/mrouter_fabric.hpp"

namespace scmp::core {

class MRouterNode {
 public:
  /// `fabric_ports` must be a power of two.
  MRouterNode(sim::Network& net, igmp::IgmpDomain& igmp, Scmp::Config cfg,
              int fabric_ports = 64);

  Scmp& protocol() { return scmp_; }
  const Scmp& protocol() const { return scmp_; }
  fabric::MRouterFabric& fabric() { return fabric_; }
  const fabric::MRouterFabric& fabric() const { return fabric_; }

  /// Reprograms the switching fabric from the protocol's current sessions:
  /// one fabric session per active group that has known senders, each sender
  /// on its own input port (assigned in deterministic order). Groups beyond
  /// the fabric's port capacity are reported back as unplaced.
  struct FabricSync {
    int sessions_placed = 0;
    std::vector<GroupId> unplaced;
  };
  FabricSync sync_fabric();

  /// Input port carrying `sender`'s uplink for `group` in the current fabric
  /// configuration, or -1 when not placed.
  int input_port_of(GroupId group, graph::NodeId sender) const;

  /// Output port rooting `group`'s tree, per the current configuration.
  int output_port_of(GroupId group) const {
    return fabric_.output_port(group);
  }

  /// Makes data transiting the m-router pay for its path through the
  /// sandwich fabric: `per_stage_seconds` per 2x2 switch stage (and merge
  /// level), looked up from the current fabric configuration by the sending
  /// router's input port. Call after sync_fabric(); senders not placed on
  /// the fabric pay the PN+DN baseline depth.
  void enable_fabric_transit(double per_stage_seconds);

  /// The WFQ scheduler of an egress port (created lazily at the port's
  /// kPortCapacityBps line rate): groups sharing a port get weighted
  /// bandwidth shares (§II-A's traffic scheduling / bandwidth management
  /// duties).
  WfqScheduler& port_scheduler(int port);

 private:
  static constexpr double kPortCapacityBps = 1e9;

  Scmp scmp_;
  fabric::MRouterFabric fabric_;
  std::map<GroupId, std::map<graph::NodeId, int>> input_ports_;
  std::map<int, WfqScheduler> schedulers_;
};

}  // namespace scmp::core
