// Pure-data snapshots of an Scmp instance's distributed multicast state,
// taken through the public API only. The invariant catalog (invariants.hpp)
// consists of pure functions over these structs, which keeps every check
// unit-testable against hand-corrupted snapshots — the mutant tests prove
// each invariant class actually fires without needing friend access to the
// protocol internals.
#pragma once

#include <map>
#include <set>
#include <vector>

#include "core/scmp.hpp"

namespace scmp::verify {

using core::GroupId;

/// One i-router's installed forwarding entry for a group (the distributed
/// state the m-router's install packets created).
struct EntrySnapshot {
  graph::NodeId router = graph::kInvalidNode;
  graph::NodeId upstream = graph::kInvalidNode;
  std::set<graph::NodeId> downstream_routers;

  bool operator==(const EntrySnapshot&) const = default;
};

/// Everything the auditor needs to know about one group at one instant:
/// the m-router's authoritative tree, the three membership views (tree,
/// service database, IGMP), the delay ledger, and the installed entries.
struct GroupSnapshot {
  GroupId group = -1;
  graph::NodeId root = graph::kInvalidNode;  ///< anchoring m-router
  bool session_active = false;

  /// Authoritative tree as a parent map: on-tree node -> parent
  /// (root -> kInvalidNode). Empty when the m-router holds no tree.
  std::map<graph::NodeId, graph::NodeId> parent;
  /// MulticastTree::validate of that tree: it also sees the children lists
  /// TREE packets are encoded from and the tree size, which `parent` cannot
  /// show. True when the m-router holds no tree.
  bool tree_valid = true;
  std::set<graph::NodeId> tree_members;  ///< members per the tree
  std::set<graph::NodeId> db_members;    ///< members per the service database
  std::set<graph::NodeId> igmp_members;  ///< routers with member hosts

  /// Current multicast delay root -> member, and the delay bound each member
  /// was admitted under (DcdmTree::admitted_bound), per member.
  std::map<graph::NodeId, double> member_delay;
  std::map<graph::NodeId, double> admitted_bound;

  std::vector<EntrySnapshot> entries;  ///< installed i-router state

  bool operator==(const GroupSnapshot&) const = default;
};

struct ScmpSnapshot {
  std::vector<graph::NodeId> mrouters;
  std::vector<GroupSnapshot> groups;

  bool operator==(const ScmpSnapshot&) const = default;
};

/// Snapshot of one group: authoritative tree + memberships + entries.
/// `group` need not have an active session (stale installed state still
/// shows up in `entries`, which is exactly what the orphan-state invariant
/// inspects).
GroupSnapshot take_group_snapshot(const core::Scmp& scmp, GroupId group);

/// Snapshot of every group the instance knows about: active sessions plus
/// groups that only survive as installed i-router state.
ScmpSnapshot take_snapshot(const core::Scmp& scmp);

}  // namespace scmp::verify
