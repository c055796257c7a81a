#include "verify/snapshot.hpp"

#include <algorithm>

#include "util/contracts.hpp"

namespace scmp::verify {

GroupSnapshot take_group_snapshot(const core::Scmp& scmp, GroupId group) {
  SCMP_EXPECTS(group >= 0);
  GroupSnapshot snap;
  snap.group = group;
  snap.root = scmp.mrouter_of(group);
  snap.session_active = scmp.database().session_active(group);

  const graph::Graph& g = scmp.net().graph();
  if (const core::DcdmTree* tree = scmp.group_tree(group)) {
    snap.tree_valid = tree->tree().validate(g);
    for (graph::NodeId v : tree->tree().on_tree_nodes())
      snap.parent[v] = tree->tree().parent(v);
    for (graph::NodeId m : tree->tree().members()) {
      snap.tree_members.insert(m);
      snap.member_delay[m] = tree->tree().node_delay(g, m);
      snap.admitted_bound[m] = tree->admitted_bound(m);
    }
  }
  const auto& db_members = scmp.database().members_of(group);
  snap.db_members.insert(db_members.begin(), db_members.end());
  for (graph::NodeId m : scmp.igmp().member_routers(group))
    snap.igmp_members.insert(m);

  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    const core::Scmp::Entry* e = scmp.entry_at(v, group);
    if (e == nullptr) continue;
    EntrySnapshot es;
    es.router = v;
    es.upstream = e->upstream;
    es.downstream_routers.insert(e->downstream_routers.begin(),
                                 e->downstream_routers.end());
    snap.entries.push_back(std::move(es));
  }
  return snap;
}

ScmpSnapshot take_snapshot(const core::Scmp& scmp) {
  ScmpSnapshot snap;
  snap.mrouters = scmp.mrouters();

  std::set<GroupId> groups;
  for (GroupId group : scmp.active_groups()) groups.insert(group);
  for (GroupId group : scmp.groups_with_installed_state()) groups.insert(group);
  snap.groups.reserve(groups.size());
  for (GroupId group : groups)
    snap.groups.push_back(take_group_snapshot(scmp, group));
  return snap;
}

}  // namespace scmp::verify
