#include "verify/invariants.hpp"

#include <algorithm>
#include <cmath>
#include <set>

#include "fabric/mrouter_fabric.hpp"
#include "util/contracts.hpp"

namespace scmp::verify {

namespace {

/// Slack for floating-point delay comparisons: tree delays are sums of a few
/// dozen doubles, so anything past 1e-9 relative is a real violation.
constexpr double kDelayEps = 1e-6;

std::string node_str(graph::NodeId v) {
  return v == graph::kInvalidNode ? std::string("<invalid>")
                                  : std::to_string(v);
}

void note(std::vector<Violation>& out, const char* invariant, GroupId group,
          const std::string& what) {
  out.push_back({invariant, "g" + std::to_string(group) + ": " + what});
}

std::string set_str(const std::set<graph::NodeId>& s) {
  std::string r = "{";
  for (graph::NodeId v : s) {
    if (r.size() > 1) r += ",";
    r += std::to_string(v);
  }
  return r + "}";
}

}  // namespace

void check_tree_well_formed(const GroupSnapshot& s, const graph::Graph& g,
                            std::vector<Violation>& out) {
  if (!s.session_active) return;  // ended sessions have no tree to check
  auto bad = [&](const std::string& what) {
    note(out, kTreeWellFormed, s.group, what);
  };

  if (!s.parent.contains(s.root)) {
    bad("root " + node_str(s.root) + " is not on its own tree");
    return;  // everything below keys off the root
  }
  if (s.parent.at(s.root) != graph::kInvalidNode)
    bad("root " + node_str(s.root) + " has a parent " +
        node_str(s.parent.at(s.root)));
  if (!s.tree_valid)
    bad("MulticastTree::validate rejects the tree (its children lists, "
        "tree size or parent links)");

  // Parent closure + real edges + acyclicity: every node's parent chain must
  // reach the root within |tree| hops over existing links.
  const int limit = static_cast<int>(s.parent.size());
  std::set<graph::NodeId> non_leaf;
  for (const auto& [v, p] : s.parent) {
    if (v == s.root) continue;
    if (p == graph::kInvalidNode) {
      bad("non-root node " + node_str(v) + " has no parent");
      continue;
    }
    non_leaf.insert(p);
    if (!s.parent.contains(p)) {
      bad("parent " + node_str(p) + " of " + node_str(v) +
          " is not on the tree (disconnected)");
      continue;
    }
    if (!g.has_edge(v, p))
      bad("tree edge " + node_str(v) + "-" + node_str(p) +
          " does not exist in the topology");
    graph::NodeId walk = v;
    int hops = 0;
    while (walk != s.root && hops <= limit) {
      const auto it = s.parent.find(walk);
      if (it == s.parent.end()) break;  // reported above as disconnected
      walk = it->second;
      ++hops;
    }
    if (hops > limit)
      bad("parent chain from " + node_str(v) + " cycles (never reaches root)");
  }

  // Spanning exactly the current members: the three membership views agree,
  // every member is on the tree, and every leaf is a member (no dangling
  // relay branch survives a prune).
  if (s.tree_members != s.igmp_members)
    bad("tree members " + set_str(s.tree_members) + " != IGMP members " +
        set_str(s.igmp_members));
  if (s.db_members != s.igmp_members)
    bad("database members " + set_str(s.db_members) + " != IGMP members " +
        set_str(s.igmp_members));
  for (graph::NodeId m : s.tree_members) {
    if (!s.parent.contains(m))
      bad("member " + node_str(m) + " is not on the tree");
  }
  for (const auto& [v, p] : s.parent) {
    (void)p;
    if (v != s.root && !non_leaf.contains(v) && !s.tree_members.contains(v))
      bad("leaf " + node_str(v) + " is neither a member nor the root");
  }
}

void check_forwarding_symmetry(const GroupSnapshot& s,
                               std::vector<Violation>& out) {
  auto bad = [&](const std::string& what) {
    note(out, kForwardingSymmetry, s.group, what);
  };
  std::map<graph::NodeId, const EntrySnapshot*> by_router;
  for (const EntrySnapshot& e : s.entries) by_router[e.router] = &e;

  // Completeness against the authoritative tree: a bidirectional shared tree
  // only forwards both ways if *every* on-tree i-router holds its entry and
  // points upstream at its tree parent (a lost BRANCH leaves a hole that
  // silently unplugs the whole subtree).
  if (s.session_active) {
    for (const auto& [v, p] : s.parent) {
      if (v == s.root) continue;
      const auto it = by_router.find(v);
      if (it == by_router.end()) {
        bad("on-tree router " + node_str(v) + " holds no installed entry");
      } else if (it->second->upstream != p) {
        bad("entry at " + node_str(v) + " points upstream at " +
            node_str(it->second->upstream) + " but its tree parent is " +
            node_str(p));
      }
    }
  }

  for (const EntrySnapshot& e : s.entries) {
    // Downstream edge -> the child's entry must point back up at us.
    for (graph::NodeId d : e.downstream_routers) {
      const auto it = by_router.find(d);
      if (it == by_router.end()) {
        bad("entry at " + node_str(e.router) + " lists downstream " +
            node_str(d) + " which holds no entry");
      } else if (it->second->upstream != e.router) {
        bad("downstream " + node_str(d) + " of " + node_str(e.router) +
            " points upstream at " + node_str(it->second->upstream) +
            " instead");
      }
    }
    // Upstream edge -> the parent lists us as downstream. The anchoring
    // m-router holds no entry (its child set is the authoritative tree's and
    // the completeness check above ties entries to tree parents), so only
    // non-root upstreams need the reverse edge.
    if (e.upstream == graph::kInvalidNode) {
      bad("entry at " + node_str(e.router) + " has no upstream");
    } else if (e.upstream != s.root) {
      const auto it = by_router.find(e.upstream);
      if (it == by_router.end()) {
        bad("upstream " + node_str(e.upstream) + " of " + node_str(e.router) +
            " holds no entry");
      } else if (!it->second->downstream_routers.contains(e.router)) {
        bad("upstream " + node_str(e.upstream) + " does not list " +
            node_str(e.router) + " as downstream (missing reverse edge)");
      }
    }
  }
}

void check_delay_bound(const GroupSnapshot& s, std::vector<Violation>& out) {
  for (const auto& [m, delay] : s.member_delay) {
    const auto it = s.admitted_bound.find(m);
    if (it == s.admitted_bound.end()) {
      note(out, kDelayBound, s.group,
           "member " + node_str(m) + " has no recorded admitted bound");
      continue;
    }
    if (std::isnan(it->second)) {
      note(out, kDelayBound, s.group,
           "member " + node_str(m) + " has a NaN admitted bound");
      continue;
    }
    if (delay > it->second * (1.0 + kDelayEps) + kDelayEps)
      note(out, kDelayBound, s.group,
           "member " + node_str(m) + " delay " + std::to_string(delay) +
               " exceeds its admitted bound " + std::to_string(it->second));
  }
}

void check_no_orphan_state(const GroupSnapshot& s,
                           std::vector<Violation>& out) {
  for (const EntrySnapshot& e : s.entries) {
    if (!s.session_active) {
      note(out, kNoOrphanState, s.group,
           "router " + node_str(e.router) +
               " still holds an entry for an ended session");
      continue;
    }
    if (!s.parent.contains(e.router))
      note(out, kNoOrphanState, s.group,
           "router " + node_str(e.router) +
               " holds an entry but is off the authoritative tree");
  }
}

void check_group(const GroupSnapshot& s, const graph::Graph& g,
                 std::vector<Violation>& out) {
  SCMP_EXPECTS(s.group >= 0);
  check_tree_well_formed(s, g, out);
  check_forwarding_symmetry(s, out);
  check_delay_bound(s, out);
  check_no_orphan_state(s, out);
}

FabricView view_of(const fabric::MRouterFabric& fabric) {
  FabricView v;
  v.ports = fabric.ports();
  v.pn_map.resize(static_cast<std::size_t>(v.ports));
  v.line_leader.resize(static_cast<std::size_t>(v.ports));
  v.dn_map.resize(static_cast<std::size_t>(v.ports));
  v.input_group.resize(static_cast<std::size_t>(v.ports));
  for (int p = 0; p < v.ports; ++p) {
    v.pn_map[static_cast<std::size_t>(p)] = fabric.pn().forward(p);
    v.line_leader[static_cast<std::size_t>(p)] = fabric.ccn().leader_of(p);
    v.dn_map[static_cast<std::size_t>(p)] = fabric.dn().forward(p);
    v.input_group[static_cast<std::size_t>(p)] = fabric.group_of_input(p);
  }
  for (int group : fabric.configured_groups())
    v.group_output[group] = fabric.output_port(group);
  v.ccn_isolated = fabric.ccn().verify_isolation();
  return v;
}

void check_fabric(const FabricView& v, std::vector<Violation>& out) {
  SCMP_EXPECTS(v.ports >= 2);
  auto bad = [&](const std::string& what) {
    out.push_back({kFabricValidity, what});
  };

  // PN and DN must realise true permutations of the ports.
  auto check_perm = [&](const std::vector<int>& map, const char* stage) {
    std::vector<int> seen(static_cast<std::size_t>(v.ports), 0);
    for (int x : map) {
      if (x < 0 || x >= v.ports) {
        bad(std::string(stage) + " maps outside [0, ports)");
        return;
      }
      ++seen[static_cast<std::size_t>(x)];
    }
    for (int p = 0; p < v.ports; ++p) {
      if (seen[static_cast<std::size_t>(p)] != 1) {
        bad(std::string(stage) + " is not a permutation (output " +
            std::to_string(p) + " hit " +
            std::to_string(seen[static_cast<std::size_t>(p)]) + " times)");
        return;
      }
    }
  };
  check_perm(v.pn_map, "PN");
  check_perm(v.dn_map, "DN");

  if (!v.ccn_isolated) bad("CCN isolation self-check failed");

  // CCN conflict freedom: a merge component never spans two groups, and an
  // idle input's line is never merged into a group's component.
  std::map<int, int> leader_group;  // leader line -> group that owns it
  for (int p = 0; p < v.ports; ++p) {
    const int group = v.input_group[static_cast<std::size_t>(p)];
    const int line = v.pn_map[static_cast<std::size_t>(p)];
    if (line < 0 || line >= v.ports) continue;  // reported by check_perm
    const int leader = v.line_leader[static_cast<std::size_t>(line)];
    if (group < 0) {
      if (leader != line)
        bad("idle input " + std::to_string(p) + "'s line " +
            std::to_string(line) + " is merged into component " +
            std::to_string(leader));
      continue;
    }
    const auto [it, inserted] = leader_group.emplace(leader, group);
    if (!inserted && it->second != group)
      bad("CCN component " + std::to_string(leader) + " merges groups " +
          std::to_string(it->second) + " and " + std::to_string(group));
  }

  // Output-port assignment: distinct per group.
  std::map<int, int> port_owner;  // output port -> group
  for (const auto& [group, port] : v.group_output) {
    if (port < 0 || port >= v.ports) {
      bad("group " + std::to_string(group) + " assigned invalid output port " +
          std::to_string(port));
      continue;
    }
    const auto [it, inserted] = port_owner.emplace(port, group);
    if (!inserted)
      bad("groups " + std::to_string(it->second) + " and " +
          std::to_string(group) + " share output port " +
          std::to_string(port));
  }

  // DN never connects ports of different groups: every configured input's
  // cell lands exactly on its group's output port; idle inputs never land on
  // any group's port.
  for (int p = 0; p < v.ports; ++p) {
    const int group = v.input_group[static_cast<std::size_t>(p)];
    const int line = v.pn_map[static_cast<std::size_t>(p)];
    if (line < 0 || line >= v.ports) continue;
    const int leader = v.line_leader[static_cast<std::size_t>(line)];
    if (leader < 0 || leader >= v.ports) {
      bad("CCN leader of line " + std::to_string(line) + " out of range");
      continue;
    }
    const int outp = v.dn_map[static_cast<std::size_t>(leader)];
    if (group >= 0) {
      const auto it = v.group_output.find(group);
      if (it == v.group_output.end()) {
        bad("input " + std::to_string(p) + " belongs to group " +
            std::to_string(group) + " which has no output port");
      } else if (outp != it->second) {
        bad("input " + std::to_string(p) + " of group " +
            std::to_string(group) + " reaches port " + std::to_string(outp) +
            " instead of the group's port " + std::to_string(it->second));
      }
    } else if (port_owner.contains(outp)) {
      bad("idle input " + std::to_string(p) + " reaches group " +
          std::to_string(port_owner.at(outp)) + "'s output port " +
          std::to_string(outp));
    }
  }
}

void check_path_db(const graph::AllPairsPaths& db, const graph::Graph& g,
                   std::vector<Violation>& out) {
  const int n = g.num_nodes();
  if (db.num_nodes() != n) {
    out.push_back({kPathDbConsistent,
                   "database covers " + std::to_string(db.num_nodes()) +
                       " nodes, topology has " + std::to_string(n)});
    return;
  }
  // Exact == on doubles is intentional throughout: the audited claim is
  // bit-identity of the incremental updates, not numerical closeness (inf ==
  // inf holds for unreachable nodes, and no field is ever NaN).
  const graph::AllPairsPaths oracle(g);
  auto compare_run = [&](const graph::ShortestPaths& got,
                         const graph::ShortestPaths& want, const char* which,
                         graph::NodeId src) {
    for (graph::NodeId v = 0; v < n; ++v) {
      const auto idx = static_cast<std::size_t>(v);
      if (got.dist[idx] == want.dist[idx] &&
          got.companion[idx] == want.companion[idx] &&
          got.parent[idx] == want.parent[idx])
        continue;
      out.push_back({kPathDbConsistent,
                     std::string(which) + " run from " + node_str(src) +
                         " diverges from a from-scratch rebuild at node " +
                         node_str(v)});
      return;  // one violation per run keeps the report readable
    }
  };
  for (graph::NodeId s = 0; s < n; ++s) {
    compare_run(db.sl_from(s), oracle.sl_from(s), "P_sl", s);
    compare_run(db.lc_from(s), oracle.lc_from(s), "P_lc", s);
    // next_hop() requires reachability, so it is compared only where both
    // runs agree the destination is reachable.
    for (graph::NodeId to = 0; to < n; ++to) {
      if (!db.sl_from(s).reachable(to) || !oracle.sl_from(s).reachable(to) ||
          db.next_hop(s, to) == oracle.next_hop(s, to))
        continue;
      out.push_back({kPathDbConsistent,
                     "first hop of the unicast route " + node_str(s) +
                         " -> " + node_str(to) +
                         " diverges from a from-scratch rebuild"});
      break;  // one violation per source row
    }
  }
}

std::string format(const std::vector<Violation>& violations) {
  std::string r;
  for (const Violation& v : violations) {
    r += v.invariant;
    r += ": ";
    r += v.detail;
    r += "\n";
  }
  return r;
}

}  // namespace scmp::verify
