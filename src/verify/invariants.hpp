// The invariant catalog: pure checks over state snapshots, one function per
// invariant class. Each violation names the invariant id (stable,
// machine-readable — the coverage manifest and the lint verify-hygiene rule
// key on these) plus a human-readable detail line.
//
// The catalog (ISSUE: the five classes the auditor must cover):
//   tree-well-formed     the m-router's authoritative tree is acyclic,
//                        connected, rooted at the anchoring m-router and
//                        spans exactly the current members (every member on
//                        the tree, every leaf a member, the three membership
//                        views — tree, database, IGMP — agree), and passes
//                        the full MulticastTree::validate (children lists,
//                        tree size).
//   forwarding-symmetry  the installed i-router state forms a bidirectional
//                        tree: every downstream edge has its reverse
//                        upstream edge and vice versa (the shared tree
//                        forwards data both ways, so a missing reverse edge
//                        silently drops traffic from part of the group).
//   delay-bound          every member's current multicast delay respects the
//                        DCDM delay bound it was admitted under.
//   no-orphan-state      no i-router holds an installed entry off the
//                        current authoritative tree (stale state after
//                        PRUNE/CLEAR/restructure), and none at all for an
//                        ended session.
//   fabric-validity      the m-router's sandwich fabric is sane: PN and DN
//                        realise true permutations, the CCN merges only
//                        lines of one group per component, and the DN never
//                        connects ports of different groups.
//   protocol-self-check  whatever MulticastProtocol::audit_state of the
//                        audited protocol reports (CBT / PIM-SM hard-state
//                        symmetry; empty by default).
//   path-db-consistent   the network's incrementally-maintained
//                        shortest-path store (AllPairsPaths::
//                        apply_link_event) matches a from-scratch build on
//                        the current topology bit-for-bit: dist, companion
//                        weight and canonical parent per source and metric,
//                        and every unicast first hop.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "graph/paths.hpp"
#include "verify/snapshot.hpp"

namespace scmp::fabric {
class MRouterFabric;
}  // namespace scmp::fabric

namespace scmp::verify {

struct Violation {
  std::string invariant;  ///< one of kInvariantIds
  std::string detail;     ///< human-readable: group, router, what broke
};

inline constexpr const char* kTreeWellFormed = "tree-well-formed";
inline constexpr const char* kForwardingSymmetry = "forwarding-symmetry";
inline constexpr const char* kDelayBound = "delay-bound";
inline constexpr const char* kNoOrphanState = "no-orphan-state";
inline constexpr const char* kFabricValidity = "fabric-validity";
inline constexpr const char* kProtocolSelfCheck = "protocol-self-check";
inline constexpr const char* kPathDbConsistent = "path-db-consistent";

/// Every invariant id the auditor can emit, in catalog order. The coverage
/// manifest (coverage_manifest.json) and tools/lint.py's verify-hygiene rule
/// cross-check against this list.
inline constexpr const char* kInvariantIds[] = {
    kTreeWellFormed,  kForwardingSymmetry, kDelayBound,    kNoOrphanState,
    kFabricValidity,  kProtocolSelfCheck,  kPathDbConsistent,
};

/// Invariant 1: authoritative-tree well-formedness (see file header).
void check_tree_well_formed(const GroupSnapshot& s, const graph::Graph& g,
                            std::vector<Violation>& out);

/// Invariant 2: bidirectional symmetry of the installed forwarding state.
void check_forwarding_symmetry(const GroupSnapshot& s,
                               std::vector<Violation>& out);

/// Invariant 3: every member's delay within its admitted DCDM bound.
void check_delay_bound(const GroupSnapshot& s, std::vector<Violation>& out);

/// Invariant 4: no installed entry off the authoritative tree.
void check_no_orphan_state(const GroupSnapshot& s,
                           std::vector<Violation>& out);

/// Runs invariants 1-4 over one group snapshot.
void check_group(const GroupSnapshot& s, const graph::Graph& g,
                 std::vector<Violation>& out);

/// Pure-data view of a configured sandwich fabric, so the fabric invariant
/// is snapshot-mutant-testable like the protocol ones.
struct FabricView {
  int ports = 0;
  std::vector<int> pn_map;         ///< input port -> PN line
  std::vector<int> line_leader;    ///< line -> CCN component leader line
  std::vector<int> dn_map;         ///< line -> DN output port
  std::vector<int> input_group;    ///< input port -> group (-1 = idle)
  std::map<int, int> group_output; ///< group -> assigned output port
  bool ccn_isolated = true;        ///< CCN's own isolation self-check
};

/// Extracts the view of the fabric's current configuration.
FabricView view_of(const fabric::MRouterFabric& fabric);

/// Invariant 5: fabric validity (PN/DN permutations, CCN conflict-free,
/// no cross-group connection through the DN).
void check_fabric(const FabricView& v, std::vector<Violation>& out);

/// Invariant 7: the (possibly incrementally-maintained) path store `db` is
/// bit-identical to a from-scratch AllPairsPaths built on `g` — every
/// source's dist/companion/parent under both metrics and every first hop.
/// O(n * Dijkstra): an oracle check, meant for audit strides, not hot paths.
void check_path_db(const graph::AllPairsPaths& db, const graph::Graph& g,
                   std::vector<Violation>& out);

/// One line per violation: "<invariant>: <detail>".
std::string format(const std::vector<Violation>& violations);

}  // namespace scmp::verify
