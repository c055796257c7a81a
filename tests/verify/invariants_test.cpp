// The invariant catalog under test, two ways:
//   1. healthy worlds audit clean (snapshots of real SCMP runs, plus the
//      auditor attached to the comparison protocols and the fabric);
//   2. mutant snapshots — a healthy snapshot corrupted exactly the way a
//      protocol bug of each invariant class would corrupt the live state —
//      make the matching check fire. The repo-wide suite is audit-clean
//      (see churn_test.cpp), so these mutants are the proof that every
//      invariant class actually detects its bug class rather than silently
//      passing everything.
#include "verify/invariants.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "core/scmp.hpp"
#include "fabric/mrouter_fabric.hpp"
#include "helpers.hpp"
#include "verify/auditor.hpp"
#include "verify/snapshot.hpp"

namespace scmp::verify {
namespace {

constexpr GroupId kGroup = 1;

/// Minimal SCMP world on the paper's Fig. 5 topology with members joined
/// and drained to quiescence — the healthy baseline every mutant corrupts.
class VerifyFixture {
 public:
  explicit VerifyFixture(graph::Graph graph = test::paper_fig5_topology())
      : g_(std::move(graph)), net_(g_, queue_), igmp_(queue_, g_.num_nodes()) {
    core::Scmp::Config cfg;
    cfg.mrouter = 0;
    scmp_ = std::make_unique<core::Scmp>(net_, igmp_, cfg);
  }

  void join(graph::NodeId r) {
    scmp_->host_join(r, kGroup);
    queue_.run_all();
  }
  void leave(graph::NodeId r) {
    scmp_->host_leave(r, kGroup);
    queue_.run_all();
  }

  GroupSnapshot snapshot() const {
    return take_group_snapshot(*scmp_, kGroup);
  }

  std::vector<Violation> check(const GroupSnapshot& s) const {
    std::vector<Violation> out;
    check_group(s, net_.graph(), out);
    return out;
  }

  graph::Graph g_;
  sim::EventQueue queue_;
  sim::Network net_;
  igmp::IgmpDomain igmp_;
  std::unique_ptr<core::Scmp> scmp_;
};

bool has_invariant(const std::vector<Violation>& vs, const char* id) {
  for (const Violation& v : vs) {
    if (v.invariant == id) return true;
  }
  return false;
}

TEST(Invariants, HealthySnapshotIsClean) {
  VerifyFixture f;
  f.join(4);
  f.join(3);
  f.join(5);
  const auto violations = f.check(f.snapshot());
  EXPECT_TRUE(violations.empty()) << format(violations);
}

TEST(Invariants, HealthyAfterLeaveIsClean) {
  VerifyFixture f;
  f.join(4);
  f.join(3);
  f.leave(4);
  const auto violations = f.check(f.snapshot());
  EXPECT_TRUE(violations.empty()) << format(violations);
}

TEST(Invariants, AuditorCleanOnHealthyWorld) {
  VerifyFixture f;
  f.join(4);
  f.join(5);
  const InvariantAuditor auditor(*f.scmp_);
  EXPECT_TRUE(auditor.audit().empty());
  EXPECT_EQ(auditor.audits_run(), 1u);
  auditor.audit_or_die();  // must not die
}

// ---- invariant class 1: tree well-formedness -------------------------------

// Mutant: the bug class where a graft wires a cycle into the parent map
// (e.g. loop elimination re-parenting the wrong node). 3's chain 3->2->3
// never reaches the root.
TEST(Invariants, TreeMutant_CycleDetected) {
  VerifyFixture f;
  f.join(4);
  f.join(3);
  GroupSnapshot s = f.snapshot();
  ASSERT_TRUE(s.parent.contains(3) && s.parent.contains(2));
  s.parent[2] = 3;  // 2's real parent is on the 0->...->3 chain: now a cycle
  EXPECT_TRUE(has_invariant(f.check(s), kTreeWellFormed));
}

// Mutant: a tree edge that does not exist in the topology (a graft that
// ignored the graph, or state surviving a link failure un-repaired).
TEST(Invariants, TreeMutant_PhantomEdgeDetected) {
  VerifyFixture f;
  f.join(4);
  GroupSnapshot s = f.snapshot();
  ASSERT_TRUE(s.parent.contains(4));
  s.parent[4] = 3;  // Fig. 5 has no 4-3 link
  EXPECT_TRUE(has_invariant(f.check(s), kTreeWellFormed));
}

// Mutant: a member the tree forgot (join recorded in IGMP/database but the
// graft never happened) — the tree no longer spans the membership.
TEST(Invariants, TreeMutant_MissingMemberDetected) {
  VerifyFixture f;
  f.join(4);
  f.join(5);
  GroupSnapshot s = f.snapshot();
  s.tree_members.erase(5);
  s.parent.erase(5);
  EXPECT_TRUE(has_invariant(f.check(s), kTreeWellFormed));
}

// Mutant: a dangling non-member leaf (a prune that stopped early and left
// the relay branch in the tree).
TEST(Invariants, TreeMutant_NonMemberLeafDetected) {
  VerifyFixture f;
  f.join(3);
  GroupSnapshot s = f.snapshot();
  // Attach relay node 1 as a childless leaf off the root.
  ASSERT_FALSE(s.parent.contains(1));
  s.parent[1] = 0;
  EXPECT_TRUE(has_invariant(f.check(s), kTreeWellFormed));
}

// Mutant: a child listed twice in the m-router's live tree. Every node still
// names one parent, so the parent map looks healthy, but TREE packets are
// encoded from the children lists: the snapshot records validate() for this.
TEST(Invariants, TreeMutant_ChildListedTwiceDetected) {
  VerifyFixture f;
  f.join(4);
  f.join(3);
  const core::DcdmTree* dcdm = f.scmp_->group_tree(kGroup);
  ASSERT_NE(dcdm, nullptr);
  // The DcdmTree itself is not const; only the accessor is.
  auto& tree = const_cast<graph::MulticastTree&>(dcdm->tree());
  graph::MulticastTreeTestAccess::children(tree, tree.parent(3)).push_back(3);

  GroupSnapshot s = f.snapshot();
  EXPECT_FALSE(s.tree_valid);
  EXPECT_TRUE(has_invariant(f.check(s), kTreeWellFormed));
  s.tree_valid = true;  // what the parent map alone shows
  EXPECT_FALSE(has_invariant(f.check(s), kTreeWellFormed));
}

// ---- invariant class 2: bidirectional forwarding symmetry ------------------

// Mutant: the ISSUE's example bug — an install that skips the reverse edge:
// the child's entry points up, but the parent never learned the child.
TEST(Invariants, SymmetryMutant_MissingReverseEdgeDetected) {
  VerifyFixture f(test::line(4));
  f.join(3);
  GroupSnapshot s = f.snapshot();
  bool corrupted = false;
  for (EntrySnapshot& e : s.entries) {
    if (e.router == 1) {  // relay: drop its knowledge of downstream 2
      e.downstream_routers.erase(2);
      corrupted = true;
    }
  }
  ASSERT_TRUE(corrupted);
  EXPECT_TRUE(has_invariant(f.check(s), kForwardingSymmetry));
}

// Mutant: an i-router whose entry vanished while it is still on the tree
// (lost BRANCH install): upstream traffic has a hole.
TEST(Invariants, SymmetryMutant_MissingEntryDetected) {
  VerifyFixture f(test::line(4));
  f.join(3);
  GroupSnapshot s = f.snapshot();
  std::erase_if(s.entries,
                [](const EntrySnapshot& e) { return e.router == 2; });
  EXPECT_TRUE(has_invariant(f.check(s), kForwardingSymmetry));
}

// Mutant: an entry pointing upstream at a router that is not its tree
// parent (a BRANCH applied against a stale tree version).
TEST(Invariants, SymmetryMutant_WrongUpstreamDetected) {
  VerifyFixture f;
  f.join(4);
  f.join(3);
  GroupSnapshot s = f.snapshot();
  bool corrupted = false;
  for (EntrySnapshot& e : s.entries) {
    if (e.router == 3 && s.parent.contains(3)) {
      e.upstream = 4;  // real parent is 2 (or 0 via direct link)
      corrupted = e.upstream != s.parent[3];
    }
  }
  ASSERT_TRUE(corrupted);
  EXPECT_TRUE(has_invariant(f.check(s), kForwardingSymmetry));
}

// ---- invariant class 3: delay-constraint satisfaction ----------------------

// Mutant: a member whose tree path got longer than the bound it was admitted
// under (a restructure that ignored the delay constraint).
TEST(Invariants, DelayMutant_BoundExceededDetected) {
  VerifyFixture f;
  f.join(4);
  f.join(3);
  GroupSnapshot s = f.snapshot();
  ASSERT_TRUE(s.admitted_bound.contains(4));
  s.member_delay[4] = s.admitted_bound[4] + 1.0;
  EXPECT_TRUE(has_invariant(f.check(s), kDelayBound));
}

// Mutant: a member admitted without any recorded bound (the admission ledger
// and the membership went out of sync).
TEST(Invariants, DelayMutant_MissingAdmissionDetected) {
  VerifyFixture f;
  f.join(4);
  GroupSnapshot s = f.snapshot();
  s.admitted_bound.erase(4);
  EXPECT_TRUE(has_invariant(f.check(s), kDelayBound));
}

// ---- invariant class 4: no orphan forwarding state -------------------------

// Mutant: a router that kept its entry after the PRUNE removed it from the
// authoritative tree (lost PRUNE / lost CLEAR).
TEST(Invariants, OrphanMutant_StaleEntryDetected) {
  VerifyFixture f(test::line(4));
  f.join(3);
  GroupSnapshot s = f.snapshot();
  s.parent.erase(3);  // tree says 3 left...
  s.tree_members.erase(3);
  s.igmp_members.erase(3);
  s.db_members.erase(3);
  // ...but its entry (already in s.entries from the live join) remains.
  EXPECT_TRUE(has_invariant(f.check(s), kNoOrphanState));
}

// Mutant: installed state outliving its whole session (end_group_session
// whose CLEAR never reached a router).
TEST(Invariants, OrphanMutant_EndedSessionStateDetected) {
  VerifyFixture f(test::line(4));
  f.join(3);
  GroupSnapshot s = f.snapshot();
  s.session_active = false;
  s.parent.clear();
  s.tree_members.clear();
  s.member_delay.clear();
  s.admitted_bound.clear();
  EXPECT_TRUE(has_invariant(f.check(s), kNoOrphanState));
}

// ---- invariant class 5: fabric validity ------------------------------------

fabric::MRouterFabric configured_fabric() {
  fabric::MRouterFabric fabric(8);
  std::vector<fabric::FabricSession> sessions(2);
  sessions[0].group = 1;
  sessions[0].input_ports = {0, 3, 5};
  sessions[1].group = 2;
  sessions[1].input_ports = {1, 6};
  fabric.configure(sessions);
  return fabric;
}

TEST(Invariants, HealthyFabricIsClean) {
  const fabric::MRouterFabric fabric = configured_fabric();
  std::vector<Violation> out;
  check_fabric(view_of(fabric), out);
  EXPECT_TRUE(out.empty()) << format(out);
}

// Mutant: PN no longer a permutation (two inputs on one line — colliding
// cells inside the fabric).
TEST(Invariants, FabricMutant_BrokenPermutationDetected) {
  FabricView v = view_of(configured_fabric());
  v.pn_map[0] = v.pn_map[1];
  std::vector<Violation> out;
  check_fabric(v, out);
  EXPECT_TRUE(has_invariant(out, kFabricValidity));
}

// Mutant: a CCN component merging two groups' lines — the cross-group
// connection the sandwich fabric must never make.
TEST(Invariants, FabricMutant_CrossGroupMergeDetected) {
  FabricView v = view_of(configured_fabric());
  // Point group 2's first line at group 1's component leader.
  int g1_leader = -1, g2_line = -1;
  for (int p = 0; p < v.ports; ++p) {
    const int line = v.pn_map[static_cast<std::size_t>(p)];
    if (v.input_group[static_cast<std::size_t>(p)] == 1 && g1_leader < 0)
      g1_leader = v.line_leader[static_cast<std::size_t>(line)];
    if (v.input_group[static_cast<std::size_t>(p)] == 2 && g2_line < 0)
      g2_line = line;
  }
  ASSERT_GE(g1_leader, 0);
  ASSERT_GE(g2_line, 0);
  v.line_leader[static_cast<std::size_t>(g2_line)] = g1_leader;
  std::vector<Violation> out;
  check_fabric(v, out);
  EXPECT_TRUE(has_invariant(out, kFabricValidity));
}

// Mutant: the DN delivering a group's cells to another group's output port.
TEST(Invariants, FabricMutant_WrongOutputPortDetected) {
  FabricView v = view_of(configured_fabric());
  ASSERT_TRUE(v.group_output.contains(1) && v.group_output.contains(2));
  // Re-route group 1's leader line onto group 2's output port.
  for (int p = 0; p < v.ports; ++p) {
    if (v.input_group[static_cast<std::size_t>(p)] != 1) continue;
    const int line = v.pn_map[static_cast<std::size_t>(p)];
    const int leader = v.line_leader[static_cast<std::size_t>(line)];
    v.dn_map[static_cast<std::size_t>(leader)] = v.group_output[2];
  }
  std::vector<Violation> out;
  check_fabric(v, out);
  EXPECT_TRUE(has_invariant(out, kFabricValidity));
}

// The auditor wires the fabric check in when given a fabric.
TEST(Invariants, AuditorCoversFabric) {
  VerifyFixture f;
  f.join(4);
  const fabric::MRouterFabric fabric = configured_fabric();
  const InvariantAuditor auditor(*f.scmp_, &fabric);
  EXPECT_TRUE(auditor.audit().empty());
}

// ---- snapshot plumbing -----------------------------------------------------

TEST(Snapshot, CapturesMembershipAndEntries) {
  VerifyFixture f(test::line(4));
  f.join(3);
  const GroupSnapshot s = f.snapshot();
  EXPECT_EQ(s.group, kGroup);
  EXPECT_EQ(s.root, 0);
  EXPECT_TRUE(s.session_active);
  EXPECT_TRUE(s.tree_members.contains(3));
  EXPECT_TRUE(s.igmp_members.contains(3));
  EXPECT_TRUE(s.db_members.contains(3));
  EXPECT_EQ(s.parent.size(), 4u);  // 0-1-2-3 chain
  EXPECT_EQ(s.entries.size(), 3u);  // the m-router holds no entry
  EXPECT_TRUE(s.admitted_bound.contains(3));
}

TEST(Snapshot, FullSnapshotCoversAllGroups) {
  VerifyFixture f;
  f.scmp_->host_join(3, 1);
  f.scmp_->host_join(4, 2);
  f.queue_.run_all();
  const ScmpSnapshot snap = take_snapshot(*f.scmp_);
  EXPECT_EQ(snap.groups.size(), 2u);
}

}  // namespace
}  // namespace scmp::verify
