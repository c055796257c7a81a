#include "graph/multicast_tree.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "graph/dijkstra.hpp"
#include "helpers.hpp"

namespace scmp::graph {
namespace {

TEST(MulticastTree, InitiallyOnlyRoot) {
  const Graph g = test::line(4);
  MulticastTree t(0, g.num_nodes());
  EXPECT_EQ(t.root(), 0);
  EXPECT_TRUE(t.on_tree(0));
  EXPECT_FALSE(t.on_tree(1));
  EXPECT_EQ(t.tree_size(), 1);
  EXPECT_TRUE(t.validate(g));
}

TEST(MulticastTree, GraftSimplePath) {
  const Graph g = test::line(4);
  MulticastTree t(0, 4);
  t.graft_path({0, 1, 2, 3});
  EXPECT_TRUE(t.on_tree(3));
  EXPECT_EQ(t.parent(3), 2);
  EXPECT_EQ(t.parent(1), 0);
  EXPECT_EQ(t.tree_size(), 4);
  EXPECT_TRUE(t.validate(g));
}

TEST(MulticastTree, GraftOverlappingPathsShareEdges) {
  const Graph g = test::diamond();
  MulticastTree t(0, 4);
  t.graft_path({0, 1, 3});
  t.graft_path({0, 1});  // fully contained: no change
  EXPECT_EQ(t.tree_size(), 3);
  EXPECT_TRUE(t.validate(g));
}

TEST(MulticastTree, MembersTracked) {
  const Graph g = test::line(4);
  MulticastTree t(0, 4);
  t.graft_path({0, 1, 2});
  t.set_member(2, true);
  EXPECT_TRUE(t.is_member(2));
  EXPECT_EQ(t.members(), std::vector<NodeId>{2});
  t.set_member(2, false);
  EXPECT_TRUE(t.members().empty());
}

TEST(MulticastTreeDeath, MemberMustBeOnTree) {
  const Graph g = test::line(4);
  MulticastTree t(0, 4);
  EXPECT_DEATH(t.set_member(3, true), "Precondition");
}

TEST(MulticastTree, PruneRemovesDanglingChain) {
  const Graph g = test::line(5);
  MulticastTree t(0, 5);
  t.graft_path({0, 1, 2, 3, 4});
  t.set_member(4, true);
  t.set_member(4, false);
  t.prune_upward_from(4);
  EXPECT_EQ(t.tree_size(), 1);  // everything back to the root pruned
  EXPECT_TRUE(t.validate(g));
}

TEST(MulticastTree, PruneStopsAtMember) {
  const Graph g = test::line(5);
  MulticastTree t(0, 5);
  t.graft_path({0, 1, 2, 3, 4});
  t.set_member(2, true);
  t.prune_upward_from(4);
  EXPECT_TRUE(t.on_tree(2));
  EXPECT_FALSE(t.on_tree(3));
  EXPECT_FALSE(t.on_tree(4));
  EXPECT_TRUE(t.validate(g));
}

TEST(MulticastTree, PruneStopsAtBranchingNode) {
  Graph g(5);
  g.add_edge(0, 1, 1, 1);
  g.add_edge(1, 2, 1, 1);
  g.add_edge(1, 3, 1, 1);
  g.add_edge(3, 4, 1, 1);
  MulticastTree t(0, 5);
  t.graft_path({0, 1, 2});
  t.graft_path({1, 3, 4});
  t.set_member(2, true);
  t.prune_upward_from(4);
  // 4 and 3 go; 1 stays because it still leads to member 2.
  EXPECT_FALSE(t.on_tree(4));
  EXPECT_FALSE(t.on_tree(3));
  EXPECT_TRUE(t.on_tree(1));
  EXPECT_TRUE(t.validate(g));
}

TEST(MulticastTree, PruneNeverRemovesRoot) {
  const Graph g = test::line(3);
  MulticastTree t(0, 3);
  t.prune_upward_from(0);
  EXPECT_TRUE(t.on_tree(0));
}

TEST(MulticastTree, LoopEliminationReparents) {
  // Paper Fig. 5(c)->(d): grafting 0-2-5 when 2 is on the tree via 1
  // re-parents 2 under 0 and removes edge 1-2; 1 survives (it leads to 4).
  const Graph g = test::paper_fig5_topology();
  MulticastTree t(0, 6);
  t.graft_path({0, 1, 4});
  t.set_member(4, true);
  t.graft_path({1, 2, 3});
  t.set_member(3, true);

  t.graft_path({0, 2, 5});
  t.set_member(5, true);

  EXPECT_EQ(t.parent(2), 0);
  EXPECT_EQ(t.parent(3), 2);  // 2's old subtree stays attached
  EXPECT_EQ(t.parent(5), 2);
  EXPECT_TRUE(t.on_tree(1));
  EXPECT_EQ(t.parent(4), 1);
  // Children of 1 no longer include 2.
  const auto& kids1 = t.children(1);
  EXPECT_EQ(std::count(kids1.begin(), kids1.end(), 2), 0);
  EXPECT_TRUE(t.validate(g));
}

TEST(MulticastTree, LoopEliminationPrunesOldBranch) {
  // Old branch to the re-entered node becomes dangling and is removed.
  Graph g(6);
  g.add_edge(0, 1, 1, 1);
  g.add_edge(1, 2, 1, 1);
  g.add_edge(2, 3, 1, 1);
  g.add_edge(0, 4, 1, 1);
  g.add_edge(4, 3, 1, 1);
  g.add_edge(3, 5, 1, 1);
  MulticastTree t(0, 6);
  t.graft_path({0, 1, 2, 3});
  t.set_member(3, true);
  // New path re-enters at 3; old chain 1-2 carried no members -> pruned.
  t.graft_path({0, 4, 3, 5});
  t.set_member(5, true);
  EXPECT_FALSE(t.on_tree(1));
  EXPECT_FALSE(t.on_tree(2));
  EXPECT_EQ(t.parent(3), 4);
  EXPECT_EQ(t.parent(5), 3);
  EXPECT_TRUE(t.validate(g));
}

TEST(MulticastTree, GraftThroughAncestorDoesNotCycle) {
  // Path that climbs back through an ancestor must not create a cycle.
  const Graph g = test::line(5);
  MulticastTree t(0, 5);
  t.graft_path({0, 1, 2});
  t.set_member(2, true);
  // Path from graft node 2 back through ancestor 1 then descending again is
  // degenerate here, but exercises the ancestor guard.
  t.graft_path({2, 1, 0});
  EXPECT_TRUE(t.validate(g));
  EXPECT_TRUE(t.on_tree(2));
  EXPECT_EQ(t.parent(2), 1);
}

TEST(MulticastTree, CostAndDelay) {
  Graph g(4);
  g.add_edge(0, 1, 2, 10);
  g.add_edge(1, 2, 3, 20);
  g.add_edge(1, 3, 4, 30);
  MulticastTree t(0, 4);
  t.graft_path({0, 1, 2});
  t.graft_path({1, 3});
  t.set_member(2, true);
  t.set_member(3, true);
  EXPECT_DOUBLE_EQ(t.tree_cost(g), 60.0);
  EXPECT_DOUBLE_EQ(t.node_delay(g, 2), 5.0);
  EXPECT_DOUBLE_EQ(t.node_delay(g, 3), 6.0);
  EXPECT_DOUBLE_EQ(t.tree_delay(g), 6.0);
}

TEST(MulticastTree, TreeDelayIgnoresNonMembers) {
  Graph g(3);
  g.add_edge(0, 1, 5, 1);
  g.add_edge(1, 2, 5, 1);
  MulticastTree t(0, 3);
  t.graft_path({0, 1, 2});
  t.set_member(1, true);  // 2 is a non-member leaf (transient state)
  EXPECT_DOUBLE_EQ(t.tree_delay(g), 5.0);
}

TEST(MulticastTree, PathFromRoot) {
  const Graph g = test::line(4);
  MulticastTree t(0, 4);
  t.graft_path({0, 1, 2, 3});
  EXPECT_EQ(t.path_from_root(3), (std::vector<NodeId>{0, 1, 2, 3}));
  EXPECT_EQ(t.path_from_root(0), std::vector<NodeId>{0});
}

TEST(MulticastTree, EdgesList) {
  const Graph g = test::line(3);
  MulticastTree t(0, 3);
  t.graft_path({0, 1, 2});
  const auto edges = t.edges();
  EXPECT_EQ(edges.size(), 2u);
  EXPECT_EQ(edges[0], (std::pair<NodeId, NodeId>{1, 0}));
  EXPECT_EQ(edges[1], (std::pair<NodeId, NodeId>{2, 1}));
}

TEST(MulticastTree, ValidateDetectsMissingGraphEdge) {
  // Build a tree whose edge does not exist in a *different* graph.
  Graph g1 = test::line(3);
  Graph g2(3);
  g2.add_edge(0, 2, 1, 1);
  MulticastTree t(0, 3);
  t.graft_path({0, 1});
  EXPECT_TRUE(t.validate(g1));
  EXPECT_FALSE(t.validate(g2));
}

// ---- The local checks DcdmTree::join and leave ensure ----------------------
//
// Each death test plants one corruption that validate() catches in the part
// of the tree a graft or a prune touched, shows that the local check, run
// the way DcdmTree runs it (SCMP_ENSURES), aborts on it, and that validate()
// rejects the same state.

using Access = MulticastTreeTestAccess;

/// Line 0-1-...-5 with 0-1-2 on the tree, then the graft [1, 2, 3, 4, 5]:
/// 2 already hangs under 1, and 3, 4 and 5 are new (first_new = 2).
struct Grafted {
  static constexpr std::size_t kFirstNew = 2;
  Graph g = test::line(6);
  MulticastTree t{0, 6};
  std::vector<NodeId> path{1, 2, 3, 4, 5};
  int size_before = 0;

  Grafted() {
    t.graft_path({0, 1, 2});
    size_before = t.tree_size();
    t.graft_path(path);
    t.set_member(5, true);
  }
  bool holds(const Graph& graph) const {
    return t.validate_graft(graph, path, kFirstNew, size_before);
  }
  void ensure(const Graph& graph) const {
    SCMP_ENSURES(t.validate_graft(graph, path, kFirstNew, size_before));
  }
};

/// Line 0-1-...-5 grafted whole with members 2 and 5; 5 then leaves, and the
/// prune removes 5, 4 and 3 and stops at member 2.
struct Pruned {
  Graph g = test::line(6);
  MulticastTree t{0, 6};
  std::vector<NodeId> chain;
  NodeId survivor = kInvalidNode;
  int size_before = 0;

  Pruned() {
    t.graft_path({0, 1, 2, 3, 4, 5});
    t.set_member(2, true);
    t.set_member(5, true);
    size_before = t.tree_size();
    t.set_member(5, false);
    survivor = t.prune_upward_from(5, &chain);
  }
  bool holds() const { return t.validate_prune(chain, survivor, size_before); }
  void ensure() const {
    SCMP_ENSURES(t.validate_prune(chain, survivor, size_before));
  }
};

constexpr const char* kGraftAbort = "Postcondition violation.*validate_graft";
constexpr const char* kPruneAbort = "Postcondition violation.*validate_prune";

TEST(MulticastTree, LocalChecksAcceptHealthyGraftAndPrune) {
  const Grafted graft;
  EXPECT_TRUE(graft.t.validate(graft.g));
  EXPECT_TRUE(graft.holds(graft.g));

  const Pruned prune;
  EXPECT_EQ(prune.chain, (std::vector<NodeId>{5, 4, 3}));
  EXPECT_EQ(prune.survivor, 2);
  EXPECT_TRUE(prune.t.validate(prune.g));
  EXPECT_TRUE(prune.holds());
}

TEST(MulticastTreeDeath, GraftCheckCatchesChildListedTwice) {
  Grafted f;
  Access::children(f.t, 1).push_back(2);  // 1 -> 2 is the path's tree edge
  EXPECT_FALSE(f.t.validate(f.g));
  EXPECT_DEATH(f.ensure(f.g), kGraftAbort);
}

TEST(MulticastTreeDeath, GraftCheckCatchesPhantomChildOfNewNode) {
  Grafted f;
  Access::children(f.t, 4).push_back(1);  // 1 hangs under 0, not 4
  EXPECT_FALSE(f.t.validate(f.g));
  EXPECT_DEATH(f.ensure(f.g), kGraftAbort);
}

TEST(MulticastTreeDeath, GraftCheckCatchesPathNodeUnderWrongParent) {
  Grafted f;
  Access::parent(f.t, 4) = 2;  // 3 still lists 4
  EXPECT_FALSE(f.t.validate(f.g));
  EXPECT_DEATH(f.ensure(f.g), kGraftAbort);
}

TEST(MulticastTreeDeath, GraftCheckCatchesParentEdgeMissingFromGraph) {
  const Grafted f;
  Graph cut = f.g;
  ASSERT_TRUE(cut.remove_edge(3, 4));
  EXPECT_FALSE(f.t.validate(cut));
  EXPECT_DEATH(f.ensure(cut), kGraftAbort);
}

TEST(MulticastTreeDeath, GraftCheckCatchesCycleThroughGraft) {
  // Graft node 1 re-hung under its own child 2: every path node still hangs
  // under its predecessor, but the leaf end circles 2-1-2 and never reaches
  // the root.
  Grafted f;
  auto& root_kids = Access::children(f.t, 0);
  root_kids.erase(std::find(root_kids.begin(), root_kids.end(), 1));
  Access::parent(f.t, 1) = 2;
  Access::children(f.t, 2).push_back(1);
  EXPECT_FALSE(f.t.validate(f.g));
  EXPECT_DEATH(f.ensure(f.g), kGraftAbort);
}

TEST(MulticastTreeDeath, GraftCheckCatchesTreeSizeOffByOne) {
  Grafted f;
  ++Access::tree_size(f.t);
  EXPECT_FALSE(f.t.validate(f.g));
  EXPECT_DEATH(f.ensure(f.g), kGraftAbort);
}

TEST(MulticastTreeDeath, PruneCheckCatchesMemberFlagOnPrunedNode) {
  Pruned f;
  Access::member(f.t, 4) = 1;
  EXPECT_FALSE(f.t.validate(f.g));
  EXPECT_DEATH(f.ensure(), kPruneAbort);
}

TEST(MulticastTreeDeath, PruneCheckCatchesSurvivorListingPrunedNode) {
  Pruned f;
  Access::children(f.t, f.survivor).push_back(3);
  EXPECT_FALSE(f.t.validate(f.g));
  EXPECT_DEATH(f.ensure(), kPruneAbort);
}

TEST(MulticastTreeDeath, PruneCheckCatchesTreeSizeOffByOne) {
  Pruned f;
  ++Access::tree_size(f.t);
  EXPECT_FALSE(f.t.validate(f.g));
  EXPECT_DEATH(f.ensure(), kPruneAbort);
}

class TreeRandomOps : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TreeRandomOps, InvariantsUnderChurn) {
  const auto topo = test::random_topology(GetParam(), 30);
  const Graph& g = topo.graph;
  const ShortestPaths sp = dijkstra(g, 0, Metric::kDelay);
  Rng rng(GetParam() ^ 0xabcdef);
  MulticastTree t(0, g.num_nodes());
  std::set<NodeId> joined;
  for (int step = 0; step < 200; ++step) {
    const NodeId v =
        static_cast<NodeId>(rng.uniform_int(1, g.num_nodes() - 1));
    const int size_before = t.tree_size();
    if (!joined.contains(v)) {
      if (!t.on_tree(v)) {
        // A root path of the SPT follows tree edges until it leaves the
        // tree for good: exactly the grafts the local check covers.
        const std::vector<NodeId> path = sp.path_to(v);
        std::size_t first_new = 1;
        while (t.on_tree(path[first_new])) ++first_new;
        t.graft_path(path);
        ASSERT_TRUE(t.validate_graft(g, path, first_new, size_before))
            << "step " << step;
      }
      t.set_member(v, true);
      joined.insert(v);
    } else {
      t.set_member(v, false);
      std::vector<NodeId> chain;
      const NodeId survivor = t.prune_upward_from(v, &chain);
      ASSERT_TRUE(t.validate_prune(chain, survivor, size_before))
          << "step " << step;
      joined.erase(v);
    }
    ASSERT_TRUE(t.validate(g)) << "step " << step;
    for (NodeId m : joined) ASSERT_TRUE(t.is_member(m));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TreeRandomOps,
                         ::testing::Values(2, 9, 77, 555, 90210));

}  // namespace
}  // namespace scmp::graph
