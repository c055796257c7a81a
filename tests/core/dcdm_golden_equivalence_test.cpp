// Golden equivalence: DcdmTree's table-lookup candidate scan against the
// pre-optimization reference scan that materialized all 2m candidate paths
// and re-walked them with path_weight(). The two must agree bit-for-bit —
// same trees, same graft paths, same loop-elimination prunes and detach
// lists (and therefore the same BRANCH/PRUNE/CLEAR install traffic), same
// admitted bounds, and a delay cache equal to the reference's node_delay
// walks — over membership churn on the paper topologies, seeded random
// graphs and a transit-stub topology.
#include "core/dcdm.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "helpers.hpp"
#include "topo/arpanet.hpp"
#include "topo/transit_stub.hpp"
#include "util/rng.hpp"

namespace scmp::core {
namespace {

/// Test-only reference implementation of DCDM: the original join/leave scan,
/// kept verbatim as the oracle the optimized DcdmTree is held to.
class ReferenceDcdm {
 public:
  ReferenceDcdm(const graph::Graph& g, const graph::AllPairsPaths& paths,
                graph::NodeId root, DcdmConfig cfg = {})
      : g_(&g),
        paths_(&paths),
        cfg_(cfg),
        tree_(root, g.num_nodes()),
        admitted_bound_(static_cast<std::size_t>(g.num_nodes()),
                        std::numeric_limits<double>::quiet_NaN()) {}

  double unicast_delay(graph::NodeId v) const {
    return paths_->sl_delay(tree_.root(), v);
  }

  double delay_bound_for(graph::NodeId joining) const {
    if (cfg_.delay_slack == kLoosest) return kLoosest;
    double max_ul = unicast_delay(joining);
    for (graph::NodeId m : tree_.members())
      max_ul = std::max(max_ul, unicast_delay(m));
    return std::max(cfg_.delay_slack * max_ul, tree_.tree_delay(*g_));
  }

  JoinResult join(graph::NodeId s) {
    JoinResult result;
    if (tree_.is_member(s)) return result;
    result.is_new_member = true;
    if (tree_.on_tree(s)) {
      result.already_on_tree = true;
      tree_.set_member(s, true);
      admitted_bound_[static_cast<std::size_t>(s)] = delay_bound_for(s);
      return result;
    }

    const double bound = delay_bound_for(s);

    struct Candidate {
      double cost = 0.0;
      double ml = 0.0;
      graph::NodeId graft = graph::kInvalidNode;
      std::vector<graph::NodeId> path;
    };
    Candidate best;
    bool have_best = false;
    auto consider = [&](graph::NodeId t, std::vector<graph::NodeId> path) {
      if (path.empty()) return;
      const double pd = graph::path_weight(*g_, path, graph::Metric::kDelay);
      const double ml = tree_.node_delay(*g_, t) + pd;
      if (ml > bound) return;
      const double pc = graph::path_weight(*g_, path, graph::Metric::kCost);
      const bool better =
          !have_best || pc < best.cost ||
          (pc == best.cost &&
           (ml < best.ml || (ml == best.ml && t < best.graft)));
      if (better) {
        best = Candidate{pc, ml, t, std::move(path)};
        have_best = true;
      }
    };
    for (graph::NodeId t : tree_.on_tree_nodes()) {
      consider(t, paths_->sl_path(t, s));
      consider(t, paths_->lc_path(t, s));
    }
    EXPECT_TRUE(have_best);
    if (!have_best) return result;

    std::vector<graph::NodeId> old_parent(
        static_cast<std::size_t>(g_->num_nodes()), graph::kInvalidNode);
    std::vector<char> was_on_tree(static_cast<std::size_t>(g_->num_nodes()),
                                  0);
    for (graph::NodeId v : tree_.on_tree_nodes()) {
      was_on_tree[static_cast<std::size_t>(v)] = 1;
      old_parent[static_cast<std::size_t>(v)] = tree_.parent(v);
    }
    std::vector<std::pair<graph::NodeId, double>> old_member_delay;
    for (graph::NodeId m : tree_.members())
      old_member_delay.emplace_back(m, tree_.node_delay(*g_, m));
    // The children sets, for the detach diff the m-router used to compute.
    std::vector<std::vector<graph::NodeId>> old_children(
        static_cast<std::size_t>(g_->num_nodes()));
    for (graph::NodeId v : tree_.on_tree_nodes())
      old_children[static_cast<std::size_t>(v)] = tree_.children(v);

    tree_.graft_path(best.path);
    tree_.set_member(s, true);
    admitted_bound_[static_cast<std::size_t>(s)] = bound;
    for (const auto& [m, before] : old_member_delay) {
      const double after = tree_.node_delay(*g_, m);
      if (after != before) {
        admitted_bound_[static_cast<std::size_t>(m)] =
            std::max(admitted_bound_[static_cast<std::size_t>(m)], after);
      }
    }
    result.graft_path = std::move(best.path);

    for (graph::NodeId v = 0; v < g_->num_nodes(); ++v) {
      if (!was_on_tree[static_cast<std::size_t>(v)]) continue;
      if (!tree_.on_tree(v)) {
        result.removed_nodes.push_back(v);
        result.restructured = true;
      } else if (tree_.parent(v) !=
                 old_parent[static_cast<std::size_t>(v)]) {
        result.restructured = true;
      }
    }
    // Every surviving router's lost children, in the m-router's CLEAR order.
    for (graph::NodeId v = 0; v < g_->num_nodes(); ++v) {
      if (!tree_.on_tree(v)) continue;
      const auto& now = tree_.children(v);
      for (graph::NodeId c : old_children[static_cast<std::size_t>(v)]) {
        if (std::find(now.begin(), now.end(), c) == now.end())
          result.detached.emplace_back(v, c);
      }
    }
    return result;
  }

  LeaveResult leave(graph::NodeId s) {
    LeaveResult result;
    if (!tree_.is_member(s)) return result;
    result.was_member = true;
    tree_.set_member(s, false);
    admitted_bound_[static_cast<std::size_t>(s)] =
        std::numeric_limits<double>::quiet_NaN();
    std::vector<char> was_on_tree(static_cast<std::size_t>(g_->num_nodes()),
                                  0);
    for (graph::NodeId v : tree_.on_tree_nodes())
      was_on_tree[static_cast<std::size_t>(v)] = 1;
    tree_.prune_upward_from(s);
    for (graph::NodeId v = 0; v < g_->num_nodes(); ++v) {
      if (was_on_tree[static_cast<std::size_t>(v)] && !tree_.on_tree(v))
        result.removed_nodes.push_back(v);
    }
    return result;
  }

  const graph::MulticastTree& tree() const { return tree_; }
  double admitted_bound(graph::NodeId m) const {
    return admitted_bound_[static_cast<std::size_t>(m)];
  }

 private:
  const graph::Graph* g_;
  const graph::AllPairsPaths* paths_;
  DcdmConfig cfg_;
  graph::MulticastTree tree_;
  std::vector<double> admitted_bound_;
};

void expect_join_results_equal(const JoinResult& got, const JoinResult& want) {
  EXPECT_EQ(got.is_new_member, want.is_new_member);
  EXPECT_EQ(got.already_on_tree, want.already_on_tree);
  EXPECT_EQ(got.graft_path, want.graft_path);
  EXPECT_EQ(got.restructured, want.restructured);
  EXPECT_EQ(got.removed_nodes, want.removed_nodes);
  EXPECT_EQ(got.detached, want.detached);
}

void expect_trees_equal(const graph::Graph& g, const DcdmTree& got,
                        const ReferenceDcdm& want) {
  // edges() pairs every on-tree node with its parent, so this covers
  // topology, membership and parents in one shot; bounds and aggregate
  // weights compare with exact == (bit-identity, not closeness).
  EXPECT_EQ(got.tree().edges(), want.tree().edges());
  EXPECT_EQ(got.tree().members(), want.tree().members());
  EXPECT_EQ(got.tree_cost(), want.tree().tree_cost(g));
  EXPECT_EQ(got.tree_delay(), want.tree().tree_delay(g));
  for (graph::NodeId m : got.tree().members())
    EXPECT_EQ(got.admitted_bound(m), want.admitted_bound(m)) << "member " << m;
  for (graph::NodeId v : want.tree().on_tree_nodes())
    EXPECT_EQ(got.multicast_delay(v), want.tree().node_delay(g, v))
        << "node " << v;
}

/// Drives both implementations through the same churn and returns how many
/// joins restructured the tree (grafts that re-entered it).
int run_churn(const graph::Graph& g, double slack, std::uint64_t seed,
              int events) {
  const graph::AllPairsPaths paths(g);
  DcdmTree opt(g, paths, 0, DcdmConfig{slack});
  ReferenceDcdm ref(g, paths, 0, DcdmConfig{slack});
  Rng rng(seed);
  int restructures = 0;
  for (int i = 0; i < events; ++i) {
    const auto v =
        static_cast<graph::NodeId>(rng.uniform_int(1, g.num_nodes() - 1));
    if (rng.uniform01() < 0.65) {
      const JoinResult got = opt.join(v);
      expect_join_results_equal(got, ref.join(v));
      if (got.restructured) ++restructures;
    } else {
      const LeaveResult a = opt.leave(v);
      const LeaveResult b = ref.leave(v);
      EXPECT_EQ(a.was_member, b.was_member);
      EXPECT_EQ(a.removed_nodes, b.removed_nodes);
    }
    expect_trees_equal(g, opt, ref);
    if (::testing::Test::HasFailure()) break;  // first divergence is enough
  }
  return restructures;
}

TEST(DcdmGoldenEquivalence, PaperFig5AllSlacks) {
  for (double slack : {1.0, 1.5, kLoosest})
    run_churn(test::paper_fig5_topology(), slack, 42, 60);
}

TEST(DcdmGoldenEquivalence, ArpanetTightest) {
  Rng rng(3);
  run_churn(topo::arpanet(rng).graph, 1.0, 7, 120);
}

TEST(DcdmGoldenEquivalence, ArpanetLoosest) {
  Rng rng(3);
  run_churn(topo::arpanet(rng).graph, kLoosest, 8, 120);
}

TEST(DcdmGoldenEquivalence, TransitStubReentersTree) {
  // The paper topologies may never graft a path that re-enters the tree;
  // transit-stub churn does, so this case pins the loop-elimination branch:
  // its detach list, its prunes and the delay cache of the subtrees it
  // moves. Only a delay constraint can pick such a path: with positive link
  // costs, the node where a path re-enters always offers a cheaper
  // candidate, so the loosest slack never re-enters.
  Rng rng(4);
  const auto topo = topo::transit_stub(topo::TransitStubConfig{}, rng);
  int reentries = 0;
  for (std::uint64_t seed : {11u, 12u}) {
    reentries += run_churn(topo.graph, 1.0, seed, 400);
    run_churn(topo.graph, kLoosest, seed, 400);
  }
  EXPECT_GT(reentries, 0);
}

class GoldenProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GoldenProperty, SeededWaxmanChurn) {
  const auto topo = test::random_topology(GetParam(), 35);
  run_churn(topo.graph, 1.0, GetParam() * 31 + 1, 100);
  run_churn(topo.graph, 2.0, GetParam() * 31 + 2, 100);
  run_churn(topo.graph, kLoosest, GetParam() * 31 + 3, 100);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GoldenProperty,
                         ::testing::Values(1u, 5u, 11u, 23u));

}  // namespace
}  // namespace scmp::core
