// Network::fail_link and the hook it calls, Scmp::handle_link_event — the
// incremental single-link repair path. It must leave the domain in exactly
// the state a fresh world on the residual topology reaches (same path store
// bit-for-bit, same trees, consistent installed state), while recomputing
// only the dirty Dijkstra sources; the repair must be local: only a tree
// that lost an edge is rebuilt, every other group sends nothing; and a
// repeated hook call is a no-op.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "core/scmp.hpp"
#include "helpers.hpp"
#include "igmp/igmp.hpp"
#include "obs/metrics.hpp"
#include "sim/event_queue.hpp"
#include "sim/network.hpp"
#include "sim/trace.hpp"
#include "topo/arpanet.hpp"

namespace scmp::core {
namespace {

constexpr proto::GroupId kGroup = 1;

struct Fixture {
  explicit Fixture(const graph::Graph& graph)
      : g(graph), net(g, queue), igmp(queue, g.num_nodes()) {
    Scmp::Config cfg;
    cfg.mrouter = 0;
    scmp = std::make_unique<Scmp>(net, igmp, cfg);
  }

  void join_all(const std::vector<graph::NodeId>& members,
                proto::GroupId group = kGroup) {
    for (graph::NodeId m : members) scmp->host_join(m, group);
    queue.run_all();
  }

  graph::Graph g;
  sim::EventQueue queue;
  sim::Network net;
  igmp::IgmpDomain igmp;
  std::unique_ptr<Scmp> scmp;
};

/// An on-tree link of the group's current tree (repair is guaranteed to
/// change something), whose removal keeps the topology connected.
std::pair<graph::NodeId, graph::NodeId> pick_tree_link(const Fixture& f) {
  const DcdmTree* tree = f.scmp->group_tree(kGroup);
  EXPECT_NE(tree, nullptr);
  for (const auto& [child, parent] : tree->tree().edges()) {
    graph::Graph probe = f.net.graph();
    probe.remove_edge(child, parent);
    if (probe.is_connected()) return {child, parent};
  }
  ADD_FAILURE() << "no removable on-tree link";
  return {graph::kInvalidNode, graph::kInvalidNode};
}

TEST(ScmpLinkEvent, MatchesFullTopologyChange) {
  Rng rng(3);
  const auto topo = topo::arpanet(rng);
  // Ascending, one join at a time: the order a rebuild joins them in.
  const std::vector<graph::NodeId> members{5, 17, 29, 41};

  Fixture incremental(topo.graph);
  for (graph::NodeId m : members) incremental.join_all({m});

  const auto [u, v] = pick_tree_link(incremental);
  ASSERT_NE(u, graph::kInvalidNode);

  obs::set_metrics_enabled(true);
  const obs::Counter& sources =
      obs::counter("paths.rebuild.sources_recomputed");
  const std::uint64_t before = sources.value();
  incremental.net.fail_link(u, v);
  const std::uint64_t recomputed = sources.value() - before;
  obs::set_metrics_enabled(false);
  incremental.queue.run_all();

  // A failed tree link dirties at least its two endpoints' runs, but never
  // requires every source.
  EXPECT_GE(recomputed, 1u);
  EXPECT_LE(recomputed, static_cast<std::uint64_t>(topo.graph.num_nodes()));

  // A fresh world on the residual topology, joined in the same order.
  graph::Graph residual = topo.graph;
  residual.remove_edge(u, v);
  Fixture fresh(residual);
  for (graph::NodeId m : members) fresh.join_all({m});

  test::expect_paths_identical(incremental.net.paths(), fresh.net.paths());
  ASSERT_NE(incremental.scmp->group_tree(kGroup), nullptr);
  ASSERT_NE(fresh.scmp->group_tree(kGroup), nullptr);
  EXPECT_EQ(incremental.scmp->group_tree(kGroup)->tree().edges(),
            fresh.scmp->group_tree(kGroup)->tree().edges());
  EXPECT_TRUE(incremental.scmp->network_state_consistent(kGroup));
}

TEST(ScmpLinkEvent, OffTreeLinkStillRepairsPathDatabase) {
  // Even when the failed link carries no tree edge, the path store must end
  // up identical to a from-scratch build (relay candidates for future joins
  // and every unicast route come from it).
  const auto topo = test::random_topology(6, 30);
  Fixture f(topo.graph);
  f.join_all({3, 9, 21});

  const DcdmTree* tree = f.scmp->group_tree(kGroup);
  ASSERT_NE(tree, nullptr);
  graph::NodeId u = graph::kInvalidNode;
  graph::NodeId v = graph::kInvalidNode;
  for (graph::NodeId a = 0;
       a < topo.graph.num_nodes() && u == graph::kInvalidNode; ++a) {
    for (const auto& nb : topo.graph.neighbors(a)) {
      const bool tree_edge =
          tree->tree().on_tree(a) && tree->tree().on_tree(nb.to) &&
          (tree->tree().parent(a) == nb.to || tree->tree().parent(nb.to) == a);
      if (tree_edge) continue;
      graph::Graph probe = topo.graph;
      probe.remove_edge(a, nb.to);
      if (!probe.is_connected()) continue;
      u = a;
      v = nb.to;
      break;
    }
  }
  ASSERT_NE(u, graph::kInvalidNode) << "no removable off-tree link";

  f.net.fail_link(u, v);
  f.queue.run_all();
  test::expect_paths_identical(f.net.paths(),
                               graph::AllPairsPaths(f.net.graph()));
  EXPECT_TRUE(f.scmp->network_state_consistent(kGroup));
}

// ---- locality: only a tree that lost an edge is rebuilt -------------------

/// kGroup plus three other groups, each with its own members.
const std::map<proto::GroupId, std::vector<graph::NodeId>> kGroupMembers{
    {kGroup, {5, 17, 29, 41}},
    {2, {8, 22, 35}},
    {3, {13, 26, 44, 46}},
    {4, {3, 31, 47}},
};

std::unique_ptr<Fixture> multi_group_fixture() {
  Rng rng(3);
  auto f = std::make_unique<Fixture>(topo::arpanet(rng).graph);
  for (const auto& [group, members] : kGroupMembers)
    f->join_all(members, group);
  return f;
}

using Link = std::pair<graph::NodeId, graph::NodeId>;

/// The links `group`'s tree uses, each as (lower id, higher id).
std::set<Link> tree_links(const Fixture& f, proto::GroupId group) {
  std::set<Link> out;
  for (const auto& [child, parent] : f.scmp->group_tree(group)->tree().edges())
    out.insert(std::minmax(child, parent));
  return out;
}

/// The first link (lower id first) whose removal keeps the topology
/// connected and that kGroup's tree uses exactly when `in_kgroup_tree`, and
/// no other group's tree uses.
std::optional<Link> link_to_cut(const Fixture& f, bool in_kgroup_tree) {
  std::set<Link> others;
  for (const auto& [group, members] : kGroupMembers) {
    if (group != kGroup) others.merge(tree_links(f, group));
  }
  const std::set<Link> mine = tree_links(f, kGroup);
  const graph::Graph& g = f.net.graph();
  for (graph::NodeId a = 0; a < g.num_nodes(); ++a) {
    for (const auto& nb : g.neighbors(a)) {
      const Link link{a, nb.to};
      if (a > nb.to || others.contains(link) ||
          mine.contains(link) != in_kgroup_tree)
        continue;
      graph::Graph probe = g;
      probe.remove_edge(a, nb.to);
      if (probe.is_connected()) return link;
    }
  }
  return std::nullopt;
}

/// DcdmTree::join plus DcdmTree::leave calls made while `fn` runs.
template <typename Fn>
std::uint64_t dcdm_calls_during(Fn&& fn) {
  obs::set_metrics_enabled(true);
  const obs::Counter& joins = obs::counter("dcdm.join.calls");
  const obs::Counter& leaves = obs::counter("dcdm.leave.calls");
  const std::uint64_t before = joins.value() + leaves.value();
  fn();
  const std::uint64_t after = joins.value() + leaves.value();
  obs::set_metrics_enabled(false);
  return after - before;
}

TEST(ScmpLinkEvent, FailureRebuildsOnlyTheTreeThatUsedTheLink) {
  const auto f = multi_group_fixture();
  const std::optional<Link> cut = link_to_cut(*f, /*in_kgroup_tree=*/true);
  ASSERT_TRUE(cut.has_value()) << "no link only kGroup's tree uses";

  std::map<proto::GroupId, std::vector<Link>> trees_before;
  std::map<proto::GroupId, test::EntryDigest> entries_before;
  for (const auto& [group, members] : kGroupMembers) {
    if (group == kGroup) continue;
    trees_before[group] = f->scmp->group_tree(group)->tree().edges();
    entries_before[group] = test::installed_entries(*f->scmp, group);
  }
  const sim::TraceRecorder trace(f->net);
  f->net.fail_link(cut->first, cut->second);
  f->queue.run_all();

  EXPECT_GT(trace.count(sim::PacketType::kTree), 0u);
  EXPECT_EQ(std::count_if(trace.events().begin(), trace.events().end(),
                          [](const sim::TraceEvent& ev) {
                            return ev.group != kGroup;
                          }),
            0)
      << "control packets for groups whose trees kept every edge";
  for (const auto& [group, edges] : trees_before) {
    EXPECT_EQ(f->scmp->group_tree(group)->tree().edges(), edges)
        << "g" << group;
    EXPECT_EQ(test::installed_entries(*f->scmp, group),
              entries_before.at(group))
        << "g" << group;
    EXPECT_TRUE(f->scmp->network_state_consistent(group)) << "g" << group;
  }
  EXPECT_TRUE(f->scmp->network_state_consistent(kGroup));
  EXPECT_FALSE(tree_links(*f, kGroup).contains(*cut));
}

TEST(ScmpLinkEvent, FailureOfALinkNoTreeUsesSendsNothing) {
  const auto f = multi_group_fixture();
  const std::optional<Link> cut = link_to_cut(*f, /*in_kgroup_tree=*/false);
  ASSERT_TRUE(cut.has_value()) << "no link outside every tree";

  const sim::TraceRecorder trace(f->net);
  const std::uint64_t calls = dcdm_calls_during([&] {
    f->net.fail_link(cut->first, cut->second);
    f->queue.run_all();
  });
  EXPECT_EQ(calls, 0u);
  EXPECT_TRUE(trace.events().empty());
  test::expect_paths_identical(f->net.paths(),
                               graph::AllPairsPaths(f->net.graph()));
  for (const auto& [group, members] : kGroupMembers)
    EXPECT_TRUE(f->scmp->network_state_consistent(group)) << "g" << group;
}

TEST(ScmpLinkEvent, RepeatedLinkEventSendsNothing) {
  // fail_link has already called the hook and rebuilt the cut tree; a
  // second call right after it (without draining the rebuild's packets)
  // finds no cut tree, makes no DCDM call and sends nothing.
  const auto f = multi_group_fixture();
  const std::optional<Link> cut = link_to_cut(*f, /*in_kgroup_tree=*/true);
  ASSERT_TRUE(cut.has_value()) << "no link only kGroup's tree uses";
  const sim::TraceRecorder trace(f->net);
  f->net.fail_link(cut->first, cut->second);
  const std::size_t sent = trace.events().size();
  EXPECT_GT(sent, 0u);
  const std::uint64_t calls = dcdm_calls_during(
      [&] { f->scmp->handle_link_event(cut->first, cut->second); });
  EXPECT_EQ(calls, 0u);
  EXPECT_EQ(trace.events().size(), sent);
  f->queue.run_all();
  for (const auto& [group, members] : kGroupMembers)
    EXPECT_TRUE(f->scmp->network_state_consistent(group)) << "g" << group;
}

TEST(ScmpLinkEventDeath, LinkStillInTheGraphAborts) {
  // handle_link_event reports a failure: the link must already be gone.
  Rng rng(3);
  Fixture f(topo::arpanet(rng).graph);
  const graph::NodeId peer = f.net.graph().neighbors(0).front().to;
  EXPECT_DEATH(f.scmp->handle_link_event(0, peer),
               "Precondition violation.*has_edge");
}

}  // namespace
}  // namespace scmp::core
