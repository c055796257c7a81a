// Hot-standby m-router failover (paper §V advantage 4): the secondary
// m-router runs concurrently with a replicated service database; on failover
// it rebuilds every group tree rooted at itself and reinstalls it.
#include <gtest/gtest.h>

#include <map>

#include "core/scmp.hpp"
#include "helpers.hpp"
#include "obs/metrics.hpp"

namespace scmp::core {
namespace {

constexpr proto::GroupId kGroup = 1;

class FailoverFixture {
 public:
  explicit FailoverFixture(graph::Graph graph, graph::NodeId primary,
                           DcdmConfig dcdm = {})
      : g_(std::move(graph)), net_(g_, queue_), igmp_(queue_, g_.num_nodes()) {
    Scmp::Config cfg;
    cfg.mrouter = primary;
    cfg.dcdm = dcdm;
    scmp_ = std::make_unique<Scmp>(net_, igmp_, cfg);
    net_.set_delivery_callback(
        [this](const sim::Packet& pkt, graph::NodeId member, sim::SimTime) {
          deliveries_[pkt.uid].push_back(member);
        });
  }

  std::vector<graph::NodeId> send_and_collect(graph::NodeId source) {
    scmp_->send_data(source, kGroup);
    queue_.run_all();
    if (deliveries_.empty()) return {};
    auto got = deliveries_.rbegin()->second;
    std::sort(got.begin(), got.end());
    return got;
  }

  graph::Graph g_;
  sim::EventQueue queue_;
  sim::Network net_;
  igmp::IgmpDomain igmp_;
  std::unique_ptr<Scmp> scmp_;
  std::map<std::uint64_t, std::vector<graph::NodeId>> deliveries_;
};

TEST(ScmpFailover, PromotesStandbyAndRebuildsTree) {
  const auto topo = test::random_topology(42, 30);
  FailoverFixture f(topo.graph, 0);
  Rng rng(9);
  std::vector<graph::NodeId> members;
  for (int v : rng.sample_without_replacement(topo.graph.num_nodes() - 2, 8))
    members.push_back(v + 2);  // avoid both m-router candidates 0 and 1
  for (graph::NodeId m : members) f.scmp_->host_join(m, kGroup);
  f.queue_.run_all();
  ASSERT_TRUE(f.scmp_->network_state_consistent(kGroup));

  f.scmp_->fail_over_to(1);
  f.queue_.run_all();
  EXPECT_EQ(f.scmp_->mrouter(), 1);
  EXPECT_TRUE(f.scmp_->network_state_consistent(kGroup));
  const DcdmTree* tree = f.scmp_->group_tree(kGroup);
  ASSERT_NE(tree, nullptr);
  EXPECT_EQ(tree->root(), 1);

  std::sort(members.begin(), members.end());
  EXPECT_EQ(f.send_and_collect(0), members);  // old primary is now off-tree
}

TEST(ScmpFailover, MembershipDatabaseSurvives) {
  FailoverFixture f(test::line(5), 0);
  f.scmp_->host_join(3, kGroup);
  f.scmp_->host_join(4, kGroup);
  f.queue_.run_all();
  f.scmp_->fail_over_to(2);
  f.queue_.run_all();
  EXPECT_TRUE(f.scmp_->database().members_of(kGroup).contains(3));
  EXPECT_TRUE(f.scmp_->database().members_of(kGroup).contains(4));
}

TEST(ScmpFailover, FailoverToSelfIsNoop) {
  FailoverFixture f(test::line(3), 0);
  f.scmp_->host_join(2, kGroup);
  f.queue_.run_all();
  const auto before = f.net_.stats().protocol_link_crossings;
  f.scmp_->fail_over_to(0);
  f.queue_.run_all();
  EXPECT_EQ(f.net_.stats().protocol_link_crossings, before);
  EXPECT_TRUE(f.scmp_->network_state_consistent(kGroup));
}

TEST(ScmpFailover, JoinsContinueAfterFailover) {
  FailoverFixture f(test::line(6), 0);
  f.scmp_->host_join(3, kGroup);
  f.queue_.run_all();
  f.scmp_->fail_over_to(5);
  f.queue_.run_all();
  f.scmp_->host_join(1, kGroup);
  f.queue_.run_all();
  EXPECT_TRUE(f.scmp_->network_state_consistent(kGroup));
  EXPECT_EQ(f.send_and_collect(5), (std::vector<graph::NodeId>{1, 3}));
}

TEST(ScmpFailover, LeavesContinueAfterFailover) {
  FailoverFixture f(test::line(6), 0);
  f.scmp_->host_join(3, kGroup);
  f.scmp_->host_join(1, kGroup);
  f.queue_.run_all();
  f.scmp_->fail_over_to(5);
  f.queue_.run_all();
  f.scmp_->host_leave(3, kGroup);
  f.queue_.run_all();
  EXPECT_TRUE(f.scmp_->network_state_consistent(kGroup));
  EXPECT_EQ(f.send_and_collect(5), (std::vector<graph::NodeId>{1}));
}

/// Growth of scmp.rx.redirected[`tag`] while `run` executes.
template <typename Run>
std::uint64_t redirects_during(const char* tag, Run&& run) {
  obs::set_metrics_enabled(true);
  obs::Counter& redirected = obs::counter("scmp.rx.redirected", tag);
  const std::uint64_t before = redirected.value();
  run();
  obs::set_metrics_enabled(false);
  return redirected.value() - before;
}

TEST(ScmpFailover, JoinInFlightIsRedirectedToStandby) {
  // The JOIN from router 3 is still travelling to router 0 when the
  // failover moves the group to router 5. Router 0 no longer anchors the
  // group, so it forwards the JOIN to the standby instead of aborting.
  FailoverFixture f(test::line(6), 0);
  f.scmp_->host_join(3, kGroup);
  f.scmp_->fail_over_to(5);
  EXPECT_EQ(redirects_during("JOIN", [&] { f.queue_.run_all(); }), 1u);

  const DcdmTree* tree = f.scmp_->group_tree(kGroup);
  ASSERT_NE(tree, nullptr);
  EXPECT_EQ(tree->root(), 5);
  EXPECT_TRUE(tree->tree().is_member(3));
  EXPECT_TRUE(f.scmp_->network_state_consistent(kGroup));
  EXPECT_EQ(f.send_and_collect(5), (std::vector<graph::NodeId>{3}));
}

TEST(ScmpFailover, EncapsulatedDataInFlightIsRedirectedToStandby) {
  FailoverFixture f(test::line(6), 0);
  f.scmp_->host_join(3, kGroup);
  f.queue_.run_all();
  f.scmp_->send_data(4, kGroup);  // off-tree source: encapsulated toward 0
  f.scmp_->fail_over_to(5);
  EXPECT_EQ(redirects_during("DATA_ENCAP", [&] { f.queue_.run_all(); }), 1u);
  ASSERT_EQ(f.deliveries_.size(), 1u);
  EXPECT_EQ(f.deliveries_.begin()->second, (std::vector<graph::NodeId>{3}));
}

TEST(ScmpFailover, MultipleGroupsAllRebuilt) {
  FailoverFixture f(test::line(6), 0);
  f.scmp_->host_join(3, 1);
  f.scmp_->host_join(4, 2);
  f.queue_.run_all();
  f.scmp_->fail_over_to(5);
  f.queue_.run_all();
  EXPECT_TRUE(f.scmp_->network_state_consistent(1));
  EXPECT_TRUE(f.scmp_->network_state_consistent(2));
  EXPECT_EQ(f.scmp_->group_tree(1)->root(), 5);
  EXPECT_EQ(f.scmp_->group_tree(2)->root(), 5);
}

/// Joins groups 1..`count`, each of 2-12 members drawn from `seed` (never
/// router 0), then fails router 0 over to router 1, which rebuilds every
/// group tree from the service database.
void join_random_groups_and_fail_over(FailoverFixture& f, int count,
                                      std::uint64_t seed) {
  Rng rng(seed);
  for (int group = 1; group <= count; ++group) {
    const int size = static_cast<int>(rng.uniform_int(2, 12));
    for (int v : rng.sample_without_replacement(f.g_.num_nodes() - 1, size))
      f.scmp_->host_join(v + 1, group);
  }
  f.queue_.run_all();
  f.scmp_->fail_over_to(1);
  f.queue_.run_all();
}

TEST(ScmpFailover, RebuildsManyRandomGroupsIntoValidTrees) {
  const auto topo = test::random_topology(9, 40);
  FailoverFixture f(topo.graph, 0, DcdmConfig{2.0});
  join_random_groups_and_fail_over(f, 16, 5);
  ASSERT_EQ(f.scmp_->active_groups().size(), 16u);
  for (GroupId group : f.scmp_->active_groups()) {
    const DcdmTree& t = *f.scmp_->group_tree(group);
    EXPECT_EQ(t.root(), 1);
    EXPECT_TRUE(t.tree().validate(topo.graph));
    for (graph::NodeId m : f.scmp_->database().members_of(group))
      EXPECT_TRUE(t.tree().is_member(m));
    EXPECT_TRUE(f.scmp_->network_state_consistent(group));
  }
}

TEST(ScmpFailover, WithNoSessionsSendsNothing) {
  const auto topo = test::random_topology(9, 20);
  FailoverFixture f(topo.graph, 0);
  join_random_groups_and_fail_over(f, 0, 5);
  EXPECT_TRUE(f.scmp_->active_groups().empty());
  EXPECT_EQ(f.net_.stats().protocol_link_crossings, 0u);
}

}  // namespace
}  // namespace scmp::core
