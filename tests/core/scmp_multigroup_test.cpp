// Multi-group behaviour of SCMP: one m-router serves many simultaneous
// sessions (paper §II-B: the m-router "integrates multiple routers, each of
// which can serve more than one multicast groups").
#include <gtest/gtest.h>

#include <map>

#include "core/scmp.hpp"
#include "helpers.hpp"

namespace scmp::core {
namespace {

class MultiGroupFixture {
 public:
  explicit MultiGroupFixture(graph::Graph graph)
      : g_(std::move(graph)), net_(g_, queue_), igmp_(queue_, g_.num_nodes()) {
    Scmp::Config cfg;
    cfg.mrouter = 0;
    scmp_ = std::make_unique<Scmp>(net_, igmp_, cfg);
    net_.set_delivery_callback(
        [this](const sim::Packet& pkt, graph::NodeId member, sim::SimTime) {
          deliveries_[pkt.group][pkt.uid].push_back(member);
        });
  }

  void drain() { queue_.run_all(); }

  std::vector<graph::NodeId> send_and_collect(graph::NodeId src, int group) {
    const auto before = deliveries_[group].size();
    scmp_->send_data(src, group);
    drain();
    if (deliveries_[group].size() == before) return {};
    auto got = deliveries_[group].rbegin()->second;
    std::sort(got.begin(), got.end());
    return got;
  }

  graph::Graph g_;
  sim::EventQueue queue_;
  sim::Network net_;
  igmp::IgmpDomain igmp_;
  std::unique_ptr<Scmp> scmp_;
  std::map<int, std::map<std::uint64_t, std::vector<graph::NodeId>>>
      deliveries_;
};

TEST(ScmpMultiGroup, GroupsHaveIndependentTrees) {
  MultiGroupFixture f(test::random_topology(31, 30).graph);
  for (graph::NodeId m : {3, 9, 15}) f.scmp_->host_join(m, 1);
  for (graph::NodeId m : {4, 10, 16}) f.scmp_->host_join(m, 2);
  f.drain();
  EXPECT_TRUE(f.scmp_->network_state_consistent(1));
  EXPECT_TRUE(f.scmp_->network_state_consistent(2));
  EXPECT_EQ(f.scmp_->active_groups(), (std::vector<GroupId>{1, 2}));
  EXPECT_EQ(f.send_and_collect(0, 1), (std::vector<graph::NodeId>{3, 9, 15}));
  EXPECT_EQ(f.send_and_collect(0, 2), (std::vector<graph::NodeId>{4, 10, 16}));
}

TEST(ScmpMultiGroup, SameRouterInMultipleGroups) {
  MultiGroupFixture f(test::line(5));
  f.scmp_->host_join(3, 1);
  f.scmp_->host_join(3, 2);
  f.scmp_->host_join(4, 2);
  f.drain();
  const Scmp::Entry* e1 = f.scmp_->entry_at(3, 1);
  const Scmp::Entry* e2 = f.scmp_->entry_at(3, 2);
  ASSERT_NE(e1, nullptr);
  ASSERT_NE(e2, nullptr);
  EXPECT_TRUE(e1->downstream_routers.empty());
  EXPECT_EQ(e2->downstream_routers, (util::FlatSet<graph::NodeId>{4}));
  EXPECT_EQ(f.send_and_collect(0, 1), (std::vector<graph::NodeId>{3}));
  EXPECT_EQ(f.send_and_collect(0, 2), (std::vector<graph::NodeId>{3, 4}));
}

TEST(ScmpMultiGroup, LeavingOneGroupKeepsTheOther) {
  MultiGroupFixture f(test::line(5));
  f.scmp_->host_join(3, 1);
  f.scmp_->host_join(3, 2);
  f.drain();
  f.scmp_->host_leave(3, 1);
  f.drain();
  EXPECT_EQ(f.scmp_->entry_at(3, 1), nullptr);
  EXPECT_NE(f.scmp_->entry_at(3, 2), nullptr);
  EXPECT_EQ(f.send_and_collect(0, 2), (std::vector<graph::NodeId>{3}));
  EXPECT_TRUE(f.send_and_collect(0, 1).empty());
}

TEST(ScmpMultiGroup, EndingOneSessionDoesNotTouchOthers) {
  MultiGroupFixture f(test::line(5));
  f.scmp_->host_join(3, 1);
  f.scmp_->host_join(4, 2);
  f.drain();
  f.scmp_->end_group_session(1);
  f.drain();
  EXPECT_FALSE(f.scmp_->database().session_active(1));
  EXPECT_TRUE(f.scmp_->database().session_active(2));
  EXPECT_TRUE(f.send_and_collect(0, 1).empty());
  EXPECT_EQ(f.send_and_collect(0, 2), (std::vector<graph::NodeId>{4}));
}

TEST(ScmpMultiGroup, DistinctMulticastAddressesPerGroup) {
  MultiGroupFixture f(test::line(4));
  f.scmp_->host_join(2, 1);
  f.scmp_->host_join(3, 2);
  f.drain();
  const auto a1 = f.scmp_->database().address_of(1);
  const auto a2 = f.scmp_->database().address_of(2);
  ASSERT_TRUE(a1.has_value());
  ASSERT_TRUE(a2.has_value());
  EXPECT_NE(*a1, *a2);
}

TEST(ScmpMultiGroup, ManyGroupsChurnStress) {
  const auto topo = test::random_topology(77, 35);
  MultiGroupFixture f(topo.graph);
  Rng rng(1234);
  constexpr int kGroups = 8;
  std::map<int, std::set<graph::NodeId>> joined;
  for (int step = 0; step < 150; ++step) {
    const int group = 1 + static_cast<int>(rng.uniform_int(0, kGroups - 1));
    const auto v = static_cast<graph::NodeId>(
        rng.uniform_int(1, topo.graph.num_nodes() - 1));
    if (joined[group].contains(v)) {
      f.scmp_->host_leave(v, group);
      joined[group].erase(v);
    } else {
      f.scmp_->host_join(v, group);
      joined[group].insert(v);
    }
    f.drain();
  }
  for (int group = 1; group <= kGroups; ++group) {
    ASSERT_TRUE(f.scmp_->network_state_consistent(group)) << "group " << group;
    if (joined[group].empty()) continue;
    const auto got = f.send_and_collect(0, group);
    EXPECT_EQ(got, std::vector(joined[group].begin(), joined[group].end()))
        << "group " << group;
  }
}

}  // namespace
}  // namespace scmp::core
