#include "topo/workload.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

namespace scmp::topo {
namespace {

TEST(ZipfSampler, ExponentZeroIsUniformSupport) {
  ZipfSampler sampler(10, 0.0);
  Rng rng(1);
  std::vector<int> hits(10, 0);
  for (int i = 0; i < 20000; ++i) ++hits[static_cast<std::size_t>(sampler.sample(rng))];
  for (int k = 0; k < 10; ++k) EXPECT_GT(hits[static_cast<std::size_t>(k)], 0);
  // Uniform: first and last rank within 3x of each other with 20k draws.
  EXPECT_LT(hits[0], hits[9] * 3);
}

TEST(ZipfSampler, SkewConcentratesOnLowRanks) {
  ZipfSampler sampler(100, 1.0);
  Rng rng(2);
  std::vector<int> hits(100, 0);
  for (int i = 0; i < 20000; ++i) ++hits[static_cast<std::size_t>(sampler.sample(rng))];
  EXPECT_GT(hits[0], hits[50] * 5);  // rank 0 is ~50x likelier at s=1
  for (int hit : hits) EXPECT_GE(hit, 0);
}

TEST(ZipfChurn, EveryLeaveFollowsItsJoin) {
  ZipfChurnConfig cfg;
  cfg.num_groups = 20;
  cfg.num_events = 2000;
  cfg.leave_fraction = 0.5;
  Rng rng(3);
  const std::vector<MemberEvent> events = zipf_churn(cfg, 30, rng);
  ASSERT_EQ(events.size(), 2000u);
  // Each (iface, host) pair is unique to one join; a leave reuses its pair.
  std::map<int, std::size_t> join_at;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const MemberEvent& ev = events[i];
    EXPECT_GE(ev.time, cfg.start);
    EXPECT_LT(ev.time, cfg.horizon);
    if (ev.join) {
      EXPECT_FALSE(join_at.contains(ev.iface)) << "iface reused by a join";
      join_at[ev.iface] = i;
    } else {
      ASSERT_TRUE(join_at.contains(ev.iface)) << "leave without a join";
      const MemberEvent& join = events[join_at[ev.iface]];
      EXPECT_GT(i, join_at[ev.iface]) << "leave sorted before its join";
      EXPECT_TRUE(join.join);
      EXPECT_EQ(join.group, ev.group);
      EXPECT_EQ(join.router, ev.router);
      EXPECT_LE(join.time, ev.time);
    }
  }
}

TEST(ZipfChurn, DeterministicForAGivenSeed) {
  ZipfChurnConfig cfg;
  cfg.num_events = 500;
  auto run = [&](std::uint64_t seed) {
    Rng rng(seed);
    return zipf_churn(cfg, 25, rng);
  };
  const auto a = run(7), b = run(7), c = run(8);
  auto keys = [](const std::vector<MemberEvent>& evs) {
    std::vector<std::tuple<double, int, graph::NodeId, int, int, bool>> out;
    out.reserve(evs.size());
    for (const MemberEvent& e : evs)
      out.emplace_back(e.time, e.group, e.router, e.iface, e.host, e.join);
    return out;
  };
  EXPECT_EQ(keys(a), keys(b));
  EXPECT_NE(keys(a), keys(c));
}

TEST(FlashCrowd, JoinsLandInsideTheWindowTimeSorted) {
  FlashCrowdConfig cfg;
  cfg.num_groups = 4;
  cfg.crowd = 1000;
  Rng rng(5);
  const std::vector<MemberEvent> events = flash_crowd(cfg, 50, rng);
  ASSERT_EQ(events.size(), 1000u);
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_TRUE(events[i].join);
    EXPECT_GE(events[i].time, cfg.start);
    EXPECT_LT(events[i].time, cfg.start + cfg.window);
    EXPECT_GE(events[i].group, 0);
    EXPECT_LT(events[i].group, cfg.num_groups);
    if (i > 0) {
      EXPECT_LE(events[i - 1].time, events[i].time);
    }
  }
}

TEST(FlashCrowd, DepartMirrorsEveryJoinOneWindowLater) {
  FlashCrowdConfig cfg;
  cfg.crowd = 300;
  cfg.depart = true;
  Rng rng(6);
  const std::vector<MemberEvent> events = flash_crowd(cfg, 50, rng);
  ASSERT_EQ(events.size(), 600u);
  std::map<int, const MemberEvent*> joins;
  int leaves = 0;
  for (const MemberEvent& ev : events) {
    if (ev.join) {
      joins[ev.iface] = &ev;
      continue;
    }
    ++leaves;
    ASSERT_TRUE(joins.contains(ev.iface)) << "depart sorted before its join";
    const MemberEvent& join = *joins[ev.iface];
    EXPECT_EQ(ev.group, join.group);
    EXPECT_EQ(ev.router, join.router);
    EXPECT_DOUBLE_EQ(ev.time, join.time + cfg.window);
  }
  EXPECT_EQ(leaves, 300);
}

}  // namespace
}  // namespace scmp::topo
