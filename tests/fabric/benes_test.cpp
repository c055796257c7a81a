#include "fabric/benes.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "util/rng.hpp"

namespace scmp::fabric {
namespace {

std::vector<int> identity_perm(int n) {
  std::vector<int> p(static_cast<std::size_t>(n));
  std::iota(p.begin(), p.end(), 0);
  return p;
}

TEST(Benes, PowerOfTwoHelper) {
  EXPECT_TRUE(is_power_of_two(1));
  EXPECT_TRUE(is_power_of_two(2));
  EXPECT_TRUE(is_power_of_two(256));
  EXPECT_FALSE(is_power_of_two(0));
  EXPECT_FALSE(is_power_of_two(3));
  EXPECT_FALSE(is_power_of_two(12));
}

TEST(Benes, StageAndSwitchCounts) {
  EXPECT_EQ(BenesNetwork(2).stage_count(), 1);
  EXPECT_EQ(BenesNetwork(4).stage_count(), 3);
  EXPECT_EQ(BenesNetwork(8).stage_count(), 5);
  EXPECT_EQ(BenesNetwork(8).switch_count(), 20);
  EXPECT_EQ(BenesNetwork(16).stage_count(), 7);
}

TEST(Benes, TwoPortBothSettings) {
  BenesNetwork net(2);
  net.route({0, 1});
  EXPECT_EQ(net.forward(0), 0);
  EXPECT_EQ(net.forward(1), 1);
  net.route({1, 0});
  EXPECT_EQ(net.forward(0), 1);
  EXPECT_EQ(net.forward(1), 0);
}

TEST(Benes, FourPortAllPermutations) {
  std::vector<int> perm = identity_perm(4);
  BenesNetwork net(4);
  do {
    net.route(perm);
    for (int i = 0; i < 4; ++i)
      ASSERT_EQ(net.forward(i), perm[static_cast<std::size_t>(i)]);
  } while (std::next_permutation(perm.begin(), perm.end()));
}

TEST(Benes, EightPortAllCyclicShifts) {
  BenesNetwork net(8);
  for (int shift = 0; shift < 8; ++shift) {
    std::vector<int> perm(8);
    for (int i = 0; i < 8; ++i)
      perm[static_cast<std::size_t>(i)] = (i + shift) % 8;
    net.route(perm);
    for (int i = 0; i < 8; ++i)
      ASSERT_EQ(net.forward(i), perm[static_cast<std::size_t>(i)]) << shift;
  }
}

TEST(Benes, ReverseAndBitReversal) {
  BenesNetwork net(16);
  std::vector<int> rev(16);
  for (int i = 0; i < 16; ++i) rev[static_cast<std::size_t>(i)] = 15 - i;
  net.route(rev);
  for (int i = 0; i < 16; ++i) ASSERT_EQ(net.forward(i), 15 - i);

  std::vector<int> bitrev(16);
  for (int i = 0; i < 16; ++i) {
    int r = 0;
    for (int b = 0; b < 4; ++b)
      if (i & (1 << b)) r |= 1 << (3 - b);
    bitrev[static_cast<std::size_t>(i)] = r;
  }
  net.route(bitrev);
  for (int i = 0; i < 16; ++i)
    ASSERT_EQ(net.forward(i), bitrev[static_cast<std::size_t>(i)]);
}

TEST(Benes, ReRouteReplacesConfiguration) {
  BenesNetwork net(8);
  net.route({1, 0, 3, 2, 5, 4, 7, 6});
  net.route(identity_perm(8));
  for (int i = 0; i < 8; ++i) ASSERT_EQ(net.forward(i), i);
}

class BenesRandomPerms
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {};

TEST_P(BenesRandomPerms, RealizesPermutation) {
  const int n = std::get<0>(GetParam());
  Rng rng(std::get<1>(GetParam()));
  BenesNetwork net(n);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<int> perm = identity_perm(n);
    rng.shuffle(perm);
    net.route(perm);
    for (int i = 0; i < n; ++i)
      ASSERT_EQ(net.forward(i), perm[static_cast<std::size_t>(i)])
          << "n=" << n << " trial=" << trial << " input=" << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndSeeds, BenesRandomPerms,
    ::testing::Combine(::testing::Values(4, 8, 16, 32, 64, 128, 256),
                       ::testing::Values(1, 2, 3)));

TEST(BenesDeath, RejectsNonPowerOfTwo) {
  EXPECT_DEATH(BenesNetwork(6), "Precondition");
}

TEST(BenesDeath, RejectsNonPermutation) {
  BenesNetwork net(4);
  EXPECT_DEATH(net.route({0, 0, 1, 2}), "Precondition");
}

TEST(BenesDeath, RejectsWrongSize) {
  BenesNetwork net(4);
  EXPECT_DEATH(net.route({0, 1}), "Precondition");
}

}  // namespace
}  // namespace scmp::fabric
