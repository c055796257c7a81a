// ConvergenceTracker on a bare event queue: a measurement opens at a
// membership event, resolves the first time the owner's predicate holds and
// is abandoned at the deadline.
#include "protocols/convergence.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "sim/event_queue.hpp"

namespace scmp::proto {
namespace {

constexpr igmp::GroupId kGroup = 1;

class ConvergenceTrackerTest : public ::testing::Test {
 protected:
  /// Advances the queue's clock to `t`, running every event up to it.
  void at(double t) { queue_.run_until(t); }

  sim::EventQueue queue_;
  ConvergenceTracker tracker_{queue_, "SCMP"};
};

TEST_F(ConvergenceTrackerTest, InconsistentCheckLeavesMeasurementOpen) {
  tracker_.note_event(kGroup);
  at(2.0);
  tracker_.check(kGroup, /*consistent=*/false);
  EXPECT_TRUE(tracker_.is_pending(kGroup));
  const ConvergenceTracker::Stats s = tracker_.stats();
  EXPECT_EQ(s.events, 1u);
  EXPECT_EQ(s.converged, 0u);
  EXPECT_TRUE(s.per_group.empty());
}

TEST_F(ConvergenceTrackerTest, ConsistentCheckResolvesWithElapsedSimTime) {
  at(1.0);
  tracker_.note_event(kGroup);
  at(3.5);
  tracker_.check(kGroup, /*consistent=*/true);
  EXPECT_FALSE(tracker_.is_pending(kGroup));
  const ConvergenceTracker::Stats s = tracker_.stats();
  EXPECT_EQ(s.converged, 1u);
  ASSERT_EQ(s.per_group.count(kGroup), 1u);
  EXPECT_EQ(s.per_group.at(kGroup).count, 1u);
  EXPECT_DOUBLE_EQ(s.per_group.at(kGroup).mean, 2.5);

  // A resolved group ignores further checks until its next event.
  tracker_.check(kGroup, /*consistent=*/true);
  EXPECT_EQ(tracker_.stats().converged, 1u);
}

TEST_F(ConvergenceTrackerTest, SecondEventKeepsFirstStartTime) {
  at(1.0);
  tracker_.note_event(kGroup);
  at(2.0);
  tracker_.note_event(kGroup);
  at(4.0);
  tracker_.check(kGroup, /*consistent=*/true);
  const ConvergenceTracker::Stats s = tracker_.stats();
  EXPECT_EQ(s.events, 2u);
  EXPECT_EQ(s.converged, 1u);
  EXPECT_DOUBLE_EQ(s.per_group.at(kGroup).mean, 3.0);
}

TEST_F(ConvergenceTrackerTest, DeadlineCountsTimeoutAndClosesGroup) {
  tracker_.note_event(kGroup);
  at(30.0);
  // A later event re-arms the deadline: the first one lapses unheeded.
  tracker_.note_event(kGroup);
  at(ConvergenceTracker::kTimeoutSeconds);
  EXPECT_TRUE(tracker_.is_pending(kGroup));
  EXPECT_EQ(tracker_.stats().timeouts, 0u);

  at(30.0 + ConvergenceTracker::kTimeoutSeconds);
  EXPECT_FALSE(tracker_.is_pending(kGroup));
  EXPECT_TRUE(tracker_.pending_groups().empty());
  const ConvergenceTracker::Stats s = tracker_.stats();
  EXPECT_EQ(s.timeouts, 1u);
  EXPECT_EQ(s.converged, 0u);
  EXPECT_TRUE(queue_.empty());
}

TEST_F(ConvergenceTrackerTest, PendingGroupsListsExactlyTheOpenGroups) {
  EXPECT_TRUE(tracker_.pending_groups().empty());
  tracker_.note_event(3);
  tracker_.note_event(1);
  tracker_.note_event(7);
  EXPECT_EQ(tracker_.pending_groups(), (std::vector<igmp::GroupId>{1, 3, 7}));
  at(0.5);
  tracker_.check(1, /*consistent=*/true);
  tracker_.check(7, /*consistent=*/false);
  EXPECT_EQ(tracker_.pending_groups(), (std::vector<igmp::GroupId>{3, 7}));
}

}  // namespace
}  // namespace scmp::proto
