// Death tests pinning down the contract layer: invalid inputs to public API
// entry points must abort through SCMP_EXPECTS/SCMP_ASSERT with a diagnostic
// that names the violated condition, not crash later or silently misbehave.
#include <gtest/gtest.h>

#include "core/dcdm.hpp"
#include "sim/event_queue.hpp"
#include "util/contracts.hpp"
#include "util/log.hpp"

#include "helpers.hpp"

namespace scmp::core {
namespace {

class ContractsDeathTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Fork-based death tests must not interact with running threads.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  }
};

TEST_F(ContractsDeathTest, DcdmConfigSlackBelowOneAborts) {
  const auto g = test::diamond();
  const graph::AllPairsPaths paths(g);
  EXPECT_DEATH(DcdmTree(g, paths, 0, DcdmConfig{0.5}),
               "Precondition violation.*delay_slack");
}

TEST_F(ContractsDeathTest, DcdmJoinInvalidNodeAborts) {
  const auto g = test::diamond();
  const graph::AllPairsPaths paths(g);
  DcdmTree tree(g, paths, 0);
  EXPECT_DEATH(tree.join(99), "Precondition violation");
}

TEST_F(ContractsDeathTest, DcdmJoinOverEdgeMissingFromGraphAborts) {
  // The path database routes 0-1-2-3 over an edge the tree's graph lacks:
  // the graft's local check rejects the tree edge before any delay is read.
  const auto full = test::line(4);
  const graph::AllPairsPaths paths(full);
  graph::Graph cut = full;
  ASSERT_TRUE(cut.remove_edge(2, 3));
  DcdmTree tree(cut, paths, 0);
  EXPECT_DEATH(tree.join(3), "Postcondition violation.*validate_graft");
}

TEST_F(ContractsDeathTest, EventQueueSchedulingInThePastAborts) {
  sim::EventQueue q;
  q.schedule_at(10.0, [] {});
  q.run_until(10.0);
  EXPECT_DEATH(q.schedule_at(5.0, [] {}), "Precondition violation.*now_");
}

TEST_F(ContractsDeathTest, EventQueueNullHandlerAborts) {
  sim::EventQueue q;
  EXPECT_DEATH(q.schedule_at(1.0, nullptr), "Precondition violation.*fn");
}

TEST_F(ContractsDeathTest, LogLevelOutOfRangeAborts) {
  EXPECT_DEATH(set_log_level(static_cast<LogLevel>(42)),
               "Precondition violation.*level");
}

}  // namespace
}  // namespace scmp::core
