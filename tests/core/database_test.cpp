#include "core/database.hpp"

#include <gtest/gtest.h>

namespace scmp::core {
namespace {

TEST(Database, SessionLifecycle) {
  MRouterDatabase db;
  EXPECT_FALSE(db.session_active(1));
  const McastAddress addr = db.start_session(1, 10.0);
  EXPECT_TRUE(db.session_active(1));
  EXPECT_EQ(db.address_of(1), addr);
  db.end_session(1, 20.0);
  EXPECT_FALSE(db.session_active(1));
  EXPECT_EQ(db.address_of(1), std::nullopt);
  const auto rec = db.session(1);
  ASSERT_TRUE(rec.has_value());
  EXPECT_DOUBLE_EQ(rec->started_at, 10.0);
  ASSERT_TRUE(rec->ended_at.has_value());
  EXPECT_DOUBLE_EQ(*rec->ended_at, 20.0);
}

TEST(Database, StartIsIdempotent) {
  MRouterDatabase db;
  const McastAddress a = db.start_session(1, 0.0);
  const McastAddress b = db.start_session(1, 5.0);
  EXPECT_EQ(a, b);
}

TEST(Database, AddressesAreUniqueAndClassD) {
  MRouterDatabase db;
  const McastAddress a = db.start_session(1, 0.0);
  const McastAddress b = db.start_session(2, 0.0);
  EXPECT_NE(a, b);
  EXPECT_EQ(a >> 28, 0xEu);  // 224.0.0.0/4
  EXPECT_EQ(b >> 28, 0xEu);
}

TEST(Database, PublishedAddresses) {
  MRouterDatabase db;
  db.start_session(3, 0.0);
  db.start_session(7, 0.0);
  const auto published = db.published_addresses();
  ASSERT_EQ(published.size(), 2u);
  EXPECT_EQ(published[0].first, 3);
  EXPECT_EQ(published[1].first, 7);
  db.end_session(3, 1.0);
  EXPECT_EQ(db.published_addresses().size(), 1u);
}

TEST(Database, MembershipTracking) {
  MRouterDatabase db;
  db.start_session(1, 0.0);
  db.record_join(1, 5, 1.0);
  db.record_join(1, 9, 2.0);
  EXPECT_EQ(db.members_of(1).size(), 2u);
  EXPECT_TRUE(db.members_of(1).contains(5));
  db.record_leave(1, 5, 3.0);
  EXPECT_EQ(db.members_of(1).size(), 1u);
  EXPECT_FALSE(db.members_of(1).contains(5));
}

TEST(Database, MembershipLogForBilling) {
  MRouterDatabase db;
  db.record_join(1, 5, 1.0);
  db.record_leave(1, 5, 2.0);
  db.record_join(2, 5, 3.0);
  db.record_join(1, 6, 4.0);
  EXPECT_EQ(db.membership_log().size(), 4u);
  EXPECT_EQ(db.billing_events(5), 3);
  EXPECT_EQ(db.billing_events(6), 1);
  EXPECT_EQ(db.billing_events(7), 0);
}

TEST(Database, FireAndForgetJoinsAreNeverDeduped) {
  // Every record is logged and billed: a retransmitted JOIN is dropped by
  // the receiving m-router's request dedup before it reaches the database.
  MRouterDatabase db;
  db.record_join(1, 5, 1.0);
  db.record_join(1, 5, 2.0);
  EXPECT_EQ(db.members_of(1).size(), 1u);
  EXPECT_EQ(db.membership_log().size(), 2u);
  EXPECT_EQ(db.billing_events(5), 2);
}

TEST(Database, LastMembershipChangeFollowsLoggedRecords) {
  MRouterDatabase db;
  db.start_session(1, 0.0);
  EXPECT_EQ(db.last_membership_change(1), std::nullopt);
  db.record_join(1, 5, 1.0);
  db.record_join(2, 6, 1.2);  // another group's record
  EXPECT_EQ(db.last_membership_change(1), 1.0);
  db.record_join(1, 5, 1.5);  // a repeated join is logged too
  EXPECT_EQ(db.last_membership_change(1), 1.5);
  db.record_leave(1, 5, 2.0);
  EXPECT_EQ(db.last_membership_change(1), 2.0);
  db.end_session(1, 3.0);
  EXPECT_EQ(db.last_membership_change(1), std::nullopt);
  EXPECT_EQ(db.last_membership_change(2), 1.2);
}

TEST(Database, TrafficAccounting) {
  MRouterDatabase db;
  db.start_session(1, 0.0);
  db.record_data_forwarded(1, 1000);
  db.record_data_forwarded(1, 500);
  const auto rec = db.session(1);
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->data_packets_forwarded, 2u);
  EXPECT_EQ(rec->data_bytes_forwarded, 1500u);
}

TEST(Database, TrafficForUnknownSessionIgnored) {
  MRouterDatabase db;
  db.record_data_forwarded(42, 1000);  // must not crash
  EXPECT_FALSE(db.session(42).has_value());
}

TEST(Database, EndSessionClearsMembers) {
  MRouterDatabase db;
  db.start_session(1, 0.0);
  db.record_join(1, 5, 1.0);
  db.end_session(1, 2.0);
  EXPECT_TRUE(db.members_of(1).empty());
}

TEST(Database, AllSessionsIncludesEnded) {
  MRouterDatabase db;
  db.start_session(1, 0.0);
  db.start_session(2, 0.0);
  db.end_session(1, 1.0);
  EXPECT_EQ(db.all_sessions().size(), 2u);
}

TEST(DatabaseDeath, EndingUnknownSessionAborts) {
  MRouterDatabase db;
  EXPECT_DEATH(db.end_session(9, 0.0), "Precondition");
}

}  // namespace
}  // namespace scmp::core
