// Install-version gates at i-routers: stale (overtaken) TREE/BRANCH/CLEAR
// packets must neither overwrite newer state nor resurrect cleared entries,
// and reconcile_all() must re-converge a diverged network. The tests inject
// raw control packets to simulate the message races concurrent membership
// operations can produce.
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "core/scmp.hpp"
#include "core/tree_packet.hpp"
#include "helpers.hpp"
#include "obs/metrics.hpp"

namespace scmp::core {
namespace {

constexpr proto::GroupId kGroup = 1;

class VersioningFixture {
 public:
  explicit VersioningFixture(bool reliable = false)
      : g_(test::line(5)), net_(g_, queue_), igmp_(queue_, g_.num_nodes()) {
    Scmp::Config cfg;
    cfg.mrouter = 0;
    cfg.reliability.enabled = reliable;
    scmp_ = std::make_unique<Scmp>(net_, igmp_, cfg);
    // Baseline tree 0-1-2-3-4 with member 4, installed at some version v>=1.
    scmp_->host_join(4, kGroup);
    queue_.run_all();
  }

  std::uint64_t entry_version(graph::NodeId v) const {
    const Scmp::Entry* e = scmp_->entry_at(v, kGroup);
    return e == nullptr ? 0 : e->version;
  }

  void inject_clear(graph::NodeId target, std::uint64_t version,
                    std::vector<graph::NodeId> detach = {}) {
    sim::Packet clear;
    clear.type = sim::PacketType::kClear;
    clear.group = kGroup;
    clear.src = 0;
    clear.dst = target;
    clear.uid = version;
    clear.path = std::move(detach);
    net_.send_unicast(0, std::move(clear));
    queue_.run_all();
  }

  void inject_branch(const std::vector<graph::NodeId>& path,
                     std::uint64_t version) {
    sim::Packet branch;
    branch.type = sim::PacketType::kBranch;
    branch.group = kGroup;
    branch.src = path.front();
    branch.uid = version;
    branch.path = path;
    net_.send_link(path[0], path[1], std::move(branch));
    queue_.run_all();
  }

  graph::Graph g_;
  sim::EventQueue queue_;
  sim::Network net_;
  igmp::IgmpDomain igmp_;
  std::unique_ptr<Scmp> scmp_;
};

/// Runs `inject` and returns how much the scmp.rx.dropped counter tagged
/// `reason` rose meanwhile.
template <typename Inject>
std::uint64_t drops_after(const char* reason, Inject&& inject) {
  obs::set_metrics_enabled(true);
  obs::Counter& drops = obs::counter("scmp.rx.dropped", reason);
  const std::uint64_t before = drops.value();
  inject();
  obs::set_metrics_enabled(false);
  return drops.value() - before;
}

TEST(ScmpVersioning, BaselineInstallCarriesVersion) {
  VersioningFixture f;
  EXPECT_GE(f.entry_version(4), 1u);
  EXPECT_EQ(f.entry_version(2), f.entry_version(4));  // same install op
}

TEST(ScmpVersioning, StaleClearIsIgnored) {
  VersioningFixture f;
  const auto v = f.entry_version(2);
  ASSERT_GE(v, 1u);
  EXPECT_EQ(drops_after("stale_install",
                        [&] { f.inject_clear(2, /*version=*/0); }),
            1u);
  EXPECT_NE(f.scmp_->entry_at(2, kGroup), nullptr);  // survived
  EXPECT_TRUE(f.scmp_->network_state_consistent(kGroup));
}

TEST(ScmpVersioning, StaleDetachIsIgnored) {
  VersioningFixture f;
  EXPECT_EQ(drops_after("stale_install",
                        [&] { f.inject_clear(2, /*version=*/0, {3}); }),
            1u);
  const Scmp::Entry* e = f.scmp_->entry_at(2, kGroup);
  ASSERT_NE(e, nullptr);
  EXPECT_TRUE(e->downstream_routers.contains(3));
}

TEST(ScmpVersioning, NewerClearAppliesAndTombstones) {
  VersioningFixture f;
  const auto v = f.entry_version(2);
  f.inject_clear(2, v + 10);
  EXPECT_EQ(f.scmp_->entry_at(2, kGroup), nullptr);

  // A stale BRANCH (older than the tombstone) must not resurrect the entry.
  EXPECT_EQ(drops_after("tombstoned",
                        [&] { f.inject_branch({0, 1, 2, 3, 4}, v); }),
            1u);
  EXPECT_EQ(f.scmp_->entry_at(2, kGroup), nullptr);

  // A newer BRANCH may.
  EXPECT_EQ(drops_after("tombstoned",
                        [&] { f.inject_branch({0, 1, 2, 3, 4}, v + 11); }),
            0u);
  EXPECT_NE(f.scmp_->entry_at(2, kGroup), nullptr);
}

TEST(ScmpVersioning, StaleBranchCannotOverwriteNewerEntry) {
  VersioningFixture f;
  const auto v = f.entry_version(2);
  // A newer detach removed child 3 from node 2.
  f.inject_clear(2, v + 1, /*detach=*/{3});
  // The overtaken BRANCH that would re-add it arrives late: dropped.
  EXPECT_EQ(drops_after("stale_install",
                        [&] { f.inject_branch({0, 1, 2, 3, 4}, v); }),
            1u);
  const Scmp::Entry* e = f.scmp_->entry_at(2, kGroup);
  ASSERT_NE(e, nullptr);
  EXPECT_FALSE(e->downstream_routers.contains(3));
}

TEST(ScmpVersioning, MalformedTreePacketIsDropped) {
  VersioningFixture f;
  const auto before = f.entry_version(1);
  sim::Packet tp;
  tp.type = sim::PacketType::kTree;
  tp.group = kGroup;
  tp.src = 0;
  tp.uid = before + 50;
  tp.payload = to_bytes(TreeWords{3, 1, 99, 0});  // length field overruns
  f.net_.send_link(0, 1, std::move(tp));
  f.queue_.run_all();
  // The corrupted install neither crashed the router nor disturbed state.
  EXPECT_EQ(f.entry_version(1), before);
  EXPECT_TRUE(f.scmp_->network_state_consistent(kGroup));
}

// Packets are input: a TREE whose payload is not a whole number of words,
// or a BRANCH whose path does not name the receiving router, is counted
// and dropped by its handler, never an abort.

/// Every router's installed entry for kGroup.
test::EntryDigest installed(const VersioningFixture& f) {
  return test::installed_entries(*f.scmp_, kGroup);
}

/// Sends `pkt` over link `from` -> `to` and returns how much the
/// scmp.rx.dropped counter tagged `reason` rose.
std::uint64_t drops_after(VersioningFixture& f, sim::Packet pkt,
                          const char* reason, graph::NodeId from = 0,
                          graph::NodeId to = 1) {
  return drops_after(reason, [&] {
    f.net_.send_link(from, to, std::move(pkt));
    f.queue_.run_all();
  });
}

TEST(ScmpVersioning, RaggedTreePayloadIsCountedAndDropped) {
  VersioningFixture f;
  const auto before = installed(f);
  sim::Packet tp;
  tp.type = sim::PacketType::kTree;
  tp.group = kGroup;
  tp.src = 0;
  tp.uid = f.entry_version(1) + 50;
  tp.payload = {1, 0, 0, 0, 7};  // five bytes: not a whole word count
  EXPECT_EQ(drops_after(f, std::move(tp), "tree_length"), 1u);
  EXPECT_EQ(installed(f), before);
}

TEST(ScmpVersioning, BranchNotNamingReceiverIsCountedAndDropped) {
  VersioningFixture f;
  const auto before = installed(f);
  sim::Packet branch;
  branch.type = sim::PacketType::kBranch;
  branch.group = kGroup;
  branch.src = 0;
  branch.uid = f.entry_version(1) + 50;
  branch.path = {0, 2, 3, 4};  // delivered to router 1, which it omits
  EXPECT_EQ(drops_after(f, std::move(branch), "branch_off_path"), 1u);
  EXPECT_EQ(installed(f), before);
}

// A PRUNE, or a CLEAR that detaches children, meant for an entry the
// router does not hold changes nothing and is counted.
TEST(ScmpVersioning, PruneAndDetachWithoutEntryAreCountedAndDropped) {
  VersioningFixture f;
  const auto before = installed(f);
  constexpr proto::GroupId kNoSession = kGroup + 1;
  sim::Packet prune;
  prune.type = sim::PacketType::kPrune;
  prune.group = kNoSession;
  prune.src = 3;
  EXPECT_EQ(drops_after(f, std::move(prune), "no_entry", 3, 2), 1u);
  sim::Packet detach;
  detach.type = sim::PacketType::kClear;
  detach.group = kNoSession;
  detach.src = 0;
  detach.dst = 1;
  detach.uid = f.entry_version(1) + 50;
  detach.path = {2};
  EXPECT_EQ(drops_after(f, std::move(detach), "no_entry"), 1u);
  EXPECT_EQ(installed(f), before);
}

/// A JOIN or LEAVE for the m-router whose `src` names no router. A
/// `reliable` one carries a request uid, which the m-router would
/// acknowledge end to end, to `src`.
sim::Packet request_naming(sim::PacketType type, graph::NodeId src,
                           bool reliable) {
  sim::Packet pkt;
  pkt.type = type;
  pkt.group = kGroup;
  pkt.src = src;
  pkt.dst = 0;
  pkt.req = reliable ? 777 : 0;
  return pkt;
}

TEST(ScmpVersioning, JoinNamingNoRouterIsCountedAndDropped) {
  for (const bool reliable : {false, true}) {
    VersioningFixture f(reliable);
    const auto before = installed(f);
    const sim::Packet join =
        request_naming(sim::PacketType::kJoin, 9999, reliable);
    EXPECT_EQ(drops_after(f, join, "bad_src", 1, 0), 1u) << reliable;
    EXPECT_EQ(installed(f), before);
    EXPECT_EQ(f.scmp_->database().members_of(kGroup),
              (std::set<graph::NodeId>{4}));
  }
}

TEST(ScmpVersioning, LeaveNamingNoRouterIsCountedAndDropped) {
  for (const bool reliable : {false, true}) {
    VersioningFixture f(reliable);
    const auto before = installed(f);
    const sim::Packet leave =
        request_naming(sim::PacketType::kLeave, -7, reliable);
    EXPECT_EQ(drops_after(f, leave, "bad_src", 1, 0), 1u) << reliable;
    EXPECT_EQ(installed(f), before);
    EXPECT_EQ(f.scmp_->database().membership_log().size(), 1u);
  }
}

TEST(ScmpVersioning, RefreshReconvergesDivergedState) {
  VersioningFixture f;
  // Simulate a lost install: node 2's entry vanishes (a CLEAR one version
  // ahead models the race), so the network no longer matches the m-router.
  f.inject_clear(2, f.entry_version(2) + 1);
  EXPECT_FALSE(f.scmp_->network_state_consistent(kGroup));

  EXPECT_GT(f.scmp_->reconcile_all(), 0);
  f.queue_.run_all();
  EXPECT_TRUE(f.scmp_->network_state_consistent(kGroup));
  EXPECT_EQ(f.scmp_->reconcile_all(), 0);
}

TEST(ScmpVersioning, RefreshClearsStaleOffTreeState) {
  VersioningFixture f;
  // Member 4 leaves: tree shrinks to just the root; then we forge stale
  // entries at nodes 1 and 2 (installs the prune "missed") via a TREE
  // packet with a far-ahead version.
  f.scmp_->host_leave(4, kGroup);
  f.queue_.run_all();
  EXPECT_TRUE(f.scmp_->network_state_consistent(kGroup));
  {
    sim::Packet tp;
    tp.type = sim::PacketType::kTree;
    tp.group = kGroup;
    tp.src = 0;
    tp.uid = 100;
    tp.payload = to_bytes(TreeWords{1, 2, 1, 0});  // subtree 1 -> 2
    f.net_.send_link(0, 1, std::move(tp));
    f.queue_.run_all();
  }
  ASSERT_NE(f.scmp_->entry_at(1, kGroup), nullptr);
  ASSERT_NE(f.scmp_->entry_at(2, kGroup), nullptr);
  EXPECT_FALSE(f.scmp_->network_state_consistent(kGroup));

  // The forged install used a version far ahead of the m-router's counter,
  // so many reconciliation passes may be needed before their CLEARs win —
  // the counter advances by one per repairing pass. Anti-entropy still
  // converges.
  int passes = 0;
  while (passes < 128 && f.scmp_->reconcile_all() != 0) {
    f.queue_.run_all();
    ++passes;
  }
  EXPECT_LT(passes, 128) << "reconciliation found no fixpoint";
  EXPECT_TRUE(f.scmp_->network_state_consistent(kGroup));
}

}  // namespace
}  // namespace scmp::core
