// Satellite 2 of the verification ISSUE: the auditor pointed at the hard
// corners of the existing corpus — failover, multi-m-router anchoring, link
// failure repair, anti-entropy reconciliation, session teardown and idle
// expiry. Every scenario must audit clean at quiescence; a regression here
// is exactly the class of latent state-consistency bug the auditor exists
// to surface.
#include <gtest/gtest.h>

#include <memory>

#include "core/scmp.hpp"
#include "helpers.hpp"
#include "topo/arpanet.hpp"
#include "verify/auditor.hpp"

namespace scmp::verify {
namespace {

struct Domain {
  explicit Domain(graph::Graph graph, core::Scmp::Config cfg = {})
      : g(std::move(graph)), net(g, queue), igmp(queue, g.num_nodes()) {
    scmp = std::make_unique<core::Scmp>(net, igmp, cfg);
    auditor = std::make_unique<InvariantAuditor>(*scmp);
  }

  void drain_and_expect_clean(const char* when) {
    queue.run_all();
    const auto violations = auditor->audit();
    EXPECT_TRUE(violations.empty()) << when << ":\n" << format(violations);
  }

  graph::Graph g;
  sim::EventQueue queue;
  sim::Network net;
  igmp::IgmpDomain igmp;
  std::unique_ptr<core::Scmp> scmp;
  std::unique_ptr<InvariantAuditor> auditor;
};

topo::Topology arpanet_topo() {
  Rng rng(2);
  return topo::arpanet(rng);
}

TEST(AuditorScenarios, HotStandbyFailover) {
  core::Scmp::Config cfg;
  cfg.mrouter = 0;
  Domain d(arpanet_topo().graph, cfg);
  for (graph::NodeId r : {5, 17, 29, 41}) d.scmp->host_join(r, 1);
  for (graph::NodeId r : {8, 23}) d.scmp->host_join(r, 2);
  d.drain_and_expect_clean("after joins");

  d.scmp->fail_over_to(3);
  d.drain_and_expect_clean("after failover to the standby");

  // Membership keeps evolving against the new anchor.
  d.scmp->host_join(44, 1);
  d.scmp->host_leave(17, 1);
  d.drain_and_expect_clean("after churn against the standby");
}

TEST(AuditorScenarios, MultiMRouterAnchoring) {
  core::Scmp::Config cfg;
  cfg.mrouters = {0, 10, 20};  // group g anchored at mrouters[g % 3]
  Domain d(arpanet_topo().graph, cfg);
  for (proto::GroupId g = 0; g < 6; ++g) {
    d.scmp->host_join(30 + g, g);
    d.scmp->host_join(5 + g, g);
  }
  d.drain_and_expect_clean("after joins across three anchors");

  for (proto::GroupId g = 0; g < 6; ++g) d.scmp->host_leave(5 + g, g);
  d.drain_and_expect_clean("after leaves across three anchors");
}

TEST(AuditorScenarios, LinkFailureRepair) {
  Domain d(arpanet_topo().graph);
  for (graph::NodeId r : {7, 19, 33, 45}) d.scmp->host_join(r, 1);
  d.drain_and_expect_clean("before the link failure");

  // Fail a link the current tree uses, if any survives the guard; the
  // repair path (fail_link and SCMP's link hook) must leave no stale state
  // behind.
  const core::DcdmTree* tree = d.scmp->group_tree(1);
  ASSERT_NE(tree, nullptr);
  for (const auto& [child, parent] : tree->tree().edges()) {
    graph::Graph probe = d.net.graph();
    probe.remove_edge(child, parent);
    if (!probe.is_connected()) continue;
    d.net.fail_link(child, parent);
    break;
  }
  d.drain_and_expect_clean("after the tree link failed and was repaired");
}

TEST(AuditorScenarios, SessionTeardownAndRefresh) {
  Domain d(test::paper_fig5_topology());
  d.scmp->host_join(4, 1);
  d.scmp->host_join(3, 1);
  d.drain_and_expect_clean("after joins");

  EXPECT_EQ(d.scmp->reconcile_all(), 0);  // a healthy domain has no repairs
  d.drain_and_expect_clean("after an anti-entropy reconciliation pass");

  d.scmp->end_group_session(1);
  d.drain_and_expect_clean("after the session was torn down");
}

TEST(AuditorScenarios, IdleSessionExpiry) {
  Domain d(test::paper_fig5_topology());
  d.scmp->set_session_idle_expiry(5.0);
  d.scmp->host_join(4, 1);
  d.queue.run_until(1.0);
  d.scmp->host_leave(4, 1);
  d.queue.run_until(2.0);  // inside the grace period: session idles, clean
  {
    const auto violations = d.auditor->audit();
    EXPECT_TRUE(violations.empty())
        << "mid-grace-period:\n" << format(violations);
  }
  // run_all executes the scheduled expiry event: the m-router must tear the
  // session down without leaving orphan state.
  d.drain_and_expect_clean("after the idle session expired");
  EXPECT_FALSE(d.scmp->database().session_active(1));
}

TEST(AuditorScenarios, AlwaysFullTreeAblation) {
  core::Scmp::Config cfg;
  cfg.always_full_tree = true;
  Domain d(arpanet_topo().graph, cfg);
  for (graph::NodeId r : {5, 17, 29}) d.scmp->host_join(r, 1);
  d.drain_and_expect_clean("after full-TREE installs");
  d.scmp->host_leave(17, 1);
  d.drain_and_expect_clean("after a leave under full-TREE installs");
}

}  // namespace
}  // namespace scmp::verify
