// IgmpDomain against a reference model: the nested-map membership store
// (router -> group -> interface -> hosts) the domain used to keep, copied
// here with its query tick and soft-state expiry. Random joins, leaves,
// crashes and clock advances drive both through one event queue; every
// query answer, the IGMP message count and the sequence of listener
// transitions must agree.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

#include "igmp/igmp.hpp"
#include "util/rng.hpp"

namespace scmp::igmp {
namespace {

struct Transition {
  bool joined;
  graph::NodeId router;
  GroupId group;
  int iface;
  bool edge_flag;  // first_iface / last_iface
  bool operator==(const Transition&) const = default;
};

struct RecordingListener final : MembershipListener {
  std::vector<Transition> log;
  void interface_joined(graph::NodeId router, GroupId group, int iface,
                        bool first_iface) override {
    log.push_back({true, router, group, iface, first_iface});
  }
  void interface_left(graph::NodeId router, GroupId group, int iface,
                      bool last_iface) override {
    log.push_back({false, router, group, iface, last_iface});
  }
};

/// The nested-map membership model, behaviour for behaviour.
class NestedMapModel {
 public:
  NestedMapModel(sim::EventQueue& queue, int num_routers,
                 MembershipListener* listener)
      : queue_(&queue),
        membership_(static_cast<std::size_t>(num_routers)),
        listener_(listener) {}

  void host_join(graph::NodeId router, int iface, int host, GroupId group) {
    auto& groups = membership_[static_cast<std::size_t>(router)];
    const bool had_any_iface = router_is_member(router, group);
    auto& hosts = groups[group][iface];
    const bool iface_was_empty = hosts.empty();
    if (!hosts.insert(host).second) return;
    ++messages_;
    if (iface_was_empty)
      listener_->interface_joined(router, group, iface, !had_any_iface);
  }

  void host_leave(graph::NodeId router, int iface, int host, GroupId group) {
    remove_host(router, iface, host, group, false);
  }

  void host_crash(graph::NodeId router, int iface, int host) {
    crashed_.emplace(Key{router, iface, host}, queue_->now());
  }

  void enable_soft_state(double holdtime) { holdtime_ = holdtime; }

  void start_query_cycle(double interval) {
    queue_->schedule_in(interval, [this, interval] { tick(interval); });
  }

  bool router_is_member(graph::NodeId router, GroupId group) const {
    const auto& groups = membership_[static_cast<std::size_t>(router)];
    const auto it = groups.find(group);
    return it != groups.end() && !it->second.empty();
  }

  std::vector<int> member_ifaces(graph::NodeId router, GroupId group) const {
    std::vector<int> out;
    const auto& groups = membership_[static_cast<std::size_t>(router)];
    const auto it = groups.find(group);
    if (it == groups.end()) return out;
    for (const auto& [iface, hosts] : it->second)
      if (!hosts.empty()) out.push_back(iface);
    return out;
  }

  int host_count(graph::NodeId router, GroupId group) const {
    const auto& groups = membership_[static_cast<std::size_t>(router)];
    const auto it = groups.find(group);
    if (it == groups.end()) return 0;
    int total = 0;
    for (const auto& [iface, hosts] : it->second)
      total += static_cast<int>(hosts.size());
    return total;
  }

  std::vector<graph::NodeId> member_routers(GroupId group) const {
    std::vector<graph::NodeId> out;
    for (std::size_t r = 0; r < membership_.size(); ++r)
      if (router_is_member(static_cast<graph::NodeId>(r), group))
        out.push_back(static_cast<graph::NodeId>(r));
    return out;
  }

  std::map<GroupId, std::vector<graph::NodeId>> member_routers_by_group()
      const {
    std::map<GroupId, std::vector<graph::NodeId>> out;
    for (std::size_t r = 0; r < membership_.size(); ++r)
      for (const auto& [group, ifaces] : membership_[r])
        if (!ifaces.empty())
          out[group].push_back(static_cast<graph::NodeId>(r));
    return out;
  }

  std::uint64_t messages() const { return messages_; }

 private:
  struct Key {
    graph::NodeId router;
    int iface;
    int host;
    auto operator<=>(const Key&) const = default;
  };

  void remove_host(graph::NodeId router, int iface, int host, GroupId group,
                   bool silent) {
    auto& groups = membership_[static_cast<std::size_t>(router)];
    auto git = groups.find(group);
    if (git == groups.end()) return;
    auto iit = git->second.find(iface);
    if (iit == git->second.end()) return;
    if (iit->second.erase(host) == 0) return;
    if (!silent) ++messages_;
    if (!iit->second.empty()) return;
    git->second.erase(iit);
    const bool last_iface = git->second.empty();
    if (last_iface) groups.erase(git);
    listener_->interface_left(router, group, iface, last_iface);
  }

  void tick(double interval) {
    if (holdtime_ > 0.0 && !crashed_.empty()) {
      struct Expired {
        graph::NodeId router;
        int iface;
        int host;
        GroupId group;
      };
      std::vector<Expired> expired;
      for (const auto& [key, crash_time] : crashed_) {
        if (queue_->now() < crash_time + holdtime_) continue;
        for (const auto& [group, ifaces] :
             membership_[static_cast<std::size_t>(key.router)]) {
          const auto it = ifaces.find(key.iface);
          if (it != ifaces.end() && it->second.contains(key.host))
            expired.push_back({key.router, key.iface, key.host, group});
        }
      }
      for (const auto& e : expired)
        remove_host(e.router, e.iface, e.host, e.group, true);
    }
    for (std::size_t r = 0; r < membership_.size(); ++r) {
      if (membership_[r].empty()) continue;
      ++messages_;
      for (const auto& [group, ifaces] : membership_[r]) {
        for (const auto& [iface, hosts] : ifaces) {
          for (int host : hosts) {
            if (!crashed_.contains(
                    Key{static_cast<graph::NodeId>(r), iface, host})) {
              ++messages_;
              break;
            }
          }
        }
      }
    }
    queue_->schedule_in(interval, [this, interval] { tick(interval); });
  }

  sim::EventQueue* queue_;
  std::vector<std::map<GroupId, std::map<int, std::set<int>>>> membership_;
  MembershipListener* listener_;
  std::uint64_t messages_ = 0;
  double holdtime_ = 0.0;
  std::map<Key, double> crashed_;
};

constexpr int kRouters = 6;
constexpr int kGroups = 5;

void expect_same_state(const IgmpDomain& domain, const NestedMapModel& model,
                       int step) {
  for (graph::NodeId r = 0; r < kRouters; ++r) {
    for (GroupId g = 0; g < kGroups; ++g) {
      ASSERT_EQ(domain.router_is_member(r, g), model.router_is_member(r, g))
          << "step " << step << " router " << r << " group " << g;
      ASSERT_EQ(domain.member_ifaces(r, g), model.member_ifaces(r, g))
          << "step " << step << " router " << r << " group " << g;
      ASSERT_EQ(domain.host_count(r, g), model.host_count(r, g))
          << "step " << step << " router " << r << " group " << g;
    }
  }
  for (GroupId g = 0; g < kGroups; ++g)
    ASSERT_EQ(domain.member_routers(g), model.member_routers(g))
        << "step " << step << " group " << g;
  ASSERT_EQ(domain.member_routers_by_group(), model.member_routers_by_group())
      << "step " << step;
  ASSERT_EQ(domain.igmp_message_count(), model.messages()) << "step " << step;
}

TEST(IgmpReference, FlatRecordsMatchNestedMapModel) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    sim::EventQueue queue;
    RecordingListener domain_log;
    RecordingListener model_log;
    IgmpDomain domain(queue, kRouters);
    domain.set_listener(&domain_log);
    NestedMapModel model(queue, kRouters, &model_log);
    // Half the seeds run soft state: crashed hosts expire at query ticks.
    if (seed % 2 == 0) {
      domain.enable_soft_state(1.5);
      model.enable_soft_state(1.5);
    }
    domain.start_query_cycle(1.0, 1e9);
    model.start_query_cycle(1.0);

    Rng rng(seed);
    for (int step = 0; step < 3000; ++step) {
      const auto router =
          static_cast<graph::NodeId>(rng.uniform_int(0, kRouters - 1));
      const auto iface = static_cast<int>(rng.uniform_int(0, 2));
      const auto host = static_cast<int>(rng.uniform_int(0, 3));
      const auto group = static_cast<GroupId>(rng.uniform_int(0, kGroups - 1));
      const auto op = rng.uniform_int(0, 9);
      if (op < 4) {
        domain.host_join(router, iface, host, group);
        model.host_join(router, iface, host, group);
      } else if (op < 7) {
        domain.host_leave(router, iface, host, group);
        model.host_leave(router, iface, host, group);
      } else if (op < 8) {
        domain.host_crash(router, iface, host);
        model.host_crash(router, iface, host);
      } else {
        queue.run_until(queue.now() + rng.uniform_real(0.0, 2.0));
      }
      ASSERT_EQ(domain_log.log, model_log.log)
          << "seed " << seed << " step " << step;
      if (step % 50 == 0) {
        expect_same_state(domain, model, step);
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
    expect_same_state(domain, model, -1);
    EXPECT_FALSE(domain_log.log.empty());
  }
}

}  // namespace
}  // namespace scmp::igmp
