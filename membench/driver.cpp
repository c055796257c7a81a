// Membership-pipeline benchmark driver. Replays one seeded workload through
// the public Scmp / Network / EventQueue surface on the 624-router
// transit-stub internetwork and writes raw measurements for run.py, which
// turns them into the end-to-end and per-layer metrics (membench/README.md).
//
//   membench_driver --workload <name> --seed <n> --seconds <s>
//                   --trace <0|1> --out <dir>
//
// Every invocation runs the *timed* pass repeatedly for --seconds: a fresh
// world per repetition (topology + workload generation and Network / IGMP /
// Scmp construction are timed separately as set-up), then the replay itself
// with metrics, tracing and convergence tracking all off, with a fixed
// reference kernel timed around every repetition. It then runs one untimed
// pass on a fresh world:
//
//   --trace 0  the *tracked* pass: the benchmark's own convergence probe
//              (a checking RouterAgent wrapped around every router's agent),
//              data-delivery delays and the Fig. 7 tree-quality sample.
//   --trace 1  the *traced* pass: metrics and tracing on, every span kept;
//              the benchmark's own timer records (bench.*) are written next
//              to the program's spans, never through OBS_SPAN or obs::counter.
//
// Both untimed passes end with the output checks (membership database vs the
// generated trace, installed state vs the m-router's trees, the invariant
// auditor's catalog) and the same-execution guard: their per-PacketType link
// transmission counts must equal the timed pass's.
//
// Everything runs on one thread; no TreeComputePool is registered.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <queue>
#include <set>
#include <string>
#include <vector>

#include "core/scmp.hpp"
#include "graph/dijkstra.hpp"
#include "igmp/igmp.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "sim/event_queue.hpp"
#include "sim/network.hpp"
#include "topo/transit_stub.hpp"
#include "topo/workload.hpp"
#include "util/rng.hpp"
#include "verify/auditor.hpp"

namespace {

using namespace scmp;
using Clock = std::chrono::steady_clock;
using graph::NodeId;

constexpr NodeId kMRouter = 0;
/// The topology is part of the benchmark's definition, not of its input
/// stream: every seed replays onto the same internetwork.
constexpr std::uint64_t kTopologySeed = 7;
constexpr int kNumPacketTypes =
    static_cast<int>(sim::PacketType::kIgmpLeave) + 1;
/// Convergence episodes open longer than this (sim seconds) count as failed.
constexpr double kConvergenceTimeout = 60.0;
constexpr int kMaxFixpointPasses = 64;
constexpr int kMinTimedReps = 3;
/// Sim seconds a link failure waits while a transmission is in progress.
constexpr double kLinkFailRetry = 1e-6;
/// Sim seconds that separate the lossless workloads' overlapping membership
/// changes of one group, over three times the slowest change's settling
/// time on this topology (28 ms). Changes of one group that are in flight
/// together can leave installed state the m-router's tree disagrees with: a
/// leaving member's PRUNE climbing a chain that a newer BRANCH is coming
/// down erases the parent's downstream link the BRANCH just installed, and
/// only reconciliation repairs it. Only lossy_churn reconciles, so the other
/// workloads keep each group's changes apart.
constexpr double kSettleSeconds = 0.1;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---------------------------------------------------------------------------
// Workloads.
// ---------------------------------------------------------------------------

struct WorkloadSpec {
  bool flash = false;             ///< flash-crowd trace (else Zipf churn)
  topo::FlashCrowdConfig crowd;
  double depart_delay = 0.0;      ///< flash: departures start this much later
  double stream_period = 0.0;     ///< flash: one send per hot group per period
  topo::ZipfChurnConfig churn;
  double group_gap = 0.0;         ///< Zipf: least spacing of a group's events
  int data_sends = 0;             ///< Zipf: sends to Zipf-chosen groups
  int link_events = 0;
  double epoch_interval = 0.0;
  double control_loss = 0.0;      ///< drop probability per control-packet hop
  double reconcile_interval = 0.0;
};

bool workload_spec(const std::string& name, WorkloadSpec& spec) {
  spec = {};
  if (name == "flash_crowd" || name == "flash_epoch") {
    spec.flash = true;
    spec.crowd.num_groups = 20;
    spec.crowd.crowd = 4000;
    spec.crowd.start = 1.0;
    spec.crowd.window = 5.0;
    spec.crowd.depart = true;
    // Arrivals and departures must not overlap in flight (see
    // kSettleSeconds): the departure wave starts once the last arrival's
    // install, deferred by up to one epoch, has reached its router.
    spec.depart_delay = 1.0;
    spec.stream_period = 0.5;
    spec.epoch_interval = name == "flash_epoch" ? 0.5 : 0.0;
    return true;
  }
  if (name == "zipf_data") {
    spec.churn.num_groups = 500;
    spec.churn.num_events = 6000;
    // Long enough that spacing the hottest group's ~900 events by group_gap
    // moves only a minority of them.
    spec.churn.horizon = 300.0;
    spec.churn.leave_fraction = 0.3;
    spec.group_gap = kSettleSeconds;
    spec.data_sends = 4000;
    return true;
  }
  if (name == "lossy_churn") {
    spec.churn.num_groups = 300;
    spec.churn.num_events = 6000;
    spec.churn.horizon = 30.0;
    spec.churn.leave_fraction = 0.3;
    spec.data_sends = 600;
    spec.link_events = 3;
    // Loss applies per link transmission, so a change crossing a dozen hops
    // loses a packet far more often than the rate suggests. At 5% about half
    // of all changes wait for a retransmission and the median flips between
    // the two modes with the seed; at 1% both percentiles sit inside one.
    spec.control_loss = 0.01;
    spec.reconcile_interval = 5.0;
    return true;
  }
  return false;
}

enum class OpKind : std::uint8_t { kJoin, kLeave, kSend, kLinkFail };

/// One pre-scheduled operation of the open-loop trace.
struct Op {
  double time = 0.0;
  OpKind kind = OpKind::kJoin;
  int group = -1;
  NodeId u = graph::kInvalidNode;  ///< member router / data source / link end
  NodeId v = graph::kInvalidNode;  ///< other link end
  int iface = 0;
  int host = 0;
};

struct Inputs {
  topo::Topology topo;
  std::vector<Op> ops;  ///< time-sorted
  double sample_time = 0.0;  ///< when the tree-quality sample is taken
  double topo_seconds = 0.0;
  int membership_ops = 0;
};

topo::TransitStubConfig topology_config() {
  // 4 transit domains x 6 routers, 5 stub domains of 5 routers per transit
  // node: 624 routers (the ROADMAP's large-internetwork scale).
  topo::TransitStubConfig cfg;
  cfg.transit_domains = 4;
  cfg.transit_nodes = 6;
  cfg.stub_domains_per_node = 5;
  cfg.stub_nodes = 5;
  return cfg;
}

/// Link failures inside stub domains, each on the shortest-delay tree the
/// domain's gateway router grows into its domain. Every path from outside
/// the domain enters through the gateway, so the incremental path-database
/// repair re-runs (nearly) every Dijkstra source for each failure: a link
/// off all shortest paths would dirty almost none, and a random mix of the
/// two makes the work per run swing with the seed. Failures keep the
/// residual topology connected (Network and unicast routing require it) and
/// apply cumulatively in generation order.
std::vector<std::pair<NodeId, NodeId>> pick_link_failures(
    const graph::Graph& g, const topo::TransitStubConfig& cfg, int count,
    Rng& rng) {
  std::vector<std::pair<NodeId, NodeId>> out;
  graph::Graph residual = g;
  const int first_stub = topo::num_transit_nodes(cfg);
  const int domains = topo::num_stub_nodes(cfg) / cfg.stub_nodes;
  while (static_cast<int>(out.size()) < count) {
    const NodeId base = first_stub + cfg.stub_nodes *
                                         static_cast<NodeId>(
                                             rng.uniform_int(0, domains - 1));
    auto in_domain = [&](NodeId v) {
      return v >= base && v < base + cfg.stub_nodes;
    };
    NodeId gateway = graph::kInvalidNode;
    for (NodeId v = base; v < base + cfg.stub_nodes; ++v) {
      for (const graph::Graph::Neighbor& nb : residual.neighbors(v))
        if (nb.to < first_stub) gateway = v;
    }
    const auto v = static_cast<NodeId>(
        base + rng.uniform_int(0, cfg.stub_nodes - 1));
    if (gateway == graph::kInvalidNode || v == gateway) continue;
    const NodeId u = graph::dijkstra(residual, gateway, graph::Metric::kDelay)
                         .parent[static_cast<std::size_t>(v)];
    if (!in_domain(u)) continue;
    graph::Graph probe = residual;
    probe.remove_edge(u, v);
    if (!probe.is_connected()) continue;
    residual = std::move(probe);
    out.emplace_back(u, v);
  }
  return out;
}

Inputs build_inputs(const WorkloadSpec& spec, std::uint64_t seed) {
  Inputs in;
  const auto t0 = Clock::now();
  Rng topo_rng(kTopologySeed);
  in.topo = topo::transit_stub(topology_config(), topo_rng);
  in.topo_seconds = seconds_since(t0);
  const int n = in.topo.graph.num_nodes();

  Rng rng(seed);
  Rng member_rng = rng.fork();
  Rng send_rng = rng.fork();
  Rng link_rng = rng.fork();

  std::vector<topo::MemberEvent> members =
      spec.flash ? topo::flash_crowd(spec.crowd, n, member_rng)
                 : topo::zipf_churn(spec.churn, n, member_rng);
  if (spec.flash) {
    for (topo::MemberEvent& ev : members)
      if (!ev.join) ev.time += spec.depart_delay;
  }
  if (spec.group_gap > 0.0) {
    // Events come time-sorted; each one that follows its group's previous
    // event too closely moves later, which keeps every group's order (so a
    // leave still follows its join).
    std::map<int, double> last;
    for (topo::MemberEvent& ev : members) {
      const auto [it, fresh] = last.try_emplace(ev.group, ev.time);
      if (!fresh) it->second = ev.time = std::max(ev.time,
                                                  it->second + spec.group_gap);
    }
  }
  for (topo::MemberEvent ev : members) {
    // The m-router hosts no members (as in the churn model-checker): a
    // root-local change installs nothing, so no packet would ever resolve its
    // convergence episode. The remap is a function of the host, so a join
    // and its leave land on the same router.
    if (ev.router == kMRouter) ev.router = 1 + ev.host % (n - 1);
    Op op;
    op.time = ev.time;
    op.kind = ev.join ? OpKind::kJoin : OpKind::kLeave;
    op.group = ev.group;
    op.u = ev.router;
    op.iface = ev.iface;
    op.host = ev.host;
    in.ops.push_back(op);
    ++in.membership_ops;
  }

  auto add_send = [&](double time, int group) {
    Op op;
    op.time = time;
    op.kind = OpKind::kSend;
    op.group = group;
    op.u = static_cast<NodeId>(send_rng.uniform_int(0, n - 1));
    in.ops.push_back(op);
  };
  if (spec.flash) {
    // A live stream per hot group while the crowd is present, each packet
    // from a random router (most are off-tree and travel as DATA_ENCAP).
    const double end =
        spec.crowd.start + 2.0 * spec.crowd.window + spec.depart_delay;
    for (double t = spec.crowd.start + spec.stream_period; t < end;
         t += spec.stream_period) {
      for (int g = 0; g < spec.crowd.num_groups; ++g) add_send(t, g);
    }
    in.sample_time = spec.crowd.start + spec.crowd.window;
  } else {
    const topo::ZipfSampler popularity(spec.churn.num_groups,
                                       spec.churn.zipf_exponent);
    for (int i = 0; i < spec.data_sends; ++i) {
      const double t =
          send_rng.uniform_real(spec.churn.start, spec.churn.horizon);
      add_send(t, popularity.sample(send_rng));
    }
    in.sample_time = spec.churn.horizon;
  }

  const auto links = pick_link_failures(in.topo.graph, topology_config(),
                                        spec.link_events, link_rng);
  const double horizon = spec.flash ? spec.crowd.start +
                                          2.0 * spec.crowd.window +
                                          spec.depart_delay
                                    : spec.churn.horizon;
  // Evenly spaced over the trace: the cost of a link event grows with the
  // live membership every rebuild re-joins, so random times would make the
  // work per run swing with the seed.
  for (std::size_t i = 0; i < links.size(); ++i) {
    const auto [u, v] = links[i];
    Op op;
    op.time = horizon * static_cast<double>(i + 1) /
              static_cast<double>(links.size() + 1);
    op.kind = OpKind::kLinkFail;
    op.u = u;
    op.v = v;
    in.ops.push_back(op);
  }
  std::stable_sort(in.ops.begin(), in.ops.end(),
                   [](const Op& a, const Op& b) { return a.time < b.time; });
  return in;
}

// ---------------------------------------------------------------------------
// The simulated world and its passes.
// ---------------------------------------------------------------------------

bool is_scmp_control(sim::PacketType t) {
  switch (t) {
    case sim::PacketType::kJoin:
    case sim::PacketType::kLeave:
    case sim::PacketType::kTree:
    case sim::PacketType::kBranch:
    case sim::PacketType::kPrune:
    case sim::PacketType::kClear:
    case sim::PacketType::kAck:
      return true;
    default:
      return false;
  }
}

struct TxCounts {
  std::array<std::uint64_t, kNumPacketTypes> packets{};
  std::array<std::uint64_t, kNumPacketTypes> bytes{};
};

/// One of the benchmark's own timer records (same clock as obs spans).
struct BenchRecord {
  const char* name;
  std::uint64_t start_ns;
  std::uint64_t dur_ns;
};

class ConvergenceProbe;

struct World {
  World(const WorkloadSpec& spec, const Inputs& in, std::uint64_t seed)
      : loss_rng(seed ^ 0x5eedf00dULL) {
    net = std::make_unique<sim::Network>(in.topo.graph, queue);
    igmp = std::make_unique<igmp::IgmpDomain>(queue,
                                              in.topo.graph.num_nodes());
    core::Scmp::Config cfg;
    cfg.mrouter = kMRouter;
    cfg.epoch_interval = spec.epoch_interval;
    cfg.reliability.enabled = spec.control_loss > 0.0;
    scmp = std::make_unique<core::Scmp>(*net, *igmp, cfg);
    if (spec.control_loss > 0.0) {
      const double loss = spec.control_loss;
      net->set_drop_filter(
          [this, loss](NodeId, NodeId, const sim::Packet& pkt) {
            return is_scmp_control(pkt.type) && loss_rng.chance(loss);
          });
    }
    if (spec.reconcile_interval > 0.0)
      scmp->start_reconciliation(spec.reconcile_interval, in.sample_time);
    net->add_transmit_observer(
        [this](NodeId, NodeId, const sim::Packet& pkt, sim::SimTime) {
          const auto t = static_cast<std::size_t>(pkt.type);
          ++tx.packets[t];
          tx.bytes[t] += pkt.size_bytes;
        });
  }

  // Declared first so it is destroyed last: scheduled closures point into
  // the protocol objects below.
  sim::EventQueue queue;
  Rng loss_rng;
  std::unique_ptr<sim::Network> net;
  std::unique_ptr<igmp::IgmpDomain> igmp;
  std::unique_ptr<core::Scmp> scmp;
  TxCounts tx;
  ConvergenceProbe* probe = nullptr;           ///< tracked pass only
  std::vector<BenchRecord>* records = nullptr;  ///< traced pass only
};

/// Sim-time from a router-level membership change (a router's first member
/// host joined, or its last one left) until the change has taken effect in
/// installed state. A join at router r has taken effect when r is a member
/// of the m-router's tree and every router on r's tree path holds an entry
/// whose upstream is its tree parent and whose parent's entry lists it
/// downstream — data from the m-router reaches r. A leave has taken effect
/// when r is off the member set and holds no entry unless it stays on the
/// tree as a relay. Both halves of the predicate read only public state
/// (Scmp::group_tree, Scmp::entry_at); the m-router's tree alone would call
/// an epoch-deferred or still-in-flight change settled.
///
/// One episode per (group, router) is open at a time; a newer event for the
/// same pair supersedes the older one, which then counts neither as a sample
/// nor as a failure. Episodes are re-checked after every SCMP control packet
/// a router handles for their group.
class ConvergenceProbe {
 public:
  explicit ConvergenceProbe(World& w) : w_(&w) {
    const int n = w.net->graph().num_nodes();
    agents_.reserve(static_cast<std::size_t>(n));
    for (NodeId v = 0; v < n; ++v) {
      agents_.push_back(std::make_unique<CheckingAgent>(this, w.net->agent(v)));
      w.net->attach(v, agents_.back().get());
    }
  }

  void open(int group, NodeId router, bool join) {
    std::vector<Episode>& open = pending_[group];
    const auto it =
        std::find_if(open.begin(), open.end(),
                     [router](const Episode& e) { return e.router == router; });
    if (it != open.end()) {
      *it = {router, join, w_->queue.now()};
    } else {
      open.push_back({router, join, w_->queue.now()});
      ++episodes_;
    }
    check(group);
  }

  void check(int group) {
    const auto it = pending_.find(group);
    if (it == pending_.end()) return;
    std::vector<Episode>& open = it->second;
    for (std::size_t i = 0; i < open.size();) {
      if (!took_effect(group, open[i])) {
        ++i;
        continue;
      }
      const double seconds = w_->queue.now() - open[i].start;
      if (seconds > kConvergenceTimeout)
        ++failed_;
      else
        samples_.push_back(seconds);
      open[i] = open.back();
      open.pop_back();
    }
  }

  /// Final check at the quiescent end of the pass: whatever is still open
  /// was left inconsistent.
  void finish() {
    for (auto& [group, open] : pending_) {
      check(group);
      failed_ += open.size();
      open.clear();
    }
  }

  const std::vector<double>& samples() const { return samples_; }
  std::uint64_t episodes() const { return episodes_; }
  std::uint64_t failed() const { return failed_; }

 private:
  struct Episode {
    NodeId router;
    bool join;
    double start;
  };

  struct CheckingAgent final : sim::RouterAgent {
    CheckingAgent(ConvergenceProbe* p, sim::RouterAgent* a)
        : probe(p), inner(a) {}
    void handle(const sim::Packet& pkt, NodeId from) override {
      const int group = pkt.group;
      const bool control = is_scmp_control(pkt.type);
      inner->handle(pkt, from);
      if (control) probe->check(group);
    }
    ConvergenceProbe* probe;
    sim::RouterAgent* inner;
  };

  bool took_effect(int group, const Episode& e) const {
    const core::Scmp& scmp = *w_->scmp;
    const core::DcdmTree* dcdm = scmp.group_tree(group);
    const bool member = dcdm != nullptr && dcdm->tree().is_member(e.router);
    if (!e.join) {
      const bool relay = dcdm != nullptr && dcdm->tree().on_tree(e.router);
      return !member && (relay || scmp.entry_at(e.router, group) == nullptr);
    }
    if (!member) return false;
    const graph::MulticastTree& tree = dcdm->tree();
    for (NodeId v = e.router; v != tree.root();) {
      const core::Scmp::Entry* entry = scmp.entry_at(v, group);
      const NodeId parent = tree.parent(v);
      if (entry == nullptr || entry->upstream != parent) return false;
      if (parent != tree.root()) {
        const core::Scmp::Entry* up = scmp.entry_at(parent, group);
        if (up == nullptr || !up->downstream_routers.contains(v)) return false;
      }
      v = parent;
    }
    return true;
  }

  World* w_;
  std::vector<std::unique_ptr<CheckingAgent>> agents_;
  std::map<int, std::vector<Episode>> pending_;  ///< open episodes per group
  std::vector<double> samples_;
  std::uint64_t episodes_ = 0;
  std::uint64_t failed_ = 0;
};

/// True while some link is still serialising a packet. Network::fail_link
/// resets every link's egress backlog; a packet mid-transmission across the
/// reset later drives its link's backlog negative, which the drop-tail check
/// reads as a full queue, so that link drops everything from then on. Link
/// failures therefore wait for an instant with no transmission in progress
/// (microseconds: a control packet serialises in half a microsecond).
bool transmitting(const sim::Network& net) {
  const graph::Graph& g = net.graph();
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (const graph::Graph::Neighbor& nb : g.neighbors(u))
      if (net.link_backlog(u, nb.to) > 0) return true;
  }
  return false;
}

void apply(World& w, const Op& op) {
  switch (op.kind) {
    case OpKind::kJoin:
    case OpKind::kLeave: {
      const bool before = w.igmp->router_is_member(op.u, op.group);
      if (op.kind == OpKind::kJoin)
        w.scmp->host_join(op.u, op.group, op.iface, op.host);
      else
        w.scmp->host_leave(op.u, op.group, op.iface, op.host);
      if (w.probe != nullptr &&
          before != w.igmp->router_is_member(op.u, op.group))
        w.probe->open(op.group, op.u, op.kind == OpKind::kJoin);
      return;
    }
    case OpKind::kSend:
      w.scmp->send_data(op.u, op.group);
      return;
    case OpKind::kLinkFail: {
      if (transmitting(*w.net)) {
        World* world = &w;
        const Op* p = &op;
        w.queue.schedule_in(kLinkFailRetry, [world, p] { apply(*world, *p); });
        return;
      }
      const std::uint64_t t0 = obs::now_ns();
      w.net->fail_link(op.u, op.v);
      if (w.records != nullptr)
        w.records->push_back({"bench.fail_link", t0, obs::now_ns() - t0});
      w.scmp->handle_link_event(op.u, op.v);
      return;
    }
  }
}

void schedule(World& w, const Inputs& in) {
  for (const Op& op : in.ops) {
    World* world = &w;
    const Op* p = &op;
    w.queue.schedule_at(op.time, [world, p] { apply(*world, *p); });
  }
}

/// Reconciliation passes, draining after each, until one repairs nothing.
/// Returns the passes run, or -1 when the budget ran out first.
int reconcile_to_fixpoint(World& w) {
  for (int pass = 1; pass <= kMaxFixpointPasses; ++pass) {
    const int repairs = w.scmp->reconcile_all();
    w.queue.run_all();
    if (repairs == 0) return pass;
  }
  return -1;
}

struct TreeSample {
  int groups = 0;
  double mean_cost = 0.0;
  double mean_delay_ms = 0.0;
};

/// Fig. 7 quality metrics averaged over the groups whose tree has members.
TreeSample sample_trees(const World& w) {
  TreeSample s;
  double cost = 0.0, delay = 0.0;
  for (int g : w.scmp->active_groups()) {
    const core::DcdmTree* t = w.scmp->group_tree(g);
    if (t == nullptr || t->tree().members().empty()) continue;
    ++s.groups;
    cost += t->tree_cost();
    // Graph delay units are microseconds (Network's default delay scale).
    delay += t->tree_delay() * 1e-3;
  }
  if (s.groups > 0) {
    s.mean_cost = cost / s.groups;
    s.mean_delay_ms = delay / s.groups;
  }
  return s;
}

/// Replays the whole trace: to the sample time, then to quiescence, then (on
/// lossy workloads) reconciliation to its fixpoint.
int replay(World& w, const WorkloadSpec& spec, const Inputs& in,
           TreeSample* sample) {
  w.queue.run_until(in.sample_time);
  if (sample != nullptr) *sample = sample_trees(w);
  w.queue.run_all();
  return spec.control_loss > 0.0 ? reconcile_to_fixpoint(w) : 0;
}

/// The output checks; returns one line per failure.
std::vector<std::string> check_outputs(const World& w, const Inputs& in,
                                       bool expect_no_state,
                                       int fixpoint_passes) {
  std::vector<std::string> failures;
  if (fixpoint_passes < 0)
    failures.push_back("reconciliation did not reach its fixpoint");

  // Membership the trace implies: routers with at least one live host.
  std::map<int, std::map<NodeId, int>> hosts;
  for (const Op& op : in.ops) {
    if (op.kind == OpKind::kJoin) ++hosts[op.group][op.u];
    if (op.kind == OpKind::kLeave) --hosts[op.group][op.u];
  }
  for (const auto& [group, per_router] : hosts) {
    std::set<NodeId> want;
    for (const auto& [router, count] : per_router)
      if (count > 0) want.insert(router);
    if (w.scmp->database().members_of(group) != want)
      failures.push_back("group " + std::to_string(group) +
                         ": database membership differs from the trace");
  }
  for (int g : w.scmp->active_groups()) {
    if (!w.scmp->network_state_consistent(g))
      failures.push_back("group " + std::to_string(g) +
                         ": installed state differs from the m-router tree");
  }
  for (const verify::Violation& v : verify::InvariantAuditor(*w.scmp).audit())
    failures.push_back(v.invariant + ": " + v.detail);
  if (expect_no_state && !w.scmp->groups_with_installed_state().empty())
    failures.push_back("installed state left after the departures");
  const graph::Graph& g = w.net->graph();
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (const graph::Graph::Neighbor& nb : g.neighbors(u)) {
      if (w.net->link_backlog(u, nb.to) != 0)
        failures.push_back("link " + std::to_string(u) + "->" +
                           std::to_string(nb.to) +
                           ": egress backlog not zero at quiescence");
    }
  }
  return failures;
}

// ---------------------------------------------------------------------------
// Output.
// ---------------------------------------------------------------------------

class JsonOut {
 public:
  explicit JsonOut(const std::string& path)
      : f_(std::fopen(path.c_str(), "w")) {
    if (f_ == nullptr) {
      std::fprintf(stderr, "membench: cannot write %s\n", path.c_str());
      std::exit(2);
    }
    std::fputs("{", f_);
  }
  ~JsonOut() {
    std::fputs("}\n", f_);
    std::fclose(f_);
  }
  void num(const char* key, double v) {
    key_(key);
    std::fprintf(f_, "%.17g", v);
  }
  void str(const char* key, const std::string& v) {
    key_(key);
    quoted(v);
  }
  void nums(const char* key, const std::vector<double>& vs) {
    key_(key);
    std::fputc('[', f_);
    for (std::size_t i = 0; i < vs.size(); ++i)
      std::fprintf(f_, "%s%.17g", i == 0 ? "" : ",", vs[i]);
    std::fputc(']', f_);
  }
  void strs(const char* key, const std::vector<std::string>& vs) {
    key_(key);
    std::fputc('[', f_);
    for (std::size_t i = 0; i < vs.size(); ++i) {
      if (i > 0) std::fputc(',', f_);
      quoted(vs[i]);
    }
    std::fputc(']', f_);
  }
  void table(const char* key, const std::map<std::string, double>& kv) {
    key_(key);
    std::fputc('{', f_);
    bool first = true;
    for (const auto& [k, v] : kv) {
      if (!first) std::fputc(',', f_);
      first = false;
      quoted(k);
      std::fprintf(f_, ":%.17g", v);
    }
    std::fputc('}', f_);
  }

 private:
  void key_(const char* key) {
    std::fprintf(f_, "%s\"%s\":", first_ ? "" : ",", key);
    first_ = false;
  }
  void quoted(const std::string& s) {
    std::fputc('"', f_);
    for (char c : s) {
      if (c == '"' || c == '\\') std::fputc('\\', f_);
      std::fputc(c == '\n' ? ' ' : c, f_);
    }
    std::fputc('"', f_);
  }
  std::FILE* f_;
  bool first_ = true;
};

std::map<std::string, double> tx_table(const TxCounts& tx) {
  std::map<std::string, double> out;
  for (int i = 0; i < kNumPacketTypes; ++i) {
    const auto t = static_cast<sim::PacketType>(i);
    const auto idx = static_cast<std::size_t>(i);
    if (tx.packets[idx] == 0) continue;
    out[std::string("packets.") + sim::to_string(t)] =
        static_cast<double>(tx.packets[idx]);
    out[std::string("bytes.") + sim::to_string(t)] =
        static_cast<double>(tx.bytes[idx]);
  }
  return out;
}

void write_f64(const std::string& path, const std::vector<double>& xs) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr ||
      std::fwrite(xs.data(), sizeof(double), xs.size(), f) != xs.size()) {
    std::fprintf(stderr, "membench: cannot write %s\n", path.c_str());
    std::exit(2);
  }
  std::fclose(f);
}

/// Spans as little-endian (u32 name index, u32 depth, u64 start, u64 dur).
void write_spans(const std::string& path,
                 const std::vector<obs::SpanRecord>& spans,
                 const std::vector<BenchRecord>& records,
                 std::vector<std::string>& names) {
  std::map<std::string, std::uint32_t> index;
  auto name_id = [&](const char* name) {
    const auto [it, fresh] =
        index.try_emplace(name, static_cast<std::uint32_t>(names.size()));
    if (fresh) names.emplace_back(name);
    return it->second;
  };
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    std::fprintf(stderr, "membench: cannot write %s\n", path.c_str());
    std::exit(2);
  }
  auto put = [&](std::uint32_t id, std::uint32_t depth, std::uint64_t start,
                 std::uint64_t dur) {
    unsigned char buf[24];
    std::memcpy(buf, &id, 4);
    std::memcpy(buf + 4, &depth, 4);
    std::memcpy(buf + 8, &start, 8);
    std::memcpy(buf + 16, &dur, 8);
    std::fwrite(buf, 1, sizeof buf, f);
  };
  for (const obs::SpanRecord& s : spans)
    put(name_id(s.name), s.depth, s.start_ns, s.dur_ns);
  for (const BenchRecord& r : records)
    put(name_id(r.name), 0, r.start_ns, r.dur_ns);
  std::fclose(f);
}

/// A fixed workload owned by the benchmark, timed before every repetition:
/// binary-heap Dijkstra over a seeded random sparse graph plus ordered-map
/// churn, the kind of work the simulator does, sharing no code with it. The
/// host this runs on is shared, and its speed drifts by tens of percent for
/// tens of seconds at a time; run.py scales each repetition's times by the
/// speed of the kernel runs around it, which cancels that drift while any
/// change to the program still shows in full. Its data (about 10 MB) does
/// not fit in the caches, like the program's path database and trees: a
/// cache-resident kernel tracked the slowdowns that neighbours' memory
/// traffic causes only half as well. Adds its result to `sink` so the work
/// cannot be optimised away.
double reference_seconds(std::uint64_t& sink) {
  constexpr int kNodes = 1 << 16;
  constexpr int kEdges = 4 * kNodes;
  constexpr int kSources = 1;
  constexpr int kMapOps = 100000;
  constexpr std::uint64_t kMapKeys = 1 << 16;
  const auto t0 = Clock::now();
  std::uint64_t state = 0x9e3779b97f4a7c15ULL;
  auto next = [&state] {  // splitmix64
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  };
  std::vector<std::vector<std::pair<int, double>>> adj(kNodes);
  for (int v = 1; v < kNodes; ++v) {  // a random spanning tree keeps it
    const int u = static_cast<int>(next() % static_cast<std::uint64_t>(v));
    const double w = 1.0 + static_cast<double>(next() % 1000);
    adj[static_cast<std::size_t>(u)].emplace_back(v, w);
    adj[static_cast<std::size_t>(v)].emplace_back(u, w);
  }
  for (int e = kNodes - 1; e < kEdges; ++e) {
    const int u = static_cast<int>(next() % kNodes);
    const int v = static_cast<int>(next() % kNodes);
    const double w = 1.0 + static_cast<double>(next() % 1000);
    adj[static_cast<std::size_t>(u)].emplace_back(v, w);
    adj[static_cast<std::size_t>(v)].emplace_back(u, w);
  }
  std::vector<double> dist;
  using Item = std::pair<double, int>;
  for (int src = 0; src < kSources; ++src) {
    dist.assign(kNodes, std::numeric_limits<double>::infinity());
    std::priority_queue<Item, std::vector<Item>, std::greater<>> heap;
    dist[static_cast<std::size_t>(src)] = 0.0;
    heap.emplace(0.0, src);
    while (!heap.empty()) {
      const auto [d, u] = heap.top();
      heap.pop();
      if (d > dist[static_cast<std::size_t>(u)]) continue;
      for (const auto& [v, w] : adj[static_cast<std::size_t>(u)]) {
        if (d + w < dist[static_cast<std::size_t>(v)]) {
          dist[static_cast<std::size_t>(v)] = d + w;
          heap.emplace(d + w, v);
        }
      }
    }
    sink += static_cast<std::uint64_t>(dist[kNodes - 1]);
  }
  std::map<int, int> churn;
  for (int i = 0; i < kMapOps; ++i) {
    const int key = static_cast<int>(next() % kMapKeys);
    const auto [it, fresh] = churn.try_emplace(key, i);
    if (!fresh) churn.erase(it);
  }
  sink += churn.size();
  return seconds_since(t0);
}

double peak_rss_kb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss);
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out;
};

bool parse(int argc, char** argv, Options& o) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    if (key == "--workload") o.workload = val;
    else if (key == "--seed") o.seed = std::strtoull(val, nullptr, 10);
    else if (key == "--seconds") o.seconds = std::strtod(val, nullptr);
    else if (key == "--trace") o.trace = std::strcmp(val, "1") == 0;
    else if (key == "--out") o.out = val;
    else return false;
  }
  return argc % 2 == 1 && !o.workload.empty() && !o.out.empty() &&
         o.seconds > 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  WorkloadSpec spec;
  if (!parse(argc, argv, opt) || !workload_spec(opt.workload, spec)) {
    std::fprintf(stderr,
                 "usage: membench_driver --workload <flash_crowd|flash_epoch|"
                 "zipf_data|lossy_churn> --seed <n> --seconds <s> "
                 "--trace <0|1> --out <dir>\n");
    return 2;
  }
  obs::set_metrics_enabled(false);
  obs::set_tracing_enabled(false);

  // Timed pass, repeated for the measurement window after one warm-up
  // repetition whose times are discarded (first-touch page faults and cold
  // caches would otherwise skew the first sample).
  std::vector<double> setup_s, run_s, ref_s;
  std::uint64_t ref_sink = 0;
  TxCounts timed_tx;
  int ops = 0;
  Clock::time_point window;
  for (int rep = 0; rep <= kMinTimedReps ||
                    seconds_since(window) < opt.seconds;
       ++rep) {
    if (rep == 1) window = Clock::now();
    if (rep >= 1) ref_s.push_back(reference_seconds(ref_sink));
    const auto t0 = Clock::now();
    const Inputs in = build_inputs(spec, opt.seed);
    World w(spec, in, opt.seed);
    schedule(w, in);
    const double setup = seconds_since(t0);
    const auto t1 = Clock::now();
    replay(w, spec, in, nullptr);
    const double run = seconds_since(t1);
    if (rep == 0) {
      timed_tx = w.tx;
      ops = static_cast<int>(in.ops.size());
      continue;
    }
    if (w.tx.packets != timed_tx.packets) {
      std::fprintf(stderr, "membench: timed repetitions diverged\n");
      return 1;
    }
    setup_s.push_back(setup);
    run_s.push_back(run);
  }
  ref_s.push_back(reference_seconds(ref_sink));
  const double rss_kb = peak_rss_kb();

  const Inputs in = build_inputs(spec, opt.seed);
  JsonOut out(opt.out + "/result.json");
  out.str("workload", opt.workload);
  out.num("seed", static_cast<double>(opt.seed));
  out.num("trace", opt.trace ? 1 : 0);
  out.num("ops", ops);
  out.num("membership_ops", in.membership_ops);
  out.nums("setup_s", setup_s);
  out.nums("run_s", run_s);
  out.nums("ref_s", ref_s);
  out.num("ref_sink", static_cast<double>(ref_sink % 1000003));
  out.num("peak_rss_kb", rss_kb);
  out.table("timed_tx", tx_table(timed_tx));

  // The world outlives the probe (whose agents its network points at) and
  // the sample and record buffers its callbacks append to; no event runs
  // after the pass.
  std::vector<double> deliver_s;
  std::vector<BenchRecord> records;
  std::unique_ptr<World> w;
  std::unique_ptr<ConvergenceProbe> probe;
  int fixpoint = 0;
  if (!opt.trace) {
    // Tracked pass: convergence episodes, delivery delays, tree quality.
    w = std::make_unique<World>(spec, in, opt.seed);
    probe = std::make_unique<ConvergenceProbe>(*w);
    w->probe = probe.get();
    w->net->set_delivery_callback(
        [&deliver_s](const sim::Packet& pkt, NodeId, sim::SimTime at) {
          deliver_s.push_back(at - pkt.created_at);
        });
    schedule(*w, in);
    TreeSample trees;
    fixpoint = replay(*w, spec, in, &trees);
    probe->finish();
    write_f64(opt.out + "/converge_s.f64", probe->samples());
    write_f64(opt.out + "/deliver_s.f64", deliver_s);
    out.num("episodes", static_cast<double>(probe->episodes()));
    out.num("episodes_failed", static_cast<double>(probe->failed()));
    out.num("tree_cost", trees.mean_cost);
    out.num("tree_delay_ms", trees.mean_delay_ms);
  } else {
    // Traced pass: metrics and tracing on from construction, so the
    // path-database build is among the kept spans.
    obs::reset_values();
    obs::span_sink().set_capacity(std::size_t{1} << 24);
    obs::span_sink().clear();
    obs::set_metrics_enabled(true);
    obs::set_tracing_enabled(true);
    const std::uint64_t t0 = obs::now_ns();
    w = std::make_unique<World>(spec, in, opt.seed);
    w->records = &records;
    schedule(*w, in);
    const std::uint64_t t1 = obs::now_ns();
    fixpoint = replay(*w, spec, in, nullptr);
    const std::uint64_t t2 = obs::now_ns();
    obs::set_metrics_enabled(false);
    obs::set_tracing_enabled(false);
    records.push_back({"bench.setup", t0, t1 - t0});
    records.push_back({"bench.run", t1, t2 - t1});

    std::map<std::string, double> counters;
    for (const obs::MetricSample& m : obs::snapshot()) {
      if (m.kind == obs::MetricKind::kHistogram) continue;
      counters[m.tag.empty() ? m.name : m.name + "|" + m.tag] = m.value;
    }
    std::vector<std::string> names;
    write_spans(opt.out + "/spans.bin", obs::span_sink().snapshot(), records,
                names);
    out.table("counters", counters);
    out.strs("span_names", names);
    out.num("spans_dropped",
            static_cast<double>(obs::span_sink().dropped()));
    out.num("topo_gen_s", in.topo_seconds);
  }
  out.num("fixpoint_passes", fixpoint);
  out.table("checked_tx", tx_table(w->tx));
  std::vector<std::string> failures =
      check_outputs(*w, in, spec.flash, fixpoint);
  if (w->tx.packets != timed_tx.packets)
    failures.push_back(
        "same-execution guard: per-type link transmissions differ between "
        "the timed and the checked pass");
  out.strs("failures", failures);
  return 0;
}
