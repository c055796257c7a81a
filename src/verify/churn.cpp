// Trace artifact grammar (line-oriented, '#' starts a comment line):
//
//   scmp-churn-trace v1
//   topo <arpanet|waxman|transit-stub>
//   topo-seed <u64>
//   waxman-nodes <int>
//   waxman-degree <double>
//   groups <int>
//   event-seed <u64>
//   max-link-failures <int>
//   audit-stride <int>
//   fault <packet-type> <every-nth>        (absent when no fault injected)
//   loss <rate> <seed>                     (absent when control loss is off)
//   epoch <interval>                       (absent when batching is off)
//   events <count>
//   join g<group> n<node>                  (one line per event, in order)
//   leave g<group> n<node>
//   send g<group> n<node>
//   linkfail n<u> n<v>
//   violation <invariant>: <detail>        (zero or more, what it reproduces)
#include "verify/churn.hpp"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstddef>
#include <fstream>
#include <limits>
#include <memory>
#include <set>
#include <sstream>
#include <string>

#include "core/scmp.hpp"
#include "obs/span.hpp"
#include "obs/timeseries.hpp"
#include "igmp/igmp.hpp"
#include "sim/event_queue.hpp"
#include "sim/network.hpp"
#include "topo/arpanet.hpp"
#include "topo/transit_stub.hpp"
#include "topo/waxman.hpp"
#include "util/contracts.hpp"
#include "util/rng.hpp"

namespace scmp::verify {

namespace {

topo::Topology build_topology(const ChurnConfig& cfg) {
  Rng rng(cfg.topo_seed);
  if (cfg.topo == ChurnTopo::kArpanet) return topo::arpanet(rng);
  if (cfg.topo == ChurnTopo::kTransitStub) {
    // Churn-sized hierarchical topology: 2 transit domains of 3 routers,
    // 2 stub domains of 4 routers per transit node — 54 nodes, the same
    // order as the Waxman runs but with the GT-ITM backbone/stub shape.
    topo::TransitStubConfig tcfg;
    tcfg.transit_domains = 2;
    tcfg.transit_nodes = 3;
    tcfg.stub_domains_per_node = 2;
    tcfg.stub_nodes = 4;
    return topo::transit_stub(tcfg, rng);
  }
  return topo::waxman_with_degree(cfg.waxman_nodes, cfg.waxman_degree, rng);
}

/// One disposable simulation world; replay() builds a fresh one per call so
/// subsequence replays share nothing.
/// SCMP control-plane types subject to the probabilistic loss model. The
/// ACKs are included: a reliability layer that only works when its own
/// acknowledgements arrive would be no reliability layer at all.
bool lossy_control_type(sim::PacketType t) {
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

struct World {
  explicit World(const ChurnConfig& cfg)
      : topo(build_topology(cfg)), loss_rng(cfg.loss_seed) {
    net = std::make_unique<sim::Network>(topo.graph, queue);
    igmp = std::make_unique<igmp::IgmpDomain>(queue, topo.graph.num_nodes());
    core::Scmp::Config scfg;
    scfg.mrouter = 0;
    SCMP_EXPECTS(cfg.control_loss_rate >= 0.0 && cfg.control_loss_rate < 1.0);
    SCMP_EXPECTS(cfg.epoch_interval >= 0.0);
    scfg.epoch_interval = cfg.epoch_interval;
    const double loss = cfg.control_loss_rate;
    if (loss > 0.0) scfg.reliability.enabled = true;
    scmp = std::make_unique<core::Scmp>(*net, *igmp, scfg);
    if (cfg.track_convergence) scmp->enable_convergence_tracking();
    if (cfg.fault.has_value() || loss > 0.0) {
      const std::optional<FaultSpec> fault = cfg.fault;
      if (fault.has_value()) SCMP_EXPECTS(fault->every_nth >= 1);
      net->set_drop_filter([this, fault, loss](graph::NodeId, graph::NodeId,
                                               const sim::Packet& pkt) {
        if (fault.has_value() && pkt.type == fault->drop &&
            ++fault_seen % fault->every_nth == 0)
          return true;
        // Seeded coin per matching egress attempt: deterministic for a
        // given event sequence, independent across retransmissions.
        return loss > 0.0 && lossy_control_type(pkt.type) &&
               loss_rng.chance(loss);
      });
    }
  }

  topo::Topology topo;
  Rng loss_rng;
  sim::EventQueue queue;
  std::unique_ptr<sim::Network> net;
  std::unique_ptr<igmp::IgmpDomain> igmp;
  std::unique_ptr<core::Scmp> scmp;
  int fault_seen = 0;
};

/// Applies one event; returns false when the event is inapplicable and was
/// skipped (deterministically, from current world state only).
bool apply(World& w, const ChurnEvent& ev) {
  switch (ev.type) {
    case ChurnEventType::kJoin:
      w.scmp->host_join(ev.node, ev.group);
      return true;
    case ChurnEventType::kLeave:
      w.scmp->host_leave(ev.node, ev.group);
      return true;
    case ChurnEventType::kSend:
      w.scmp->send_data(ev.node, ev.group);
      return true;
    case ChurnEventType::kLinkFail: {
      // fail_link requires the edge to exist and the residual topology to
      // stay connected (the unicast substrate needs reachability) — guard
      // both so any subsequence stays executable.
      if (!w.net->graph().has_edge(ev.node, ev.node2)) return false;
      graph::Graph probe = w.net->graph();
      probe.remove_edge(ev.node, ev.node2);
      if (!probe.is_connected()) return false;
      // The network repairs its path store incrementally and calls the
      // protocol's link hook. The auditor's path-db-consistent invariant
      // holds the store against a from-scratch AllPairsPaths at every audit
      // stride.
      w.net->fail_link(ev.node, ev.node2);
      return true;
    }
  }
  SCMP_ASSERT(false && "unreachable churn event type");
  return false;
}

}  // namespace

const char* to_string(ChurnEventType t) {
  switch (t) {
    case ChurnEventType::kJoin: return "join";
    case ChurnEventType::kLeave: return "leave";
    case ChurnEventType::kSend: return "send";
    case ChurnEventType::kLinkFail: return "linkfail";
  }
  return "?";
}

ChurnModelChecker::ChurnModelChecker(ChurnConfig cfg) : cfg_(cfg) {
  SCMP_EXPECTS(cfg_.num_groups >= 1);
  SCMP_EXPECTS(cfg_.num_events >= 1);
  SCMP_EXPECTS(cfg_.audit_stride >= 1);
  SCMP_EXPECTS(cfg_.max_link_failures >= 0);
}

std::vector<ChurnEvent> ChurnModelChecker::generate() const {
  const topo::Topology topo = build_topology(cfg_);
  const int n = topo.graph.num_nodes();
  Rng rng(cfg_.event_seed);
  std::vector<ChurnEvent> events;
  events.reserve(static_cast<std::size_t>(cfg_.num_events));
  int link_failures = 0;

  auto random_group = [&] {
    return static_cast<GroupId>(rng.uniform_int(0, cfg_.num_groups - 1));
  };
  auto random_router = [&] {
    // Any router but the m-router (node 0): membership churn at the anchor
    // itself is exercised by the dedicated tests, not the random walk.
    return static_cast<graph::NodeId>(rng.uniform_int(1, n - 1));
  };

  for (int i = 0; i < cfg_.num_events; ++i) {
    const double r = rng.uniform01();
    ChurnEvent ev;
    if (r < 0.45) {
      ev = {ChurnEventType::kJoin, random_group(), random_router(),
            graph::kInvalidNode};
    } else if (r < 0.75) {
      ev = {ChurnEventType::kLeave, random_group(), random_router(),
            graph::kInvalidNode};
    } else if (r < 0.92 || link_failures >= cfg_.max_link_failures) {
      ev = {ChurnEventType::kSend, random_group(), random_router(),
            graph::kInvalidNode};
    } else {
      // A random edge of the *initial* topology; replay guards keep the
      // event a no-op when it is no longer applicable.
      const auto u = static_cast<graph::NodeId>(rng.uniform_int(0, n - 1));
      const auto& nbs = topo.graph.neighbors(u);
      SCMP_ASSERT(!nbs.empty());  // generated topologies are connected
      const auto pick = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(nbs.size()) - 1));
      ev = {ChurnEventType::kLinkFail, -1, u, nbs[pick].to};
      ++link_failures;
    }
    events.push_back(ev);
  }
  return events;
}

CheckOutcome ChurnModelChecker::replay(
    const std::vector<ChurnEvent>& events) const {
  World w(cfg_);
  // Epoch-equivalence differential check: a batched run (epoch_interval > 0)
  // drags a sequential shadow world (identical config, interval 0) through
  // the same event sequence. The batched world drains only at audit points,
  // so one epoch close sees every event applied since the previous one (up
  // to audit_stride: net resolution, coalescing and mixed closes included),
  // while the shadow drains after every event. At every audit point — both
  // worlds drained and reconciled to their fixpoints — batched and
  // sequential must agree on the service database's membership and on each
  // tree's member set, and the shadow must pass the full invariant catalog
  // itself. The *internal* tree shapes may legitimately differ: per-request
  // processing grafts members in arrival order, while an epoch close
  // replays the net delta with leaves first and joins in ascending order.
  std::unique_ptr<World> shadow;
  std::unique_ptr<InvariantAuditor> shadow_auditor;
  if (cfg_.epoch_interval > 0.0) {
    ChurnConfig seq = cfg_;
    seq.epoch_interval = 0.0;
    seq.track_convergence = false;
    shadow = std::make_unique<World>(seq);
    shadow_auditor = std::make_unique<InvariantAuditor>(*shadow->scmp);
  }
  const InvariantAuditor auditor(*w.scmp);
  CheckOutcome outcome;

  // Under the lossy-link model the protocol is *entitled* to diverge between
  // reconciliation cycles — that is the soft-state design. Audits therefore
  // model the quiescent instant after a reconciliation pass converged: run
  // passes (draining after each, since repair packets can be lost too) until
  // one finds nothing to repair. The pass budget only bounds pathological
  // luck; a genuinely broken protocol never reaches the fixpoint and the
  // audit below reports exactly what stayed divergent.
  auto reconcile_to_fixpoint = [&](World& world) {
    if (cfg_.control_loss_rate <= 0.0) return;
    constexpr int kMaxPasses = 64;
    for (int pass = 0; pass < kMaxPasses; ++pass) {
      const int repairs = world.scmp->reconcile_all();
      world.queue.run_all();
      if (repairs == 0) return;
    }
  };

  // The equivalence contract both worlds must satisfy at a fixpoint.
  auto equivalence_violations = [&]() {
    std::vector<Violation> found;
    if (shadow == nullptr) return found;
    std::set<GroupId> groups;
    for (GroupId g : w.scmp->active_groups()) groups.insert(g);
    for (GroupId g : shadow->scmp->active_groups()) groups.insert(g);
    for (GroupId g : groups) {
      if (w.scmp->database().members_of(g) !=
          shadow->scmp->database().members_of(g)) {
        found.push_back(
            {"epoch-equivalence",
             "group " + std::to_string(g) +
                 ": database membership diverged between the batched and "
                 "sequential worlds"});
      }
      const core::DcdmTree* bt = w.scmp->group_tree(g);
      const core::DcdmTree* st = shadow->scmp->group_tree(g);
      const std::vector<graph::NodeId> bm =
          bt == nullptr ? std::vector<graph::NodeId>{} : bt->tree().members();
      const std::vector<graph::NodeId> sm =
          st == nullptr ? std::vector<graph::NodeId>{} : st->tree().members();
      if (bm != sm) {
        found.push_back(
            {"epoch-equivalence",
             "group " + std::to_string(g) +
                 ": tree member sets diverged between the batched and "
                 "sequential worlds"});
      }
    }
    for (Violation v : shadow_auditor->audit()) {
      v.detail = "[sequential shadow] " + v.detail;
      found.push_back(std::move(v));
    }
    return found;
  };

  auto audit_at = [&](int index) {
    OBS_SPAN("verify.audit");
    // determinism: allow(wall-clock measurement of audit cost, reported in
    // audit_seconds only; no protocol decision or trace output reads it)
    const auto t0 = std::chrono::steady_clock::now();
    outcome.violations = auditor.audit();
    for (Violation& v : equivalence_violations())
      outcome.violations.push_back(std::move(v));
    outcome.audit_seconds +=
        // determinism: allow(wall-clock measurement of audit cost, reported
        // in audit_seconds only; no protocol decision or trace output reads
        // it)
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    ++outcome.audits;
    if (outcome.violations.empty()) return true;
    outcome.ok = false;
    outcome.failing_index = index;
    return false;
  };

  // Snapshot convergence stats before the world (and its tracker) dies; a
  // final timeseries sample flushes every window boundary the run crossed.
  auto finalize = [&] {
    obs::timeseries().maybe_sample(w.queue.now());
    if (const proto::ConvergenceTracker* t = w.scmp->convergence_tracker())
      outcome.convergence = t->stats();
  };

  for (std::size_t i = 0; i < events.size(); ++i) {
    const bool stride_hit =
        (i + 1) % static_cast<std::size_t>(cfg_.audit_stride) == 0;
    const bool audit_point = stride_hit || i + 1 == events.size();
    if (apply(w, events[i])) ++outcome.executed;
    // Drain to quiescence (audits are only valid there): after every event
    // per request, only at audit points in burst-batched epoch mode.
    if (cfg_.epoch_interval <= 0.0 || audit_point) w.queue.run_all();
    if (shadow != nullptr) {
      // The shadow's applicability guards agree with the main world's (both
      // graphs evolve identically from the same topo seed), so the executed
      // sequences match.
      apply(*shadow, events[i]);
      shadow->queue.run_all();
    }
    obs::timeseries().maybe_sample(w.queue.now());
    if (audit_point) {
      reconcile_to_fixpoint(w);
      if (shadow != nullptr) reconcile_to_fixpoint(*shadow);
      if (!audit_at(static_cast<int>(i))) {
        finalize();
        return outcome;
      }
    }
  }
  if (events.empty()) audit_at(-1);
  finalize();
  return outcome;
}

CheckOutcome ChurnModelChecker::run() const { return replay(generate()); }

std::vector<ChurnEvent> ChurnModelChecker::shrink(
    const std::vector<ChurnEvent>& failing) const {
  SCMP_EXPECTS(!replay(failing).ok);
  std::vector<ChurnEvent> events = failing;

  // Classic ddmin. Subsets/complements are contiguous chunk selections; the
  // loop ends at 1-minimality (complement tests at max granularity are
  // exactly single-event removals).
  std::size_t granularity = 2;
  while (events.size() >= 2) {
    const std::size_t chunk =
        (events.size() + granularity - 1) / granularity;
    bool reduced = false;
    for (std::size_t start = 0; start < events.size(); start += chunk) {
      const std::size_t end = std::min(start + chunk, events.size());
      // Complement: everything but [start, end).
      std::vector<ChurnEvent> complement;
      complement.reserve(events.size() - (end - start));
      complement.insert(complement.end(), events.begin(),
                        events.begin() + static_cast<std::ptrdiff_t>(start));
      complement.insert(complement.end(),
                        events.begin() + static_cast<std::ptrdiff_t>(end),
                        events.end());
      if (!complement.empty() && !replay(complement).ok) {
        events = std::move(complement);
        granularity = std::max<std::size_t>(granularity - 1, 2);
        reduced = true;
        break;
      }
      // Subset: just [start, end) — catches single-chunk reproducers fast.
      std::vector<ChurnEvent> subset(
          events.begin() + static_cast<std::ptrdiff_t>(start),
          events.begin() + static_cast<std::ptrdiff_t>(end));
      if (subset.size() < events.size() && !replay(subset).ok) {
        events = std::move(subset);
        granularity = 2;
        reduced = true;
        break;
      }
    }
    if (reduced) continue;
    if (granularity >= events.size()) break;
    granularity = std::min(events.size(), granularity * 2);
  }
  SCMP_ENSURES(!replay(events).ok);
  return events;
}

// ---- trace artifacts -------------------------------------------------------

namespace {

const char* fault_name(sim::PacketType t) { return sim::to_string(t); }

sim::PacketType fault_from_name(const std::string& name) {
  std::string upper = name;
  for (char& c : upper) c = static_cast<char>(std::toupper(c));
  // Only SCMP control and data types make useful fault targets.
  static constexpr sim::PacketType kTypes[] = {
      sim::PacketType::kJoin,  sim::PacketType::kLeave,
      sim::PacketType::kTree,  sim::PacketType::kBranch,
      sim::PacketType::kPrune, sim::PacketType::kClear,
      sim::PacketType::kAck,   sim::PacketType::kData,
      sim::PacketType::kDataEncap,
  };
  for (sim::PacketType t : kTypes) {
    if (upper == sim::to_string(t)) return t;
  }
  SCMP_EXPECTS(false && "unknown fault packet type in trace");
  return sim::PacketType::kPrune;
}

/// "g12" -> 12, "n7" -> 7 (with the expected prefix checked).
int tagged_int(const std::string& token, char tag) {
  SCMP_EXPECTS(!token.empty() && token[0] == tag);
  return std::stoi(token.substr(1));
}

}  // namespace

std::string serialize(const TraceArtifact& trace) {
  const ChurnConfig& cfg = trace.config;
  std::ostringstream out;
  out << "scmp-churn-trace v1\n";
  out << "topo "
      << (cfg.topo == ChurnTopo::kArpanet      ? "arpanet"
          : cfg.topo == ChurnTopo::kTransitStub ? "transit-stub"
                                                : "waxman")
      << "\n";
  out << "topo-seed " << cfg.topo_seed << "\n";
  out << "waxman-nodes " << cfg.waxman_nodes << "\n";
  out << "waxman-degree " << cfg.waxman_degree << "\n";
  out << "groups " << cfg.num_groups << "\n";
  out << "event-seed " << cfg.event_seed << "\n";
  out << "max-link-failures " << cfg.max_link_failures << "\n";
  out << "audit-stride " << cfg.audit_stride << "\n";
  if (cfg.fault.has_value())
    out << "fault " << fault_name(cfg.fault->drop) << " "
        << cfg.fault->every_nth << "\n";
  if (cfg.control_loss_rate > 0.0) {
    // max_digits10 so the replayed loss RNG sees the bit-exact rate.
    const auto old_precision =
        out.precision(std::numeric_limits<double>::max_digits10);
    out << "loss " << cfg.control_loss_rate << " " << cfg.loss_seed << "\n";
    out.precision(old_precision);
  }
  if (cfg.epoch_interval > 0.0) {
    // max_digits10 so the replayed epoch close lands at the bit-exact time.
    const auto old_precision =
        out.precision(std::numeric_limits<double>::max_digits10);
    out << "epoch " << cfg.epoch_interval << "\n";
    out.precision(old_precision);
  }
  out << "events " << trace.events.size() << "\n";
  for (const ChurnEvent& ev : trace.events) {
    out << to_string(ev.type);
    if (ev.type == ChurnEventType::kLinkFail)
      out << " n" << ev.node << " n" << ev.node2;
    else
      out << " g" << ev.group << " n" << ev.node;
    out << "\n";
  }
  for (const Violation& v : trace.violations)
    out << "violation " << v.invariant << ": " << v.detail << "\n";
  return out.str();
}

TraceArtifact deserialize(const std::string& text) {
  TraceArtifact trace;
  std::istringstream in(text);
  std::string line;
  SCMP_EXPECTS(std::getline(in, line) && line == "scmp-churn-trace v1");

  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string key;
    ls >> key;
    if (key == "topo") {
      std::string name;
      ls >> name;
      SCMP_EXPECTS(name == "arpanet" || name == "waxman" ||
                   name == "transit-stub");
      trace.config.topo = name == "arpanet"      ? ChurnTopo::kArpanet
                          : name == "transit-stub" ? ChurnTopo::kTransitStub
                                                   : ChurnTopo::kWaxman;
    } else if (key == "topo-seed") {
      ls >> trace.config.topo_seed;
    } else if (key == "waxman-nodes") {
      ls >> trace.config.waxman_nodes;
    } else if (key == "waxman-degree") {
      ls >> trace.config.waxman_degree;
    } else if (key == "groups") {
      ls >> trace.config.num_groups;
    } else if (key == "event-seed") {
      ls >> trace.config.event_seed;
    } else if (key == "max-link-failures") {
      ls >> trace.config.max_link_failures;
    } else if (key == "audit-stride") {
      ls >> trace.config.audit_stride;
    } else if (key == "fault") {
      std::string name;
      FaultSpec fault;
      ls >> name >> fault.every_nth;
      fault.drop = fault_from_name(name);
      trace.config.fault = fault;
    } else if (key == "loss") {
      ls >> trace.config.control_loss_rate >> trace.config.loss_seed;
    } else if (key == "epoch") {
      ls >> trace.config.epoch_interval;
    } else if (key == "events") {
      // Count line; the per-event lines follow and carry their own tags.
    } else if (key == "join" || key == "leave" || key == "send") {
      ChurnEvent ev;
      ev.type = key == "join"    ? ChurnEventType::kJoin
                : key == "leave" ? ChurnEventType::kLeave
                                 : ChurnEventType::kSend;
      std::string g, node;
      ls >> g >> node;
      ev.group = tagged_int(g, 'g');
      ev.node = tagged_int(node, 'n');
      trace.events.push_back(ev);
    } else if (key == "linkfail") {
      ChurnEvent ev;
      ev.type = ChurnEventType::kLinkFail;
      std::string u, v;
      ls >> u >> v;
      ev.node = tagged_int(u, 'n');
      ev.node2 = tagged_int(v, 'n');
      trace.events.push_back(ev);
    } else if (key == "violation") {
      Violation v;
      ls >> v.invariant;
      SCMP_EXPECTS(!v.invariant.empty() && v.invariant.back() == ':');
      v.invariant.pop_back();
      std::getline(ls, v.detail);
      if (!v.detail.empty() && v.detail.front() == ' ')
        v.detail.erase(v.detail.begin());
      trace.violations.push_back(std::move(v));
    } else {
      SCMP_EXPECTS(false && "unknown key in churn trace");
    }
  }
  trace.config.num_events = static_cast<int>(trace.events.size());
  if (trace.config.num_events == 0) trace.config.num_events = 1;
  return trace;
}

void write_trace(const std::string& path, const TraceArtifact& trace) {
  std::ofstream out(path);
  SCMP_EXPECTS(out.good() && "cannot open trace file for writing");
  out << serialize(trace);
  SCMP_ENSURES(out.good());
}

TraceArtifact read_trace(const std::string& path) {
  std::ifstream in(path);
  SCMP_EXPECTS(in.good() && "cannot open trace file for reading");
  std::ostringstream buf;
  buf << in.rdbuf();
  return deserialize(buf.str());
}

}  // namespace scmp::verify
