#include "graph/paths.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace scmp::graph {

namespace {

obs::Counter& sources_recomputed_counter() {
  static obs::Counter& c = obs::counter("paths.rebuild.sources_recomputed");
  return c;
}

obs::Counter& nodes_resettled_counter() {
  static obs::Counter& c = obs::counter("paths.link_event.nodes_resettled");
  return c;
}

obs::Counter& full_runs_counter() {
  static obs::Counter& c = obs::counter("paths.link_event.full_runs");
  return c;
}

}  // namespace

AllPairsPaths::AllPairsPaths(const Graph& g)
    : by_delay_(static_cast<std::size_t>(g.num_nodes())),
      by_cost_(static_cast<std::size_t>(g.num_nodes())),
      next_hop_(by_delay_.size() * by_delay_.size()) {
  OBS_SPAN("paths.rebuild");
  sources_recomputed_counter().inc(by_delay_.size());
  for (std::size_t i = 0; i < by_delay_.size(); ++i) {
    const auto u = static_cast<NodeId>(i);
    dijkstra_into(g, u, Metric::kDelay, by_delay_[i]);
    dijkstra_into(g, u, Metric::kCost, by_cost_[i]);
    fill_next_hops(u);
  }
}

void AllPairsPaths::fill_next_hops(NodeId u) {
  const ShortestPaths& sp = by_delay_[static_cast<std::size_t>(u)];
  const auto n = static_cast<NodeId>(by_delay_.size());
  NodeId* hop = next_hop_.data() + row_start(u);
  const NodeId* parent = sp.parent.data();
  std::fill(hop, hop + n, kInvalidNode);
  hop[u] = u;
  for (NodeId v = 0; v < n; ++v) {
    if (!sp.reachable(v)) continue;
    // Climb to the first node whose first hop is known, or whose parent is
    // `u` (such a node is its own first hop), then write that hop on the
    // way back down: every node is written once.
    NodeId top = v;
    while (hop[top] == kInvalidNode && parent[top] != u) top = parent[top];
    const NodeId first = hop[top] != kInvalidNode ? hop[top] : top;
    for (NodeId w = v; hop[w] == kInvalidNode; w = parent[w]) hop[w] = first;
  }
}

bool AllPairsPaths::run_dirty(const ShortestPaths& sp, NodeId u, NodeId v,
                              const EdgeAttr& attr) {
  const auto su = static_cast<std::size_t>(u);
  const auto sv = static_cast<std::size_t>(v);
  // The cached canonical SPT routed through {u, v}: a weight change
  // invalidates the paths through it.
  if (sp.parent[su] == v || sp.parent[sv] == u) return true;
  const double w = weight_of(attr, sp.metric);
  const double du = sp.dist[su];
  const double dv = sp.dist[sv];
  // Otherwise the edge affects the run iff relaxing it improves an
  // endpoint's distance — any path through the edge crosses it, so an
  // improvement anywhere implies one at an endpoint first — or ties it. A
  // tie re-canonicalizes the SPT when it offers a smaller parent id; with
  // zero-weight links it can also change the order in which equal-distance
  // nodes settle, and with it parents further down, so every tie counts. An
  // edge that neither improves nor ties only ever pushes stale heap entries,
  // so a fresh run would reproduce the cached one.
  return (du < kUnreachable && du + w <= dv) ||
         (dv < kUnreachable && dv + w <= du);
}

int AllPairsPaths::apply_link_event(const Graph& g, NodeId u, NodeId v) {
  OBS_SPAN("paths.link_event");
  SCMP_EXPECTS(g.valid(u) && g.valid(v) && u != v);
  SCMP_EXPECTS(static_cast<std::size_t>(g.num_nodes()) == by_delay_.size());
  const EdgeAttr* attr = g.edge(u, v);

  // One O(1) parent-edge test per run. A failed tree edge is repaired right
  // here; a present edge that dirties the run, or a repair that met a zero
  // or absorbed weight, re-runs it in full. A source counts as dirty when
  // either of its runs is touched; its other run is provably the canonical
  // answer already.
  std::size_t dirty = 0;
  std::size_t resettled = 0;
  std::size_t full = 0;
  for (std::size_t i = 0; i < by_delay_.size(); ++i) {
    const auto source = static_cast<NodeId>(i);
    bool touched = false;
    for (ShortestPaths* sp : {&by_delay_[i], &by_cost_[i]}) {
      SptRepair outcome = SptRepair::kNeedsFullRun;
      if (attr != nullptr) {
        if (!run_dirty(*sp, u, v, *attr)) continue;
      } else {
        outcome = repair_after_removal(g, sp->metric, u, v, sp->dist,
                                       sp->companion, sp->parent,
                                       repair_scratch_);
        if (outcome == SptRepair::kUnaffected) continue;
      }
      touched = true;
      if (outcome == SptRepair::kRepaired) {
        resettled += repair_scratch_.subtree.size();
      } else {
        dijkstra_into(g, source, sp->metric, *sp);
        ++full;
      }
      if (sp->metric != Metric::kDelay) continue;
      if (outcome != SptRepair::kRepaired) {
        fill_next_hops(source);
        continue;
      }
      // Only the re-settled nodes' first hops can change. Settle order puts
      // every node after its parent, whose hop is then already current (an
      // outside parent's never changed); an orphan the repair did not reach
      // is unreachable.
      NodeId* hop = next_hop_.data() + row_start(source);
      const NodeId* parent = sp->parent.data();
      for (const NodeId z : repair_scratch_.subtree) hop[z] = kInvalidNode;
      for (const NodeId z : repair_scratch_.settled)
        hop[z] = parent[z] == source ? z : hop[parent[z]];
    }
    if (touched) ++dirty;
  }
  sources_recomputed_counter().inc(dirty);
  nodes_resettled_counter().inc(resettled);
  full_runs_counter().inc(full);
  return static_cast<int>(dirty);
}

std::vector<NodeId> AllPairsPaths::sl_path(NodeId u, NodeId v) const {
  return sl_from(u).path_to(v);
}

std::vector<NodeId> AllPairsPaths::lc_path(NodeId u, NodeId v) const {
  return lc_from(u).path_to(v);
}

void AllPairsPaths::sl_path_into(NodeId u, NodeId v,
                                 std::vector<NodeId>& out) const {
  sl_from(u).path_to_into(v, out);
}

void AllPairsPaths::lc_path_into(NodeId u, NodeId v,
                                 std::vector<NodeId>& out) const {
  lc_from(u).path_to_into(v, out);
}

}  // namespace scmp::graph
