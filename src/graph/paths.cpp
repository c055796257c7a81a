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

}  // namespace

AllPairsPaths::AllPairsPaths(const Graph& g, const ParallelFor& pf) {
  rebuild(g, pf);
}

void AllPairsPaths::rebuild(const Graph& g, const ParallelFor& pf) {
  OBS_SPAN("paths.rebuild");
  const auto n = static_cast<std::size_t>(g.num_nodes());
  by_delay_.resize(n);
  by_cost_.resize(n);
  sources_recomputed_counter().inc(n);
  // Warm the CSR cache before fanning out: the lazy build mutates the
  // graph's cache under const, so it must happen on this thread, not raced
  // by the pool workers' first g.csr() calls.
  g.csr();
  const auto recompute_source = [&](std::size_t i) {
    const auto u = static_cast<NodeId>(i);
    dijkstra_into(g, u, Metric::kDelay, by_delay_[i]);
    dijkstra_into(g, u, Metric::kCost, by_cost_[i]);
  };
  if (pf) {
    pf(n, recompute_source);
  } else {
    for (std::size_t i = 0; i < n; ++i) recompute_source(i);
  }
}

bool AllPairsPaths::run_dirty(const ShortestPaths& sp, NodeId u, NodeId v,
                              const EdgeAttr* attr) {
  const auto su = static_cast<std::size_t>(u);
  const auto sv = static_cast<std::size_t>(v);
  // The cached canonical SPT routed through {u, v}: any removal or weight
  // change invalidates the paths through it.
  if (sp.parent[su] == v || sp.parent[sv] == u) return true;
  // The edge is gone and the cached tree never used it: every cached path
  // still exists with unchanged weight, and the canonical parent choice
  // (minimum id among predecessors achieving the distance) cannot gain or
  // lose a candidate.
  if (attr == nullptr) return false;
  const double w = weight_of(*attr, sp.metric);
  const double du = sp.dist[su];
  const double dv = sp.dist[sv];
  // A present (new or re-weighted) edge affects the run iff relaxing it would
  // improve an endpoint's distance — any path through the edge crosses it, so
  // an improvement anywhere implies one at an endpoint first — ...
  if (du + w < dv || dv + w < du) return true;
  // ... or ties an endpoint's distance via a smaller parent id, which would
  // re-canonicalize the SPT without changing any distance.
  // determinism: allow(canonical-SPT tie test: the sum mirrors the exact
  // relaxation Dijkstra performs, so a tie here is the same bit-identical
  // tie the rebuild would break by parent id)
  if (du + w == dv && sp.parent[sv] != kInvalidNode && u < sp.parent[sv])
    return true;
  // determinism: allow(canonical-SPT tie test: the sum mirrors the exact
  // relaxation Dijkstra performs, so a tie here is the same bit-identical
  // tie the rebuild would break by parent id)
  if (dv + w == du && sp.parent[su] != kInvalidNode && v < sp.parent[su])
    return true;
  return false;
}

int AllPairsPaths::apply_link_event(const Graph& g, NodeId u, NodeId v,
                                    const ParallelFor& pf) {
  OBS_SPAN("paths.link_event");
  SCMP_EXPECTS(g.valid(u) && g.valid(v) && u != v);
  SCMP_EXPECTS(static_cast<std::size_t>(g.num_nodes()) == by_delay_.size());
  const EdgeAttr* attr = g.edge(u, v);

  // Dirty-source scan: O(n) table lookups against the cached runs. A source
  // is recomputed (both metrics — one source per task) when either of its
  // runs can be affected; every clean source's cached runs are provably the
  // canonical answer on the new graph already.
  std::vector<std::size_t> dirty;
  for (std::size_t i = 0; i < by_delay_.size(); ++i) {
    if (run_dirty(by_delay_[i], u, v, attr) ||
        run_dirty(by_cost_[i], u, v, attr)) {
      dirty.push_back(i);
    }
  }
  sources_recomputed_counter().inc(dirty.size());
  g.csr();  // single-threaded warm-up, as in rebuild()
  const auto recompute = [&](std::size_t k) {
    const std::size_t i = dirty[k];
    const auto s = static_cast<NodeId>(i);
    dijkstra_into(g, s, Metric::kDelay, by_delay_[i]);
    dijkstra_into(g, s, Metric::kCost, by_cost_[i]);
  };
  if (pf) {
    pf(dirty.size(), recompute);
  } else {
    for (std::size_t k = 0; k < dirty.size(); ++k) recompute(k);
  }
  return static_cast<int>(dirty.size());
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
