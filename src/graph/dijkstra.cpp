#include "graph/dijkstra.hpp"

#include <algorithm>
#include <functional>
#include <queue>

namespace scmp::graph {

namespace {

// repair_after_removal()'s per-node states (SptRepairScratch::state).
constexpr std::uint8_t kOutside = 0;   // keeps its distance and parent
constexpr std::uint8_t kOrphaned = 1;  // below the cut, not yet re-settled
constexpr std::uint8_t kSettled = 2;   // below the cut, final again

}  // namespace

std::vector<NodeId> ShortestPaths::path_to(NodeId dst) const {
  std::vector<NodeId> path;
  path_to_into(dst, path);
  return path;
}

void ShortestPaths::path_to_into(NodeId dst, std::vector<NodeId>& out) const {
  SCMP_EXPECTS(dst >= 0 && dst < static_cast<NodeId>(dist.size()));
  out.clear();
  if (!reachable(dst)) return;
  // Count the nodes first so the buffer grows at most once, then fill it
  // back to front.
  std::size_t len = 0;
  for (NodeId v = dst; v != kInvalidNode; v = parent[static_cast<std::size_t>(v)])
    ++len;
  out.resize(len);
  for (NodeId v = dst; v != kInvalidNode; v = parent[static_cast<std::size_t>(v)])
    out[--len] = v;
  SCMP_ENSURES(out.front() == source);
}

void dijkstra_into(const Graph& g, NodeId source, Metric metric,
                   ShortestPaths& out) {
  SCMP_EXPECTS(g.valid(source));
  const auto n = static_cast<std::size_t>(g.num_nodes());
  const Metric comp = companion_of(metric);
  out.source = source;
  out.metric = metric;
  out.dist.assign(n, kUnreachable);
  out.companion.assign(n, kUnreachable);
  out.parent.assign(n, kInvalidNode);
  out.dist[static_cast<std::size_t>(source)] = 0.0;
  out.companion[static_cast<std::size_t>(source)] = 0.0;

  // (distance, node); the node id in the key makes pop order deterministic.
  using Entry = std::pair<double, NodeId>;
  // hot-path: allow(one-time per-run setup, outside the relaxation loop)
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
  heap.emplace(0.0, source);
  // hot-path: allow(one-time per-run setup, outside the relaxation loop)
  std::vector<char> done(n, 0);

  while (!heap.empty()) {
    const auto [d, u] = heap.top();
    heap.pop();
    if (done[static_cast<std::size_t>(u)]) continue;
    done[static_cast<std::size_t>(u)] = 1;
    const double cu = out.companion[static_cast<std::size_t>(u)];
    for (const auto& nb : g.neighbors(u)) {
      // A finalized node never re-parents: with positive weights no later
      // relaxation can match its distance anyway, and for zero-weight edges
      // the guard keeps every descendant's companion consistent with
      // the parent pointers (a post-finalization flip would desynchronize
      // the accumulated sums from the canonical path).
      if (done[static_cast<std::size_t>(nb.to)]) continue;
      const double nd = d + weight_of(nb.attr, metric);
      auto& cur = out.dist[static_cast<std::size_t>(nb.to)];
      auto& par = out.parent[static_cast<std::size_t>(nb.to)];
      // Strict improvement, or equal distance via a smaller parent id: the
      // second clause pins down one canonical shortest-path tree. The
      // companion weight follows the parent choice, so it always describes
      // the same canonical path as dist/parent.
      // determinism: allow(canonical-SPT tie-break: equal distances reached
      // by the same left-to-right relaxation sums on one platform; ties
      // resolve by parent id, pinned by the golden traces)
      if (nd < cur || (nd == cur && par != kInvalidNode && u < par)) {
        cur = nd;
        par = u;
        out.companion[static_cast<std::size_t>(nb.to)] =
            cu + weight_of(nb.attr, comp);
        heap.emplace(nd, nb.to);
      }
    }
  }
}

SptRepair repair_after_removal(const Graph& g, Metric metric, NodeId a,
                               NodeId b, std::span<double> dist,
                               std::span<double> companion,
                               std::span<NodeId> parent,
                               SptRepairScratch& scratch) {
  const auto n = static_cast<std::size_t>(g.num_nodes());
  SCMP_EXPECTS(g.valid(a) && g.valid(b));
  SCMP_EXPECTS(dist.size() == n && companion.size() == n &&
               parent.size() == n);
  NodeId root = kInvalidNode;
  if (parent[static_cast<std::size_t>(b)] == a) {
    root = b;
  } else if (parent[static_cast<std::size_t>(a)] == b) {
    root = a;
  } else {
    return SptRepair::kUnaffected;
  }

  auto& subtree = scratch.subtree;
  auto& settled = scratch.settled;
  auto& state = scratch.state;
  auto& heap = scratch.heap;
  if (state.size() != n) state.assign(n, kOutside);
  subtree.clear();
  settled.clear();
  heap.clear();
  const Metric comp = companion_of(metric);
  // Every exit leaves `state` all-outside again for the next call.
  const auto finish = [&](SptRepair result) {
    for (const NodeId z : subtree)
      state[static_cast<std::size_t>(z)] = kOutside;
    return result;
  };

  // 1. Collect the subtree below the cut. Only the root's parent edge is
  // gone, so every other tree edge survives: z's children are exactly its
  // neighbours w with parent[w] == z. Each edge touching the subtree must
  // strictly increase the old distance it extends.
  state[static_cast<std::size_t>(root)] = kOrphaned;
  subtree.push_back(root);
  for (std::size_t i = 0; i < subtree.size(); ++i) {
    const NodeId z = subtree[i];
    const double dz = dist[static_cast<std::size_t>(z)];
    for (const auto& nb : g.neighbors(z)) {
      if (!(dz + weight_of(nb.attr, metric) > dz))
        return finish(SptRepair::kNeedsFullRun);
      if (parent[static_cast<std::size_t>(nb.to)] == z) {
        state[static_cast<std::size_t>(nb.to)] = kOrphaned;
        subtree.push_back(nb.to);
      }
    }
  }

  // 2. Reset the subtree.
  for (const NodeId z : subtree) {
    const auto sz = static_cast<std::size_t>(z);
    dist[sz] = kUnreachable;
    parent[sz] = kInvalidNode;
    companion[sz] = kUnreachable;
  }

  // 3. Seed every subtree node from its outside neighbours, whose distances
  // are final, with dijkstra_into's rule.
  for (const NodeId z : subtree) {
    const auto sz = static_cast<std::size_t>(z);
    double& cur = dist[sz];
    NodeId& par = parent[sz];
    for (const auto& nb : g.neighbors(z)) {
      const auto sx = static_cast<std::size_t>(nb.to);
      if (state[sx] != kOutside) continue;
      const double dx = dist[sx];
      const double nd = dx + weight_of(nb.attr, metric);
      if (!(nd > dx)) return finish(SptRepair::kNeedsFullRun);
      // determinism: allow(decremental-repair seed tie-break: an outside
      // node keeps the distance a fresh run settles, so the seed sum is
      // bit-identical to that run's relaxation and the tie resolves by the
      // same parent-id rule)
      if (nd < cur || (nd == cur && par != kInvalidNode && nb.to < par)) {
        cur = nd;
        par = nb.to;
        companion[sz] = companion[sx] + weight_of(nb.attr, comp);
      }
    }
    if (par != kInvalidNode) heap.emplace_back(cur, z);
  }
  std::make_heap(heap.begin(), heap.end(), std::greater<>{});

  // 4. Dijkstra over the subtree only: outside nodes are final, so only
  // orphaned neighbours are relaxed.
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), std::greater<>{});
    const auto [d, u] = heap.back();
    heap.pop_back();
    auto& su = state[static_cast<std::size_t>(u)];
    if (su == kSettled) continue;
    su = kSettled;
    settled.push_back(u);
    const double cu = companion[static_cast<std::size_t>(u)];
    for (const auto& nb : g.neighbors(u)) {
      const double nd = d + weight_of(nb.attr, metric);
      if (!(nd > d)) return finish(SptRepair::kNeedsFullRun);
      const auto sw = static_cast<std::size_t>(nb.to);
      if (state[sw] != kOrphaned) continue;
      double& cur = dist[sw];
      NodeId& par = parent[sw];
      // determinism: allow(decremental-repair relaxation tie-break: the same
      // left-to-right sums and parent-id rule as dijkstra_into, so a repaired
      // tree breaks every tie the way a fresh run does)
      if (nd < cur || (nd == cur && par != kInvalidNode && u < par)) {
        cur = nd;
        par = u;
        companion[sw] = cu + weight_of(nb.attr, comp);
        heap.emplace_back(nd, nb.to);
        std::push_heap(heap.begin(), heap.end(), std::greater<>{});
      }
    }
  }
  return finish(SptRepair::kRepaired);
}

ShortestPaths dijkstra(const Graph& g, NodeId source, Metric metric) {
  ShortestPaths out;
  dijkstra_into(g, source, metric, out);
  return out;
}

}  // namespace scmp::graph
