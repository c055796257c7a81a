#include "graph/mst.hpp"

#include <queue>

#include "graph/dijkstra.hpp"

namespace scmp::graph {

std::vector<NodeId> prim_mst(const Graph& g, NodeId root, Metric metric) {
  SCMP_EXPECTS(g.valid(root));
  const auto n = static_cast<std::size_t>(g.num_nodes());
  std::vector<double> key(n, kUnreachable);
  std::vector<NodeId> parent(n, kInvalidNode);
  std::vector<char> done(n, 0);
  key[static_cast<std::size_t>(root)] = 0.0;

  using Entry = std::pair<double, NodeId>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
  heap.emplace(0.0, root);
  while (!heap.empty()) {
    const auto [k, u] = heap.top();
    heap.pop();
    if (done[static_cast<std::size_t>(u)]) continue;
    done[static_cast<std::size_t>(u)] = 1;
    for (const auto& nb : g.neighbors(u)) {
      const double w = weight_of(nb.attr, metric);
      const auto idx = static_cast<std::size_t>(nb.to);
      if (!done[idx] &&
          // determinism: allow(canonical-MST tie-break: equal keys are raw
          // edge weights, not accumulated sums; ties resolve by parent id so
          // Prim yields one canonical tree)
          (w < key[idx] || (w == key[idx] && parent[idx] != kInvalidNode &&
                            u < parent[idx]))) {
        key[idx] = w;
        parent[idx] = u;
        heap.emplace(w, nb.to);
      }
    }
  }
  return parent;
}

std::vector<int> prim_mst_dense(const std::vector<std::vector<double>>& w,
                                int root) {
  const int n = static_cast<int>(w.size());
  SCMP_EXPECTS(root >= 0 && root < n);
  std::vector<double> key(static_cast<std::size_t>(n), kUnreachable);
  std::vector<int> parent(static_cast<std::size_t>(n), kInvalidNode);
  std::vector<char> done(static_cast<std::size_t>(n), 0);
  key[static_cast<std::size_t>(root)] = 0.0;

  for (int iter = 0; iter < n; ++iter) {
    int best = -1;
    for (int v = 0; v < n; ++v) {
      const auto idx = static_cast<std::size_t>(v);
      if (!done[idx] && key[idx] < kUnreachable &&
          (best == -1 || key[idx] < key[static_cast<std::size_t>(best)]))
        best = v;
    }
    if (best == -1) break;  // remaining vertices unreachable
    done[static_cast<std::size_t>(best)] = 1;
    for (int v = 0; v < n; ++v) {
      const auto idx = static_cast<std::size_t>(v);
      const double cand = w[static_cast<std::size_t>(best)][idx];
      if (!done[idx] && cand < key[idx]) {
        key[idx] = cand;
        parent[idx] = best;
      }
    }
  }
  return parent;
}

}  // namespace scmp::graph
