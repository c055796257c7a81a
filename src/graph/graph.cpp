#include "graph/graph.hpp"

#include <algorithm>

namespace scmp::graph {

Graph::Graph(int num_nodes) {
  SCMP_EXPECTS(num_nodes >= 0);
  adj_.resize(static_cast<std::size_t>(num_nodes));
}

NodeId Graph::add_node() {
  adj_.emplace_back();
  return num_nodes() - 1;
}

void Graph::add_edge(NodeId u, NodeId v, double delay, double cost) {
  SCMP_EXPECTS(valid(u) && valid(v) && u != v);
  SCMP_EXPECTS(!has_edge(u, v));
  SCMP_EXPECTS(delay >= 0.0 && cost >= 0.0);
  const EdgeAttr attr{delay, cost};
  adj_[static_cast<std::size_t>(u)].push_back({v, attr});
  adj_[static_cast<std::size_t>(v)].push_back({u, attr});
  ++num_edges_;
}

bool Graph::remove_edge(NodeId u, NodeId v) {
  if (!valid(u) || !valid(v) || !has_edge(u, v)) return false;
  auto erase_from = [](std::vector<Neighbor>& list, NodeId target) {
    list.erase(std::remove_if(list.begin(), list.end(),
                              [target](const Neighbor& n) {
                                return n.to == target;
                              }),
               list.end());
  };
  erase_from(adj_[static_cast<std::size_t>(u)], v);
  erase_from(adj_[static_cast<std::size_t>(v)], u);
  --num_edges_;
  return true;
}

bool Graph::has_edge(NodeId u, NodeId v) const { return edge(u, v) != nullptr; }

const EdgeAttr* Graph::edge(NodeId u, NodeId v) const {
  if (!valid(u) || !valid(v)) return nullptr;
  for (const auto& n : adj_[static_cast<std::size_t>(u)]) {
    if (n.to == v) return &n.attr;
  }
  return nullptr;
}

double Graph::average_degree() const {
  if (num_nodes() == 0) return 0.0;
  return 2.0 * num_edges() / num_nodes();
}

bool Graph::is_connected() const {
  const int n = num_nodes();
  if (n <= 1) return true;
  std::vector<char> seen(static_cast<std::size_t>(n), 0);
  std::vector<NodeId> stack{0};
  seen[0] = 1;
  int visited = 1;
  while (!stack.empty()) {
    const NodeId u = stack.back();
    stack.pop_back();
    for (const auto& nb : neighbors(u)) {
      if (!seen[static_cast<std::size_t>(nb.to)]) {
        seen[static_cast<std::size_t>(nb.to)] = 1;
        ++visited;
        stack.push_back(nb.to);
      }
    }
  }
  return visited == n;
}

double path_weight(const Graph& g, const std::vector<NodeId>& path,
                   Metric metric) {
  double total = 0.0;
  for (std::size_t i = 1; i < path.size(); ++i) {
    const EdgeAttr* e = g.edge(path[i - 1], path[i]);
    SCMP_EXPECTS(e != nullptr);
    total += weight_of(*e, metric);
  }
  return total;
}

}  // namespace scmp::graph
