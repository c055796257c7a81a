// Undirected network graph with the paper's two symmetric link parameters:
// link delay (queueing + transmission + propagation) and link cost
// (a utilisation-derived price for using the link). See paper §III.
#pragma once

#include <cstddef>
#include <vector>

#include "util/contracts.hpp"

namespace scmp::graph {

using NodeId = int;
inline constexpr NodeId kInvalidNode = -1;

/// Per-link attributes; identical in both directions (paper assumes symmetric links).
struct EdgeAttr {
  double delay = 0.0;
  double cost = 0.0;
};

/// Which of the two link parameters a path computation optimises.
enum class Metric { kDelay, kCost };

inline double weight_of(const EdgeAttr& e, Metric m) {
  return m == Metric::kDelay ? e.delay : e.cost;
}

/// Adjacency-list undirected graph. NodeIds are dense 0..num_nodes()-1.
class Graph {
 public:
  struct Neighbor {
    NodeId to = kInvalidNode;
    EdgeAttr attr;
  };

  Graph() = default;
  explicit Graph(int num_nodes);

  /// Appends an isolated node and returns its id.
  NodeId add_node();

  /// Adds the undirected edge {u, v}. Requires u != v and no existing {u, v}.
  void add_edge(NodeId u, NodeId v, double delay, double cost);

  /// Removes the undirected edge {u, v} if present; returns whether it existed.
  bool remove_edge(NodeId u, NodeId v);

  bool has_edge(NodeId u, NodeId v) const;

  /// Attributes of edge {u, v}, or nullptr when absent.
  const EdgeAttr* edge(NodeId u, NodeId v) const;

  int num_nodes() const { return static_cast<int>(adj_.size()); }
  int num_edges() const { return num_edges_; }

  const std::vector<Neighbor>& neighbors(NodeId u) const {
    SCMP_EXPECTS(valid(u));
    return adj_[static_cast<std::size_t>(u)];
  }

  int degree(NodeId u) const {
    return static_cast<int>(neighbors(u).size());
  }

  double average_degree() const;

  /// True when every node can reach every other node.
  bool is_connected() const;

  bool valid(NodeId u) const { return u >= 0 && u < num_nodes(); }

 private:
  std::vector<std::vector<Neighbor>> adj_;
  int num_edges_ = 0;
};

/// Sum of `metric` over consecutive path edges. Requires every hop to exist.
double path_weight(const Graph& g, const std::vector<NodeId>& path, Metric metric);

}  // namespace scmp::graph
