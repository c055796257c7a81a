// Undirected network graph with the paper's two symmetric link parameters:
// link delay (queueing + transmission + propagation) and link cost
// (a utilisation-derived price for using the link). See paper §III.
#pragma once

#include <cstddef>
#include <cstdint>
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

  /// Compressed-sparse-row snapshot of the adjacency: every node's
  /// neighbours packed into one flat array (in exactly the neighbors(u)
  /// order, so canonical tie-breaks are unchanged) indexed by per-node
  /// offsets. Traversals that sweep many rows — Dijkstra relaxation, Prim —
  /// walk contiguous memory instead of chasing per-node vectors.
  class CsrView {
   public:
    /// Half-open neighbour range of `u`; iterable with a range-for.
    struct Row {
      const Neighbor* first;
      const Neighbor* last;
      const Neighbor* begin() const { return first; }
      const Neighbor* end() const { return last; }
      std::size_t size() const {
        return static_cast<std::size_t>(last - first);
      }
    };
    Row row(NodeId u) const {
      const auto i = static_cast<std::size_t>(u);
      SCMP_EXPECTS(i + 1 < offsets_.size());
      return {flat_.data() + offsets_[i], flat_.data() + offsets_[i + 1]};
    }
    std::size_t num_entries() const { return flat_.size(); }

   private:
    friend class Graph;
    std::vector<std::uint32_t> offsets_;  ///< num_nodes()+1 entries
    std::vector<Neighbor> flat_;          ///< adjacency order preserved
  };

  /// The CSR snapshot, built lazily on first use and cached until the next
  /// mutation (add_node/add_edge/remove_edge), which invalidates it.
  const CsrView& csr() const;

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
  mutable CsrView csr_;          ///< cached flat adjacency (see csr())
  mutable bool csr_valid_ = false;
};

/// Sum of `metric` over consecutive path edges. Requires every hop to exist.
double path_weight(const Graph& g, const std::vector<NodeId>& path, Metric metric);

}  // namespace scmp::graph
