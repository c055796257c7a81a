#include "graph/graph.hpp"

#include <gtest/gtest.h>

#include "helpers.hpp"

namespace scmp::graph {
namespace {

TEST(Graph, EmptyGraph) {
  Graph g;
  EXPECT_EQ(g.num_nodes(), 0);
  EXPECT_EQ(g.num_edges(), 0);
  EXPECT_TRUE(g.is_connected());  // vacuously
}

TEST(Graph, AddNodesAndEdges) {
  Graph g(3);
  EXPECT_EQ(g.num_nodes(), 3);
  g.add_edge(0, 1, 2.0, 3.0);
  g.add_edge(1, 2, 4.0, 5.0);
  EXPECT_EQ(g.num_edges(), 2);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 0));  // symmetric
  EXPECT_FALSE(g.has_edge(0, 2));
}

TEST(Graph, EdgeAttributes) {
  Graph g(2);
  g.add_edge(0, 1, 2.5, 7.5);
  const EdgeAttr* e = g.edge(0, 1);
  ASSERT_NE(e, nullptr);
  EXPECT_DOUBLE_EQ(e->delay, 2.5);
  EXPECT_DOUBLE_EQ(e->cost, 7.5);
  const EdgeAttr* rev = g.edge(1, 0);
  ASSERT_NE(rev, nullptr);
  EXPECT_DOUBLE_EQ(rev->delay, 2.5);  // symmetric links
  EXPECT_DOUBLE_EQ(rev->cost, 7.5);
}

TEST(Graph, AddNodeGrows) {
  Graph g(1);
  const NodeId v = g.add_node();
  EXPECT_EQ(v, 1);
  EXPECT_EQ(g.num_nodes(), 2);
  g.add_edge(0, v, 1, 1);
  EXPECT_TRUE(g.has_edge(0, 1));
}

TEST(Graph, RemoveEdge) {
  Graph g(3);
  g.add_edge(0, 1, 1, 1);
  g.add_edge(1, 2, 1, 1);
  EXPECT_TRUE(g.remove_edge(0, 1));
  EXPECT_FALSE(g.has_edge(0, 1));
  EXPECT_FALSE(g.has_edge(1, 0));
  EXPECT_EQ(g.num_edges(), 1);
  EXPECT_FALSE(g.remove_edge(0, 1));  // already gone
}

TEST(Graph, Degree) {
  Graph g = test::diamond();
  EXPECT_EQ(g.degree(0), 2);
  EXPECT_EQ(g.degree(3), 2);
  EXPECT_DOUBLE_EQ(g.average_degree(), 2.0);
}

TEST(Graph, Neighbors) {
  Graph g = test::line(4);
  EXPECT_EQ(g.neighbors(0).size(), 1u);
  EXPECT_EQ(g.neighbors(1).size(), 2u);
  EXPECT_EQ(g.neighbors(1)[0].to, 0);
  EXPECT_EQ(g.neighbors(1)[1].to, 2);
}

TEST(Graph, Connectivity) {
  Graph g(4);
  g.add_edge(0, 1, 1, 1);
  g.add_edge(2, 3, 1, 1);
  EXPECT_FALSE(g.is_connected());
  g.add_edge(1, 2, 1, 1);
  EXPECT_TRUE(g.is_connected());
}

TEST(Graph, SingleNodeConnected) {
  Graph g(1);
  EXPECT_TRUE(g.is_connected());
}

TEST(Graph, PathWeight) {
  Graph g = test::line(4);
  const std::vector<NodeId> path{0, 1, 2, 3};
  EXPECT_DOUBLE_EQ(path_weight(g, path, Metric::kDelay), 3.0);
  EXPECT_DOUBLE_EQ(path_weight(g, path, Metric::kCost), 3.0);
}

TEST(Graph, PathWeightEmptyAndSingle) {
  Graph g = test::line(3);
  EXPECT_DOUBLE_EQ(path_weight(g, {}, Metric::kDelay), 0.0);
  EXPECT_DOUBLE_EQ(path_weight(g, {1}, Metric::kDelay), 0.0);
}

TEST(GraphDeath, RejectsSelfLoop) {
  Graph g(2);
  EXPECT_DEATH(g.add_edge(0, 0, 1, 1), "Precondition");
}

TEST(GraphDeath, RejectsDuplicateEdge) {
  Graph g(2);
  g.add_edge(0, 1, 1, 1);
  EXPECT_DEATH(g.add_edge(0, 1, 2, 2), "Precondition");
}

TEST(GraphDeath, RejectsNegativeWeights) {
  Graph g(2);
  EXPECT_DEATH(g.add_edge(0, 1, -1, 1), "Precondition");
}

TEST(Graph, WeightOfSelectsMetric) {
  const EdgeAttr e{3.0, 9.0};
  EXPECT_DOUBLE_EQ(weight_of(e, Metric::kDelay), 3.0);
  EXPECT_DOUBLE_EQ(weight_of(e, Metric::kCost), 9.0);
}

}  // namespace
}  // namespace scmp::graph
