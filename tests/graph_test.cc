// Unit tests for the graph substrate: builder, CSR invariants, edge
// extraction, relabeling.

#include <algorithm>
#include <atomic>
#include <set>

#include <gtest/gtest.h>

#include "src/graph/builder.h"
#include "src/graph/csr.h"
#include "src/graph/generators.h"
#include "tests/test_graphs.h"

namespace connectit {
namespace {

TEST(Builder, SymmetrizesAndSorts) {
  const Graph g = BuildGraph(4, {{2, 1}, {0, 3}, {1, 3}});
  EXPECT_EQ(g.num_nodes(), 4u);
  EXPECT_EQ(g.num_edges(), 3u);
  EXPECT_EQ(g.num_arcs(), 6u);
  // Every neighbor list is sorted and symmetric.
  for (NodeId u = 0; u < 4; ++u) {
    const auto nbrs = g.neighbors(u);
    EXPECT_TRUE(std::is_sorted(nbrs.begin(), nbrs.end()));
    for (NodeId v : nbrs) {
      const auto back = g.neighbors(v);
      EXPECT_TRUE(std::binary_search(back.begin(), back.end(), u));
    }
  }
}

TEST(Builder, RemovesSelfLoopsAndDuplicates) {
  const Graph g =
      BuildGraph(3, {{0, 1}, {1, 0}, {0, 1}, {2, 2}, {1, 2}, {1, 2}});
  EXPECT_EQ(g.num_edges(), 2u);  // {0,1} and {1,2}
  EXPECT_EQ(g.degree(0), 1u);
  EXPECT_EQ(g.degree(1), 2u);
  EXPECT_EQ(g.degree(2), 1u);
}

TEST(Builder, KeepsSelfLoopsWhenAsked) {
  BuildOptions options;
  options.remove_self_loops = false;
  options.remove_duplicates = false;
  const Graph g = BuildGraph(2, {{0, 0}, {0, 1}, {0, 1}}, options);
  // (0,0) symmetrized twice + two copies of {0,1} both ways.
  EXPECT_EQ(g.num_arcs(), 6u);
}

TEST(Builder, EmptyGraph) {
  const Graph g = BuildGraph(0, {});
  EXPECT_EQ(g.num_nodes(), 0u);
  EXPECT_EQ(g.num_arcs(), 0u);
}

TEST(Builder, IsolatedVerticesKeepZeroDegree) {
  const Graph g = BuildGraph(10, {{0, 9}});
  for (NodeId v = 1; v < 9; ++v) EXPECT_EQ(g.degree(v), 0u);
  EXPECT_EQ(g.degree(0), 1u);
  EXPECT_EQ(g.degree(9), 1u);
}

TEST(Csr, OffsetsAreConsistent) {
  for (const auto& [name, g] : testing::CorrectnessBasket()) {
    const auto& offsets = g.offsets();
    if (g.num_nodes() == 0) continue;
    ASSERT_EQ(offsets.size(), g.num_nodes() + 1u) << name;
    EXPECT_EQ(offsets.front(), 0u) << name;
    EXPECT_EQ(offsets.back(), g.num_arcs()) << name;
    EXPECT_TRUE(std::is_sorted(offsets.begin(), offsets.end())) << name;
  }
}

TEST(Csr, MapArcsVisitsEveryArcOnce) {
  const Graph g = GenerateRmat(256, 1024, 1);
  std::atomic<EdgeId> count{0};
  g.MapArcs([&](NodeId u, NodeId v) {
    ASSERT_LT(u, g.num_nodes());
    ASSERT_LT(v, g.num_nodes());
    count.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(count.load(), g.num_arcs());
}

TEST(Csr, MapArcsIfFiltersSources) {
  const Graph g = GenerateComplete(10);
  std::atomic<EdgeId> count{0};
  g.MapArcsIf([](NodeId u) { return u < 5; },
              [&](NodeId u, NodeId) {
                ASSERT_LT(u, 5u);
                count.fetch_add(1, std::memory_order_relaxed);
              });
  EXPECT_EQ(count.load(), 5u * 9u);
}

TEST(Csr, DegreeStats) {
  const Graph g = GenerateStar(101);
  const DegreeStats stats = ComputeDegreeStats(g);
  EXPECT_EQ(stats.max_degree, 100u);
  EXPECT_DOUBLE_EQ(stats.avg_degree, 200.0 / 101.0);
}

TEST(ExtractEdges, RoundTripsThroughBuilder) {
  for (const auto& [name, g] : testing::CorrectnessBasket()) {
    const EdgeList edges = ExtractEdges(g);
    EXPECT_EQ(edges.size(), g.num_edges()) << name;
    for (const Edge& e : edges.edges) EXPECT_LT(e.u, e.v) << name;
    const Graph rebuilt = BuildGraph(edges);
    EXPECT_EQ(rebuilt.num_arcs(), g.num_arcs()) << name;
    EXPECT_EQ(testing::AsVector(rebuilt.neighbor_array()),
              testing::AsVector(g.neighbor_array())) << name;
    EXPECT_EQ(testing::AsVector(rebuilt.offsets()),
              testing::AsVector(g.offsets())) << name;
  }
}

TEST(RandomPermutation, IsAPermutation) {
  const std::vector<NodeId> perm = RandomPermutation(1000, 5);
  std::set<NodeId> seen(perm.begin(), perm.end());
  EXPECT_EQ(seen.size(), 1000u);
  EXPECT_EQ(*seen.begin(), 0u);
  EXPECT_EQ(*seen.rbegin(), 999u);
  // Deterministic per seed, different across seeds.
  EXPECT_EQ(RandomPermutation(1000, 5), perm);
  EXPECT_NE(RandomPermutation(1000, 6), perm);
}

TEST(RelabelGraph, PreservesStructure) {
  const Graph g = GenerateRmat(128, 512, 2);
  const std::vector<NodeId> perm = RandomPermutation(g.num_nodes(), 3);
  const Graph relabeled = RelabelGraph(g, perm);
  EXPECT_EQ(relabeled.num_nodes(), g.num_nodes());
  EXPECT_EQ(relabeled.num_edges(), g.num_edges());
  // Edge {u, v} exists iff {perm[u], perm[v]} exists in the relabeled graph.
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (NodeId v : g.neighbors(u)) {
      const auto nbrs = relabeled.neighbors(perm[u]);
      EXPECT_TRUE(std::binary_search(nbrs.begin(), nbrs.end(), perm[v]));
    }
  }
}

}  // namespace
}  // namespace connectit
