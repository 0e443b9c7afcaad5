// Tests for component post-processing utilities and COO-direct
// connectivity.

#include <gtest/gtest.h>

#include "src/algo/verify.h"
#include "src/core/components.h"
#include "src/core/connectit.h"
#include "src/core/frequent.h"
#include "src/graph/generators.h"
#include "src/parallel/thread_pool.h"
#include "tests/test_graphs.h"

namespace connectit {
namespace {

std::vector<NodeId> LabelsOf(const Graph& g) {
  return SequentialComponents(g);
}

TEST(Components, CountMatchesOracleOnBasket) {
  for (const auto& [name, g] : testing::CorrectnessBasket()) {
    const auto labels = LabelsOf(g);
    EXPECT_EQ(CountComponents(labels),
              ComputeComponentStats(labels).num_components)
        << name;
  }
}

TEST(Components, SizesSumToN) {
  const Graph g = GenerateComponentMixture(1000, 5, 3);
  const auto labels = LabelsOf(g);
  const auto sizes = ComponentSizes(labels);
  NodeId total = 0;
  for (NodeId s : sizes) total += s;
  EXPECT_EQ(total, g.num_nodes());
  // Every label's size is positive; every non-label's is zero.
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (labels[v] == v) {
      EXPECT_GT(sizes[v], 0u);
    }
  }
}

// ComponentSizes counts the sampled frequent label per block and every
// other label per vertex; on any labeling its sizes and component count must
// equal a sequential histogram. Runs on a 4-worker pool so the blocks are
// really concurrent even on a 1-cpu runner.
class FusedSizesPass : public ::testing::Test {
 protected:
  void SetUp() override {
    original_workers_ = NumWorkers();
    SetNumWorkers(4);
  }
  void TearDown() override { SetNumWorkers(original_workers_); }

  static void ExpectExact(const std::vector<NodeId>& labels) {
    std::vector<NodeId> expected(labels.size(), 0);
    NodeId expected_count = 0;
    for (size_t v = 0; v < labels.size(); ++v) {
      ++expected[labels[v]];
      if (labels[v] == static_cast<NodeId>(v)) ++expected_count;
    }
    NodeId count = kInvalidNode;
    EXPECT_EQ(ComponentSizes(labels, &count), expected);
    EXPECT_EQ(count, expected_count);
    EXPECT_EQ(count, CountComponents(labels));
  }

 private:
  size_t original_workers_ = 1;
};

TEST_F(FusedSizesPass, OneGiantComponent) {
  ExpectExact(LabelsOf(GenerateGrid(128, 128)));
}

TEST_F(FusedSizesPass, TwoEqualGiants) {
  // Interleaved so every block holds both; the sampled label covers half.
  std::vector<NodeId> labels(6000);
  for (NodeId v = 0; v < labels.size(); ++v) labels[v] = v % 2;
  ExpectExact(labels);
}

TEST_F(FusedSizesPass, AllSingletons) {
  std::vector<NodeId> labels(5000);
  for (NodeId v = 0; v < labels.size(); ++v) labels[v] = v;
  ExpectExact(labels);
}

TEST_F(FusedSizesPass, EmptyAndOneVertex) {
  ExpectExact({});
  ExpectExact({0});
}

TEST_F(FusedSizesPass, WrongFrequentGuessStaysExact) {
  // The largest component holds 0.05% of the vertices, so the 1024 samples
  // almost never see it and the estimate names some other label.
  constexpr NodeId kN = 1u << 18;
  constexpr NodeId kGiant = kN - 1;
  std::vector<NodeId> labels(kN);
  for (NodeId v = 0; v < kN; ++v) labels[v] = v % 2000 == 1 ? kGiant : v;
  ASSERT_NE(IdentifyFrequentSampled(labels).label, kGiant);
  ExpectExact(labels);
}

TEST_F(FusedSizesPass, ThreeHeavyLabelsCountedExactly) {
  // The mixture's shape: labels holding 50%, 25% and 12.5% of the
  // vertices, interleaved so every block sees all three, and singletons.
  constexpr NodeId kN = 1u << 16;
  std::vector<NodeId> labels(kN);
  for (NodeId v = 0; v < kN; ++v) {
    const NodeId r = v % 8;
    labels[v] = r < 4 ? 0 : r < 6 ? 4 : r == 6 ? 6 : v;
  }
  EXPECT_EQ(FrequentLabelsSampled(labels, kHeavyLabelShare, kMaxHeavyLabels),
            (std::vector<NodeId>{0, 4, 6}));
  NodeId count = 0;
  const std::vector<NodeId> sizes = ComponentSizes(labels, &count);
  EXPECT_EQ(sizes[0], kN / 2);
  EXPECT_EQ(sizes[4], kN / 4);
  EXPECT_EQ(sizes[6], kN / 8);
  EXPECT_EQ(sizes[7], 1u);
  EXPECT_EQ(sizes[1], 0u);
  EXPECT_EQ(count, 3 + kN / 8);
  ExpectExact(labels);
}

TEST(Components, DenseIdsAreDenseAndConsistent) {
  const Graph g = GenerateComponentMixture(500, 4, 9);
  const auto labels = LabelsOf(g);
  const auto dense = DenseComponentIds(labels);
  const NodeId k = CountComponents(labels);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    ASSERT_LT(dense[v], k);
    for (NodeId u = 0; u < v; ++u) {
      EXPECT_EQ(labels[u] == labels[v], dense[u] == dense[v]);
    }
    if (v > 50) break;  // pairwise check on a prefix is enough
  }
}

TEST(Components, ExtractComponentInducesSubgraph) {
  //   triangle {0,1,2} + path {3,4} + isolated {5}
  const Graph g = BuildGraph(6, {{0, 1}, {1, 2}, {2, 0}, {3, 4}});
  const auto labels = LabelsOf(g);
  const InducedComponent tri = ExtractComponent(g, labels, labels[0]);
  EXPECT_EQ(tri.graph.num_nodes(), 3u);
  EXPECT_EQ(tri.graph.num_edges(), 3u);
  EXPECT_EQ(tri.vertex_map, (std::vector<NodeId>{0, 1, 2}));
  const InducedComponent pair = ExtractComponent(g, labels, labels[3]);
  EXPECT_EQ(pair.graph.num_nodes(), 2u);
  EXPECT_EQ(pair.graph.num_edges(), 1u);
  const InducedComponent lone = ExtractComponent(g, labels, labels[5]);
  EXPECT_EQ(lone.graph.num_nodes(), 1u);
  EXPECT_EQ(lone.graph.num_edges(), 0u);
}

TEST(Components, HistogramShapes) {
  const Graph g = BuildGraph(7, {{0, 1}, {2, 3}, {4, 5}});
  // Components: {0,1}, {2,3}, {4,5}, {6} -> sizes 2,2,2,1.
  const auto histogram = ComponentSizeHistogram(LabelsOf(g));
  ASSERT_EQ(histogram.size(), 2u);
  EXPECT_EQ(histogram[0], (std::pair<NodeId, NodeId>{1, 1}));
  EXPECT_EQ(histogram[1], (std::pair<NodeId, NodeId>{2, 3}));
}

TEST(CooConnectivity, UnionFindFormMatchesGroundTruth) {
  const EdgeList edges = GenerateErdosRenyiEdges(2048, 6000, 3);
  const auto truth = SequentialComponents(edges);
  const auto a = ConnectivityOnEdges<UniteOption::kRemCas, FindOption::kNaive,
                                     SpliceOption::kSplitOne>(edges);
  EXPECT_TRUE(SamePartition(a, truth));
  const auto b =
      ConnectivityOnEdges<UniteOption::kAsync, FindOption::kCompress>(edges);
  EXPECT_TRUE(SamePartition(b, truth));
  const auto c =
      ConnectivityOnEdges<UniteOption::kJtb, FindOption::kTwoTrySplit>(edges);
  EXPECT_TRUE(SamePartition(c, truth));
}

TEST(CooConnectivity, LiuTarjanFormMatchesGroundTruth) {
  const EdgeList edges = GenerateRmatEdges(1024, 4096, 7);
  const auto truth = SequentialComponents(edges);
  const auto a =
      ConnectivityOnEdgesLt<LtConnect::kConnect, LtUpdate::kUpdate,
                            LtShortcut::kShortcut, LtAlter::kAlter>(edges);
  EXPECT_TRUE(SamePartition(a, truth));
  const auto b = ConnectivityOnEdgesLt<LtConnect::kParentConnect,
                                       LtUpdate::kRootUp,
                                       LtShortcut::kFullShortcut,
                                       LtAlter::kNoAlter>(edges);
  EXPECT_TRUE(SamePartition(b, truth));
}

TEST(CooConnectivity, EmptyAndSelfLoopEdgeLists) {
  EdgeList empty;
  empty.num_nodes = 5;
  const auto labels =
      ConnectivityOnEdges<UniteOption::kAsync, FindOption::kNaive>(empty);
  for (NodeId v = 0; v < 5; ++v) EXPECT_EQ(labels[v], v);

  EdgeList loops;
  loops.num_nodes = 3;
  loops.edges = {{1, 1}, {2, 2}};
  const auto l2 =
      ConnectivityOnEdges<UniteOption::kAsync, FindOption::kNaive>(loops);
  for (NodeId v = 0; v < 3; ++v) EXPECT_EQ(l2[v], v);
}

}  // namespace
}  // namespace connectit
