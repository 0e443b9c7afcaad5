// Spanning forest sweep (paper §3.4, Theorems 5-6): every root-based
// variant, under every sampling scheme, must emit a valid spanning forest
// whose labels match ground-truth connectivity.

#include <string>

#include <gtest/gtest.h>

#include "src/algo/verify.h"
#include "src/core/registry.h"
#include "src/graph/builder.h"
#include "src/graph/graph_handle.h"
#include "tests/test_graphs.h"

namespace connectit {
namespace {

struct SweepCase {
  std::string variant;
  SamplingOption sampling;
};

std::vector<SweepCase> AllCases() {
  std::vector<SweepCase> cases;
  for (const Variant* v : RootBasedVariants()) {
    for (const SamplingOption s :
         {SamplingOption::kNone, SamplingOption::kKOut, SamplingOption::kBfs,
          SamplingOption::kLdd}) {
      cases.push_back({v->name, s});
    }
  }
  return cases;
}

std::string CaseName(const ::testing::TestParamInfo<SweepCase>& info) {
  std::string name =
      info.param.variant + "_" + std::string(ToString(info.param.sampling));
  for (char& c : name) {
    if (!isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  return name;
}

class ForestSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(ForestSweep, ProducesValidSpanningForest) {
  const SweepCase& param = GetParam();
  const Variant* variant = FindVariant(param.variant);
  ASSERT_NE(variant, nullptr);
  ASSERT_TRUE(static_cast<bool>(variant->run_forest));
  SamplingConfig config;
  config.option = param.sampling;
  for (const auto& [name, graph] : testing::SmallBasket()) {
    const SpanningForestResult result = variant->run_forest(graph, config);
    EXPECT_TRUE(CheckSpanningForest(graph, result.edges))
        << "variant=" << param.variant
        << " sampling=" << ToString(param.sampling) << " graph=" << name;
    EXPECT_TRUE(SamePartition(result.labels, SequentialComponents(graph)))
        << "labels diverged: variant=" << param.variant << " graph=" << name;
  }
}

INSTANTIATE_TEST_SUITE_P(RootBasedVariants, ForestSweep,
                         ::testing::ValuesIn(AllCases()), CaseName);

TEST(SpanningForest, EmptyAndTrivialGraphs) {
  const Variant* v = FindVariant("Union-Async;FindCompress");
  ASSERT_NE(v, nullptr);
  const Graph empty = BuildGraph(0, {});
  EXPECT_TRUE(v->run_forest(empty, {}).edges.empty());
  const Graph isolated = BuildGraph(5, {});
  EXPECT_TRUE(v->run_forest(isolated, {}).edges.empty());
  const Graph one_edge = BuildGraph(2, {{0, 1}});
  const auto result = v->run_forest(one_edge, {});
  ASSERT_EQ(result.edges.size(), 1u);
}

TEST(SpanningForest, ForestSizeMatchesComponentCount) {
  const Variant* v = &DefaultVariant();
  const Graph g = GenerateComponentMixture(1500, 6, 77);
  const ComponentStats stats =
      ComputeComponentStats(SequentialComponents(g));
  const auto result = v->run_forest(g, {});
  EXPECT_EQ(result.edges.size(),
            static_cast<size_t>(g.num_nodes()) - stats.num_components);
}

// Regression for a race in Rem's SpliceAtomic: it re-parents a non-root
// vertex into the other tree, a link the forest's slot recording never
// sees, so a concurrent Unite could find one root and record no edge. The
// forest passes therefore splice with SplitAtomicOne (kForestSplice in
// connectit.h). The race needs real concurrency, so every SpliceAtomic
// variant builds many forests from COO input (where it showed) and CSR.
// Run it with CONNECTIT_THREADS=4 in a loop to look for a flake.
TEST(SpliceAtomicForest, RepeatedForestsAreSpanning) {
  constexpr int kRounds = 20;
  size_t variants = 0;
  for (const Variant& v : AllVariants()) {
    if (v.family != AlgorithmFamily::kUnionFind ||
        v.name.find(";SpliceAtomic") == std::string::npos) {
      continue;
    }
    ++variants;
    for (const auto& [name, graph] : testing::CorrectnessBasket()) {
      const EdgeList edges = ExtractEdges(graph);
      for (int round = 0; round < kRounds; ++round) {
        const SpanningForestResult coo =
            v.run_forest(GraphHandle(edges), SamplingConfig::None());
        ASSERT_TRUE(CheckSpanningForest(graph, coo.edges))
            << "COO forest: variant=" << v.name << " graph=" << name
            << " round=" << round;
        const SpanningForestResult csr =
            v.run_forest(graph, SamplingConfig::None());
        ASSERT_TRUE(CheckSpanningForest(graph, csr.edges))
            << "CSR forest: variant=" << v.name << " graph=" << name
            << " round=" << round;
      }
    }
  }
  EXPECT_EQ(variants, 6u) << "Rem-CAS and Rem-Lock x FindNaive/Split/Halve";
}

}  // namespace
}  // namespace connectit
