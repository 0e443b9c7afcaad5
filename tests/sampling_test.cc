// Tests for the sampling phase: Definition 3.1 properties, value
// monotonicity, per-scheme behavior, quality metrics, and IdentifyFrequent.

#include <algorithm>
#include <numeric>
#include <set>

#include <gtest/gtest.h>

#include "src/algo/verify.h"
#include "src/core/connectit.h"
#include "src/core/frequent.h"
#include "src/core/sampling.h"
#include "src/parallel/random.h"
#include "tests/test_graphs.h"

namespace connectit {
namespace {

// Definition 3.1(1): labels form a rooted depth-<=1 forest; our schemes
// additionally guarantee labels[v] <= v (cluster-min normalization).
void CheckSampleInvariants(const std::string& context, const Graph& graph,
                           const std::vector<NodeId>& labels) {
  ASSERT_EQ(labels.size(), graph.num_nodes()) << context;
  for (NodeId v = 0; v < graph.num_nodes(); ++v) {
    ASSERT_LT(labels[v], graph.num_nodes()) << context;
    EXPECT_EQ(labels[labels[v]], labels[v]) << context << " v=" << v;
    EXPECT_LE(labels[v], v) << context << " v=" << v;
  }
}

// Definition 3.1(2): the sampled labeling is a valid partial labeling —
// vertices sharing a label must be connected in G.
void CheckPartialLabeling(const std::string& context, const Graph& graph,
                          const std::vector<NodeId>& labels) {
  const std::vector<NodeId> truth = SequentialComponents(graph);
  for (NodeId v = 0; v < graph.num_nodes(); ++v) {
    EXPECT_EQ(truth[labels[v]], truth[v])
        << context << ": sampling merged disconnected vertices, v=" << v;
  }
}

class SamplingSchemes
    : public ::testing::TestWithParam<SamplingOption> {};

TEST_P(SamplingSchemes, SatisfiesDefinition31OnBasket) {
  SamplingConfig config;
  config.option = GetParam();
  for (const auto& [name, graph] : testing::CorrectnessBasket()) {
    std::vector<NodeId> labels = IdentityLabels(graph.num_nodes());
    RunSampling(graph, config, labels);
    const std::string context =
        std::string(ToString(GetParam())) + "/" + name;
    CheckSampleInvariants(context, graph, labels);
    CheckPartialLabeling(context, graph, labels);
  }
}

INSTANTIATE_TEST_SUITE_P(Schemes, SamplingSchemes,
                         ::testing::Values(SamplingOption::kKOut,
                                           SamplingOption::kBfs,
                                           SamplingOption::kLdd),
                         [](const auto& info) {
                           return std::string(ToString(info.param));
                         });

constexpr KOutVariant kKOutVariants[] = {
    KOutVariant::kAfforest, KOutVariant::kPure, KOutVariant::kHybrid,
    KOutVariant::kMaxDegree};

TEST(KOutSampling, AllVariantsProduceValidPartialLabelings) {
  const Graph g = GenerateRmat(2048, 8192, 3);
  for (const KOutVariant variant : kKOutVariants) {
    for (uint32_t k : {1u, 2u, 4u}) {
      KOutOptions options;
      options.variant = variant;
      options.k = k;
      std::vector<NodeId> labels = IdentityLabels(g.num_nodes());
      KOutSample(g, options, labels);
      const std::string context = std::string(ToString(variant)) +
                                  "/k=" + std::to_string(k);
      CheckSampleInvariants(context, g, labels);
      CheckPartialLabeling(context, g, labels);
    }
  }
}

// The k-out sample {u, pick} of every vertex, enumerated sequentially with
// the sampler's pick rules and Rng indices (u * k + j) but not its code.
std::vector<Edge> SampledKOutEdges(const Graph& graph,
                                   const KOutOptions& options) {
  const uint32_t k = std::max<uint32_t>(1, options.k);
  const Rng rng(options.seed);
  std::vector<Edge> edges;
  for (NodeId u = 0; u < graph.num_nodes(); ++u) {
    const auto nbrs = graph.neighbors(u);
    const EdgeId deg = nbrs.size();
    for (uint32_t j = 0; j < k && deg > 0; ++j) {
      NodeId v;
      if (options.variant == KOutVariant::kAfforest) {
        if (j >= deg) break;
        v = nbrs[j];
      } else if (j == 0 && options.variant == KOutVariant::kHybrid) {
        v = nbrs[0];
      } else if (j == 0 && options.variant == KOutVariant::kMaxDegree) {
        // The first neighbor of the highest degree.
        v = nbrs[0];
        for (const NodeId w : nbrs) {
          if (graph.degree(w) > graph.degree(v)) v = w;
        }
      } else {
        v = nbrs[rng.GetBounded(static_cast<uint64_t>(u) * k + j, deg)];
      }
      edges.push_back({u, v});
    }
  }
  return edges;
}

// Sequential union-find over `edges`, each vertex labeled by the minimum
// member of its cluster.
std::vector<NodeId> ClusterMinLabels(NodeId n, const std::vector<Edge>& edges) {
  std::vector<NodeId> parent(n);
  std::iota(parent.begin(), parent.end(), NodeId{0});
  const auto find = [&](NodeId v) {
    while (parent[v] != v) v = parent[v] = parent[parent[v]];
    return v;
  };
  for (const Edge& e : edges) {
    const NodeId a = find(e.u);
    const NodeId b = find(e.v);
    parent[std::max(a, b)] = std::min(a, b);
  }
  for (NodeId v = 0; v < n; ++v) parent[v] = find(v);
  return parent;
}

// The sampler unites round by round in parallel; the labels must not
// depend on that order. The forest form labels exactly as the components
// form, and its slots are a spanning forest of the sampled clusters drawn
// from the sampled edges.
TEST(KOutSampling, RoundMajorLabelsMatchSequentialUnionFind) {
  for (const auto& [name, graph] : testing::CorrectnessBasket()) {
    const NodeId n = graph.num_nodes();
    for (const KOutVariant variant : kKOutVariants) {
      for (const uint32_t k : {1u, 2u, 4u}) {
        KOutOptions options;
        options.variant = variant;
        options.k = k;
        const std::string context = name + "/" +
                                    std::string(ToString(variant)) +
                                    "/k=" + std::to_string(k);
        const std::vector<Edge> sampled = SampledKOutEdges(graph, options);
        std::vector<NodeId> labels = IdentityLabels(n);
        KOutSample(graph, options, labels);
        EXPECT_EQ(labels, ClusterMinLabels(n, sampled)) << context;

        std::vector<NodeId> forest_labels = IdentityLabels(n);
        std::vector<Edge> slots(n, kEmptySlot);
        KOutSampleForest(graph, options, forest_labels, slots);
        EXPECT_EQ(forest_labels, labels) << context;
        const std::set<Edge> sampled_set(sampled.begin(), sampled.end());
        std::vector<Edge> forest;
        for (const Edge& slot : slots) {
          if (slot == kEmptySlot) continue;
          EXPECT_TRUE(sampled_set.contains(slot))
              << context << ": slot {" << slot.u << ", " << slot.v
              << "} was not sampled";
          forest.push_back(slot);
        }
        NodeId clusters = 0;
        for (NodeId v = 0; v < n; ++v) clusters += labels[v] == v;
        EXPECT_EQ(forest.size(), n - clusters) << context;
        EXPECT_EQ(ClusterMinLabels(n, forest), labels) << context;
      }
    }
  }
}

TEST(KOutSampling, LargerKImprovesCoverage) {
  const Graph g = GenerateErdosRenyi(4096, 16384, 7);
  double prev_coverage = 0.0;
  for (uint32_t k : {1u, 4u}) {
    KOutOptions options;
    options.variant = KOutVariant::kPure;
    options.k = k;
    std::vector<NodeId> labels = IdentityLabels(g.num_nodes());
    KOutSample(g, options, labels);
    const SamplingQuality q = MeasureSamplingQuality(g, labels);
    EXPECT_GE(q.coverage + 1e-9, prev_coverage) << "k=" << k;
    prev_coverage = q.coverage;
  }
  EXPECT_GT(prev_coverage, 0.5);
}

TEST(BfsSampling, CoversTheMassiveComponent) {
  const Graph g = GenerateRmat(4096, 32768, 9);
  BfsSampleOptions options;
  std::vector<NodeId> labels = IdentityLabels(g.num_nodes());
  BfsSample(g, options, labels);
  const SamplingQuality q = MeasureSamplingQuality(g, labels);
  const ComponentStats truth =
      ComputeComponentStats(SequentialComponents(g));
  // BFS finds one entire component: coverage equals the largest component.
  EXPECT_NEAR(q.coverage,
              static_cast<double>(truth.largest_component) /
                  static_cast<double>(g.num_nodes()),
              1e-9);
}

TEST(BfsSampling, FailsGracefullyWhenNoMassiveComponent) {
  // A graph of isolated vertices: every BFS covers ~nothing; labels must
  // remain the identity.
  const Graph g = BuildGraph(100, {{0, 1}});
  BfsSampleOptions options;
  options.coverage_threshold = 0.5;
  options.max_tries = 3;
  std::vector<NodeId> labels = IdentityLabels(g.num_nodes());
  BfsSample(g, options, labels);
  size_t non_identity = 0;
  for (NodeId v = 0; v < 100; ++v) non_identity += (labels[v] != v);
  EXPECT_LE(non_identity, 1u);  // at most the 0-1 pair collapsed
}

TEST(LddSampling, BetaControlsClusterCount) {
  const Graph g = GenerateGrid(40, 40);
  LddSampleOptions lo;
  lo.beta = 0.05;
  LddSampleOptions hi;
  hi.beta = 0.9;
  std::vector<NodeId> labels_lo = IdentityLabels(g.num_nodes());
  std::vector<NodeId> labels_hi = IdentityLabels(g.num_nodes());
  LddSample(g, lo, labels_lo);
  LddSample(g, hi, labels_hi);
  const SamplingQuality qlo = MeasureSamplingQuality(g, labels_lo);
  const SamplingQuality qhi = MeasureSamplingQuality(g, labels_hi);
  EXPECT_LT(qlo.num_clusters, qhi.num_clusters);
  EXPECT_LE(qlo.intercomponent_fraction, qhi.intercomponent_fraction + 0.05);
}

TEST(MeasureSamplingQuality, IdentityAndFullLabelings) {
  const Graph g = GeneratePath(10);
  const std::vector<NodeId> identity = IdentityLabels(10);
  const SamplingQuality qi = MeasureSamplingQuality(g, identity);
  EXPECT_DOUBLE_EQ(qi.coverage, 0.1);
  EXPECT_DOUBLE_EQ(qi.intercomponent_fraction, 1.0);
  EXPECT_EQ(qi.num_clusters, 10u);
  const std::vector<NodeId> full(10, 0);
  const SamplingQuality qf = MeasureSamplingQuality(g, full);
  EXPECT_DOUBLE_EQ(qf.coverage, 1.0);
  EXPECT_DOUBLE_EQ(qf.intercomponent_fraction, 0.0);
}

TEST(IdentifyFrequent, ExactFindsMajorityLabel) {
  const std::vector<NodeId> labels = {3, 3, 3, 3, 7, 7, 1};
  const FrequentResult r = IdentifyFrequentExact(labels);
  EXPECT_EQ(r.label, 3u);
  EXPECT_EQ(r.count, 4u);
  EXPECT_EQ(r.inspected, labels.size());
}

TEST(IdentifyFrequent, ExactTieBreaksBySmallestLabel) {
  const FrequentResult r = IdentifyFrequentExact({9, 9, 2, 2});
  EXPECT_EQ(r.label, 2u);
}

TEST(IdentifyFrequent, SampledAgreesOnDominantLabel) {
  std::vector<NodeId> labels(100000, 5);
  for (size_t i = 0; i < 1000; ++i) labels[i * 97 % labels.size()] = 9;
  const FrequentResult exact = IdentifyFrequentExact(labels);
  const FrequentResult sampled = IdentifyFrequentSampled(labels);
  EXPECT_EQ(exact.label, sampled.label);
  EXPECT_EQ(sampled.inspected, 1024u);
}

TEST(IdentifyFrequent, SmallInputsUseExactPath) {
  const std::vector<NodeId> labels = {1, 1, 0};
  const FrequentResult r = IdentifyFrequentSampled(labels, 1024);
  EXPECT_EQ(r.label, 1u);
  EXPECT_EQ(r.inspected, 3u);
}

TEST(IdentifyFrequent, EmptyLabels) {
  EXPECT_EQ(IdentifyFrequentExact({}).label, kInvalidNode);
  EXPECT_EQ(IdentifyFrequentSampled({}).label, kInvalidNode);
}

TEST(SkipMask, MarksFrequentVertices) {
  const std::vector<NodeId> labels = {0, 0, 2, 2, 0};
  const std::vector<uint8_t> skip = MakeSkipMask(labels, 0);
  EXPECT_EQ(skip, (std::vector<uint8_t>{1, 1, 0, 0, 1}));
  EXPECT_TRUE(MakeSkipMask(labels, kInvalidNode).empty());
}

TEST(ApplyArcRule, EachEdgeAppliedExactlyOnce) {
  // For every (skip-u, skip-v) combination, exactly one orientation of a
  // non-internal edge is applied.
  for (int su = 0; su <= 1; ++su) {
    for (int sv = 0; sv <= 1; ++sv) {
      std::vector<uint8_t> skip = {static_cast<uint8_t>(su),
                                   static_cast<uint8_t>(sv)};
      const int applied =
          (ApplyArc(0, 1, skip) ? 1 : 0) + (ApplyArc(1, 0, skip) ? 1 : 0);
      if (su && sv) {
        EXPECT_EQ(applied, 0) << su << sv;
      } else {
        EXPECT_EQ(applied, 1) << su << sv;
      }
    }
  }
}

}  // namespace
}  // namespace connectit
