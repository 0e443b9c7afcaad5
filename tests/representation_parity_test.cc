// Representation parity: every registered variant, under every sampling
// scheme, must produce the identical canonical labeling on the plain CSR,
// byte-compressed, COO edge-list, and sharded-CSR representations of the
// same graph, and on the CSR served from an mmap'd .cgc container. This is
// the acceptance gate for the type-erased GraphHandle seam: no non-CSR
// input is a special case anywhere in the variant space. The COO column
// additionally asserts the native-execution contract: unsampled
// edge-centric variants never materialize a CSR (CooCsrMaterializations
// stays flat), while sampled runs build it exactly once per handle and
// cache it. The sharded column asserts the stronger form: *no* run — any
// variant, any sampling — ever flattens the shards
// (ShardedCsrMaterializations stays flat across the whole sweep). The
// mapped column pins zero-copy serving by address: the graph every run
// reads lies inside the mapped file.

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <mutex>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bench/bench_common.h"
#include "src/algo/verify.h"
#include "src/core/registry.h"
#include "src/graph/builder.h"
#include "src/graph/compressed.h"
#include "src/graph/container.h"
#include "src/graph/graph_handle.h"
#include "src/graph/sharded.h"
#include "tests/test_graphs.h"

namespace connectit {
namespace {

// A fixed non-trivial shard count so the sweep exercises real shard
// boundaries even on single-core runners (where the default P would be 1).
constexpr size_t kSweepShards = 4;

struct RepresentationSet {
  std::string name;
  Graph graph;
  CompressedGraph compressed;
  EdgeList coo;
  ShardedGraph sharded;
  MappedContainer mapped;  // holds the unlinked temp mapping open
};

// Each basket graph encoded once, shared by the whole sweep. The mapped
// member is the graph written to a temp .cgc and mmap'd back; the file is
// unlinked immediately, so the mapping is the only remaining reference.
const std::vector<RepresentationSet>& Basket() {
  static const std::vector<RepresentationSet>* basket = [] {
    auto* out = new std::vector<RepresentationSet>();
    for (auto& [name, graph] : testing::CorrectnessBasket()) {
      CompressedGraph compressed = CompressedGraph::Encode(graph);
      EdgeList coo = ExtractEdges(graph);
      ShardedGraph sharded = ShardedGraph::Partition(graph, kSweepShards);
      const std::string path =
          ::testing::TempDir() + "/parity_" + name + ".cgc";
      std::string error;
      MappedContainer mapped;
      if (!WriteContainer(path, graph, &error) ||
          !MappedContainer::Map(path, &mapped, &error)) {
        ADD_FAILURE() << "container setup for " << name << ": " << error;
      }
      std::remove(path.c_str());
      RepresentationSet set;
      set.name = name;
      set.graph = std::move(graph);
      set.compressed = std::move(compressed);
      set.coo = std::move(coo);
      set.sharded = std::move(sharded);
      set.mapped = std::move(mapped);
      out->push_back(std::move(set));
    }
    return out;
  }();
  return *basket;
}

struct SweepCase {
  std::string variant;
  SamplingOption sampling;
};

std::vector<SweepCase> AllCases() {
  std::vector<SweepCase> cases;
  for (const Variant& v : AllVariants()) {
    for (const SamplingOption s :
         {SamplingOption::kNone, SamplingOption::kKOut, SamplingOption::kBfs,
          SamplingOption::kLdd}) {
      cases.push_back({v.name, s});
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

class RepresentationParity : public ::testing::TestWithParam<SweepCase> {};

TEST_P(RepresentationParity, AllRepresentationLabelingsMatch) {
  const SweepCase& param = GetParam();
  const Variant* variant = FindVariant(param.variant);
  ASSERT_NE(variant, nullptr);
  SamplingConfig config;
  config.option = param.sampling;
  for (const RepresentationSet& rep : Basket()) {
    const GraphHandle plain(rep.graph);
    const GraphHandle coded(rep.compressed);
    const GraphHandle coo(rep.coo);
    const GraphHandle sharded(rep.sharded);
    const GraphHandle mapped(rep.mapped.graph());
    ASSERT_EQ(coded.representation(), GraphRepresentation::kCompressed);
    ASSERT_EQ(coo.representation(), GraphRepresentation::kCoo);
    ASSERT_EQ(sharded.representation(), GraphRepresentation::kSharded);
    ASSERT_EQ(mapped.representation(), GraphRepresentation::kCsr);
    const std::vector<NodeId> csr_labels =
        CanonicalizeLabels(variant->run(plain, config));
    const std::vector<NodeId> compressed_labels =
        CanonicalizeLabels(variant->run(coded, config));
    EXPECT_EQ(csr_labels, compressed_labels)
        << "variant=" << param.variant
        << " sampling=" << ToString(param.sampling) << " graph=" << rep.name;
    const std::vector<NodeId> coo_labels =
        CanonicalizeLabels(variant->run(coo, config));
    EXPECT_EQ(csr_labels, coo_labels)
        << "variant=" << param.variant
        << " sampling=" << ToString(param.sampling) << " graph=" << rep.name;
    // The sharded run must match AND stay native: no variant × sampling
    // combination is allowed to flatten the shards into one CSR.
    const uint64_t flattens_before = ShardedCsrMaterializations();
    const std::vector<NodeId> sharded_labels =
        CanonicalizeLabels(variant->run(sharded, config));
    EXPECT_EQ(csr_labels, sharded_labels)
        << "variant=" << param.variant
        << " sampling=" << ToString(param.sampling) << " graph=" << rep.name;
    EXPECT_EQ(ShardedCsrMaterializations(), flattens_before)
        << "a sharded run flattened to CSR: variant=" << param.variant
        << " sampling=" << ToString(param.sampling) << " graph=" << rep.name;
    // The mmap container: every run reads the arrays inside the mapped
    // file, never a copy of them.
    ASSERT_TRUE(rep.mapped.Serves(*mapped.csr())) << "graph=" << rep.name;
    const std::vector<NodeId> mapped_labels =
        CanonicalizeLabels(variant->run(mapped, config));
    EXPECT_EQ(csr_labels, mapped_labels)
        << "variant=" << param.variant
        << " sampling=" << ToString(param.sampling) << " graph=" << rep.name;
  }
}

INSTANTIATE_TEST_SUITE_P(AllVariantsAllSampling, RepresentationParity,
                         ::testing::ValuesIn(AllCases()), CaseName);

// Unsampled edge-centric variants (union-find, Liu-Tarjan, Stergiou) must
// execute natively on COO handles: no CSR materialization anywhere in the
// sweep.
TEST(CooNative, EdgeCentricVariantsNeverMaterializeCsr) {
  const uint64_t before = CooCsrMaterializations();
  for (const Variant& v : AllVariants()) {
    if (v.family != AlgorithmFamily::kUnionFind &&
        v.family != AlgorithmFamily::kLiuTarjan &&
        v.family != AlgorithmFamily::kStergiou) {
      continue;
    }
    for (const RepresentationSet& rep : Basket()) {
      const GraphHandle coo(rep.coo);
      const std::vector<NodeId> labels = v.run(coo, SamplingConfig::None());
      EXPECT_EQ(CanonicalizeLabels(labels),
                CanonicalizeLabels(v.run(GraphHandle(rep.graph), {})))
          << "variant=" << v.name << " graph=" << rep.name;
      if (v.root_based) {
        const SpanningForestResult forest =
            v.run_forest(coo, SamplingConfig::None());
        EXPECT_TRUE(CheckSpanningForest(rep.graph, forest.edges))
            << "variant=" << v.name << " graph=" << rep.name;
      }
    }
  }
  EXPECT_EQ(CooCsrMaterializations(), before)
      << "an unsampled edge-centric variant built a CSR from a COO handle";
}

// Sampling needs adjacency: a sampled run on a COO handle materializes the
// CSR exactly once, and every later run on the same handle (or a copy)
// reuses the cached build.
TEST(CooNative, SampledRunsMaterializeOnceAndCache) {
  const RepresentationSet& rep = Basket().front();
  const Variant* v = FindVariant("Union-Async;FindSplit");
  ASSERT_NE(v, nullptr);
  const GraphHandle coo(rep.coo);
  const GraphHandle copy = coo;  // shares the materialization cache
  const uint64_t before = CooCsrMaterializations();
  v->run(coo, SamplingConfig::KOut());
  EXPECT_EQ(CooCsrMaterializations(), before + 1);
  v->run(coo, SamplingConfig::Bfs());
  v->run(copy, SamplingConfig::Ldd());
  EXPECT_EQ(CooCsrMaterializations(), before + 1)
      << "the handle's CSR cache was rebuilt";
  // An independent handle over the same edges has its own cache.
  const GraphHandle fresh(rep.coo);
  v->run(fresh, SamplingConfig::KOut());
  EXPECT_EQ(CooCsrMaterializations(), before + 2);
}

// Spanning forest through a compressed or COO handle is a valid forest of
// the underlying graph.
TEST(RepresentationParity, ForestOnNonCsrHandles) {
  for (const Variant* v : RootBasedVariants()) {
    if (v->family != AlgorithmFamily::kUnionFind &&
        v->family != AlgorithmFamily::kShiloachVishkin) {
      continue;
    }
    for (const RepresentationSet& rep : Basket()) {
      const SpanningForestResult result =
          v->run_forest(GraphHandle(rep.compressed), {});
      EXPECT_TRUE(CheckSpanningForest(rep.graph, result.edges))
          << "variant=" << v->name << " graph=" << rep.name;
      const SpanningForestResult coo_result =
          v->run_forest(GraphHandle(rep.coo), {});
      EXPECT_TRUE(CheckSpanningForest(rep.graph, coo_result.edges))
          << "variant=" << v->name << " graph=" << rep.name;
      const SpanningForestResult sharded_result =
          v->run_forest(GraphHandle(rep.sharded), {});
      EXPECT_TRUE(CheckSpanningForest(rep.graph, sharded_result.edges))
          << "variant=" << v->name << " graph=" << rep.name;
      const SpanningForestResult mapped_result =
          v->run_forest(GraphHandle(rep.mapped.graph()), {});
      EXPECT_TRUE(CheckSpanningForest(rep.graph, mapped_result.edges))
          << "variant=" << v->name << " graph=" << rep.name;
    }
    break;  // one union-find representative keeps the test fast
  }
  const Variant* sv = FindVariant("Shiloach-Vishkin");
  ASSERT_NE(sv, nullptr);
  for (const RepresentationSet& rep : Basket()) {
    const SpanningForestResult result =
        sv->run_forest(GraphHandle(rep.compressed), SamplingConfig::KOut());
    EXPECT_TRUE(CheckSpanningForest(rep.graph, result.edges))
        << "graph=" << rep.name;
    // Sampled forest on COO goes through the cached CSR materialization.
    const SpanningForestResult coo_result =
        sv->run_forest(GraphHandle(rep.coo), SamplingConfig::KOut());
    EXPECT_TRUE(CheckSpanningForest(rep.graph, coo_result.edges))
        << "graph=" << rep.name;
    // Sampled forest on sharded runs on the shards directly.
    const SpanningForestResult sharded_result =
        sv->run_forest(GraphHandle(rep.sharded), SamplingConfig::KOut());
    EXPECT_TRUE(CheckSpanningForest(rep.graph, sharded_result.edges))
        << "graph=" << rep.name;
  }
}

// Root-based Liu-Tarjan forest natively on COO.
TEST(CooNative, LiuTarjanForestOnCoo) {
  const Variant* lt = FindVariant("Liu-Tarjan;PRF");
  ASSERT_NE(lt, nullptr);
  ASSERT_TRUE(lt->root_based);
  const uint64_t before = CooCsrMaterializations();
  for (const RepresentationSet& rep : Basket()) {
    const SpanningForestResult result =
        lt->run_forest(GraphHandle(rep.coo), SamplingConfig::None());
    EXPECT_TRUE(CheckSpanningForest(rep.graph, result.edges))
        << "graph=" << rep.name;
  }
  EXPECT_EQ(CooCsrMaterializations(), before);
}

// ---- GraphHandle semantics ----

TEST(GraphHandle, DefaultHandleIsEmptyGraph) {
  const GraphHandle handle;
  EXPECT_EQ(handle.num_nodes(), 0u);
  EXPECT_EQ(handle.num_arcs(), 0u);
  EXPECT_EQ(handle.representation(), GraphRepresentation::kCsr);
  const Variant* v = FindVariant("Union-Async;FindSplit");
  ASSERT_NE(v, nullptr);
  EXPECT_TRUE(v->run(handle, {}).empty());
}

TEST(GraphHandle, ViewsDoNotOwn) {
  const Graph graph = GeneratePath(8);
  const GraphHandle handle(graph);
  EXPECT_EQ(handle.csr(), &graph);
  EXPECT_EQ(handle.compressed(), nullptr);
  EXPECT_EQ(handle.coo(), nullptr);
  EXPECT_EQ(handle.num_nodes(), 8u);
}

TEST(GraphHandle, OwningHandlesSurviveCopies) {
  GraphHandle handle;
  {
    GraphHandle original = GraphHandle::Adopt(GenerateCycle(16));
    handle = original;
  }
  EXPECT_EQ(handle.num_nodes(), 16u);
  EXPECT_EQ(handle.num_edges(), 16u);
  const Variant* v = FindVariant("Shiloach-Vishkin");
  const auto labels = CanonicalizeLabels(v->run(handle, {}));
  for (const NodeId label : labels) EXPECT_EQ(label, 0u);
}

TEST(GraphHandle, FromEdgesStaysCoo) {
  EdgeList edges;
  edges.num_nodes = 5;
  edges.edges = {{0, 1}, {1, 2}, {3, 4}};
  const GraphHandle handle = GraphHandle::FromEdges(edges);
  EXPECT_EQ(handle.representation(), GraphRepresentation::kCoo);
  EXPECT_STREQ(handle.representation_name(), "coo");
  EXPECT_EQ(handle.num_nodes(), 5u);
  EXPECT_EQ(handle.num_edges(), 3u);
  EXPECT_EQ(handle.num_arcs(), 6u);
  const Variant* v = &DefaultVariant();
  const auto labels = CanonicalizeLabels(v->run(handle, {}));
  const std::vector<NodeId> want = {0, 0, 0, 3, 3};
  EXPECT_EQ(labels, want);
}

TEST(GraphHandle, OwningCooSurvivesCopiesAndSharesCache) {
  GraphHandle handle;
  {
    EdgeList edges;
    edges.num_nodes = 4;
    edges.edges = {{0, 1}, {2, 3}};
    GraphHandle original = GraphHandle::Adopt(std::move(edges));
    handle = original;
  }
  EXPECT_EQ(handle.representation(), GraphRepresentation::kCoo);
  EXPECT_EQ(handle.num_nodes(), 4u);
  const uint64_t before = CooCsrMaterializations();
  const Graph& csr = handle.MaterializedCsr();
  EXPECT_EQ(csr.num_nodes(), 4u);
  EXPECT_EQ(csr.num_edges(), 2u);
  EXPECT_EQ(&handle.MaterializedCsr(), &csr);  // cached, not rebuilt
  EXPECT_EQ(CooCsrMaterializations(), before + 1);
}

TEST(GraphHandle, CompressOwnsEncoding) {
  const Graph graph = GenerateGrid(6, 6);
  GraphHandle handle;
  {
    const GraphHandle coded = GraphHandle::Compress(graph);
    handle = coded;
  }
  ASSERT_EQ(handle.representation(), GraphRepresentation::kCompressed);
  EXPECT_EQ(handle.num_arcs(), graph.num_arcs());
  EXPECT_STREQ(handle.representation_name(), "compressed");
}

TEST(GraphHandle, RepresentationNameIsExhaustive) {
  EXPECT_STREQ(ToString(GraphRepresentation::kCsr), "csr");
  EXPECT_STREQ(ToString(GraphRepresentation::kCompressed), "compressed");
  EXPECT_STREQ(ToString(GraphRepresentation::kCoo), "coo");
  EXPECT_STREQ(ToString(GraphRepresentation::kSharded), "sharded");
}

// ---- sharded CSR: structure, boundaries, and the native contract ----

// Structural equality against the flat CSR: every accessor of the adjacency
// surface must agree, for any shard count.
void ExpectShardedMatchesFlat(const Graph& graph, size_t num_shards) {
  const ShardedGraph sharded = ShardedGraph::Partition(graph, num_shards);
  ASSERT_EQ(sharded.num_shards(), num_shards);
  EXPECT_EQ(sharded.num_nodes(), graph.num_nodes());
  EXPECT_EQ(sharded.num_arcs(), graph.num_arcs());
  EXPECT_EQ(sharded.num_edges(), graph.num_edges());
  // Shards must tile [0, n) in order with no overlap.
  NodeId covered = 0;
  EdgeId arcs = 0;
  for (size_t s = 0; s < sharded.num_shards(); ++s) {
    EXPECT_EQ(sharded.shard(s).first, covered) << "shard " << s;
    covered += sharded.shard(s).count();
    arcs += sharded.shard(s).arcs();
  }
  EXPECT_EQ(covered, graph.num_nodes());
  EXPECT_EQ(arcs, graph.num_arcs());
  for (NodeId v = 0; v < graph.num_nodes(); ++v) {
    ASSERT_LT(sharded.ShardOf(v), sharded.num_shards()) << "v=" << v;
    ASSERT_EQ(sharded.degree(v), graph.degree(v)) << "v=" << v;
    const auto want = graph.neighbors(v);
    const auto got = sharded.neighbors(v);
    ASSERT_TRUE(std::equal(want.begin(), want.end(), got.begin(), got.end()))
        << "v=" << v;
    for (EdgeId i = 0; i < graph.degree(v); ++i) {
      ASSERT_EQ(sharded.NeighborAt(v, i), graph.NeighborAt(v, i))
          << "v=" << v << " i=" << i;
    }
  }
  // MapArcs must visit exactly the flat CSR's arc multiset.
  std::vector<std::vector<NodeId>> arcs_by_source(graph.num_nodes());
  std::mutex mu;
  sharded.MapArcs([&](NodeId u, NodeId v) {
    std::lock_guard<std::mutex> lock(mu);
    arcs_by_source[u].push_back(v);
  });
  for (NodeId u = 0; u < graph.num_nodes(); ++u) {
    std::sort(arcs_by_source[u].begin(), arcs_by_source[u].end());
    std::vector<NodeId> want(graph.neighbors(u).begin(),
                             graph.neighbors(u).end());
    std::sort(want.begin(), want.end());
    ASSERT_EQ(arcs_by_source[u], want) << "u=" << u;
  }
  // Flatten is the exact inverse of Partition.
  const Graph flat = sharded.Flatten();
  EXPECT_EQ(testing::AsVector(flat.offsets()),
            testing::AsVector(graph.offsets()));
  EXPECT_EQ(testing::AsVector(flat.neighbor_array()),
            testing::AsVector(graph.neighbor_array()));
}

TEST(ShardedGraph, MatchesFlatCsrAcrossShardCounts) {
  const Graph grid = GenerateGrid(9, 7);   // n=63
  const Graph rmat = GenerateRmat(256, 1024, /*seed=*/17);
  for (const Graph* graph : {&grid, &rmat}) {
    const NodeId n = graph->num_nodes();
    // P=1 (one shard is the flat CSR), small counts with ragged boundaries,
    // P=n (one vertex per shard), and P>n (trailing empty shards).
    for (const size_t shards :
         {size_t{1}, size_t{2}, size_t{3}, size_t{7}, static_cast<size_t>(n),
          static_cast<size_t>(n) + 5}) {
      SCOPED_TRACE(::testing::Message() << "n=" << n << " P=" << shards);
      ExpectShardedMatchesFlat(*graph, shards);
    }
  }
}

TEST(ShardedGraph, EmptyAndDegenerateGraphs) {
  // Empty graph, any shard count: all shards empty, nothing to visit.
  const Graph empty = BuildGraph(0, {});
  for (const size_t shards : {size_t{1}, size_t{4}}) {
    const ShardedGraph sharded = ShardedGraph::Partition(empty, shards);
    EXPECT_EQ(sharded.num_shards(), shards);
    EXPECT_EQ(sharded.num_nodes(), 0u);
    EXPECT_EQ(sharded.num_arcs(), 0u);
    bool visited = false;
    sharded.MapArcs([&](NodeId, NodeId) { visited = true; });
    EXPECT_FALSE(visited);
  }
  // P = 0 selects the worker-count default; still a valid partition.
  const Graph path = GeneratePath(10);
  const ShardedGraph defaulted = ShardedGraph::Partition(path, 0);
  EXPECT_GE(defaulted.num_shards(), 1u);
  EXPECT_EQ(defaulted.num_nodes(), 10u);
  EXPECT_EQ(testing::AsVector(defaulted.Flatten().offsets()),
            testing::AsVector(path.offsets()));
}

TEST(ShardedGraph, IsolatedVerticesAtShardBoundaries) {
  // n=12, P=4 => chunk 3, boundaries at 3, 6, 9. Vertices 2,3 (straddling
  // the first boundary), 6 (opening a shard), and 11 (closing the last) are
  // isolated; edges connect the rest across shard lines.
  const Graph graph = BuildGraph(
      12, {{0, 1}, {1, 4}, {4, 5}, {5, 7}, {7, 8}, {8, 9}, {9, 10}, {0, 10}});
  ExpectShardedMatchesFlat(graph, 4);
  const ShardedGraph sharded = ShardedGraph::Partition(graph, 4);
  for (const NodeId isolated : {2u, 3u, 6u, 11u}) {
    EXPECT_EQ(sharded.degree(isolated), 0u) << "v=" << isolated;
  }
  // Boundary vertices land in the right shard.
  EXPECT_EQ(sharded.ShardOf(2), 0u);
  EXPECT_EQ(sharded.ShardOf(3), 1u);
  EXPECT_EQ(sharded.ShardOf(6), 2u);
  EXPECT_EQ(sharded.ShardOf(11), 3u);
  // Connectivity through a sharded handle treats the isolated vertices as
  // their own components, exactly like the flat CSR.
  const Variant* v = &DefaultVariant();
  EXPECT_EQ(CanonicalizeLabels(v->run(GraphHandle(sharded), {})),
            CanonicalizeLabels(v->run(GraphHandle(graph), {})));
}

// The sharded-native contract, stated as its own test (the parity sweep
// pins it per case): one representative per family, under every sampling
// scheme, runs on the shards with zero flat-CSR materializations.
TEST(ShardedNative, AllFamiliesAllSamplingNeverFlatten) {
  const uint64_t before = ShardedCsrMaterializations();
  for (const char* name :
       {"Union-Rem-CAS;FindNaive;SplitAtomicOne", "Union-Async;FindSplit",
        "Liu-Tarjan;PRF", "Stergiou", "Shiloach-Vishkin",
        "Label-Propagation"}) {
    const Variant* v = FindVariant(name);
    ASSERT_NE(v, nullptr) << name;
    for (const SamplingOption s :
         {SamplingOption::kNone, SamplingOption::kKOut, SamplingOption::kBfs,
          SamplingOption::kLdd}) {
      SamplingConfig config;
      config.option = s;
      for (const RepresentationSet& rep : Basket()) {
        const GraphHandle sharded(rep.sharded);
        EXPECT_EQ(CanonicalizeLabels(v->run(sharded, config)),
                  CanonicalizeLabels(v->run(GraphHandle(rep.graph), config)))
            << "variant=" << name << " sampling=" << ToString(s)
            << " graph=" << rep.name;
      }
    }
  }
  EXPECT_EQ(ShardedCsrMaterializations(), before)
      << "a sharded registry run flattened the shards into a CSR";
}

// The flat-CSR escape hatch: only an explicit MaterializedCsr() call
// flattens, it flattens once, and copies of the handle share the build.
TEST(ShardedNative, ExplicitMaterializationFlattensOnceAndCaches) {
  const Graph graph = GenerateGrid(8, 8);
  const GraphHandle handle = GraphHandle::Shard(graph, 4);
  const GraphHandle copy = handle;  // shares the flatten cache
  const uint64_t before = ShardedCsrMaterializations();
  const Graph& flat = handle.MaterializedCsr();
  EXPECT_EQ(ShardedCsrMaterializations(), before + 1);
  EXPECT_EQ(testing::AsVector(flat.offsets()),
            testing::AsVector(graph.offsets()));
  EXPECT_EQ(testing::AsVector(flat.neighbor_array()),
            testing::AsVector(graph.neighbor_array()));
  EXPECT_EQ(&copy.MaterializedCsr(), &flat) << "the flatten was rebuilt";
  EXPECT_EQ(ShardedCsrMaterializations(), before + 1);
  // An independent handle over the same graph has its own cache.
  const GraphHandle fresh = GraphHandle::Shard(graph, 4);
  fresh.MaterializedCsr();
  EXPECT_EQ(ShardedCsrMaterializations(), before + 2);
}

TEST(GraphHandle, ShardOwnsPartition) {
  GraphHandle handle;
  {
    const Graph graph = GenerateCycle(20);
    GraphHandle original = GraphHandle::Shard(graph, 5);
    handle = original;
    // `graph` dies here; the handle's shards own a copy of the adjacency.
  }
  ASSERT_EQ(handle.representation(), GraphRepresentation::kSharded);
  EXPECT_STREQ(handle.representation_name(), "sharded");
  EXPECT_EQ(handle.num_nodes(), 20u);
  EXPECT_EQ(handle.num_edges(), 20u);
  EXPECT_EQ(handle.sharded()->num_shards(), 5u);
  const Variant* v = FindVariant("Union-Async;FindSplit");
  ASSERT_NE(v, nullptr);
  const auto labels = CanonicalizeLabels(v->run(handle, {}));
  for (const NodeId label : labels) EXPECT_EQ(label, 0u);
}

TEST(GraphHandle, ShardedViewDoesNotOwn) {
  const Graph graph = GeneratePath(8);
  const ShardedGraph sharded = ShardedGraph::Partition(graph, 2);
  const GraphHandle handle(sharded);
  EXPECT_EQ(handle.sharded(), &sharded);
  EXPECT_EQ(handle.csr(), nullptr);
  EXPECT_EQ(handle.coo(), nullptr);
  EXPECT_EQ(handle.num_nodes(), 8u);
}

// The bench plumbing contract: bench::MakeBenchHandle honors
// CONNECTIT_BENCH_REPR (and CONNECTIT_BENCH_SHARDS), and whatever handle it
// builds must reproduce the CSR labeling. CI runs this suite with
// CONNECTIT_BENCH_REPR=sharded so the sharded bench path is exercised on
// every push; unset, it checks the default CSR path.
TEST(BenchReprContract, BenchHandleMatchesCsr) {
  const Variant* v = &DefaultVariant();
  for (const RepresentationSet& rep : Basket()) {
    const GraphHandle handle = bench::MakeBenchHandle(rep.graph);
    EXPECT_EQ(handle.representation(), bench::BenchRepr());
    for (const SamplingOption s :
         {SamplingOption::kNone, SamplingOption::kKOut}) {
      SamplingConfig config;
      config.option = s;
      EXPECT_EQ(CanonicalizeLabels(v->run(handle, config)),
                CanonicalizeLabels(v->run(GraphHandle(rep.graph), config)))
          << "repr=" << ToString(bench::BenchRepr())
          << " sampling=" << ToString(s) << " graph=" << rep.name;
    }
  }
}

}  // namespace
}  // namespace connectit
