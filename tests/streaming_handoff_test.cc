// Seeded-streaming parity: the static-to-streaming handoff invariant
// (ISSUE 3 / ROADMAP "streaming over compressed inputs"). A static pass
// over G0 whose labeling seeds the variant's streaming structure, followed
// by streamed insertion batches, must land on the same partition as a
// static run over G0 plus the batches — for every supports_streaming
// variant, on every graph representation. COO seeds of edge-centric
// variants must stay COO-native: zero CSR materializations. Sharded seeds
// are native for *every* variant: zero flat-CSR flattens. Mapped seeds (a
// CSR served from an mmap'd .cgc container) are pinned by address: the
// graph the static pass reads lies inside the mapped file.

#include <cctype>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/algo/verify.h"
#include "src/core/registry.h"
#include "src/core/streaming.h"
#include "src/graph/builder.h"
#include "src/graph/container.h"
#include "src/graph/generators.h"

namespace connectit {
namespace {

constexpr NodeId kNodes = 256;
constexpr size_t kBaseEdges = 600;
constexpr size_t kBatchSize = 80;
constexpr size_t kNumBatches = 3;

// The full stream: a sparse base graph G0 plus kNumBatches held-out batches
// drawn from a differently-shaped generator so the batches genuinely merge
// components.
EdgeList FullStream() {
  EdgeList all = GenerateErdosRenyiEdges(kNodes, kBaseEdges, /*seed=*/11);
  const EdgeList extra =
      GenerateRmatEdges(kNodes, kBatchSize * kNumBatches, /*seed=*/12);
  all.edges.insert(all.edges.end(), extra.edges.begin(), extra.edges.end());
  return all;
}

EdgeList BasePrefix(const EdgeList& all) {
  EdgeList base;
  base.num_nodes = all.num_nodes;
  base.edges.assign(all.edges.begin(),
                    all.edges.end() - kBatchSize * kNumBatches);
  return base;
}

// The seed's storage: the four representations, plus the CSR served from a
// mapped container.
enum class Seed { kCsr, kCompressed, kCoo, kSharded, kContainer };

const char* ToString(Seed seed) {
  switch (seed) {
    case Seed::kCsr: return "csr";
    case Seed::kCompressed: return "compressed";
    case Seed::kCoo: return "coo";
    case Seed::kSharded: return "sharded";
    case Seed::kContainer: return "mapped";
  }
  return "?";
}

struct HandoffCase {
  std::string variant;
  Seed repr;
};

std::vector<HandoffCase> AllHandoffCases() {
  std::vector<HandoffCase> cases;
  for (const Variant* v : StreamingVariants()) {
    for (const Seed repr : {Seed::kCsr, Seed::kCompressed, Seed::kCoo,
                            Seed::kSharded, Seed::kContainer}) {
      cases.push_back({v->name, repr});
    }
  }
  return cases;
}

std::string CaseName(const ::testing::TestParamInfo<HandoffCase>& info) {
  std::string name = info.param.variant + "_" + ToString(info.param.repr);
  for (char& c : name) {
    if (!isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  return name;
}

class SeededHandoff : public ::testing::TestWithParam<HandoffCase> {};

TEST_P(SeededHandoff, StaticPassPlusBatchesEqualsFullStatic) {
  const Variant* variant = FindVariant(GetParam().variant);
  ASSERT_NE(variant, nullptr);
  const EdgeList all = FullStream();
  const EdgeList base = BasePrefix(all);

  // The seed handle wraps the base graph in this case's representation; the
  // CSR storage must outlive the handle views.
  Graph base_csr;
  MappedContainer container;
  GraphHandle handle;
  switch (GetParam().repr) {
    case Seed::kCsr:
      base_csr = BuildGraph(base);
      handle = GraphHandle(base_csr);
      break;
    case Seed::kCompressed:
      base_csr = BuildGraph(base);
      handle = GraphHandle::Compress(base_csr);
      break;
    case Seed::kCoo:
      handle = GraphHandle(base);
      break;
    case Seed::kSharded:
      // A fixed P > 1 exercises shard boundaries even on 1-core runners.
      handle = GraphHandle::Shard(BuildGraph(base), /*num_shards=*/4);
      break;
    case Seed::kContainer: {
      // Round-trip the base through an unlinked .cgc: the seed's static
      // pass runs straight off the mapping.
      const std::string path = ::testing::TempDir() + "/handoff_seed.cgc";
      std::string error;
      ASSERT_TRUE(WriteContainer(path, BuildGraph(base), &error)) << error;
      ASSERT_TRUE(MappedContainer::Map(path, &container, &error)) << error;
      std::remove(path.c_str());
      handle = GraphHandle(container.graph());
      // Every family seeds off the mapping: zero-copy end to end.
      ASSERT_TRUE(container.Serves(*handle.csr()))
          << "mapped seed is not served from the mapping";
      break;
    }
  }

  const uint64_t builds_before = CooCsrMaterializations();
  const uint64_t flattens_before = ShardedCsrMaterializations();
  auto alg =
      variant->make_streaming(StreamingSeed::FromStatic(handle));
  ASSERT_NE(alg, nullptr);
  if (GetParam().repr == Seed::kCoo &&
      variant->family != AlgorithmFamily::kShiloachVishkin) {
    // Edge-centric families (union-find, Liu-Tarjan) seed COO-natively.
    EXPECT_EQ(CooCsrMaterializations(), builds_before)
        << "COO seed materialized a CSR";
  }
  if (GetParam().repr == Seed::kSharded) {
    // Every family seeds sharded-natively: the static pass traverses the
    // shards, never a flattened CSR.
    EXPECT_EQ(ShardedCsrMaterializations(), flattens_before)
        << "sharded seed flattened to a CSR";
  }

  // The seed alone must already match static connectivity on the base.
  EXPECT_TRUE(SamePartition(alg->Labels(), SequentialComponents(base)));

  EdgeList applied = base;
  for (size_t b = 0; b < kNumBatches; ++b) {
    const size_t start = base.size() + b * kBatchSize;
    const std::vector<Edge> batch(all.edges.begin() + start,
                                  all.edges.begin() + start + kBatchSize);
    alg->ProcessBatch(batch, {});
    applied.edges.insert(applied.edges.end(), batch.begin(), batch.end());
    EXPECT_TRUE(SamePartition(alg->Labels(), SequentialComponents(applied)))
        << "after batch " << b;
  }
  // Canonical labeling identical to a full static run over G0 ∪ batches
  // (the CLI --stream mode's acceptance invariant).
  EXPECT_EQ(CanonicalizeLabels(alg->Labels()),
            CanonicalizeLabels(variant->run(
                GraphHandle(all), SamplingConfig::None())));
}

INSTANTIATE_TEST_SUITE_P(AllVariantsAllReprs, SeededHandoff,
                         ::testing::ValuesIn(AllHandoffCases()), CaseName);

// Sampled seeds go through the same factory: the static pass may use any
// sampling scheme (on COO it transparently materializes the cached CSR).
TEST(SeededHandoffExtras, SampledSeedMatches) {
  const EdgeList all = FullStream();
  const EdgeList base = BasePrefix(all);
  const Graph base_csr = BuildGraph(base);
  for (const char* name :
       {"Union-Rem-CAS;FindNaive;SplitAtomicOne", "Shiloach-Vishkin"}) {
    const Variant* v = FindVariant(name);
    ASSERT_NE(v, nullptr) << name;
    auto alg = v->make_streaming(
        StreamingSeed::FromStatic(GraphHandle(base_csr),
                                  SamplingConfig::KOut()));
    EXPECT_TRUE(SamePartition(alg->Labels(), SequentialComponents(base)))
        << name;
    alg->ProcessBatch(
        std::vector<Edge>(all.edges.end() - kBatchSize * kNumBatches,
                          all.edges.end()),
        {});
    EXPECT_TRUE(SamePartition(alg->Labels(), SequentialComponents(all)))
        << name;
  }
}

// A warm structure answers queries from the seeded state before any update
// batch arrives.
TEST(SeededHandoffExtras, SeededQueriesReflectBaseGraph) {
  EdgeList base;
  base.num_nodes = 10;
  base.edges = {{0, 1}, {1, 2}, {5, 6}};
  const Variant* v = FindVariant("Union-Async;FindHalve");
  ASSERT_NE(v, nullptr);
  auto alg = v->make_streaming(StreamingSeed::FromStatic(GraphHandle(base)));
  const auto r = alg->ProcessBatch({}, {{0, 2}, {5, 6}, {0, 5}});
  ASSERT_EQ(r.size(), 3u);
  EXPECT_EQ(r[0], 1);
  EXPECT_EQ(r[1], 1);
  EXPECT_EQ(r[2], 0);
}

// Cold seeds are the identity-seeded special case.
TEST(SeededHandoffExtras, ColdSeedStartsFromIdentity) {
  const Variant* v = &DefaultVariant();
  auto alg = v->make_streaming(StreamingSeed::Cold(8));
  const auto labels = alg->Labels();
  for (NodeId u = 0; u < 8; ++u) EXPECT_EQ(labels[u], u);
}

// AdoptSeedLabels contract: arbitrary rooted forests are normalized to the
// min-rooted depth-<=1 form; malformed arrays are rejected.
TEST(SeededHandoffExtras, AdoptSeedLabelsNormalizesAndValidates) {
  // A depth-3 chain rooted at the *largest* id: 0 -> 1 -> 2 -> 3, plus an
  // isolated vertex. Normalization must re-root {0,1,2,3} at 0.
  const std::vector<NodeId> normalized =
      AdoptSeedLabels({1, 2, 3, 3, 4});
  EXPECT_EQ(normalized, (std::vector<NodeId>{0, 0, 0, 0, 4}));

  EXPECT_THROW(AdoptSeedLabels({0, 5, 1}), std::invalid_argument);  // range
  EXPECT_THROW(AdoptSeedLabels({1, 0}), std::invalid_argument);     // cycle
  EXPECT_THROW(AdoptSeedLabels({0, 2, 3, 1}), std::invalid_argument);
  EXPECT_TRUE(AdoptSeedLabels({}).empty());

  // Rem's unite requires parent[v] <= v; a seeded structure built from a
  // max-rooted forest must still process updates correctly.
  UnionFindStreaming<UniteOption::kRemCas, FindOption::kNaive,
                     SpliceOption::kSplitOne>
      rem(std::vector<NodeId>{3, 3, 3, 3, 4, 5});
  const auto r = rem.ProcessBatch({{4, 5}}, {{0, 3}, {4, 5}, {0, 4}});
  EXPECT_EQ(r[0], 1);
  EXPECT_EQ(r[1], 1);
  EXPECT_EQ(r[2], 0);
}

}  // namespace
}  // namespace connectit
