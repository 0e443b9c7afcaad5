// The central correctness sweep: every registered algorithm variant, under
// every sampling scheme, on every basket graph, must produce the same
// vertex partition as the sequential ground truth (paper Theorems 1-4).

#include <cctype>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "src/algo/verify.h"
#include "src/core/registry.h"
#include "tests/test_graphs.h"

namespace connectit {
namespace {

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

class VariantSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(VariantSweep, MatchesGroundTruthOnBasket) {
  const SweepCase& param = GetParam();
  const Variant* variant = FindVariant(param.variant);
  ASSERT_NE(variant, nullptr);
  SamplingConfig config;
  config.option = param.sampling;
  for (const auto& [name, graph] : testing::CorrectnessBasket()) {
    const std::vector<NodeId> labels = variant->run(graph, config);
    ASSERT_EQ(labels.size(), graph.num_nodes()) << name;
    const std::vector<NodeId> truth = SequentialComponents(graph);
    EXPECT_TRUE(SamePartition(labels, truth))
        << "variant=" << param.variant
        << " sampling=" << ToString(param.sampling) << " graph=" << name;
  }
}

INSTANTIATE_TEST_SUITE_P(AllVariantsAllSampling, VariantSweep,
                         ::testing::ValuesIn(AllCases()), CaseName);

// The registry itself.
TEST(Registry, HasExpectedVariantCounts) {
  size_t uf = 0;
  size_t lt = 0;
  for (const Variant& v : AllVariants()) {
    if (v.family == AlgorithmFamily::kUnionFind) ++uf;
    if (v.family == AlgorithmFamily::kLiuTarjan) ++lt;
  }
  // 12 non-Rem x find + 2 JTB + 2*11 Rem = 36 union-find variants; the
  // 4 sampling modes they compose with give the paper's 144 combinations.
  EXPECT_EQ(uf, 36u);
  EXPECT_EQ(lt, 16u);  // Appendix D list
  // + Shiloach-Vishkin, Stergiou, Label-Propagation.
  EXPECT_EQ(AllVariants().size(), 55u);
}

TEST(Registry, NamesAreUniqueAndFindable) {
  std::set<std::string> names;
  for (const Variant& v : AllVariants()) {
    EXPECT_TRUE(names.insert(v.name).second) << "duplicate " << v.name;
    EXPECT_EQ(FindVariant(v.name), &v);
  }
  EXPECT_EQ(FindVariant("no-such-variant"), nullptr);
}

TEST(Registry, RootBasedVariantsProvideForestAndStreaming) {
  for (const Variant& v : AllVariants()) {
    if (v.root_based) {
      EXPECT_TRUE(static_cast<bool>(v.run_forest)) << v.name;
    } else {
      EXPECT_FALSE(static_cast<bool>(v.run_forest)) << v.name;
      EXPECT_FALSE(static_cast<bool>(v.make_streaming)) << v.name;
    }
    if (v.supports_streaming) {
      EXPECT_TRUE(static_cast<bool>(v.make_streaming)) << v.name;
    }
  }
  // All union-find variants stream; only RootUp Liu-Tarjan variants do.
  for (const Variant* v : VariantsOfFamily(AlgorithmFamily::kUnionFind)) {
    EXPECT_TRUE(v->supports_streaming) << v->name;
  }
  size_t lt_streaming = 0;
  for (const Variant* v : VariantsOfFamily(AlgorithmFamily::kLiuTarjan)) {
    lt_streaming += v->supports_streaming;
  }
  EXPECT_EQ(lt_streaming, 6u);  // CRSA PRSA PRS CRFA PRFA PRF
}

TEST(Registry, PaperRowsCoverEveryRowName) {
  const auto rows = PaperAlgorithmRows();
  ASSERT_EQ(rows.size(), 10u);
  for (const AlgorithmRow& row : rows) {
    EXPECT_FALSE(row.variants.empty()) << row.name;
    for (const Variant* v : row.variants) {
      if (row.name == "Liu-Tarjan") {
        EXPECT_EQ(v->family, AlgorithmFamily::kLiuTarjan);
      } else {
        EXPECT_EQ(v->name.rfind(row.name, 0), 0u)
            << v->name << " in row " << row.name;
      }
    }
  }
}

}  // namespace
}  // namespace connectit
