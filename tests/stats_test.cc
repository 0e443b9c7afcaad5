// Tests for the instrumentation counters (paper §4.1.1 analysis substrate).

#include <gtest/gtest.h>

#include "src/core/connectivity_index.h"
#include "src/core/registry.h"
#include "src/unionfind/find.h"
#include "src/graph/generators.h"
#include "src/stats/counters.h"

namespace connectit {
namespace {

TEST(Counters, DisabledByDefaultAndRecordNothing) {
  stats::SetEnabled(false);
  stats::Reset();
  stats::RecordPath(10);
  stats::RecordParentReads(5);
  stats::RecordRound();
  const stats::Snapshot s = stats::Read();
  EXPECT_EQ(s.total_path_length, 0u);
  EXPECT_EQ(s.parent_reads, 0u);
  EXPECT_EQ(s.rounds, 0u);
}

TEST(Counters, RecordWhenEnabled) {
  stats::ScopedEnable scope;
  stats::RecordPath(10);
  stats::RecordPath(3);
  stats::RecordParentReads(5);
  stats::RecordParentWrites(2);
  stats::RecordRound();
  const stats::Snapshot s = stats::Read();
  EXPECT_EQ(s.total_path_length, 13u);
  EXPECT_EQ(s.max_path_length, 10u);
  EXPECT_EQ(s.parent_reads, 5u);
  EXPECT_EQ(s.parent_writes, 2u);
  EXPECT_EQ(s.rounds, 1u);
}

TEST(Counters, ScopedEnableRestoresState) {
  stats::SetEnabled(false);
  {
    stats::ScopedEnable scope;
    EXPECT_TRUE(stats::Enabled());
  }
  EXPECT_FALSE(stats::Enabled());
}

TEST(Counters, UnionFindRunsPopulateTplAndMpl) {
  const Graph g = GenerateRmat(2048, 16384, 3);
  const Variant* v = FindVariant("Union-Async;FindNaive");
  ASSERT_NE(v, nullptr);
  stats::ScopedEnable scope;
  v->run(g, {});
  const stats::Snapshot s = stats::Read();
  EXPECT_GT(s.total_path_length, 0u);
  EXPECT_GT(s.max_path_length, 0u);
  EXPECT_GE(s.total_path_length, s.max_path_length);
}

TEST(Counters, CompressionReducesTotalPathLength) {
  // Repeated finds on a deep chain: FindCompress flattens the chain so
  // subsequent finds are O(1); FindNaive pays the full depth every time
  // (the mechanism behind the paper's TPL analysis, Fig. 7).
  constexpr NodeId kDepth = 4096;
  auto make_chain = [] {
    std::vector<NodeId> p(kDepth);
    for (NodeId v = 0; v < kDepth; ++v) p[v] = (v == 0) ? 0 : v - 1;
    return p;
  };
  uint64_t tpl_naive = 0;
  uint64_t tpl_compress = 0;
  {
    std::vector<NodeId> p = make_chain();
    stats::ScopedEnable scope;
    for (int i = 0; i < 8; ++i) FindNaive(kDepth - 1, p.data());
    tpl_naive = stats::Read().total_path_length;
  }
  {
    std::vector<NodeId> p = make_chain();
    stats::ScopedEnable scope;
    for (int i = 0; i < 8; ++i) FindCompress(kDepth - 1, p.data());
    tpl_compress = stats::Read().total_path_length;
  }
  EXPECT_LT(tpl_compress, tpl_naive / 2);
}

TEST(Counters, RoundBasedAlgorithmsCountRounds) {
  const Graph g = GeneratePath(256);
  const Variant* lt = FindVariant("Liu-Tarjan;PRF");
  ASSERT_NE(lt, nullptr);
  stats::ScopedEnable scope;
  lt->run(g, {});
  EXPECT_GT(stats::Read().rounds, 1u);
}

// Insert publications extend the overlay until it passes n /
// kOverlayShare entries; the next one compacts. Each batch {2i, 2i + 1}
// absorbs one root and grows another: two entries per batch.
TEST(ServingCounters, OverlayPublicationsCompactionsAndHighWaterMark) {
  constexpr NodeId kN = 1024;
  constexpr uint64_t kLimit = kN / Connectivity::kOverlayShare;
  stats::ResetServing();
  Connectivity index;
  index.Stream(kN);
  uint64_t batches = 0;
  auto insert_pair = [&] {
    const NodeId u = static_cast<NodeId>(2 * batches++);
    index.Insert({{u, u + 1}});
  };
  // Batch b publishes over an overlay of 2(b - 1) entries.
  while (2 * batches <= kLimit) insert_pair();
  stats::ServingSnapshot s = stats::ReadServing();
  EXPECT_EQ(s.overlay_publications, batches);
  EXPECT_EQ(s.compactions, 0u);
  EXPECT_EQ(s.overlay_entries_hwm, 2 * batches);
  EXPECT_EQ(s.publication_skips, 0u);
  const uint64_t hwm = s.overlay_entries_hwm;
  insert_pair();  // the overlay has passed the limit: this one compacts
  s = stats::ReadServing();
  EXPECT_EQ(s.overlay_publications, batches - 1);
  EXPECT_EQ(s.compactions, 1u);
  insert_pair();  // a fresh overlay: two entries, the gauge stays
  s = stats::ReadServing();
  EXPECT_EQ(s.overlay_publications, batches - 1);
  EXPECT_EQ(s.compactions, 1u);
  EXPECT_EQ(s.overlay_entries_hwm, hwm);
  // Constructor, Stream and one publication per batch.
  EXPECT_EQ(s.snapshot_publications, 2 + batches);
  const Snapshot snap = index.Acquire();
  EXPECT_EQ(snap.NumComponents(), kN - batches);
  EXPECT_EQ(snap.ComponentSize(0), 2u);
  EXPECT_EQ(snap.ComponentSize(1), 0u);
  EXPECT_EQ(snap.Component(2 * batches - 1), 2 * batches - 2);
}

}  // namespace
}  // namespace connectit
