// Tests for the byte-compressed CSR format and graph I/O.

#include <atomic>
#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "src/graph/compressed.h"
#include "src/graph/generators.h"
#include "src/graph/io.h"
#include "src/parallel/random.h"
#include "tests/test_graphs.h"

namespace connectit {
namespace {

TEST(Compressed, RoundTripsEveryBasketGraph) {
  for (const auto& [name, g] : testing::CorrectnessBasket()) {
    const CompressedGraph cg = CompressedGraph::Encode(g);
    EXPECT_EQ(cg.num_nodes(), g.num_nodes()) << name;
    EXPECT_EQ(cg.num_arcs(), g.num_arcs()) << name;
    const Graph decoded = cg.Decode();
    EXPECT_EQ(testing::AsVector(decoded.offsets()),
              testing::AsVector(g.offsets())) << name;
    EXPECT_EQ(testing::AsVector(decoded.neighbor_array()),
              testing::AsVector(g.neighbor_array())) << name;
  }
}

TEST(Compressed, MapArcsMatchesUncompressed) {
  const Graph g = GenerateRmat(2048, 16384, 5);
  const CompressedGraph cg = CompressedGraph::Encode(g);
  std::atomic<uint64_t> plain{0};
  std::atomic<uint64_t> packed{0};
  g.MapArcs([&](NodeId u, NodeId v) {
    plain.fetch_add(Hash64(u * 1000003ull + v), std::memory_order_relaxed);
  });
  cg.MapArcs([&](NodeId u, NodeId v) {
    packed.fetch_add(Hash64(u * 1000003ull + v), std::memory_order_relaxed);
  });
  EXPECT_EQ(plain.load(), packed.load());
}

TEST(Compressed, CompressesLocalNeighborhoods) {
  // A grid has near-diagonal neighbors: byte codes should beat the 4-byte
  // raw representation comfortably.
  const Graph g = GenerateGrid(128, 128);
  const CompressedGraph cg = CompressedGraph::Encode(g);
  const size_t raw_bytes = g.num_arcs() * sizeof(NodeId);
  EXPECT_LT(cg.byte_size(), raw_bytes / 2);
}

TEST(Compressed, HandlesHighDegreeBlocks) {
  const Graph g = GenerateStar(1000);  // hub degree 999 spans many blocks
  const CompressedGraph cg = CompressedGraph::Encode(g);
  EXPECT_EQ(cg.degree(0), 999u);
  size_t count = 0;
  NodeId expect = 1;
  cg.MapNeighbors(0, [&](NodeId v) {
    EXPECT_EQ(v, expect++);
    ++count;
  });
  EXPECT_EQ(count, 999u);
}

TEST(Io, ParsesSnapStyleText) {
  const std::string text =
      "# a comment\n"
      "% another\n"
      "0 1\n"
      "1 2\n"
      "\n"
      "4 2\n";
  const EdgeList list = ParseEdgeListText(text);
  EXPECT_EQ(list.num_nodes, 5u);
  ASSERT_EQ(list.size(), 3u);
  EXPECT_EQ(list.edges[2], (Edge{4, 2}));
}

TEST(Io, CompactIdsRemapDensely) {
  const EdgeList list = ParseEdgeListText("100 200\n200 300\n", true);
  EXPECT_EQ(list.num_nodes, 3u);
  EXPECT_EQ(list.edges[0], (Edge{0, 1}));
  EXPECT_EQ(list.edges[1], (Edge{1, 2}));
}

TEST(Io, TextFileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/connectit_edges.txt";
  EdgeList list;
  list.num_nodes = 6;
  list.edges = {{0, 1}, {2, 5}, {3, 4}};
  ASSERT_TRUE(WriteEdgeListFile(path, list));
  EdgeList loaded;
  ASSERT_TRUE(ReadEdgeListFile(path, &loaded));
  EXPECT_EQ(loaded.num_nodes, 6u);
  EXPECT_EQ(loaded.edges, list.edges);
  std::remove(path.c_str());
}

TEST(Io, BinaryRoundTrip) {
  const std::string path = ::testing::TempDir() + "/connectit_graph.bin";
  const Graph g = GenerateRmat(512, 4096, 9);
  ASSERT_TRUE(WriteGraphBinary(path, g));
  Graph loaded;
  ASSERT_TRUE(ReadGraphBinary(path, &loaded));
  EXPECT_EQ(testing::AsVector(loaded.offsets()),
            testing::AsVector(g.offsets()));
  EXPECT_EQ(testing::AsVector(loaded.neighbor_array()),
            testing::AsVector(g.neighbor_array()));
  std::remove(path.c_str());
}

TEST(Io, RejectsBadMagic) {
  const std::string path = ::testing::TempDir() + "/connectit_bad.bin";
  FILE* f = fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  fputs("not a graph", f);
  fclose(f);
  Graph loaded;
  EXPECT_FALSE(ReadGraphBinary(path, &loaded));
  std::remove(path.c_str());
}

TEST(Io, MissingFileFails) {
  EdgeList list;
  EXPECT_FALSE(ReadEdgeListFile("/nonexistent/path/file.txt", &list));
  Graph g;
  EXPECT_FALSE(ReadGraphBinary("/nonexistent/path/file.bin", &g));
}

}  // namespace
}  // namespace connectit
