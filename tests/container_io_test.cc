// Container round-trip properties: every graph in the correctness basket —
// empty, single-vertex, isolated vertices, self-loop inputs, ragged degrees,
// random graphs — written to a .cgc and mapped back must be bit-for-bit
// identical to the in-memory CSR, whether the container was written from a
// flat Graph, a ShardedGraph partition, or streamed shard-at-a-time through
// ContainerWriter (the out-of-core converter path). Connectivity labels
// computed on the mapping must equal the CSR labels while the graph the
// runs read provably lies inside the mapped file (MappedContainer::Serves),
// a Graph copied out of a mapped handle must outlive the handle and the
// reader, and the legacy v0 flat dump (tests/testdata/v0_graph.bin,
// committed) must stay loadable through ReadGraphBinary.

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/algo/verify.h"
#include "src/core/registry.h"
#include "src/graph/builder.h"
#include "src/graph/compressed.h"
#include "src/graph/container.h"
#include "src/graph/generators.h"
#include "src/graph/graph_handle.h"
#include "src/graph/io.h"
#include "src/graph/sharded.h"
#include "tests/test_graphs.h"

namespace connectit {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

// Writes `graph` to a container and maps it back as a CSR handle. The file
// is unlinked once mapped, so its bytes live exactly as long as the mapping.
// On failure it records a test failure and returns the empty handle.
GraphHandle MapThroughTempContainer(const Graph& graph,
                                    const std::string& name) {
  const std::string path = TempPath(name);
  std::string error;
  GraphHandle handle;
  if (WriteContainer(path, graph, &error)) {
    handle = GraphHandle::Map(path, &error);
  }
  EXPECT_TRUE(error.empty()) << error;
  std::remove(path.c_str());
  return handle;
}

// tests/testdata/, resolved relative to this source file so the fixture is
// found regardless of the ctest working directory.
std::string TestDataPath(const std::string& name) {
  std::string dir = __FILE__;
  dir.resize(dir.rfind('/'));
  return dir + "/testdata/" + name;
}

std::vector<char> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void ExpectMappedMatchesGraph(const MappedContainer& container,
                              const Graph& graph, const std::string& context) {
  ASSERT_GT(container.file_bytes(), 0u) << context;
  const Graph& mapped = container.graph();
  // Zero-copy: both arrays lie inside the mapped file's bytes.
  EXPECT_TRUE(mapped.mapped()) << context;
  EXPECT_TRUE(container.Serves(mapped)) << context;
  EXPECT_EQ(mapped.num_nodes(), graph.num_nodes()) << context;
  EXPECT_EQ(mapped.num_arcs(), graph.num_arcs()) << context;
  EXPECT_EQ(mapped.num_edges(), graph.num_edges()) << context;
  // Bit-for-bit: the mapped spans must equal the in-memory arrays exactly.
  const auto want_offsets = graph.offsets();
  const auto got_offsets = mapped.offsets();
  ASSERT_EQ(got_offsets.size(), want_offsets.size()) << context;
  EXPECT_TRUE(std::equal(want_offsets.begin(), want_offsets.end(),
                         got_offsets.begin()))
      << context;
  const auto want_neighbors = graph.neighbor_array();
  const auto got_neighbors = mapped.neighbor_array();
  ASSERT_EQ(got_neighbors.size(), want_neighbors.size()) << context;
  EXPECT_TRUE(std::equal(want_neighbors.begin(), want_neighbors.end(),
                         got_neighbors.begin()))
      << context;
  for (NodeId v = 0; v < graph.num_nodes(); ++v) {
    ASSERT_EQ(mapped.degree(v), graph.degree(v)) << context << " v=" << v;
    const auto want = graph.neighbors(v);
    const auto got = mapped.neighbors(v);
    ASSERT_TRUE(std::equal(want.begin(), want.end(), got.begin(), got.end()))
        << context << " v=" << v;
  }
}

// ---- round trip: flat writer, every basket graph ----

TEST(ContainerRoundTrip, BasketGraphsBitForBit) {
  for (const auto& [name, graph] : testing::CorrectnessBasket()) {
    const std::string path = TempPath("roundtrip_" + name + ".cgc");
    std::string error;
    ASSERT_TRUE(WriteContainer(path, graph, &error)) << name << ": " << error;
    MappedContainer container;
    ASSERT_TRUE(MappedContainer::Map(path, &container, &error))
        << name << ": " << error;
    ExpectMappedMatchesGraph(container, graph, name);
    // Copying the Graph shares the mapped arrays instead of copying them.
    const Graph copied = container.graph();
    EXPECT_TRUE(container.Serves(copied)) << name;
    std::remove(path.c_str());
  }
}

TEST(ContainerRoundTrip, RaggedDegreesHandBuilt) {
  // One hub, a few leaves, an isolated vertex, and duplicate + self-loop
  // input edges (BuildGraph drops both — the container stores the result).
  const Graph graph = BuildGraph(
      7, {{0, 1}, {0, 2}, {0, 3}, {0, 4}, {0, 5}, {1, 2}, {1, 2}, {3, 3}});
  const std::string path = TempPath("ragged.cgc");
  std::string error;
  ASSERT_TRUE(WriteContainer(path, graph, &error)) << error;
  MappedContainer container;
  ASSERT_TRUE(MappedContainer::Map(path, &container, &error)) << error;
  ExpectMappedMatchesGraph(container, graph, "ragged");
  EXPECT_EQ(container.graph().degree(6), 0u);  // the isolated vertex
  std::remove(path.c_str());
}

TEST(ContainerRoundTrip, EmptyGraphShape) {
  const std::string path = TempPath("empty.cgc");
  std::string error;
  ASSERT_TRUE(WriteContainer(path, BuildGraph(0, {}), &error)) << error;
  MappedContainer container;
  ASSERT_TRUE(MappedContainer::Map(path, &container, &error)) << error;
  const Graph& mapped = container.graph();
  EXPECT_EQ(mapped.num_nodes(), 0u);
  EXPECT_EQ(mapped.num_arcs(), 0u);
  ASSERT_EQ(mapped.offsets().size(), 1u);  // the single sentinel offset
  EXPECT_EQ(mapped.offsets()[0], 0u);
  EXPECT_TRUE(mapped.neighbor_array().empty());
  std::remove(path.c_str());
}

// ---- round trip: sharded + streaming writers agree with the flat writer
// on the CSR payload, and with each other byte-for-byte ----

TEST(ContainerRoundTrip, ShardedWriterMatchesFlatAdjacency) {
  const EdgeList edges = GenerateErdosRenyiEdges(300, 900, /*seed=*/31);
  const Graph graph = BuildGraph(edges);
  constexpr size_t kShards = 4;

  const std::string flat_path = TempPath("src_flat.cgc");
  const std::string sharded_path = TempPath("src_sharded.cgc");
  const std::string streamed_path = TempPath("src_streamed.cgc");
  std::string error;
  ASSERT_TRUE(WriteContainer(flat_path, graph, &error)) << error;
  const ShardedGraph partition = ShardedGraph::Partition(graph, kShards);
  ASSERT_TRUE(WriteContainer(sharded_path, partition, &error)) << error;

  // The out-of-core path: BuildShard straight from the edge list, streamed
  // through ContainerWriter — byte-identical to the Partition-based file.
  {
    const NodeId n = edges.num_nodes;
    const NodeId chunk = static_cast<NodeId>(
        std::max<size_t>(1, (static_cast<size_t>(n) + kShards - 1) / kShards));
    ContainerWriter writer;
    ASSERT_TRUE(writer.Open(streamed_path, n, &error)) << error;
    for (size_t s = 0; s < kShards; ++s) {
      const NodeId first = static_cast<NodeId>(
          std::min<size_t>(s * static_cast<size_t>(chunk), n));
      const NodeId last = static_cast<NodeId>(
          std::min<size_t>((s + 1) * static_cast<size_t>(chunk), n));
      ASSERT_TRUE(writer.AppendShard(
          ShardedGraph::BuildShard(edges, first, last - first), &error))
          << "shard " << s << ": " << error;
    }
    ASSERT_TRUE(writer.Finish(&error)) << error;
  }
  EXPECT_EQ(ReadFileBytes(sharded_path), ReadFileBytes(streamed_path))
      << "Partition-based and BuildShard-based containers diverged";

  // All three serve the identical adjacency.
  for (const std::string& path : {flat_path, sharded_path, streamed_path}) {
    MappedContainer container;
    ASSERT_TRUE(MappedContainer::Map(path, &container, &error))
        << path << error;
    ExpectMappedMatchesGraph(container, graph, path);
  }

  // The sharded files carry the partition table; the flat one does not.
  MappedContainer with_table;
  ASSERT_TRUE(MappedContainer::Map(sharded_path, &with_table, &error))
      << error;
  ASSERT_TRUE(with_table.has_shard_table());
  const auto bounds = with_table.shard_boundaries();
  ASSERT_EQ(bounds.size(), kShards + 1);
  EXPECT_EQ(bounds[0], 0u);
  EXPECT_EQ(bounds[kShards], graph.num_nodes());
  for (size_t s = 0; s < kShards; ++s) {
    EXPECT_EQ(bounds[s], partition.shard(s).first) << "shard " << s;
  }
  MappedContainer without_table;
  ASSERT_TRUE(MappedContainer::Map(flat_path, &without_table, &error))
      << error;
  EXPECT_FALSE(without_table.has_shard_table());

  std::remove(flat_path.c_str());
  std::remove(sharded_path.c_str());
  std::remove(streamed_path.c_str());
}

TEST(ContainerRoundTrip, BuildShardEqualsPartitionSlice) {
  const EdgeList edges = GenerateRmatEdges(257, 1200, /*seed=*/19);
  const Graph graph = BuildGraph(edges);
  for (const size_t shards : {size_t{1}, size_t{3}, size_t{5}}) {
    const ShardedGraph partition = ShardedGraph::Partition(graph, shards);
    for (size_t s = 0; s < partition.num_shards(); ++s) {
      const ShardedGraph::Shard& want = partition.shard(s);
      const ShardedGraph::Shard got =
          ShardedGraph::BuildShard(edges, want.first, want.count());
      EXPECT_EQ(got.first, want.first) << "P=" << shards << " s=" << s;
      EXPECT_EQ(got.offsets, want.offsets) << "P=" << shards << " s=" << s;
      EXPECT_EQ(got.neighbors, want.neighbors) << "P=" << shards << " s=" << s;
    }
  }
}

// ---- optional compressed-chunks section ----

TEST(ContainerRoundTrip, CompressedChunksRoundTrip) {
  const Graph graph = GenerateRmat(512, 2048, /*seed=*/23);
  const std::string path = TempPath("with_compressed.cgc");
  std::string error;
  ContainerWriteOptions options;
  options.with_compressed = true;
  ASSERT_TRUE(WriteContainer(path, graph, &error, options)) << error;
  MappedContainer container;
  ASSERT_TRUE(MappedContainer::Map(path, &container, &error)) << error;
  ExpectMappedMatchesGraph(container, graph, "with_compressed");
  ASSERT_TRUE(container.has_compressed_chunks());
  CompressedGraph decoded;
  ASSERT_TRUE(container.DecodeCompressedChunks(&decoded, &error)) << error;
  EXPECT_EQ(decoded.num_nodes(), graph.num_nodes());
  EXPECT_EQ(decoded.num_arcs(), graph.num_arcs());
  // The embedded encoding serves the same connectivity as the CSR.
  const Variant* v = &DefaultVariant();
  EXPECT_EQ(CanonicalizeLabels(v->run(GraphHandle(decoded), {})),
            CanonicalizeLabels(v->run(GraphHandle(graph), {})));
  std::remove(path.c_str());
}

// ---- labels bit-for-bit across sources, zero-copy pinned by address ----

TEST(ContainerLabels, MappedLabelsMatchCsrAcrossSources) {
  for (const auto& [name, graph] : testing::SmallBasket()) {
    const EdgeList edges = ExtractEdges(graph);
    const std::string flat_path = TempPath("labels_flat_" + name + ".cgc");
    const std::string sharded_path =
        TempPath("labels_sharded_" + name + ".cgc");
    std::string error;
    ASSERT_TRUE(WriteContainer(flat_path, graph, &error)) << error;
    ASSERT_TRUE(WriteContainer(sharded_path,
                               ShardedGraph::Partition(graph, 3), &error))
        << error;

    const Variant* v = &DefaultVariant();
    const std::vector<NodeId> want =
        CanonicalizeLabels(v->run(GraphHandle(graph), SamplingConfig::None()));
    // The COO source must land on the same labels once mapped through the
    // temp-container path (the same bytes as the flat writer).
    const GraphHandle coo_mapped = MapThroughTempContainer(
        BuildGraph(edges), "labels_coo_" + name + ".cgc");
    ASSERT_NE(coo_mapped.csr(), nullptr) << name;
    ASSERT_TRUE(coo_mapped.csr()->mapped()) << name;
    for (const std::string& path : {flat_path, sharded_path}) {
      MappedContainer container;
      ASSERT_TRUE(MappedContainer::Map(path, &container, &error)) << error;
      const GraphHandle handle(container.graph());
      ASSERT_EQ(handle.representation(), GraphRepresentation::kCsr);
      ASSERT_TRUE(container.Serves(*handle.csr())) << name << " " << path;
      EXPECT_EQ(CanonicalizeLabels(v->run(handle, SamplingConfig::None())),
                want)
          << name << " " << path;
      EXPECT_EQ(CanonicalizeLabels(v->run(handle, SamplingConfig::KOut())),
                want)
          << name << " " << path;
    }
    EXPECT_EQ(CanonicalizeLabels(v->run(coo_mapped, SamplingConfig::None())),
              want)
        << name;
    std::remove(flat_path.c_str());
    std::remove(sharded_path.c_str());
  }
}

// Every registered variant runs off the mapping: the full-registry form of
// the zero-copy pin (sampling covered above; kNone here keeps the sweep
// fast).
TEST(ContainerLabels, EveryVariantServesZeroCopy) {
  const Graph graph = GenerateComponentMixture(800, 6, /*seed=*/29);
  const std::string path = TempPath("every_variant.cgc");
  std::string error;
  MappedContainer container;
  ASSERT_TRUE(WriteContainer(path, graph, &error)) << error;
  ASSERT_TRUE(MappedContainer::Map(path, &container, &error)) << error;
  std::remove(path.c_str());  // the mapping outlives the file name
  const GraphHandle mapped(container.graph());
  ASSERT_TRUE(container.Serves(*mapped.csr()));
  const Variant* reference = &DefaultVariant();
  const std::vector<NodeId> want = CanonicalizeLabels(
      reference->run(GraphHandle(graph), SamplingConfig::None()));
  for (const Variant& v : AllVariants()) {
    EXPECT_EQ(CanonicalizeLabels(v.run(mapped, SamplingConfig::None())), want)
        << "variant=" << v.name;
  }
}

// A mapped CSR handle is its own materialization: the flat-CSR escape hatch
// hands back the mapped graph itself, never a copy.
TEST(ContainerLabels, MaterializedCsrIsTheMappedGraph) {
  const Graph graph = GenerateGrid(20, 20);
  const std::string path = TempPath("materialized.cgc");
  std::string error;
  MappedContainer container;
  ASSERT_TRUE(WriteContainer(path, graph, &error)) << error;
  ASSERT_TRUE(MappedContainer::Map(path, &container, &error)) << error;
  std::remove(path.c_str());
  const GraphHandle handle(container.graph());
  EXPECT_EQ(&handle.MaterializedCsr(), &container.graph());
  EXPECT_TRUE(container.Serves(handle.MaterializedCsr()));
}

// ---- io.h migration: binary files are containers now, the legacy v0 dump
// stays loadable, and error strings name the failing offset ----

TEST(IoMigration, WriteGraphBinaryEmitsContainerMagic) {
  const std::string path = TempPath("migrated.bin");
  std::string error;
  ASSERT_TRUE(WriteGraphBinary(path, GeneratePath(16), &error)) << error;
  std::ifstream in(path, std::ios::binary);
  uint64_t magic = 0;
  in.read(reinterpret_cast<char*>(&magic), sizeof(magic));
  EXPECT_EQ(magic, kContainerMagic);
  Graph back;
  ASSERT_TRUE(ReadGraphBinary(path, &back, &error)) << error;
  EXPECT_EQ(testing::AsVector(back.offsets()),
            testing::AsVector(GeneratePath(16).offsets()));
  std::remove(path.c_str());
}

TEST(IoMigration, LegacyV0FixtureStaysLoadable) {
  // Committed fixture written by the pre-container WriteGraphBinary: the
  // path graph 0-1-2-3. Forward compatibility for old snapshots is part of
  // the container contract.
  const Graph want = BuildGraph(4, {{0, 1}, {1, 2}, {2, 3}});
  Graph got;
  std::string error;
  ASSERT_TRUE(ReadGraphBinary(TestDataPath("v0_graph.bin"), &got, &error))
      << error;
  EXPECT_EQ(testing::AsVector(got.offsets()),
            testing::AsVector(want.offsets()));
  EXPECT_EQ(testing::AsVector(got.neighbor_array()),
            testing::AsVector(want.neighbor_array()));
}

TEST(IoMigration, LegacyRejectedByMappedLoaderWithReconvertHint) {
  // The mmap loader refuses the legacy dump, pointing at the converter; the
  // transparent ReadGraphBinary path is how old files stay readable.
  MappedContainer container;
  std::string error;
  EXPECT_FALSE(
      MappedContainer::Map(TestDataPath("v0_graph.bin"), &container, &error));
  EXPECT_NE(error.find("legacy"), std::string::npos) << error;
  EXPECT_NE(error.find("graph_tool convert"), std::string::npos) << error;
}

TEST(IoErrors, ReadEdgeListFileReportsOpenFailure) {
  EdgeList out;
  std::string error;
  const std::string path = TempPath("does_not_exist.el");
  EXPECT_FALSE(ReadEdgeListFile(path, &out, &error));
  EXPECT_NE(error.find(path), std::string::npos) << error;
  EXPECT_NE(error.find("cannot open"), std::string::npos) << error;
}

TEST(IoErrors, TruncatedLegacyReportsFieldAndOffset) {
  // A legacy file cut off inside the offsets array: the error must name the
  // field and the absolute offset where the read fell short.
  const std::vector<char> bytes = ReadFileBytes(TestDataPath("v0_graph.bin"));
  ASSERT_GT(bytes.size(), 40u);
  const std::string path = TempPath("truncated_legacy.bin");
  {
    std::ofstream out(path, std::ios::binary);
    out.write(bytes.data(), 40);  // magic + n + arcs + two offsets
  }
  Graph got;
  std::string error;
  EXPECT_FALSE(ReadGraphBinary(path, &got, &error));
  EXPECT_NE(error.find("legacy offsets array"), std::string::npos) << error;
  EXPECT_NE(error.find("offset"), std::string::npos) << error;
  std::remove(path.c_str());
}

// ---- GraphHandle::Map: a CSR handle over the mapping ----

TEST(MappedHandle, MapFailureReturnsEmptyHandleWithError) {
  std::string error;
  const GraphHandle handle =
      GraphHandle::Map(TempPath("missing.cgc"), &error);
  EXPECT_EQ(handle.csr(), nullptr);
  EXPECT_EQ(handle.num_nodes(), 0u);
  EXPECT_FALSE(error.empty());
}

// The owner inside Graph keeps the mapping open: a Graph copied out of a
// mapped handle, and one copied out of the reader, stay valid after the
// handle, the reader and the file name are all gone. Under ASan (CI) a
// dangling array would fault here.
TEST(MappedHandle, GraphCopyOutlivesHandleAndReader) {
  const Graph graph = GenerateComponentMixture(700, 5, /*seed=*/37);
  const std::string path = TempPath("lifetime.cgc");
  std::string error;
  ASSERT_TRUE(WriteContainer(path, graph, &error)) << error;
  Graph from_handle;
  Graph from_reader;
  {
    const GraphHandle handle = GraphHandle::Map(path, &error);
    ASSERT_NE(handle.csr(), nullptr) << error;
    ASSERT_EQ(handle.representation(), GraphRepresentation::kCsr);
    from_handle = *handle.csr();
    MappedContainer container;
    ASSERT_TRUE(MappedContainer::Map(path, &container, &error)) << error;
    from_reader = container.graph();
    ASSERT_TRUE(container.Serves(from_reader));
  }
  std::remove(path.c_str());
  ASSERT_TRUE(from_handle.mapped());
  ASSERT_TRUE(from_reader.mapped());
  EXPECT_EQ(testing::AsVector(from_handle.neighbor_array()),
            testing::AsVector(graph.neighbor_array()));
  EXPECT_EQ(testing::AsVector(from_reader.offsets()),
            testing::AsVector(graph.offsets()));
  for (const char* name : {"Union-Rem-CAS;FindNaive;SplitAtomicOne",
                           "Liu-Tarjan;PRF", "Shiloach-Vishkin"}) {
    const Variant* v = FindVariant(name);
    ASSERT_NE(v, nullptr) << name;
    const std::vector<NodeId> want =
        CanonicalizeLabels(v->run(GraphHandle(graph), SamplingConfig::KOut()));
    EXPECT_EQ(CanonicalizeLabels(
                  v->run(GraphHandle(from_handle), SamplingConfig::KOut())),
              want)
        << name;
    EXPECT_EQ(CanonicalizeLabels(
                  v->run(GraphHandle(from_reader), SamplingConfig::None())),
              want)
        << name;
  }
}

// The incremental checksum must agree with the one-shot parallel pass for
// any chunking, including chunks that straddle block boundaries.
TEST(Checksum, AccumulatorMatchesOneShot) {
  std::vector<uint8_t> data(3 * kChecksumBlockBytes / 2 + 17);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<uint8_t>((i * 131) ^ (i >> 7));
  }
  const uint64_t want = ContainerChecksum(data.data(), data.size());
  for (const size_t chunk : {size_t{1} << 10, size_t{1} << 20,
                             kChecksumBlockBytes, kChecksumBlockBytes + 3}) {
    ChecksumAccumulator acc;
    for (size_t at = 0; at < data.size(); at += chunk) {
      acc.Append(data.data() + at, std::min(chunk, data.size() - at));
    }
    EXPECT_EQ(acc.Finish(), want) << "chunk=" << chunk;
    EXPECT_EQ(acc.bytes(), data.size());
  }
  // Empty input is a defined value shared by both forms.
  EXPECT_EQ(ChecksumAccumulator().Finish(), ContainerChecksum(nullptr, 0));
}

}  // namespace
}  // namespace connectit
