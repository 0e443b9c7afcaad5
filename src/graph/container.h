// Versioned on-disk graph container (".cgc") with zero-copy mmap loading.
//
// The container is the storage half of the storage/compute split the ROADMAP
// asks for (in the spirit of Katana's libtsuba RDG layout): a fixed
// little-endian header (magic, format version, flags, n, m) plus a checksummed
// section table, followed by 64-byte-aligned sections holding the CSR arrays
// verbatim — so a mapping of the file *is* the graph: MappedContainer hands
// out a plain Graph (csr.h) whose arrays point into the mapping, and every
// algorithm runs straight off the page cache with no copy. Optional sections
// record a shard partition table (vertex boundaries of a ShardedGraph cut)
// and byte-compressed chunks (a serialized CompressedGraph), so one file can
// carry every representation the registry dispatches over.
//
// Layout (all integers little-endian; the build refuses to compile
// big-endian, see container.cc):
//
//   [0,   64)   ContainerHeader (self-validating: header_checksum covers the
//               first 56 bytes, table_checksum covers the section table)
//   [64,  64 + 32 * section_count)   ContainerSection entries
//   ...padding to kContainerAlignment...
//   sections, each starting at a kContainerAlignment-aligned offset:
//     kOffsets    (required)  (n + 1) x uint64 CSR row offsets
//     kNeighbors  (required)  num_arcs x uint32 neighbor ids
//     kShardTable (optional)  (P + 1) x uint64 shard vertex boundaries
//     kCompressedChunks (optional)  serialized CompressedGraph
//
// Section `length` is the exact payload size; alignment padding lives between
// sections and is not checksummed. Checksums are blocked FNV-1a: the payload
// is split into kChecksumBlockBytes blocks, blocks are hashed independently
// (in parallel at verification time, incrementally at streaming-write time),
// and the block hashes are folded sequentially together with the total
// length. The same value is therefore reachable from a one-shot parallel
// pass (ContainerChecksum) and from arbitrary append chunks
// (ChecksumAccumulator), independent of thread count.
//
// Writers: WriteContainer serializes an in-memory Graph (or a ShardedGraph,
// which adds the shard table) in one parallel pass. ContainerWriter is the
// out-of-core path: Open reserves the header, AppendShard streams one
// vertex-contiguous shard's neighbors to disk at a time (only the offsets —
// 8 bytes per vertex — stay in memory), Finish writes the deferred sections
// and seeks back to stamp the header. graph_tool's converter uses it to
// build containers for graphs whose CSR never fits in RAM at once.
//
// Readers: MappedContainer::Map validates everything before exposing a
// single byte — magic, version, flags, id widths, section bounds and
// alignment, every section checksum, offset-array monotonicity and neighbor
// range — and fails with a diagnostic string instead of crashing or
// returning a partial graph. tests/container_corruption_test.cc pins that
// contract by flipping and truncating every header field and section.

#ifndef CONNECTIT_GRAPH_CONTAINER_H_
#define CONNECTIT_GRAPH_CONTAINER_H_

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <span>
#include <string>
#include <vector>

#include "src/graph/compressed.h"
#include "src/graph/csr.h"
#include "src/graph/sharded.h"
#include "src/graph/types.h"

namespace connectit {

// ---- Format constants ----

// "ConnCGC1" read as a little-endian uint64 — distinct from the legacy
// "CONNECT1" flat dump magic (io.cc), so each loader rejects the other's
// files with a precise message instead of misparsing.
inline constexpr uint64_t kContainerMagic = 0x31434743'6e6e6f43ULL;
inline constexpr uint32_t kContainerVersion = 1;
// No optional format features are defined yet; any set flag bit means a
// newer writer, and the loader must refuse rather than guess.
inline constexpr uint32_t kContainerKnownFlags = 0;
// Every section starts at a multiple of this, so mapped uint64 loads are
// always naturally aligned (mmap bases are page-aligned).
inline constexpr size_t kContainerAlignment = 64;
// Checksum block granularity; also the unit of incremental hashing in
// ChecksumAccumulator.
inline constexpr size_t kChecksumBlockBytes = size_t{4} << 20;
// Fixed section-table capacity: the data region always begins at
// 64 + kContainerMaxSections * 32 = 320 bytes (already 64-aligned), so flat
// and streaming writers produce byte-identical files for the same sections.
inline constexpr uint32_t kContainerMaxSections = 8;

enum class SectionKind : uint32_t {
  kOffsets = 1,
  kNeighbors = 2,
  kShardTable = 3,
  kCompressedChunks = 4,
};

#pragma pack(push, 1)
struct ContainerHeader {
  uint64_t magic = kContainerMagic;
  uint32_t version = kContainerVersion;
  uint32_t flags = 0;
  uint64_t num_nodes = 0;
  uint64_t num_arcs = 0;
  uint32_t section_count = 0;
  uint8_t node_id_bytes = sizeof(NodeId);
  uint8_t edge_id_bytes = sizeof(EdgeId);
  uint16_t reserved16 = 0;
  uint64_t reserved64 = 0;
  uint64_t table_checksum = 0;   // over the section_count * 32 table bytes
  uint64_t header_checksum = 0;  // over the 56 bytes preceding this field
};

struct ContainerSection {
  uint32_t kind = 0;
  uint32_t reserved = 0;
  uint64_t offset = 0;    // absolute file offset, kContainerAlignment-aligned
  uint64_t length = 0;    // exact payload bytes (padding excluded)
  uint64_t checksum = 0;  // ContainerChecksum of the payload
};
#pragma pack(pop)

static_assert(sizeof(ContainerHeader) == 64, "header must stay 64 bytes");
static_assert(sizeof(ContainerSection) == 32, "section entry must stay 32B");

// Blocked parallel FNV-1a over `len` bytes (see file comment for the block
// structure). Deterministic across thread counts.
uint64_t ContainerChecksum(const void* data, size_t len);

// Incremental form of ContainerChecksum for streaming writers: feed bytes in
// arbitrary chunks; Finish() equals ContainerChecksum over the concatenation.
class ChecksumAccumulator {
 public:
  void Append(const void* data, size_t len);
  uint64_t Finish() const;
  uint64_t bytes() const { return total_; }

 private:
  std::vector<uint64_t> block_hashes_;
  uint64_t partial_ = 0;  // FNV state of the current partial block
  size_t partial_len_ = 0;
  uint64_t total_ = 0;
};

struct ContainerWriteOptions {
  // Also encode the graph (CompressedGraph::Encode) and embed the result as
  // a kCompressedChunks section.
  bool with_compressed = false;
};

// Serializes `graph` to `path` in one parallel pass (sections: offsets,
// neighbors[, compressed chunks]). Returns false with a diagnostic in
// *error on I/O failure.
bool WriteContainer(const std::string& path, const Graph& graph,
                    std::string* error = nullptr,
                    const ContainerWriteOptions& options = {});

// As above for an already-partitioned graph; additionally records the shard
// vertex boundaries as a kShardTable section. Streams shard-at-a-time via
// ContainerWriter, so the flat neighbor array is never re-assembled.
bool WriteContainer(const std::string& path, const ShardedGraph& graph,
                    std::string* error = nullptr);

// Out-of-core container writer: shards arrive one at a time in vertex order
// and their neighbor arrays go straight to disk; only the accumulated offset
// array (8 bytes per vertex) is held in memory until Finish. The shard
// boundaries are recorded as a kShardTable section.
class ContainerWriter {
 public:
  ContainerWriter() = default;
  // Abandoning a writer without Finish leaves a truncated file behind; the
  // destructor only closes the stream.
  ~ContainerWriter() = default;
  ContainerWriter(const ContainerWriter&) = delete;
  ContainerWriter& operator=(const ContainerWriter&) = delete;

  // Creates `path` and reserves the header + section-table region. The total
  // vertex count must be known up front (it sizes the offset array).
  bool Open(const std::string& path, NodeId num_nodes,
            std::string* error = nullptr);

  // Appends one vertex-contiguous shard (ShardedGraph::Shard layout: local
  // offsets with offsets[0] == 0). Shards must tile [0, num_nodes) in order:
  // the first shard starts at vertex 0 and each subsequent shard starts
  // where the previous one ended. Empty shards are valid.
  bool AppendShard(const ShardedGraph::Shard& shard,
                   std::string* error = nullptr);

  // Writes the deferred offsets + shard-table sections, then seeks back and
  // stamps the header. The file is not a valid container until this returns
  // true.
  bool Finish(std::string* error = nullptr);

  NodeId next_vertex() const { return next_vertex_; }

 private:
  std::ofstream out_;
  std::string path_;
  uint64_t num_nodes_ = 0;
  uint64_t cursor_ = 0;               // current absolute write offset
  std::vector<EdgeId> offsets_;       // global CSR offsets, grown per shard
  std::vector<uint64_t> shard_bounds_;  // first vertex of each shard + n
  ChecksumAccumulator neighbors_sum_;
  std::vector<ContainerSection> sections_;
  NodeId next_vertex_ = 0;
  bool open_ = false;
  bool finished_ = false;
};

// A mapped, validated .cgc container: the CSR it stores, served as a Graph
// whose arrays point straight into the mapping, plus the container extras.
// The mapping stays open while any copy of graph() lives, so the graph may
// outlive this object (GraphHandle::Map relies on that).
class MappedContainer {
 public:
  // Maps and validates `path`. On any failure — unreadable file, bad magic,
  // unsupported version, unknown flags, out-of-range or misaligned section,
  // checksum mismatch, malformed offsets, out-of-range neighbor id — returns
  // false, stores a diagnostic in *error, and leaves *out untouched. Never
  // returns a partially valid graph.
  static bool Map(const std::string& path, MappedContainer* out,
                  std::string* error = nullptr);

  const Graph& graph() const { return graph_; }
  const std::string& path() const { return path_; }
  size_t file_bytes() const { return file_.size(); }

  // True when both of `graph`'s arrays lie inside this mapping: the
  // zero-copy check the CLI, the benches and the tests print or assert.
  bool Serves(const Graph& graph) const;

  // Shard partition table, when the writer recorded one: P + 1 vertex
  // boundaries (boundary[s] = first vertex of shard s, boundary[P] = n).
  bool has_shard_table() const { return !shard_bounds_.empty(); }
  std::span<const uint64_t> shard_boundaries() const { return shard_bounds_; }

  // Embedded byte-compressed chunks, when written with with_compressed.
  bool has_compressed_chunks() const { return compressed_.data() != nullptr; }
  bool DecodeCompressedChunks(CompressedGraph* out,
                              std::string* error = nullptr) const;

 private:
  Graph graph_;  // its owner keeps the mapping (and every span below) alive
  std::string path_;
  std::span<const uint8_t> file_;
  std::span<const uint64_t> shard_bounds_;
  std::span<const uint8_t> compressed_;
};

}  // namespace connectit

#endif  // CONNECTIT_GRAPH_CONTAINER_H_
