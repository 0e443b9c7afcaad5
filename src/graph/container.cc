#include "src/graph/container.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cerrno>
#include <cstring>
#include <limits>
#include <memory>

#include "src/graph/io.h"

namespace connectit {

// The format is defined little-endian and the arrays are written verbatim;
// a big-endian port would need byte-swapping shims in the reader/writer.
static_assert(std::endian::native == std::endian::little,
              "the .cgc container assumes a little-endian host");

namespace {

constexpr uint64_t kFnvBasis = 0xcbf29ce484222325ULL;
constexpr uint64_t kFnvPrime = 0x100000001b3ULL;

uint64_t Fnv1a(uint64_t h, const uint8_t* data, size_t len) {
  for (size_t i = 0; i < len; ++i) {
    h ^= data[i];
    h *= kFnvPrime;
  }
  return h;
}

// Folds the per-block hashes with the total length into the final value.
// Shared by the one-shot and incremental paths so they agree by definition.
uint64_t CombineBlockHashes(const std::vector<uint64_t>& blocks,
                            uint64_t total_len) {
  uint64_t h = Fnv1a(kFnvBasis, reinterpret_cast<const uint8_t*>(&total_len),
                     sizeof(total_len));
  for (uint64_t b : blocks) {
    h = Fnv1a(h, reinterpret_cast<const uint8_t*>(&b), sizeof(b));
  }
  return h;
}

bool Fail(std::string* error, std::string message) {
  if (error != nullptr) *error = std::move(message);
  return false;
}

uint64_t AlignUp(uint64_t offset) {
  return (offset + kContainerAlignment - 1) & ~uint64_t{kContainerAlignment - 1};
}

// The data region starts after the fixed-capacity section table.
constexpr uint64_t kDataStart =
    sizeof(ContainerHeader) + kContainerMaxSections * sizeof(ContainerSection);
static_assert(kDataStart % kContainerAlignment == 0,
              "section table capacity must keep the data region aligned");

const char* SectionName(uint32_t kind) {
  switch (static_cast<SectionKind>(kind)) {
    case SectionKind::kOffsets: return "offsets";
    case SectionKind::kNeighbors: return "neighbors";
    case SectionKind::kShardTable: return "shard-table";
    case SectionKind::kCompressedChunks: return "compressed-chunks";
  }
  return "unknown";
}

bool WriteBytes(std::ofstream& out, const void* data, size_t len,
                const std::string& path, std::string* error) {
  out.write(reinterpret_cast<const char*>(data),
            static_cast<std::streamsize>(len));
  if (!out) {
    return Fail(error, path + ": write of " + std::to_string(len) +
                           " bytes failed (disk full?)");
  }
  return true;
}

bool WritePadding(std::ofstream& out, uint64_t from, uint64_t to,
                  const std::string& path, std::string* error) {
  static const char zeros[kContainerAlignment] = {};
  while (from < to) {
    const size_t chunk =
        std::min<uint64_t>(to - from, sizeof(zeros));
    if (!WriteBytes(out, zeros, chunk, path, error)) return false;
    from += chunk;
  }
  return true;
}

// Stamps the header + section table at the front of the stream (which must
// be positioned at 0) with checksums filled in.
bool WriteHeaderAndTable(std::ofstream& out, uint64_t num_nodes,
                         uint64_t num_arcs,
                         const std::vector<ContainerSection>& sections,
                         const std::string& path, std::string* error) {
  ContainerHeader header;
  header.num_nodes = num_nodes;
  header.num_arcs = num_arcs;
  header.section_count = static_cast<uint32_t>(sections.size());
  header.table_checksum = ContainerChecksum(
      sections.data(), sections.size() * sizeof(ContainerSection));
  header.header_checksum =
      ContainerChecksum(&header, offsetof(ContainerHeader, header_checksum));
  if (!WriteBytes(out, &header, sizeof(header), path, error)) return false;
  return WriteBytes(out, sections.data(),
                    sections.size() * sizeof(ContainerSection), path, error);
}

}  // namespace

uint64_t ContainerChecksum(const void* data, size_t len) {
  const uint8_t* bytes = static_cast<const uint8_t*>(data);
  const size_t num_blocks =
      len / kChecksumBlockBytes + (len % kChecksumBlockBytes != 0 ? 1 : 0);
  std::vector<uint64_t> hashes(num_blocks);
  ParallelFor(0, num_blocks, [&](size_t b) {
    const size_t begin = b * kChecksumBlockBytes;
    const size_t n = std::min(kChecksumBlockBytes, len - begin);
    hashes[b] = Fnv1a(kFnvBasis, bytes + begin, n);
  });
  return CombineBlockHashes(hashes, len);
}

void ChecksumAccumulator::Append(const void* data, size_t len) {
  const uint8_t* bytes = static_cast<const uint8_t*>(data);
  total_ += len;
  while (len > 0) {
    if (partial_len_ == 0) partial_ = kFnvBasis;
    const size_t room = kChecksumBlockBytes - partial_len_;
    const size_t n = std::min(room, len);
    partial_ = Fnv1a(partial_, bytes, n);
    partial_len_ += n;
    bytes += n;
    len -= n;
    if (partial_len_ == kChecksumBlockBytes) {
      block_hashes_.push_back(partial_);
      partial_len_ = 0;
    }
  }
}

uint64_t ChecksumAccumulator::Finish() const {
  std::vector<uint64_t> blocks = block_hashes_;
  if (partial_len_ > 0) blocks.push_back(partial_);
  return CombineBlockHashes(blocks, total_);
}

// ---- writers ----

bool WriteContainer(const std::string& path, const Graph& graph,
                    std::string* error, const ContainerWriteOptions& options) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Fail(error, path + ": cannot open for writing");

  const uint64_t n = graph.num_nodes();
  const uint64_t arcs = graph.num_arcs();
  // Graph() has an empty offsets vector; the container always stores the
  // canonical n + 1 entries so the mapping never special-cases empty.
  static const EdgeId kZeroOffset = 0;
  const EdgeId* offsets_data =
      graph.offsets().empty() ? &kZeroOffset : graph.offsets().data();

  std::vector<uint8_t> compressed_bytes;
  if (options.with_compressed) {
    const CompressedGraph compressed = CompressedGraph::Encode(graph);
    compressed_bytes.resize(compressed.SerializedByteSize());
    compressed.SerializeTo(compressed_bytes.data());
  }

  struct Payload {
    SectionKind kind;
    const void* data;
    uint64_t length;
  };
  std::vector<Payload> payloads = {
      {SectionKind::kOffsets, offsets_data, (n + 1) * sizeof(EdgeId)},
      {SectionKind::kNeighbors, graph.neighbor_array().data(),
       arcs * sizeof(NodeId)},
  };
  if (options.with_compressed) {
    payloads.push_back({SectionKind::kCompressedChunks,
                        compressed_bytes.data(), compressed_bytes.size()});
  }

  std::vector<ContainerSection> sections;
  uint64_t cursor = kDataStart;
  for (const Payload& p : payloads) {
    ContainerSection s;
    s.kind = static_cast<uint32_t>(p.kind);
    s.offset = cursor;
    s.length = p.length;
    s.checksum = ContainerChecksum(p.data, p.length);
    sections.push_back(s);
    cursor = AlignUp(cursor + p.length);
  }

  if (!WriteHeaderAndTable(out, n, arcs, sections, path, error)) return false;
  uint64_t written = sizeof(ContainerHeader) +
                     sections.size() * sizeof(ContainerSection);
  for (size_t i = 0; i < payloads.size(); ++i) {
    if (!WritePadding(out, written, sections[i].offset, path, error))
      return false;
    if (!WriteBytes(out, payloads[i].data, payloads[i].length, path, error))
      return false;
    written = sections[i].offset + sections[i].length;
  }
  out.flush();
  if (!out) return Fail(error, path + ": flush failed");
  return true;
}

bool WriteContainer(const std::string& path, const ShardedGraph& graph,
                    std::string* error) {
  ContainerWriter writer;
  if (!writer.Open(path, graph.num_nodes(), error)) return false;
  for (size_t s = 0; s < graph.num_shards(); ++s) {
    if (!writer.AppendShard(graph.shard(s), error)) return false;
  }
  return writer.Finish(error);
}

bool ContainerWriter::Open(const std::string& path, NodeId num_nodes,
                           std::string* error) {
  if (open_) return Fail(error, "ContainerWriter::Open called twice");
  out_.open(path, std::ios::binary | std::ios::trunc);
  if (!out_) return Fail(error, path + ": cannot open for writing");
  path_ = path;
  num_nodes_ = num_nodes;
  // Reserve the header + table region; Finish seeks back to stamp it.
  if (!WritePadding(out_, 0, kDataStart, path_, error)) return false;
  cursor_ = kDataStart;
  offsets_.assign(1, 0);
  offsets_.reserve(static_cast<size_t>(num_nodes) + 1);
  open_ = true;
  return true;
}

bool ContainerWriter::AppendShard(const ShardedGraph::Shard& shard,
                                  std::string* error) {
  if (!open_ || finished_) {
    return Fail(error, "ContainerWriter::AppendShard outside Open..Finish");
  }
  if (shard.first != next_vertex_) {
    return Fail(error, path_ + ": shard starts at vertex " +
                           std::to_string(shard.first) + ", expected " +
                           std::to_string(next_vertex_) +
                           " (shards must tile [0, n) in order)");
  }
  if (!shard.offsets.empty() && shard.offsets.front() != 0) {
    return Fail(error, path_ + ": shard offsets must start at 0");
  }
  if (shard.neighbors.size() != shard.arcs()) {
    return Fail(error, path_ + ": shard neighbor count " +
                           std::to_string(shard.neighbors.size()) +
                           " does not match offsets.back() " +
                           std::to_string(shard.arcs()));
  }
  shard_bounds_.push_back(shard.first);
  const EdgeId base = offsets_.back();
  for (size_t i = 1; i < shard.offsets.size(); ++i) {
    offsets_.push_back(base + shard.offsets[i]);
  }
  const size_t bytes = shard.neighbors.size() * sizeof(NodeId);
  if (!WriteBytes(out_, shard.neighbors.data(), bytes, path_, error))
    return false;
  neighbors_sum_.Append(shard.neighbors.data(), bytes);
  cursor_ += bytes;
  next_vertex_ += shard.count();
  return true;
}

bool ContainerWriter::Finish(std::string* error) {
  if (!open_ || finished_) {
    return Fail(error, "ContainerWriter::Finish outside Open..Finish");
  }
  if (next_vertex_ != num_nodes_) {
    return Fail(error, path_ + ": shards cover " +
                           std::to_string(next_vertex_) + " of " +
                           std::to_string(num_nodes_) +
                           " vertices; cannot finish a partial container");
  }
  finished_ = true;
  shard_bounds_.push_back(num_nodes_);

  std::vector<ContainerSection> sections;
  ContainerSection neighbors;
  neighbors.kind = static_cast<uint32_t>(SectionKind::kNeighbors);
  neighbors.offset = kDataStart;
  neighbors.length = cursor_ - kDataStart;
  neighbors.checksum = neighbors_sum_.Finish();
  sections.push_back(neighbors);

  const uint64_t offsets_at = AlignUp(cursor_);
  if (!WritePadding(out_, cursor_, offsets_at, path_, error)) return false;
  ContainerSection offsets;
  offsets.kind = static_cast<uint32_t>(SectionKind::kOffsets);
  offsets.offset = offsets_at;
  offsets.length = offsets_.size() * sizeof(EdgeId);
  offsets.checksum = ContainerChecksum(offsets_.data(), offsets.length);
  sections.push_back(offsets);
  if (!WriteBytes(out_, offsets_.data(), offsets.length, path_, error))
    return false;
  cursor_ = offsets.offset + offsets.length;

  const uint64_t shards_at = AlignUp(cursor_);
  if (!WritePadding(out_, cursor_, shards_at, path_, error)) return false;
  ContainerSection shards;
  shards.kind = static_cast<uint32_t>(SectionKind::kShardTable);
  shards.offset = shards_at;
  shards.length = shard_bounds_.size() * sizeof(uint64_t);
  shards.checksum = ContainerChecksum(shard_bounds_.data(), shards.length);
  sections.push_back(shards);
  if (!WriteBytes(out_, shard_bounds_.data(), shards.length, path_, error))
    return false;

  out_.seekp(0);
  if (!out_) return Fail(error, path_ + ": seek to header failed");
  const uint64_t total_arcs = offsets_.back();
  if (!WriteHeaderAndTable(out_, num_nodes_, total_arcs, sections, path_,
                           error)) {
    return false;
  }
  out_.flush();
  if (!out_) return Fail(error, path_ + ": flush failed");
  out_.close();
  return true;
}

// ---- reader ----

namespace {

// Owner of one read-only file mapping; the last Graph copy serving from it
// unmaps.
class Mapping {
 public:
  Mapping(void* base, size_t length) : base_(base), length_(length) {}
  Mapping(const Mapping&) = delete;
  Mapping& operator=(const Mapping&) = delete;
  ~Mapping() { munmap(base_, length_); }

 private:
  void* base_;
  size_t length_;
};

}  // namespace

bool MappedContainer::Map(const std::string& path, MappedContainer* out,
                          std::string* error) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return Fail(error, path + ": cannot open: " + std::strerror(errno));
  }
  struct stat st;
  if (fstat(fd, &st) != 0) {
    const int err = errno;
    ::close(fd);
    return Fail(error, path + ": fstat failed: " + std::strerror(err));
  }
  const size_t file_len = static_cast<size_t>(st.st_size);
  if (file_len == 0) {
    ::close(fd);
    return Fail(error, path + ": empty file (a zero-length mapping cannot "
                              "hold a container)");
  }
  if (file_len < sizeof(ContainerHeader)) {
    ::close(fd);
    return Fail(error, path + ": file is " + std::to_string(file_len) +
                           " bytes, shorter than the " +
                           std::to_string(sizeof(ContainerHeader)) +
                           "-byte container header");
  }
  void* base = mmap(nullptr, file_len, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);
  if (base == MAP_FAILED) {
    return Fail(error, path + ": mmap failed: " + std::strerror(errno));
  }
  // From here on, every failure path unmaps when `mapping` goes away.
  auto mapping = std::make_shared<const Mapping>(base, file_len);
  const uint8_t* bytes = static_cast<const uint8_t*>(base);

  ContainerHeader header;
  std::memcpy(&header, bytes, sizeof(header));
  if (header.magic != kContainerMagic) {
    if (header.magic == kLegacyBinaryMagic) {
      return Fail(error,
                  path + ": legacy v0 flat CSR dump (magic \"CONNECT1\"); "
                         "GraphHandle::Map reads .cgc containers — reconvert "
                         "with `graph_tool convert`");
    }
    return Fail(error, path + ": bad magic (not a .cgc container)");
  }
  if (header.version != kContainerVersion) {
    return Fail(error, path + ": unsupported container version " +
                           std::to_string(header.version) +
                           " (this build reads version " +
                           std::to_string(kContainerVersion) + ")");
  }
  if ((header.flags & ~kContainerKnownFlags) != 0) {
    return Fail(error, path + ": unknown flag bits 0x" +
                           std::to_string(header.flags) +
                           " (written by a newer tool?)");
  }
  if (header.node_id_bytes != sizeof(NodeId) ||
      header.edge_id_bytes != sizeof(EdgeId)) {
    return Fail(error, path + ": id widths " +
                           std::to_string(header.node_id_bytes) + "/" +
                           std::to_string(header.edge_id_bytes) +
                           " do not match this build's " +
                           std::to_string(sizeof(NodeId)) + "/" +
                           std::to_string(sizeof(EdgeId)));
  }
  const uint64_t expected_header_sum =
      ContainerChecksum(bytes, offsetof(ContainerHeader, header_checksum));
  if (header.header_checksum != expected_header_sum) {
    return Fail(error, path + ": header checksum mismatch (corrupt header)");
  }
  if (header.section_count == 0 ||
      header.section_count > kContainerMaxSections) {
    return Fail(error, path + ": section count " +
                           std::to_string(header.section_count) +
                           " outside [1, " +
                           std::to_string(kContainerMaxSections) + "]");
  }
  const uint64_t table_bytes =
      uint64_t{header.section_count} * sizeof(ContainerSection);
  if (sizeof(ContainerHeader) + table_bytes > file_len) {
    return Fail(error, path + ": file too short for its section table");
  }
  const uint8_t* table = bytes + sizeof(ContainerHeader);
  if (header.table_checksum != ContainerChecksum(table, table_bytes)) {
    return Fail(error,
                path + ": section table checksum mismatch (corrupt table)");
  }
  if (header.num_nodes > std::numeric_limits<NodeId>::max()) {
    return Fail(error, path + ": node count " +
                           std::to_string(header.num_nodes) +
                           " exceeds 32-bit vertex ids");
  }
  const uint64_t n = header.num_nodes;
  const uint64_t arcs = header.num_arcs;

  const ContainerSection* sections =
      reinterpret_cast<const ContainerSection*>(table);
  const ContainerSection* by_kind[5] = {};
  for (uint32_t i = 0; i < header.section_count; ++i) {
    const ContainerSection& s = sections[i];
    if (s.kind < 1 || s.kind > 4) {
      return Fail(error, path + ": unknown section kind " +
                             std::to_string(s.kind));
    }
    if (by_kind[s.kind] != nullptr) {
      return Fail(error, path + ": duplicate " + SectionName(s.kind) +
                             " section");
    }
    if (s.offset % kContainerAlignment != 0) {
      return Fail(error, path + ": " + SectionName(s.kind) +
                             " section offset " + std::to_string(s.offset) +
                             " is not " +
                             std::to_string(kContainerAlignment) +
                             "-byte aligned");
    }
    if (s.offset < sizeof(ContainerHeader) + table_bytes ||
        s.offset > file_len || s.length > file_len - s.offset) {
      return Fail(error, path + ": " + SectionName(s.kind) +
                             " section [offset " + std::to_string(s.offset) +
                             ", length " + std::to_string(s.length) +
                             ") out of range for a " +
                             std::to_string(file_len) + "-byte file");
    }
    by_kind[s.kind] = &s;
  }

  const ContainerSection* offsets_sec =
      by_kind[static_cast<uint32_t>(SectionKind::kOffsets)];
  const ContainerSection* neighbors_sec =
      by_kind[static_cast<uint32_t>(SectionKind::kNeighbors)];
  if (offsets_sec == nullptr || neighbors_sec == nullptr) {
    return Fail(error, path + ": missing required " +
                           std::string(offsets_sec == nullptr ? "offsets"
                                                              : "neighbors") +
                           " section");
  }
  if (offsets_sec->length != (n + 1) * sizeof(EdgeId)) {
    return Fail(error, path + ": offsets section is " +
                           std::to_string(offsets_sec->length) +
                           " bytes, want " +
                           std::to_string((n + 1) * sizeof(EdgeId)) +
                           " for " + std::to_string(n) + " vertices");
  }
  if (neighbors_sec->length != arcs * sizeof(NodeId)) {
    return Fail(error, path + ": neighbors section is " +
                           std::to_string(neighbors_sec->length) +
                           " bytes, want " +
                           std::to_string(arcs * sizeof(NodeId)) + " for " +
                           std::to_string(arcs) + " arcs");
  }

  for (uint32_t i = 0; i < header.section_count; ++i) {
    const ContainerSection& s = sections[i];
    if (ContainerChecksum(bytes + s.offset, s.length) != s.checksum) {
      return Fail(error, path + ": " + SectionName(s.kind) +
                             " section checksum mismatch (corrupt data)");
    }
  }

  const EdgeId* offsets = reinterpret_cast<const EdgeId*>(
      bytes + offsets_sec->offset);
  const NodeId* neighbors =
      reinterpret_cast<const NodeId*>(bytes + neighbors_sec->offset);
  if (offsets[0] != 0) {
    return Fail(error, path + ": offsets[0] = " + std::to_string(offsets[0]) +
                           ", must be 0");
  }
  if (offsets[n] != arcs) {
    return Fail(error, path + ": offsets[n] = " + std::to_string(offsets[n]) +
                           " does not match the header arc count " +
                           std::to_string(arcs));
  }
  // Deep shape validation: offsets monotone, neighbor ids in range. With
  // checksums verified this only rejects files that were *written* wrong,
  // but it is what guarantees "never a partial graph" even then: a
  // union-find indexes its parent array with every neighbor id it reads.
  std::atomic<bool> bad_offsets{false};
  ParallelFor(0, n, [&](size_t v) {
    if (offsets[v] > offsets[v + 1])
      bad_offsets.store(true, std::memory_order_relaxed);
  });
  if (bad_offsets.load()) {
    return Fail(error, path + ": offsets array is not monotone");
  }
  std::atomic<bool> bad_neighbor{false};
  ParallelFor(0, arcs, [&](size_t e) {
    if (neighbors[e] >= n) bad_neighbor.store(true, std::memory_order_relaxed);
  });
  if (bad_neighbor.load()) {
    return Fail(error, path + ": neighbor id out of range [0, " +
                           std::to_string(n) + ")");
  }

  MappedContainer container;

  const ContainerSection* shards_sec =
      by_kind[static_cast<uint32_t>(SectionKind::kShardTable)];
  if (shards_sec != nullptr) {
    if (shards_sec->length == 0 ||
        shards_sec->length % sizeof(uint64_t) != 0) {
      return Fail(error, path + ": shard table length " +
                             std::to_string(shards_sec->length) +
                             " is not a positive multiple of 8");
    }
    const uint64_t* bounds =
        reinterpret_cast<const uint64_t*>(bytes + shards_sec->offset);
    const size_t count = shards_sec->length / sizeof(uint64_t);
    if (bounds[0] != 0 || bounds[count - 1] != n) {
      return Fail(error, path + ": shard boundaries must start at 0 and end "
                                "at the vertex count");
    }
    for (size_t i = 1; i < count; ++i) {
      if (bounds[i - 1] > bounds[i]) {
        return Fail(error, path + ": shard boundaries are not monotone");
      }
    }
    container.shard_bounds_ = {bounds, count};
  }

  const ContainerSection* compressed_sec =
      by_kind[static_cast<uint32_t>(SectionKind::kCompressedChunks)];
  if (compressed_sec != nullptr) {
    container.compressed_ = {bytes + compressed_sec->offset,
                             static_cast<size_t>(compressed_sec->length)};
  }

  container.path_ = path;
  container.file_ = {bytes, file_len};
  container.graph_ = Graph({offsets, static_cast<size_t>(n) + 1},
                           {neighbors, static_cast<size_t>(arcs)},
                           std::move(mapping));
  *out = std::move(container);
  return true;
}

bool MappedContainer::Serves(const Graph& graph) const {
  const auto begin = reinterpret_cast<uintptr_t>(file_.data());
  const auto end = begin + file_.size();
  const auto inside = [&](const void* data, size_t bytes) {
    const auto at = reinterpret_cast<uintptr_t>(data);
    return at >= begin && at + bytes <= end;
  };
  return !file_.empty() &&
         inside(graph.offsets().data(), graph.offsets().size_bytes()) &&
         inside(graph.neighbor_array().data(),
                graph.neighbor_array().size_bytes());
}

bool MappedContainer::DecodeCompressedChunks(CompressedGraph* out,
                                             std::string* error) const {
  if (!has_compressed_chunks()) {
    return Fail(error, path_ + ": no compressed-chunks section");
  }
  if (!CompressedGraph::Deserialize(compressed_.data(), compressed_.size(),
                                    out, error))
    return false;
  if (out->num_nodes() != graph_.num_nodes() ||
      out->num_arcs() != graph_.num_arcs()) {
    *out = CompressedGraph();
    return Fail(error, path_ + ": compressed chunks disagree with the "
                              "container's vertex/arc counts");
  }
  return true;
}

}  // namespace connectit
