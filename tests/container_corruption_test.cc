// Fault injection for the container loader: flip or truncate every header
// field and section of a valid .cgc and require that MappedContainer::Map
// fails cleanly — false return, non-empty diagnostic, *out left unmapped —
// and never crashes or exposes a partial graph. The systematic sweep XORs
// every byte of the header + section table; the named cases pin the
// precise diagnostic for each class of damage (bad magic,
// unsupported version, unknown flags, out-of-range or misaligned sections,
// checksum mismatches, truncations, malformed offsets, out-of-range
// neighbor ids, malformed shard tables) so error messages stay actionable.
// Damage behind a restamped checksum (a buggy writer) must still be caught
// by the structural checks, which always run. The OrDie path is
// death-tested.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/graph/builder.h"
#include "src/graph/container.h"
#include "src/graph/generators.h"
#include "src/graph/graph_handle.h"
#include "src/graph/io.h"
#include "src/graph/sharded.h"

namespace connectit {
namespace {

using Bytes = std::vector<uint8_t>;

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

Bytes ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::vector<char> raw{std::istreambuf_iterator<char>(in),
                        std::istreambuf_iterator<char>()};
  return Bytes(raw.begin(), raw.end());
}

void WriteAll(const std::string& path, const Bytes& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

// A valid container with all the trimmings: shard table from a 3-way
// partition (offsets + neighbors + shard-table sections).
const Bytes& ValidContainer() {
  static const Bytes* bytes = [] {
    const Graph graph = GenerateRmat(200, 800, /*seed=*/41);
    const std::string path = TempPath("corruption_fixture.cgc");
    std::string error;
    if (!WriteContainer(path, ShardedGraph::Partition(graph, 3), &error)) {
      std::fprintf(stderr, "fixture write failed: %s\n", error.c_str());
      std::abort();
    }
    auto* all = new Bytes(ReadAll(path));
    std::remove(path.c_str());
    return all;
  }();
  return *bytes;
}

ContainerHeader HeaderOf(const Bytes& bytes) {
  ContainerHeader header;
  std::memcpy(&header, bytes.data(), sizeof(header));
  return header;
}

ContainerSection SectionAt(const Bytes& bytes, uint32_t i) {
  ContainerSection section;
  std::memcpy(&section, bytes.data() + sizeof(ContainerHeader) +
                            i * sizeof(ContainerSection),
              sizeof(section));
  return section;
}

void PutSection(Bytes* bytes, uint32_t i, const ContainerSection& section) {
  std::memcpy(bytes->data() + sizeof(ContainerHeader) +
                  i * sizeof(ContainerSection),
              &section, sizeof(section));
}

// Section entry of the given kind, or index -1 if absent.
int FindSection(const Bytes& bytes, SectionKind kind) {
  const ContainerHeader header = HeaderOf(bytes);
  for (uint32_t i = 0; i < header.section_count; ++i) {
    if (SectionAt(bytes, i).kind == static_cast<uint32_t>(kind)) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

// Recomputes table_checksum (offset 48) and header_checksum (offset 56)
// after a deliberate header/table patch, so the test reaches the targeted
// validation step instead of tripping the checksum gate first.
void Restamp(Bytes* bytes) {
  const ContainerHeader header = HeaderOf(*bytes);
  const uint32_t count =
      std::min(header.section_count, kContainerMaxSections);
  const uint64_t table_checksum = ContainerChecksum(
      bytes->data() + sizeof(ContainerHeader),
      uint64_t{count} * sizeof(ContainerSection));
  std::memcpy(bytes->data() + 48, &table_checksum, sizeof(table_checksum));
  const uint64_t header_checksum = ContainerChecksum(bytes->data(), 56);
  std::memcpy(bytes->data() + 56, &header_checksum, sizeof(header_checksum));
}

// Recomputes section i's payload checksum after a deliberate payload patch
// (then the table and header checksums), so only the structural checks
// behind the checksum gate can reject the damage.
void RestampSection(Bytes* bytes, int i) {
  ContainerSection section = SectionAt(*bytes, i);
  section.checksum =
      ContainerChecksum(bytes->data() + section.offset, section.length);
  PutSection(bytes, i, section);
  Restamp(bytes);
}

struct MapAttempt {
  bool ok = false;
  std::string error;
};

// Writes the (corrupted) bytes to a fresh file and tries both loaders. The
// contract under test: clean failure — no crash, a diagnostic, no partial
// graph — through MappedContainer::Map AND the ReadGraphBinary facade.
MapAttempt TryMap(const Bytes& bytes) {
  const std::string path = TempPath("corrupt_attempt.cgc");
  WriteAll(path, bytes);
  MapAttempt attempt;
  MappedContainer container;
  attempt.ok = MappedContainer::Map(path, &container, &attempt.error);
  if (!attempt.ok) {
    EXPECT_EQ(container.file_bytes(), 0u) << "loader failed but left a mapping";
    EXPECT_EQ(container.graph().num_nodes(), 0u) << "partial graph exposed";
    EXPECT_FALSE(attempt.error.empty()) << "loader failed without diagnostic";
    Graph out;
    std::string facade_error;
    EXPECT_FALSE(ReadGraphBinary(path, &out, &facade_error));
    EXPECT_FALSE(facade_error.empty());
  }
  std::remove(path.c_str());
  return attempt;
}

void ExpectRejected(const Bytes& bytes, const std::string& want_substring) {
  const MapAttempt attempt = TryMap(bytes);
  EXPECT_FALSE(attempt.ok) << "corrupt container was accepted";
  if (!want_substring.empty()) {
    EXPECT_NE(attempt.error.find(want_substring), std::string::npos)
        << "diagnostic was: " << attempt.error;
  }
}

// ---- systematic sweep: every byte of the header + section table ----

TEST(ContainerCorruption, EveryHeaderAndTableByteFlipIsRejected) {
  const Bytes& valid = ValidContainer();
  const ContainerHeader header = HeaderOf(valid);
  const size_t guarded = sizeof(ContainerHeader) +
                         header.section_count * sizeof(ContainerSection);
  ASSERT_GE(valid.size(), guarded);
  for (size_t at = 0; at < guarded; ++at) {
    Bytes corrupt = valid;
    corrupt[at] ^= 0xA5;
    const MapAttempt attempt = TryMap(corrupt);
    EXPECT_FALSE(attempt.ok) << "flip at byte " << at << " was accepted";
  }
  // Control: the untouched fixture maps fine.
  EXPECT_TRUE(TryMap(valid).ok);
}

// ---- named header faults, each reaching its precise diagnostic ----

TEST(ContainerCorruption, BadMagic) {
  Bytes corrupt = ValidContainer();
  corrupt[0] ^= 0xFF;
  ExpectRejected(corrupt, "bad magic");
}

TEST(ContainerCorruption, LegacyMagicGetsReconvertHint) {
  Bytes corrupt = ValidContainer();
  std::memcpy(corrupt.data(), &kLegacyBinaryMagic, sizeof(kLegacyBinaryMagic));
  ExpectRejected(corrupt, "graph_tool convert");
}

TEST(ContainerCorruption, UnsupportedVersion) {
  Bytes corrupt = ValidContainer();
  const uint32_t version = kContainerVersion + 41;
  std::memcpy(corrupt.data() + 8, &version, sizeof(version));
  ExpectRejected(corrupt, "unsupported container version");
}

TEST(ContainerCorruption, UnknownFlagBits) {
  Bytes corrupt = ValidContainer();
  const uint32_t flags = 0x80000001u;
  std::memcpy(corrupt.data() + 12, &flags, sizeof(flags));
  ExpectRejected(corrupt, "unknown flag bits");
}

TEST(ContainerCorruption, WrongIdWidths) {
  Bytes corrupt = ValidContainer();
  corrupt[36] = 8;  // node_id_bytes: written for 64-bit vertex ids
  Restamp(&corrupt);
  ExpectRejected(corrupt, "id widths");
}

TEST(ContainerCorruption, HeaderChecksumCatchesSilentFieldDamage) {
  // A flipped bit in num_nodes with no restamp: the checksum, not a
  // downstream bounds check, must report it.
  Bytes corrupt = ValidContainer();
  corrupt[16] ^= 0x01;
  ExpectRejected(corrupt, "header checksum mismatch");
}

TEST(ContainerCorruption, SectionCountZeroAndOverCapacity) {
  for (const uint32_t count : {0u, kContainerMaxSections + 1}) {
    Bytes corrupt = ValidContainer();
    std::memcpy(corrupt.data() + 32, &count, sizeof(count));
    Restamp(&corrupt);
    ExpectRejected(corrupt, "section count");
  }
}

TEST(ContainerCorruption, TableChecksumCatchesSilentTableDamage) {
  Bytes corrupt = ValidContainer();
  corrupt[sizeof(ContainerHeader) + 8] ^= 0x10;  // section[0].offset bits
  // Header restamped, table deliberately not: the table gate must fire.
  const uint64_t header_checksum = ContainerChecksum(corrupt.data(), 56);
  std::memcpy(corrupt.data() + 56, &header_checksum, sizeof(header_checksum));
  ExpectRejected(corrupt, "section table checksum mismatch");
}

// ---- section-table faults ----

TEST(ContainerCorruption, UnknownSectionKind) {
  Bytes corrupt = ValidContainer();
  ContainerSection section = SectionAt(corrupt, 0);
  section.kind = 77;
  PutSection(&corrupt, 0, section);
  Restamp(&corrupt);
  ExpectRejected(corrupt, "unknown section kind");
}

TEST(ContainerCorruption, DuplicateSection) {
  Bytes corrupt = ValidContainer();
  ContainerSection second = SectionAt(corrupt, 1);
  PutSection(&corrupt, 0, second);
  Restamp(&corrupt);
  ExpectRejected(corrupt, "duplicate");
}

TEST(ContainerCorruption, MisalignedSectionOffset) {
  Bytes corrupt = ValidContainer();
  ContainerSection section = SectionAt(corrupt, 0);
  section.offset += 8;
  PutSection(&corrupt, 0, section);
  Restamp(&corrupt);
  ExpectRejected(corrupt, "aligned");
}

TEST(ContainerCorruption, SectionOffsetPastEndOfFile) {
  Bytes corrupt = ValidContainer();
  ContainerSection section = SectionAt(corrupt, 0);
  section.offset = (corrupt.size() + kContainerAlignment) &
                   ~(kContainerAlignment - 1);
  PutSection(&corrupt, 0, section);
  Restamp(&corrupt);
  ExpectRejected(corrupt, "out of range");
}

TEST(ContainerCorruption, SectionLengthOverrunsFile) {
  Bytes corrupt = ValidContainer();
  ContainerSection section = SectionAt(corrupt, 0);
  section.length = corrupt.size();  // offset + length > file
  PutSection(&corrupt, 0, section);
  Restamp(&corrupt);
  ExpectRejected(corrupt, "out of range");
}

TEST(ContainerCorruption, OffsetsSectionWrongSizeForVertexCount) {
  Bytes corrupt = ValidContainer();
  const int i = FindSection(corrupt, SectionKind::kOffsets);
  ASSERT_GE(i, 0);
  ContainerSection section = SectionAt(corrupt, i);
  section.length -= sizeof(EdgeId);
  PutSection(&corrupt, i, section);
  Restamp(&corrupt);
  ExpectRejected(corrupt, "offsets section is");
}

// ---- payload faults: the per-section checksums ----

TEST(ContainerCorruption, FlippedByteInOffsetsPayload) {
  Bytes corrupt = ValidContainer();
  const int i = FindSection(corrupt, SectionKind::kOffsets);
  ASSERT_GE(i, 0);
  const ContainerSection section = SectionAt(corrupt, i);
  corrupt[section.offset + section.length / 2] ^= 0x40;
  ExpectRejected(corrupt, "offsets section checksum mismatch");
}

TEST(ContainerCorruption, FlippedByteInNeighborsPayload) {
  Bytes corrupt = ValidContainer();
  const int i = FindSection(corrupt, SectionKind::kNeighbors);
  ASSERT_GE(i, 0);
  const ContainerSection section = SectionAt(corrupt, i);
  ASSERT_GT(section.length, 0u);
  corrupt[section.offset] ^= 0x01;
  ExpectRejected(corrupt, "neighbors section checksum mismatch");
}

// ---- payload damage behind a valid checksum (a buggy writer): only the
// structural checks, which always run, can catch these ----

TEST(ContainerCorruption, OutOfRangeNeighborIdBehindValidChecksum) {
  // Union-find indexes its parent array with every neighbor id, so an id
  // just past n and one far past it (4e9, near the 32-bit limit) must both
  // be refused before any algorithm sees the graph.
  const ContainerHeader header = HeaderOf(ValidContainer());
  for (const NodeId bogus : {static_cast<NodeId>(header.num_nodes + 5),
                             NodeId{4000000000u}}) {
    Bytes corrupt = ValidContainer();
    const int i = FindSection(corrupt, SectionKind::kNeighbors);
    ASSERT_GE(i, 0);
    const ContainerSection section = SectionAt(corrupt, i);
    ASSERT_GE(section.length, sizeof(NodeId));
    std::memcpy(corrupt.data() + section.offset, &bogus, sizeof(bogus));
    RestampSection(&corrupt, i);
    ExpectRejected(corrupt, "neighbor id out of range");
  }
}

TEST(ContainerCorruption, OffsetsEndDisagreesWithArcCountBehindValidChecksum) {
  Bytes corrupt = ValidContainer();
  const ContainerHeader header = HeaderOf(corrupt);
  const int i = FindSection(corrupt, SectionKind::kOffsets);
  ASSERT_GE(i, 0);
  const ContainerSection section = SectionAt(corrupt, i);
  const uint64_t bogus_last = header.num_arcs + 7;
  std::memcpy(corrupt.data() + section.offset + section.length -
                  sizeof(uint64_t),
              &bogus_last, sizeof(bogus_last));
  RestampSection(&corrupt, i);
  ExpectRejected(corrupt, "does not match the header arc count");
}

TEST(ContainerCorruption, NonMonotoneOffsetsBehindValidChecksum) {
  Bytes corrupt = ValidContainer();
  const ContainerHeader header = HeaderOf(corrupt);
  ASSERT_GE(header.num_nodes, 2u);
  const int i = FindSection(corrupt, SectionKind::kOffsets);
  ASSERT_GE(i, 0);
  const ContainerSection section = SectionAt(corrupt, i);
  // offsets[1] past offsets[2]; offsets[0] and offsets[n] stay valid.
  const uint64_t too_big = header.num_arcs + 100;
  std::memcpy(corrupt.data() + section.offset + sizeof(uint64_t), &too_big,
              sizeof(too_big));
  RestampSection(&corrupt, i);
  ExpectRejected(corrupt, "offsets array is not monotone");
}

// ---- shard-table malformations (section checksum restamped, so the
// structural checks themselves are what rejects) ----

TEST(ContainerCorruption, ShardTableMalformations) {
  const Bytes& valid = ValidContainer();
  const int i = FindSection(valid, SectionKind::kShardTable);
  ASSERT_GE(i, 0);
  const ContainerSection section = SectionAt(valid, i);

  {  // boundaries must start at 0
    Bytes corrupt = valid;
    const uint64_t one = 1;
    std::memcpy(corrupt.data() + section.offset, &one, sizeof(one));
    RestampSection(&corrupt, i);
    ExpectRejected(corrupt, "shard boundaries must start at 0");
  }
  {  // boundaries must be monotone
    Bytes corrupt = valid;
    ASSERT_GE(section.length, 3 * sizeof(uint64_t));
    const uint64_t huge = ~uint64_t{0} / 2;
    std::memcpy(corrupt.data() + section.offset + sizeof(uint64_t), &huge,
                sizeof(huge));
    RestampSection(&corrupt, i);
    ExpectRejected(corrupt, "monotone");
  }
  {  // length must be a positive multiple of 8
    Bytes corrupt = valid;
    ContainerSection damaged = section;
    damaged.length -= 4;
    PutSection(&corrupt, i, damaged);
    RestampSection(&corrupt, i);
    ExpectRejected(corrupt, "multiple of 8");
  }
}

// ---- truncations ----

TEST(ContainerCorruption, TruncationsAtEveryLayer) {
  const Bytes& valid = ValidContainer();
  const ContainerHeader header = HeaderOf(valid);
  const size_t table_end = sizeof(ContainerHeader) +
                           header.section_count * sizeof(ContainerSection);

  // Zero-length file: mmap of nothing must be refused up front.
  ExpectRejected(Bytes{}, "empty file");
  // Shorter than the header.
  ExpectRejected(Bytes(valid.begin(), valid.begin() + 32), "bytes");
  // Mid-section-table.
  ExpectRejected(Bytes(valid.begin(), valid.begin() + table_end - 16),
                 "too short for its section table");
  // Mid-payload: sections now point past the end.
  ExpectRejected(
      Bytes(valid.begin(), valid.begin() + table_end + kContainerAlignment),
      "out of range");
  // One byte short of complete.
  ExpectRejected(Bytes(valid.begin(), valid.end() - 1), "out of range");
}

TEST(ContainerCorruption, MissingFileReportsOpenError) {
  MappedContainer container;
  std::string error;
  EXPECT_FALSE(MappedContainer::Map(TempPath("no_such_container.cgc"),
                                    &container, &error));
  EXPECT_NE(error.find("cannot open"), std::string::npos) << error;
}

// ---- the OrDie path ----

using ContainerCorruptionDeathTest = ::testing::Test;

TEST(ContainerCorruptionDeathTest, MapOrDieAbortsWithDiagnostic) {
  Bytes corrupt = ValidContainer();
  corrupt[0] ^= 0xFF;  // bad magic
  const std::string path = TempPath("mapordie_corrupt.cgc");
  WriteAll(path, corrupt);
  EXPECT_DEATH(GraphHandle::MapOrDie(path), "bad magic");
  std::remove(path.c_str());
}

}  // namespace
}  // namespace connectit
