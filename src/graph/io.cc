#include "src/graph/io.h"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <unordered_map>

#include "src/graph/container.h"

namespace connectit {

namespace {

bool Fail(std::string* error, std::string message) {
  if (error != nullptr) *error = std::move(message);
  return false;
}

// Reads exactly `len` bytes, reporting the absolute file offset of a short
// read (`what` names the field or array being read).
bool ReadExact(std::ifstream& in, void* dst, size_t len,
               const std::string& path, const char* what,
               std::string* error) {
  const auto at = in.tellg();
  in.read(reinterpret_cast<char*>(dst), static_cast<std::streamsize>(len));
  if (in.gcount() != static_cast<std::streamsize>(len)) {
    return Fail(error,
                path + ": short read of " + what + " at offset " +
                    std::to_string(static_cast<int64_t>(at)) + " (wanted " +
                    std::to_string(len) + " bytes, got " +
                    std::to_string(static_cast<int64_t>(in.gcount())) +
                    ") — truncated file?");
  }
  return true;
}

// Legacy v0 flat dump: magic + n + arcs + raw arrays, no checksums. Kept so
// snapshots written before the container existed stay loadable; the error
// strings name the exact field that fell short.
bool ReadLegacyGraphBinary(std::ifstream& in, const std::string& path,
                           Graph* out, std::string* error) {
  uint64_t n = 0;
  uint64_t arcs = 0;
  if (!ReadExact(in, &n, sizeof(n), path, "legacy node count", error))
    return false;
  if (!ReadExact(in, &arcs, sizeof(arcs), path, "legacy arc count", error))
    return false;
  std::vector<EdgeId> offsets(n + 1);
  std::vector<NodeId> neighbors(arcs);
  if (!ReadExact(in, offsets.data(), (n + 1) * sizeof(EdgeId), path,
                 "legacy offsets array", error)) {
    return false;
  }
  if (!ReadExact(in, neighbors.data(), arcs * sizeof(NodeId), path,
                 "legacy neighbors array", error)) {
    return false;
  }
  if (offsets.front() != 0 || offsets.back() != arcs) {
    return Fail(error, path + ": legacy offsets array is malformed "
                              "(ends at " +
                           std::to_string(offsets.back()) + ", header says " +
                           std::to_string(arcs) + " arcs)");
  }
  *out = Graph(std::move(offsets), std::move(neighbors));
  return true;
}

}  // namespace

EdgeList ParseEdgeListText(const std::string& text, bool compact_ids) {
  EdgeList list;
  std::istringstream in(text);
  std::string line;
  std::unordered_map<uint64_t, NodeId> remap;
  uint64_t max_id = 0;
  bool saw_edge = false;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#' || line[0] == '%') continue;
    std::istringstream ls(line);
    uint64_t a = 0;
    uint64_t b = 0;
    if (!(ls >> a >> b)) continue;
    if (compact_ids) {
      auto [ita, _a] = remap.try_emplace(a, static_cast<NodeId>(remap.size()));
      auto [itb, _b] = remap.try_emplace(b, static_cast<NodeId>(remap.size()));
      list.edges.push_back({ita->second, itb->second});
    } else {
      list.edges.push_back({static_cast<NodeId>(a), static_cast<NodeId>(b)});
      max_id = std::max({max_id, a, b});
    }
    saw_edge = true;
  }
  if (compact_ids) {
    list.num_nodes = static_cast<NodeId>(remap.size());
  } else {
    list.num_nodes = saw_edge ? static_cast<NodeId>(max_id + 1) : 0;
  }
  return list;
}

bool ReadEdgeListFile(const std::string& path, EdgeList* out,
                      std::string* error) {
  std::ifstream in(path);
  if (!in) {
    return Fail(error, path + ": cannot open: " + std::strerror(errno));
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  if (in.bad()) {
    return Fail(error, path + ": read failed after " +
                           std::to_string(buf.str().size()) + " bytes");
  }
  *out = ParseEdgeListText(buf.str());
  return true;
}

bool WriteEdgeListFile(const std::string& path, const EdgeList& edges,
                       std::string* error) {
  std::ofstream out(path);
  if (!out) {
    return Fail(error, path + ": cannot open for writing");
  }
  out << "# connectit edge list: " << edges.num_nodes << " nodes, "
      << edges.size() << " edges\n";
  for (const Edge& e : edges.edges) out << e.u << ' ' << e.v << '\n';
  if (!out) return Fail(error, path + ": write failed (disk full?)");
  return true;
}

bool WriteGraphBinary(const std::string& path, const Graph& graph,
                      std::string* error) {
  return WriteContainer(path, graph, error);
}

bool ReadGraphBinary(const std::string& path, Graph* out, std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Fail(error, path + ": cannot open: " + std::strerror(errno));
  }
  uint64_t magic = 0;
  if (!ReadExact(in, &magic, sizeof(magic), path, "magic", error))
    return false;
  if (magic == kLegacyBinaryMagic) {
    return ReadLegacyGraphBinary(in, path, out, error);
  }
  in.close();
  // Anything else must be a container; MappedContainer::Map produces the
  // precise diagnostic (bad magic, truncation, checksum mismatch, ...). The
  // caller gets an in-memory copy that does not hold the file open.
  MappedContainer container;
  if (!MappedContainer::Map(path, &container, error)) return false;
  const Graph& mapped = container.graph();
  *out = Graph(std::vector<EdgeId>(mapped.offsets().begin(),
                                   mapped.offsets().end()),
               std::vector<NodeId>(mapped.neighbor_array().begin(),
                                   mapped.neighbor_array().end()));
  return true;
}

}  // namespace connectit
