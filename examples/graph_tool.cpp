// Graph utility tool: generate, convert, inspect, and compress graphs —
// the dataset-preparation companion to connectit_cli.
//
// Usage:
//   graph_tool generate <rmat|grid|ba|er|mixture> <n> <out.el|out.bin|out.cgc>
//   graph_tool convert <in> <out> [--shards=P] [--out-of-core]
//                                 [--with-compressed]
//       text/binary -> text, binary container, or back. A .bin/.cgc output
//       is the versioned mmap container (src/graph/container.h):
//         --shards=P         record a P-shard partition table (P=0: worker
//                            count); the container is written shard-at-a-time
//         --out-of-core      build each shard directly from the edge list
//                            (ShardedGraph::BuildShard) so the full CSR is
//                            never materialized; byte-identical output to the
//                            in-memory path with the same --shards
//         --with-compressed  embed byte-coded chunks alongside the CSR
//   graph_tool stats <in.el|in.bin|in.cgc>
//   graph_tool compress <in>            (report byte-code sizes and check
//                                        CSR vs compressed/COO/sharded
//                                        connectivity parity)

#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>

#include "src/algo/verify.h"
#include "src/core/connectivity_index.h"
#include "src/graph/builder.h"
#include "src/graph/compressed.h"
#include "src/graph/container.h"
#include "src/graph/generators.h"
#include "src/graph/graph_handle.h"
#include "src/graph/io.h"
#include "src/graph/sharded.h"
#include "src/parallel/thread_pool.h"

namespace {

using namespace connectit;

bool EndsWith(const std::string& s, const char* suffix) {
  const size_t n = std::strlen(suffix);
  return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

// .bin and .cgc are both the container format (ReadGraphBinary also accepts
// the legacy v0 flat dump under .bin); anything else is a text edge list.
bool IsBinaryPath(const std::string& path) {
  return EndsWith(path, ".bin") || EndsWith(path, ".cgc");
}

bool LoadGraph(const std::string& path, Graph* graph, std::string* error) {
  if (IsBinaryPath(path)) return ReadGraphBinary(path, graph, error);
  EdgeList edges;
  if (!ReadEdgeListFile(path, &edges, error)) return false;
  *graph = BuildGraph(edges);
  return true;
}

bool SaveGraph(const std::string& path, const Graph& graph,
               std::string* error) {
  if (IsBinaryPath(path)) return WriteGraphBinary(path, graph, error);
  return WriteEdgeListFile(path, ExtractEdges(graph), error);
}

void PrintError(const std::string& error) {
  std::fprintf(stderr, "error: %s\n", error.c_str());
}

int Usage() {
  std::fprintf(
      stderr,
      "usage: graph_tool generate <rmat|grid|ba|er|mixture> <n> <out>\n"
      "       graph_tool convert <in> <out> [--shards=P] [--out-of-core]\n"
      "                                     [--with-compressed]\n"
      "       graph_tool stats <in>\n"
      "       graph_tool compress <in>\n"
      "(.bin/.cgc = versioned binary container, anything else = text edge "
      "list)\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return Usage();
  const std::string command = argv[1];
  std::string error;

  if (command == "generate") {
    if (argc < 5) return Usage();
    const std::string kind = argv[2];
    const NodeId n = static_cast<NodeId>(std::atoll(argv[3]));
    Graph graph;
    if (kind == "rmat") {
      graph = GenerateRmat(n, 8ull * n, 1);
    } else if (kind == "grid") {
      const NodeId side = static_cast<NodeId>(std::max(1.0, std::sqrt(n)));
      graph = GenerateGrid(side, side);
    } else if (kind == "ba") {
      graph = GenerateBarabasiAlbert(n, 8, 1);
    } else if (kind == "er") {
      graph = GenerateErdosRenyi(n, 8ull * n, 1);
    } else if (kind == "mixture") {
      graph = GenerateComponentMixture(n, 16, 1, 8);
    } else {
      return Usage();
    }
    if (!SaveGraph(argv[4], graph, &error)) {
      PrintError(error);
      return 1;
    }
    std::printf("wrote %s: n=%u, m=%llu\n", argv[4], graph.num_nodes(),
                static_cast<unsigned long long>(graph.num_edges()));
    return 0;
  }

  if (command == "convert") {
    if (argc < 4) return Usage();
    const std::string in_path = argv[2];
    const std::string out_path = argv[3];
    size_t shards = 0;
    bool shards_requested = false;
    bool out_of_core = false;
    bool with_compressed = false;
    for (int i = 4; i < argc; ++i) {
      const std::string flag = argv[i];
      if (flag.rfind("--shards=", 0) == 0) {
        shards = static_cast<size_t>(std::atoll(flag.c_str() + 9));
        shards_requested = true;
      } else if (flag == "--out-of-core") {
        out_of_core = true;
      } else if (flag == "--with-compressed") {
        with_compressed = true;
      } else {
        std::fprintf(stderr, "error: unknown convert flag %s\n", flag.c_str());
        return Usage();
      }
    }
    if ((shards_requested || out_of_core || with_compressed) &&
        !IsBinaryPath(out_path)) {
      std::fprintf(stderr,
                   "error: --shards/--out-of-core/--with-compressed require "
                   "a .bin or .cgc output\n");
      return 2;
    }
    if (out_of_core && with_compressed) {
      // Byte-coding needs the whole CSR in memory, which is exactly what
      // the out-of-core path exists to avoid.
      std::fprintf(stderr,
                   "error: --out-of-core and --with-compressed are mutually "
                   "exclusive\n");
      return 2;
    }

    if (out_of_core) {
      // Shard-at-a-time build: the edge list is the only whole-graph state;
      // each shard's CSR is built, written, and dropped before the next.
      if (IsBinaryPath(in_path)) {
        std::fprintf(stderr,
                     "error: --out-of-core converts text edge lists (the "
                     "binary input is already a container)\n");
        return 2;
      }
      EdgeList edges;
      if (!ReadEdgeListFile(in_path, &edges, &error)) {
        PrintError(error);
        return 1;
      }
      const size_t num_shards =
          shards > 0 ? shards : std::max<size_t>(1, NumWorkers());
      const NodeId n = edges.num_nodes;
      const NodeId chunk = static_cast<NodeId>(std::max<size_t>(
          1, (static_cast<size_t>(n) + num_shards - 1) / num_shards));
      ContainerWriter writer;
      if (!writer.Open(out_path, n, &error)) {
        PrintError(error);
        return 1;
      }
      for (size_t s = 0; s < num_shards; ++s) {
        const NodeId first = static_cast<NodeId>(
            std::min<size_t>(s * static_cast<size_t>(chunk), n));
        const NodeId last = static_cast<NodeId>(
            std::min<size_t>((s + 1) * static_cast<size_t>(chunk), n));
        const ShardedGraph::Shard shard =
            ShardedGraph::BuildShard(edges, first, last - first);
        if (!writer.AppendShard(shard, &error)) {
          PrintError(error);
          return 1;
        }
      }
      if (!writer.Finish(&error)) {
        PrintError(error);
        return 1;
      }
      std::printf("converted %s -> %s (out-of-core, %zu shards)\n",
                  in_path.c_str(), out_path.c_str(), num_shards);
      return 0;
    }

    Graph graph;
    if (!LoadGraph(in_path, &graph, &error)) {
      PrintError(error);
      return 1;
    }
    bool ok;
    if (shards_requested) {
      ok = WriteContainer(out_path, ShardedGraph::Partition(graph, shards),
                          &error);
    } else if (with_compressed) {
      ContainerWriteOptions options;
      options.with_compressed = true;
      ok = WriteContainer(out_path, graph, &error, options);
    } else {
      ok = SaveGraph(out_path, graph, &error);
    }
    if (!ok) {
      PrintError(error);
      return 1;
    }
    std::printf("converted %s -> %s\n", in_path.c_str(), out_path.c_str());
    return 0;
  }

  Graph graph;
  if (!LoadGraph(argv[2], &graph, &error)) {
    PrintError(error);
    return 1;
  }

  if (command == "stats") {
    const ComponentStats stats =
        ComputeComponentStats(SequentialComponents(graph));
    const DegreeStats degrees = ComputeDegreeStats(graph);
    std::printf("n: %u\nm: %llu\n", graph.num_nodes(),
                static_cast<unsigned long long>(graph.num_edges()));
    std::printf("avg degree: %.2f\nmax degree: %llu\n", degrees.avg_degree,
                static_cast<unsigned long long>(degrees.max_degree));
    std::printf("components: %u\nlargest component: %u\n",
                stats.num_components, stats.largest_component);
    std::printf("effective diameter: %u\n", EstimateEffectiveDiameter(graph));
    // Container-only metadata: surface the optional sections so a quick
    // stats run shows what a .cgc actually carries.
    if (IsBinaryPath(argv[2])) {
      MappedContainer container;
      if (MappedContainer::Map(argv[2], &container, &error)) {
        std::printf("container: %zu bytes on disk\n", container.file_bytes());
        if (container.has_shard_table()) {
          std::printf("shard table: %zu shards\n",
                      container.shard_boundaries().size() - 1);
        }
        if (container.has_compressed_chunks()) {
          std::printf("compressed chunks: embedded\n");
        }
      }
    }
    return 0;
  }

  if (command == "compress") {
    const GraphHandle coded = GraphHandle::Compress(graph);
    const size_t raw = graph.num_arcs() * sizeof(NodeId);
    std::printf("raw CSR edges : %zu bytes\n", raw);
    std::printf("byte-coded    : %zu bytes (%.2fx)\n",
                coded.compressed()->byte_size(),
                static_cast<double>(raw) /
                    static_cast<double>(coded.compressed()->byte_size()));
    // Sanity: the serving façade must produce the same partition on every
    // representation of this graph (CSR view, byte-coded, COO edge list,
    // sharded CSR) — the default Spec's variant, converted per
    // Representation.
    Connectivity csr_index;
    const std::vector<NodeId> csr_labels = csr_index.Build(graph).Labels();
    bool all_ok = true;
    for (const GraphRepresentation repr :
         {GraphRepresentation::kCompressed, GraphRepresentation::kCoo,
          GraphRepresentation::kSharded}) {
      Connectivity index(Connectivity::Spec().Representation(repr));
      const bool parity =
          SamePartition(csr_labels, index.Build(graph).Labels());
      std::printf("csr/%s connectivity parity: %s\n", ToString(repr),
                  parity ? "ok" : "MISMATCH");
      all_ok = all_ok && parity;
    }
    return all_ok ? 0 : 1;
  }
  return Usage();
}
