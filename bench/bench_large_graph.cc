// Reproduces Table 1 (in substituted form): connectivity on the largest
// graph this environment can synthesize, comparing every system built in
// this repository — the stand-in for the paper's Hyperlink2012 comparison
// against external/distributed systems (which require the proprietary
// WebDataCommons crawl and a 1TB machine; see DESIGN.md §4).

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/baselines/afforest.h"
#include "src/baselines/bfscc.h"
#include "src/baselines/gapbs_sv.h"
#include "src/baselines/seq_cc.h"
#include "src/baselines/workefficient_cc.h"
#include "src/core/registry.h"
#include "src/graph/compressed.h"
#include "src/graph/container.h"
#include "src/graph/graph_handle.h"

int main(int argc, char** argv) {
  using namespace connectit;
  // --container-out=PATH: where the cold-load section writes its
  // machine-readable artifact (for tools/bench_trajectory.py append).
  const char* container_out = "BENCH_container.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--container-out=", 16) == 0) {
      container_out = argv[i] + 16;
    } else {
      std::fprintf(stderr, "usage: %s [--container-out=PATH]\n", argv[0]);
      return 2;
    }
  }
  const NodeId n = bench::LargeScale() ? (1u << 22) : (1u << 19);
  const EdgeId m = 8ull * n;
  std::printf("Generating RMAT graph: n=%u, m=%llu ...\n", n,
              static_cast<unsigned long long>(m));
  const Graph graph = GenerateRmat(n, m, /*seed=*/2012);

  bench::PrintTitle(
      "Table 1 (substituted): all systems on the largest local graph");
  std::printf("%-36s %12s %10s\n", "System", "Time(s)", "vs best");

  struct Entry {
    std::string name;
    double time;
  };
  std::vector<Entry> entries;
  entries.push_back(
      {"Sequential union-find",
       bench::TimeIt([&] { SequentialUnionFindCC(graph); })});
  entries.push_back({"BFSCC (Ligra)", bench::TimeIt([&] { BfsCC(graph); })});
  entries.push_back({"WorkefficientCC (Shun et al.)",
                     bench::TimeIt([&] { WorkEfficientCC(graph); })});
  entries.push_back({"GAPBS (Shiloach-Vishkin)",
                     bench::TimeIt([&] { GapbsShiloachVishkin(graph); })});
  entries.push_back(
      {"GAPBS (Afforest)", bench::TimeIt([&] { AfforestCC(graph); })});

  const Variant* fastest = &DefaultVariant();
  entries.push_back(
      {"ConnectIt (no sampling)",
       bench::TimeIt([&] { fastest->run(graph, SamplingConfig::None()); })});
  entries.push_back(
      {"ConnectIt (k-out sampling)",
       bench::TimeIt([&] { fastest->run(graph, SamplingConfig::KOut()); })});
  {
    SamplingConfig afforest_kout = SamplingConfig::KOut();
    afforest_kout.kout.variant = KOutVariant::kAfforest;
    entries.push_back(
        {"ConnectIt (k-out, afforest rule)",
         bench::TimeIt([&] { fastest->run(graph, afforest_kout); })});
  }
  entries.push_back(
      {"ConnectIt (BFS sampling)",
       bench::TimeIt([&] { fastest->run(graph, SamplingConfig::Bfs()); })});
  entries.push_back(
      {"ConnectIt (LDD sampling)",
       bench::TimeIt([&] { fastest->run(graph, SamplingConfig::Ldd()); })});

  double best = 1e300;
  for (const Entry& e : entries) best = std::min(best, e.time);
  for (const Entry& e : entries) {
    std::printf("%-36s %12.3f %9.2fx\n", e.name.c_str(), e.time,
                e.time / best);
  }

  // Compression footprint (Table 1 discusses the memory side; the paper's
  // byte-coded graphs are ~2.7x smaller than raw).
  const CompressedGraph cg = CompressedGraph::Encode(graph);
  const double raw_gb =
      static_cast<double>(graph.num_arcs() * sizeof(NodeId)) / 1e9;
  const double compressed_gb = static_cast<double>(cg.byte_size()) / 1e9;
  std::printf(
      "\nGraph storage: raw CSR edges %.3f GB, byte-coded %.3f GB "
      "(%.2fx smaller)\n",
      raw_gb, compressed_gb, raw_gb / compressed_gb);
  // ---- Cold load to first query: the on-disk container path ----
  // The scenario the .cgc container exists for: a service restarts with the
  // graph already on disk. Time every step of the cold path — mmap plus full
  // validation (checksums, offsets, neighbor range) and the first
  // connectivity query served straight off the mapping — against the warm
  // in-memory CSR the rest of this bench used. No CSR is rebuilt on the
  // cold path: the queried graph's arrays lie inside the mapping (zero_copy).
  bench::PrintTitle("Cold load to first query: mmap container vs in-memory");
  {
    const Variant* v = fastest;
    const char* tmpdir = std::getenv("TMPDIR");
    const std::string path = std::string(tmpdir != nullptr ? tmpdir : "/tmp") +
                             "/bench_large_graph.cgc";
    std::string error;
    const double write_s =
        bench::TimeIt([&] { WriteContainer(path, graph, &error); });
    if (!error.empty()) {
      std::fprintf(stderr, "container write failed: %s\n", error.c_str());
      return 1;
    }

    MappedContainer container;
    const double map_s = bench::TimeIt([&] {
      MappedContainer scratch;
      if (MappedContainer::Map(path, &scratch, &error)) container = scratch;
    });
    if (container.file_bytes() == 0) {
      std::fprintf(stderr, "container map failed: %s\n", error.c_str());
      return 1;
    }

    const GraphHandle mapped_handle(container.graph());
    const bool zero_copy = container.Serves(*mapped_handle.csr());
    const double first_query_s = bench::TimeIt(
        [&] { v->run(mapped_handle, SamplingConfig::KOut()); });
    const double warm_query_s =
        bench::TimeIt([&] { v->run(graph, SamplingConfig::KOut()); });
    const double cold_total_s = map_s + first_query_s;
    ::unlink(path.c_str());

    std::printf("%-44s %12.3f s\n", "container write", write_s);
    std::printf("%-44s %12.3f s\n", "map + validate", map_s);
    std::printf("%-44s %12.3f s\n", "first query off the mapping",
                first_query_s);
    std::printf("%-44s %12.3f s\n", "cold total (map + query)", cold_total_s);
    std::printf("%-44s %12.3f s\n", "warm in-memory query (baseline)",
                warm_query_s);
    std::printf("%-44s %12s\n", "zero-copy from mapping (must be yes)",
                zero_copy ? "yes" : "NO");

    // Machine-readable artifact for the append-only trajectory
    // (tools/bench_trajectory.py append --label <pr> BENCH_container.json).
    if (FILE* f = std::fopen(container_out, "w")) {
      std::fprintf(
          f,
          "{\n"
          "  \"bench\": \"container_cold_load\",\n"
          "  \"n\": %u,\n"
          "  \"m\": %llu,\n"
          "  \"file_bytes\": %zu,\n"
          "  \"write_seconds\": %.6f,\n"
          "  \"map_verified_seconds\": %.6f,\n"
          "  \"first_query_seconds\": %.6f,\n"
          "  \"cold_total_seconds\": %.6f,\n"
          "  \"warm_query_seconds\": %.6f,\n"
          "  \"zero_copy\": %s\n"
          "}\n",
          graph.num_nodes(), static_cast<unsigned long long>(graph.num_arcs()),
          container.file_bytes(), write_s, map_s, first_query_s, cold_total_s,
          warm_query_s, zero_copy ? "true" : "false");
      std::fclose(f);
      std::printf("wrote %s\n", container_out);
    } else {
      std::fprintf(stderr, "cannot write %s\n", container_out);
      return 1;
    }
  }

  std::printf(
      "\nExpected shape (paper): the fastest sampled ConnectIt variant beats\n"
      "every other system (3.1x over the prior record on Hyperlink2012).\n");
  return 0;
}
