// Post-processing utilities over connectivity labelings: the operations
// downstream users (clustering pipelines, graph cleaning, §1's motivating
// applications) run right after connectivity.

#ifndef CONNECTIT_CORE_COMPONENTS_H_
#define CONNECTIT_CORE_COMPONENTS_H_

#include <algorithm>
#include <array>
#include <vector>

#include "src/core/frequent.h"
#include "src/graph/builder.h"
#include "src/graph/csr.h"
#include "src/graph/types.h"
#include "src/parallel/atomics.h"
#include "src/parallel/primitives.h"
#include "src/parallel/thread_pool.h"

namespace connectit {

// Number of distinct components in a labeling whose labels are vertex ids
// with labels[root] == root (the form every ConnectIt algorithm emits).
inline NodeId CountComponents(const std::vector<NodeId>& labels) {
  return static_cast<NodeId>(ParallelCount(
      0, labels.size(),
      [&](size_t v) { return labels[v] == static_cast<NodeId>(v); }));
}

// Labels holding at least this share of the vertices are counted in
// block-local registers by ComponentSizes, at most kMaxHeavyLabels of
// them. A per-vertex FetchAdd on a label this common makes every worker
// contend for one cache line; rarer labels spread over many lines.
inline constexpr double kHeavyLabelShare = 1.0 / 32;
inline constexpr size_t kMaxHeavyLabels = 4;

// Size of each component, indexed by its label (0 for non-labels), and,
// through `num_components`, the CountComponents value, from one blocked
// pass. The heavy labels are estimated once by sampling; each block counts
// them locally and adds each total with one FetchAdd, while other labels
// keep a per-vertex FetchAdd. The estimate only decides where additions
// happen, so sizes are always exact.
inline std::vector<NodeId> ComponentSizes(const std::vector<NodeId>& labels,
                                          NodeId* num_components = nullptr) {
  std::vector<NodeId> sizes(labels.size(), 0);
  static_assert(kMaxHeavyLabels == 4, "the block loop is unrolled for 4");
  std::array<NodeId, kMaxHeavyLabels> heavy;
  heavy.fill(kInvalidNode);  // never a label
  const std::vector<NodeId> found =
      FrequentLabelsSampled(labels, kHeavyLabelShare, kMaxHeavyLabels);
  std::copy(found.begin(), found.end(), heavy.begin());
  NodeId roots = 0;
  ParallelForBlocked(0, labels.size(), [&](size_t lo, size_t hi) {
    // Block-local copies stay in registers across the FetchAdds.
    const std::array<NodeId, kMaxHeavyLabels> h = heavy;
    std::array<NodeId, kMaxHeavyLabels> heavy_count{};
    NodeId block_roots = 0;
    for (size_t v = lo; v < hi; ++v) {
      const NodeId label = labels[v];
      if (label == static_cast<NodeId>(v)) ++block_roots;
      if (label == h[0]) {
        ++heavy_count[0];
      } else if (label == h[1]) {
        ++heavy_count[1];
      } else if (label == h[2]) {
        ++heavy_count[2];
      } else if (label == h[3]) {
        ++heavy_count[3];
      } else {
        FetchAdd<NodeId>(&sizes[label], 1);
      }
    }
    for (size_t j = 0; j < kMaxHeavyLabels; ++j) {
      if (heavy_count[j] != 0) FetchAdd(&sizes[heavy[j]], heavy_count[j]);
    }
    if (block_roots != 0) FetchAdd(&roots, block_roots);
  });
  if (num_components != nullptr) *num_components = roots;
  return sizes;
}

// Renumbers component labels densely into [0, num_components), preserving
// label order. Returns the dense label per vertex.
inline std::vector<NodeId> DenseComponentIds(
    const std::vector<NodeId>& labels) {
  const size_t n = labels.size();
  // roots[i] = 1 iff i is a component label.
  std::vector<NodeId> rank(n + 1, 0);
  ParallelFor(0, n, [&](size_t v) {
    if (labels[v] == static_cast<NodeId>(v)) rank[v] = 1;
  });
  ScanExclusive(rank.data(), n + 1);
  std::vector<NodeId> dense(n);
  ParallelFor(0, n, [&](size_t v) { dense[v] = rank[labels[v]]; });
  return dense;
}

// Extracts the subgraph induced by the component with label
// `component_label`. vertex_map returns the original id of each subgraph
// vertex.
struct InducedComponent {
  Graph graph;
  std::vector<NodeId> vertex_map;  // subgraph id -> original id
};

inline InducedComponent ExtractComponent(const Graph& graph,
                                         const std::vector<NodeId>& labels,
                                         NodeId component_label) {
  const NodeId n = graph.num_nodes();
  InducedComponent out;
  out.vertex_map = ParallelPack<NodeId>(
      n, [&](size_t v) { return labels[v] == component_label; },
      [](size_t v) { return static_cast<NodeId>(v); });
  std::vector<NodeId> new_id(n, kInvalidNode);
  ParallelFor(0, out.vertex_map.size(), [&](size_t i) {
    new_id[out.vertex_map[i]] = static_cast<NodeId>(i);
  });
  EdgeList edges;
  edges.num_nodes = static_cast<NodeId>(out.vertex_map.size());
  for (const NodeId u : out.vertex_map) {
    for (const NodeId v : graph.neighbors(u)) {
      if (v > u) continue;  // each undirected edge once (v <= u side)
      if (labels[v] != component_label) continue;
      edges.edges.push_back({new_id[u], new_id[v]});
    }
  }
  out.graph = BuildGraph(edges);
  return out;
}

// Histogram of component sizes: (size, count) pairs sorted by size.
inline std::vector<std::pair<NodeId, NodeId>> ComponentSizeHistogram(
    const std::vector<NodeId>& labels) {
  std::vector<NodeId> sizes = ComponentSizes(labels);
  std::vector<NodeId> nonzero = ParallelPack<NodeId>(
      sizes.size(), [&](size_t v) { return sizes[v] > 0; },
      [&](size_t v) { return sizes[v]; });
  ParallelSort(nonzero);
  std::vector<std::pair<NodeId, NodeId>> histogram;
  for (size_t i = 0; i < nonzero.size();) {
    size_t j = i;
    while (j < nonzero.size() && nonzero[j] == nonzero[i]) ++j;
    histogram.emplace_back(nonzero[i], static_cast<NodeId>(j - i));
    i = j;
  }
  return histogram;
}

}  // namespace connectit

#endif  // CONNECTIT_CORE_COMPONENTS_H_
