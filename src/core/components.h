// Post-processing utilities over connectivity labelings: the operations
// downstream users (clustering pipelines, graph cleaning, §1's motivating
// applications) run right after connectivity.

#ifndef CONNECTIT_CORE_COMPONENTS_H_
#define CONNECTIT_CORE_COMPONENTS_H_

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

// Size of each component, indexed by its label (0 for non-labels), and,
// through `num_components`, the CountComponents value, from one blocked
// pass. Most vertices of a real graph share the giant component's label,
// so a per-vertex FetchAdd on its size would make every worker contend for
// one cache line. The most frequent label is estimated once by sampling;
// each block counts it locally and adds the total with one FetchAdd, while
// other labels keep a per-vertex FetchAdd (spread over many lines). The
// estimate only decides where additions happen, so sizes are always exact.
inline std::vector<NodeId> ComponentSizes(const std::vector<NodeId>& labels,
                                          NodeId* num_components = nullptr) {
  std::vector<NodeId> sizes(labels.size(), 0);
  const NodeId frequent = IdentifyFrequentSampled(labels).label;
  NodeId roots = 0;
  ParallelForBlocked(0, labels.size(), [&](size_t lo, size_t hi) {
    NodeId frequent_count = 0;
    NodeId block_roots = 0;
    for (size_t v = lo; v < hi; ++v) {
      const NodeId label = labels[v];
      if (label == static_cast<NodeId>(v)) ++block_roots;
      if (label == frequent) {
        ++frequent_count;
      } else {
        FetchAdd<NodeId>(&sizes[label], 1);
      }
    }
    if (frequent_count != 0) FetchAdd(&sizes[frequent], frequent_count);
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
