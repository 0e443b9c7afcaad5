// Immutable compressed-sparse-row graph (paper §2 "Data Format: CSR").
//
// The graph is undirected and stored symmetrically: every undirected edge
// {u, v} appears both in u's and v's neighbor list. All connectivity
// algorithms in this library iterate over these directed arcs.
//
// A Graph is a read-only view of two arrays plus a shared, type-erased
// owner that keeps them alive. The arrays either live in memory the graph
// family owns (the vector constructor, used by BuildGraph and friends) or
// inside a mapped .cgc container file (MappedContainer, container.h), whose
// mapping the owner keeps open. Algorithms cannot tell the two apart.
// Copies share the arrays: Graph has no mutators, so a copy is O(1).

#ifndef CONNECTIT_GRAPH_CSR_H_
#define CONNECTIT_GRAPH_CSR_H_

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "src/graph/types.h"
#include "src/parallel/thread_pool.h"

namespace connectit {

class Graph {
 public:
  Graph() = default;

  // Takes ownership of prebuilt CSR arrays. offsets.size() == n + 1,
  // offsets[n] == neighbors.size(). Use BuildGraph (builder.h) to construct
  // from an edge list.
  Graph(std::vector<EdgeId> offsets, std::vector<NodeId> neighbors);

  // Serves arrays that live inside a file mapping; `mapping` keeps them
  // alive for as long as any copy of this graph exists. The caller has
  // validated the CSR shape (MappedContainer::Map does).
  Graph(std::span<const EdgeId> offsets, std::span<const NodeId> neighbors,
        std::shared_ptr<const void> mapping);

  Graph(const Graph&) = default;
  Graph& operator=(const Graph&) = default;
  // A moved-from graph is the empty graph, as with the vectors it once held.
  Graph(Graph&& other) noexcept;
  Graph& operator=(Graph&& other) noexcept;

  NodeId num_nodes() const {
    return offsets_.empty() ? 0 : static_cast<NodeId>(offsets_.size() - 1);
  }
  // Number of directed arcs (2x the number of undirected edges).
  EdgeId num_arcs() const { return neighbors_.size(); }
  // Number of undirected edges.
  EdgeId num_edges() const { return neighbors_.size() / 2; }

  EdgeId degree(NodeId v) const { return offsets_[v + 1] - offsets_[v]; }

  std::span<const NodeId> neighbors(NodeId v) const {
    return {neighbors_.data() + offsets_[v],
            static_cast<size_t>(degree(v))};
  }

  std::span<const EdgeId> offsets() const { return offsets_; }
  std::span<const NodeId> neighbor_array() const { return neighbors_; }

  // True when the arrays are served from a file mapping rather than from
  // memory the graph owns. Converting such a graph to another
  // representation copies what the mapping avoids loading.
  bool mapped() const { return mapped_; }

  // Invokes fn(u, v) for every directed arc (u, v), in parallel over source
  // vertices. fn must be thread-safe.
  template <typename F>
  void MapArcs(F&& fn) const;

  // As MapArcs but only for sources where pred(u) is true.
  template <typename F, typename Pred>
  void MapArcsIf(Pred&& pred, F&& fn) const;

  // Invokes fn(v) for each neighbor of u in order (sequential).
  template <typename F>
  void MapNeighbors(NodeId u, F&& fn) const {
    for (NodeId v : neighbors(u)) fn(v);
  }

  // As MapNeighbors, but stops early when fn returns false.
  template <typename F>
  void MapNeighborsWhile(NodeId u, F&& fn) const {
    for (NodeId v : neighbors(u)) {
      if (!fn(v)) return;
    }
  }

  // Random access to the i-th neighbor of u (i < degree(u)).
  NodeId NeighborAt(NodeId u, EdgeId i) const {
    return neighbors_[offsets_[u] + i];
  }

 private:
  std::span<const EdgeId> offsets_;    // size n + 1 (0 for Graph())
  std::span<const NodeId> neighbors_;  // size num_arcs
  std::shared_ptr<const void> owner_;  // keeps both arrays alive
  bool mapped_ = false;
};

// Per-vertex degree statistics used by benches and tests.
struct DegreeStats {
  EdgeId max_degree = 0;
  double avg_degree = 0.0;
};

DegreeStats ComputeDegreeStats(const Graph& graph);

// ---- template definitions ----

template <typename F>
void Graph::MapArcs(F&& fn) const {
  MapArcsIf([](NodeId) { return true; }, fn);
}

template <typename F, typename Pred>
void Graph::MapArcsIf(Pred&& pred, F&& fn) const {
  const NodeId n = num_nodes();
  // Parallelize over vertices; heavy-degree skew is handled by the dynamic
  // chunking in ParallelFor with a modest grain.
  ParallelFor(
      0, n,
      [&](size_t ui) {
        const NodeId u = static_cast<NodeId>(ui);
        if (!pred(u)) return;
        const EdgeId lo = offsets_[u];
        const EdgeId hi = offsets_[u + 1];
        for (EdgeId e = lo; e < hi; ++e) fn(u, neighbors_[e]);
      },
      /*grain=*/64);
}

}  // namespace connectit

#endif  // CONNECTIT_GRAPH_CSR_H_
