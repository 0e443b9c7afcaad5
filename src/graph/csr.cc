#include "src/graph/csr.h"

#include <cassert>
#include <utility>

#include "src/parallel/primitives.h"

namespace connectit {

Graph::Graph(std::vector<EdgeId> offsets, std::vector<NodeId> neighbors) {
  assert(!offsets.empty());
  assert(offsets.back() == neighbors.size());
  struct Arrays {
    std::vector<EdgeId> offsets;
    std::vector<NodeId> neighbors;
  };
  auto arrays = std::make_shared<const Arrays>(
      Arrays{std::move(offsets), std::move(neighbors)});
  offsets_ = arrays->offsets;
  neighbors_ = arrays->neighbors;
  owner_ = std::move(arrays);
}

Graph::Graph(std::span<const EdgeId> offsets,
             std::span<const NodeId> neighbors,
             std::shared_ptr<const void> mapping)
    : offsets_(offsets),
      neighbors_(neighbors),
      owner_(std::move(mapping)),
      mapped_(true) {
  assert(!offsets_.empty());
  assert(offsets_.back() == neighbors_.size());
}

Graph::Graph(Graph&& other) noexcept
    : offsets_(std::exchange(other.offsets_, {})),
      neighbors_(std::exchange(other.neighbors_, {})),
      owner_(std::move(other.owner_)),
      mapped_(std::exchange(other.mapped_, false)) {}

Graph& Graph::operator=(Graph&& other) noexcept {
  if (this != &other) {
    offsets_ = std::exchange(other.offsets_, {});
    neighbors_ = std::exchange(other.neighbors_, {});
    owner_ = std::move(other.owner_);
    mapped_ = std::exchange(other.mapped_, false);
  }
  return *this;
}

DegreeStats ComputeDegreeStats(const Graph& graph) {
  DegreeStats stats;
  const NodeId n = graph.num_nodes();
  if (n == 0) return stats;
  stats.max_degree = ParallelReduce<EdgeId>(
      0, n, 0, [&](size_t v) { return graph.degree(static_cast<NodeId>(v)); },
      [](EdgeId a, EdgeId b) { return a > b ? a : b; });
  stats.avg_degree =
      static_cast<double>(graph.num_arcs()) / static_cast<double>(n);
  return stats;
}

}  // namespace connectit
