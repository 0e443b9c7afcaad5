#include "src/graph/sharded.h"

#include <algorithm>

#include "src/parallel/atomics.h"
#include "src/parallel/primitives.h"

namespace connectit {

ShardedGraph ShardedGraph::Partition(const Graph& graph, size_t num_shards) {
  if (num_shards == 0) num_shards = std::max<size_t>(1, NumWorkers());
  const NodeId n = graph.num_nodes();

  ShardedGraph sharded;
  sharded.num_nodes_ = n;
  sharded.num_arcs_ = graph.num_arcs();
  // Equal vertex ranges: chunk * num_shards >= n, so ShardOf(v) < num_shards
  // for every valid v. chunk >= 1 keeps the division well-defined for empty
  // graphs.
  sharded.chunk_ = static_cast<NodeId>(
      std::max<size_t>(1, (static_cast<size_t>(n) + num_shards - 1) /
                              num_shards));
  sharded.placement_nodes_ = NumaTopology::Get().num_nodes();
  sharded.shards_.resize(num_shards);

  const std::span<const EdgeId> offsets = graph.offsets();
  const std::span<const NodeId> neighbors = graph.neighbor_array();
  // Node-affine fill: shard si is allocated and written by a worker bound
  // to node NodeOfShard(si), so under the kernel's first-touch policy the
  // shard's pages land on the node whose workers sweep it later.
  ParallelForNodeAffine(num_shards, [&](size_t si) {
    Shard& s = sharded.shards_[si];
    const size_t chunk = sharded.chunk_;
    s.first = static_cast<NodeId>(std::min<size_t>(si * chunk, n));
    const NodeId last = static_cast<NodeId>(
        std::min<size_t>((si + 1) * chunk, n));
    const NodeId count = last - s.first;
    s.offsets.resize(static_cast<size_t>(count) + 1);
    if (count == 0) {
      // Trailing empty shard (P > n): a zero-vertex, zero-arc range.
      s.offsets[0] = 0;
      return;
    }
    const EdgeId base = offsets[s.first];
    for (NodeId i = 0; i <= count; ++i) {
      s.offsets[i] = offsets[s.first + i] - base;
    }
    s.neighbors.assign(neighbors.begin() + base,
                       neighbors.begin() + offsets[last]);
  });
  return sharded;
}

ShardedGraph::Shard ShardedGraph::BuildShard(const EdgeList& edges,
                                             NodeId first, NodeId count) {
  Shard shard;
  shard.first = first;
  shard.offsets.assign(static_cast<size_t>(count) + 1, 0);
  const NodeId hi = first + count;
  const size_t m = edges.size();

  // Symmetrized arcs with source inside [first, hi): index i < m is the
  // forward arc of edge i, index i >= m its reverse. One stable pack keeps
  // only the in-range sources.
  std::vector<Edge> arcs;
  if (m > 0) {
    arcs = ParallelPack<Edge>(
        2 * m,
        [&](size_t i) {
          const Edge& e = edges.edges[i % m];
          const NodeId src = i < m ? e.u : e.v;
          return src >= first && src < hi;
        },
        [&](size_t i) {
          const Edge& e = edges.edges[i % m];
          return i < m ? e : Edge{e.v, e.u};
        });
  }
  // Same comparator and filter as BuildFromArcs (builder.cc): restricting
  // to a source range commutes with sorting by (source, target) and with
  // removing self loops / adjacent duplicates, which is what makes the
  // per-shard result identical to the corresponding slice of BuildGraph.
  ParallelSort(arcs, [](const Edge& a, const Edge& b) {
    return a.u < b.u || (a.u == b.u && a.v < b.v);
  });
  std::vector<Edge> kept = ParallelPack<Edge>(
      arcs.size(),
      [&](size_t i) {
        const Edge& e = arcs[i];
        if (e.u == e.v) return false;
        if (i > 0 && arcs[i - 1] == e) return false;
        return true;
      },
      [&](size_t i) { return arcs[i]; });
  arcs.clear();
  arcs.shrink_to_fit();

  ParallelFor(0, kept.size(), [&](size_t i) {
    FetchAdd<EdgeId>(&shard.offsets[kept[i].u - first + 1], 1);
  });
  for (size_t v = 1; v <= count; ++v) shard.offsets[v] += shard.offsets[v - 1];
  shard.neighbors.resize(kept.size());
  ParallelFor(0, kept.size(),
              [&](size_t i) { shard.neighbors[i] = kept[i].v; });
  return shard;
}

Graph ShardedGraph::Flatten() const {
  std::vector<EdgeId> offsets(static_cast<size_t>(num_nodes_) + 1, 0);
  std::vector<NodeId> neighbors(num_arcs_);
  // Per-shard arc base: exclusive prefix sum over shard arc counts.
  std::vector<EdgeId> bases(shards_.size() + 1, 0);
  for (size_t si = 0; si < shards_.size(); ++si) {
    bases[si + 1] = bases[si] + shards_[si].arcs();
  }
  ParallelFor(
      0, shards_.size(),
      [&](size_t si) {
        const Shard& s = shards_[si];
        const NodeId count = s.count();
        for (NodeId i = 0; i < count; ++i) {
          offsets[s.first + i] = bases[si] + s.offsets[i];
        }
        std::copy(s.neighbors.begin(), s.neighbors.end(),
                  neighbors.begin() + bases[si]);
      },
      /*grain=*/1);
  offsets[num_nodes_] = num_arcs_;
  return Graph(std::move(offsets), std::move(neighbors));
}

}  // namespace connectit
