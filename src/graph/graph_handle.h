// Representation-generic graph handle (paper §2 "Data Format").
//
// ConnectIt treats plain CSR, byte-compressed CSR, COO edge lists, and
// sharded (vertex-partitioned) CSR as first-class inputs: every sampling
// and finish method is a template over the representation's
// MapNeighbors/MapArcs/MapArcsIf/NeighborAt surface, and the edge-centric
// finish methods (union-find, Liu-Tarjan, Stergiou) additionally run
// directly on a flat edge array. GraphHandle is the type-erased seam
// between that compile-time genericity and the runtime registry: a
// Variant::run accepts a GraphHandle, and the registry instantiates the
// templated framework once per representation behind Visit().
//
// A handle is either a *view* (non-owning; the caller keeps the graph
// alive, as when benches iterate a pre-built suite) or *owning* (the handle
// holds the representation via shared_ptr, so handles are cheap to copy and
// safe to return).
//
// COO handles are *not* converted at the door. Edge-centric finish methods
// run natively on the edge list (see ConnectivityOnEdges et al. in
// connectit.h); only consumers that genuinely need adjacency — the sampling
// schemes and the vertex-centric finish methods — trigger a CSR
// materialization, via MaterializedCsr(). The materialization is built once
// per handle family (copies share it) and cached; CooCsrMaterializations()
// counts builds so tests and the CLI can assert the native paths never pay
// the O(m) conversion.
//
// Sharded handles follow the same lazy rule from the other side: because
// ShardedGraph serves the full adjacency surface, *every* variant ×
// sampling combination runs on the shards natively and MaterializedCsr()
// is needed only by consumers that require one flat allocation (e.g. the
// CSR-only baselines). That fallback flattens lazily, caches the result in
// the handle family, and counts builds in ShardedCsrMaterializations() so
// tests can pin native sharded runs to zero flattens.
//
// A .cgc container (container.h) is not a representation of its own: it
// stores the CSR arrays verbatim, so GraphHandle::Map returns a CSR handle
// whose Graph serves those arrays straight from the mapping.

#ifndef CONNECTIT_GRAPH_GRAPH_HANDLE_H_
#define CONNECTIT_GRAPH_GRAPH_HANDLE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>

#include "src/graph/compressed.h"
#include "src/graph/coo.h"
#include "src/graph/csr.h"
#include "src/graph/sharded.h"
#include "src/graph/types.h"

namespace connectit {

enum class GraphRepresentation {
  kCsr,
  kCompressed,
  kCoo,
  kSharded,
};

const char* ToString(GraphRepresentation rep);

// Number of COO -> CSR materializations performed process-wide (via
// GraphHandle::MaterializedCsr). The acceptance gate for COO-native
// execution: run a variant on a COO handle and assert this counter did not
// move.
uint64_t CooCsrMaterializations();

// Number of sharded -> flat-CSR flattens performed process-wide (via
// GraphHandle::MaterializedCsr on a sharded handle). The acceptance gate
// for sharded-native execution: the whole variant × sampling space runs on
// the shards directly, so this counter must not move during registry runs.
uint64_t ShardedCsrMaterializations();

class GraphHandle {
 public:
  // An empty handle behaves as the 0-vertex CSR graph.
  GraphHandle() = default;

  // Non-owning views. Implicit by design: every pre-refactor call site that
  // passed `const Graph&` to Variant::run keeps working unchanged.
  GraphHandle(const Graph& graph) : csr_(&graph) {}
  GraphHandle(const CompressedGraph& graph) : compressed_(&graph) {}
  GraphHandle(const EdgeList& edges);
  GraphHandle(const ShardedGraph& graph);

  // A view of a temporary would dangle immediately; use
  // Adopt/Compress/Shard for rvalues.
  GraphHandle(Graph&&) = delete;
  GraphHandle(CompressedGraph&&) = delete;
  GraphHandle(EdgeList&&) = delete;
  GraphHandle(ShardedGraph&&) = delete;

  // Owning handles (the representation lives as long as any copy).
  static GraphHandle Adopt(Graph graph);
  static GraphHandle Adopt(CompressedGraph graph);
  static GraphHandle Adopt(EdgeList edges);
  static GraphHandle Adopt(ShardedGraph graph);

  // Maps a .cgc container (container.h) as an owning CSR handle served
  // zero-copy from the mapping. On failure returns an empty handle with a
  // diagnostic in *error. MapOrDie prints the diagnostic and aborts — the
  // CLI / bench path where a missing or corrupt file is fatal anyway.
  static GraphHandle Map(const std::string& path, std::string* error = nullptr);
  static GraphHandle MapOrDie(const std::string& path);

  // COO input as a first-class representation: the handle owns a copy of
  // the edge list and stays COO. CSR is built lazily — and counted — only
  // if an adjacency-dependent consumer asks (MaterializedCsr).
  static GraphHandle FromEdges(const EdgeList& edges);

  // Byte-compresses a CSR graph and owns the result.
  static GraphHandle Compress(const Graph& graph);

  // Partitions a CSR graph into num_shards vertex-contiguous shards and
  // owns the result (0 = the thread pool's worker count; see
  // ShardedGraph::Partition).
  static GraphHandle Shard(const Graph& graph, size_t num_shards = 0);

  GraphRepresentation representation() const {
    // Exhaustive over every representation a handle can hold; a default
    // handle reads as the empty CSR graph.
    if (sharded_ != nullptr) return GraphRepresentation::kSharded;
    if (coo_ != nullptr) return GraphRepresentation::kCoo;
    if (compressed_ != nullptr) return GraphRepresentation::kCompressed;
    return GraphRepresentation::kCsr;
  }
  const char* representation_name() const {
    return ToString(representation());
  }

  // The underlying representation, or nullptr when the handle wraps a
  // different one. Use Visit for representation-generic code.
  const Graph* csr() const { return csr_; }
  const CompressedGraph* compressed() const { return compressed_; }
  const EdgeList* coo() const { return coo_; }
  const ShardedGraph* sharded() const { return sharded_; }

  // COO and sharded handles only: the flat-CSR materialization of the
  // representation — built through BuildGraph (COO: symmetrized,
  // deduplicated) or ShardedGraph::Flatten (sharded) on first call
  // (thread-safe) and cached, so copies of the handle share one build. Each
  // build increments the per-representation counter
  // (CooCsrMaterializations / ShardedCsrMaterializations). A CSR handle is
  // its own materialization.
  const Graph& MaterializedCsr() const;

  // Invokes `visitor` with the concrete representation (`const Graph&`,
  // `const CompressedGraph&`, `const EdgeList&`, or `const ShardedGraph&`).
  // This is the single dispatch point the registry uses to instantiate the
  // templated framework per representation; visitors that need adjacency on
  // an EdgeList arm escalate explicitly via MaterializedCsr().
  template <typename Visitor>
  decltype(auto) Visit(Visitor&& visitor) const {
    if (sharded_ != nullptr) return visitor(*sharded_);
    if (coo_ != nullptr) return visitor(*coo_);
    if (compressed_ != nullptr) return visitor(*compressed_);
    if (csr_ != nullptr) return visitor(*csr_);
    return visitor(EmptyGraph());
  }

  NodeId num_nodes() const {
    if (sharded_ != nullptr) return sharded_->num_nodes();
    if (coo_ != nullptr) return coo_->num_nodes;
    return compressed_ != nullptr ? compressed_->num_nodes()
                                  : (csr_ != nullptr ? csr_->num_nodes() : 0);
  }
  EdgeId num_arcs() const {
    if (sharded_ != nullptr) return sharded_->num_arcs();
    if (coo_ != nullptr) return static_cast<EdgeId>(coo_->size()) * 2;
    return compressed_ != nullptr ? compressed_->num_arcs()
                                  : (csr_ != nullptr ? csr_->num_arcs() : 0);
  }
  EdgeId num_edges() const {
    if (sharded_ != nullptr) return sharded_->num_edges();
    if (coo_ != nullptr) return static_cast<EdgeId>(coo_->size());
    return compressed_ != nullptr ? compressed_->num_edges()
                                  : (csr_ != nullptr ? csr_->num_edges() : 0);
  }

 private:
  // Shared, lazily-filled flat-CSR cache for COO and sharded handles. Lives
  // behind a shared_ptr so every copy of the handle funds the same single
  // build.
  struct FlatCsrCache;

  static const Graph& EmptyGraph();

  const Graph* csr_ = nullptr;
  const CompressedGraph* compressed_ = nullptr;
  const EdgeList* coo_ = nullptr;
  const ShardedGraph* sharded_ = nullptr;
  // Set only for owning handles; keeps whichever representation the raw
  // pointers reference alive across copies.
  std::shared_ptr<const void> owned_;
  // Set for every COO or sharded handle (view or owning).
  std::shared_ptr<FlatCsrCache> flat_cache_;
};

}  // namespace connectit

#endif  // CONNECTIT_GRAPH_GRAPH_HANDLE_H_
