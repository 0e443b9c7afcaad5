#include "src/graph/graph_handle.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <mutex>

#include "src/graph/builder.h"
#include "src/graph/container.h"

namespace connectit {

namespace {
std::atomic<uint64_t> g_coo_csr_materializations{0};
std::atomic<uint64_t> g_sharded_csr_materializations{0};
}  // namespace

uint64_t CooCsrMaterializations() {
  return g_coo_csr_materializations.load(std::memory_order_relaxed);
}

uint64_t ShardedCsrMaterializations() {
  return g_sharded_csr_materializations.load(std::memory_order_relaxed);
}

const char* ToString(GraphRepresentation rep) {
  switch (rep) {
    case GraphRepresentation::kCsr: return "csr";
    case GraphRepresentation::kCompressed: return "compressed";
    case GraphRepresentation::kCoo: return "coo";
    case GraphRepresentation::kSharded: return "sharded";
  }
  return "unknown";
}

struct GraphHandle::FlatCsrCache {
  std::once_flag once;
  std::unique_ptr<const Graph> csr;
};

GraphHandle::GraphHandle(const EdgeList& edges)
    : coo_(&edges), flat_cache_(std::make_shared<FlatCsrCache>()) {}

GraphHandle::GraphHandle(const ShardedGraph& graph)
    : sharded_(&graph), flat_cache_(std::make_shared<FlatCsrCache>()) {}

GraphHandle GraphHandle::Adopt(Graph graph) {
  GraphHandle handle;
  auto owned = std::make_shared<Graph>(std::move(graph));
  handle.csr_ = owned.get();
  handle.owned_ = std::move(owned);
  return handle;
}

GraphHandle GraphHandle::Adopt(CompressedGraph graph) {
  GraphHandle handle;
  auto owned = std::make_shared<CompressedGraph>(std::move(graph));
  handle.compressed_ = owned.get();
  handle.owned_ = std::move(owned);
  return handle;
}

GraphHandle GraphHandle::Adopt(EdgeList edges) {
  GraphHandle handle;
  auto owned = std::make_shared<EdgeList>(std::move(edges));
  handle.coo_ = owned.get();
  handle.owned_ = std::move(owned);
  handle.flat_cache_ = std::make_shared<FlatCsrCache>();
  return handle;
}

GraphHandle GraphHandle::Adopt(ShardedGraph graph) {
  GraphHandle handle;
  auto owned = std::make_shared<ShardedGraph>(std::move(graph));
  handle.sharded_ = owned.get();
  handle.owned_ = std::move(owned);
  handle.flat_cache_ = std::make_shared<FlatCsrCache>();
  return handle;
}

GraphHandle GraphHandle::Map(const std::string& path, std::string* error) {
  MappedContainer container;
  if (!MappedContainer::Map(path, &container, error)) return GraphHandle();
  return Adopt(container.graph());
}

GraphHandle GraphHandle::MapOrDie(const std::string& path) {
  std::string error;
  MappedContainer container;
  if (!MappedContainer::Map(path, &container, &error)) {
    std::fprintf(stderr, "GraphHandle::MapOrDie: %s\n", error.c_str());
    std::abort();
  }
  return Adopt(container.graph());
}

GraphHandle GraphHandle::FromEdges(const EdgeList& edges) {
  return Adopt(edges);
}

GraphHandle GraphHandle::Compress(const Graph& graph) {
  return Adopt(CompressedGraph::Encode(graph));
}

GraphHandle GraphHandle::Shard(const Graph& graph, size_t num_shards) {
  return Adopt(ShardedGraph::Partition(graph, num_shards));
}

const Graph& GraphHandle::MaterializedCsr() const {
  if (coo_ != nullptr) {
    std::call_once(flat_cache_->once, [this] {
      flat_cache_->csr = std::make_unique<const Graph>(BuildGraph(*coo_));
      g_coo_csr_materializations.fetch_add(1, std::memory_order_relaxed);
    });
    return *flat_cache_->csr;
  }
  if (sharded_ != nullptr) {
    // Registry paths never take this branch (the shards serve the full
    // adjacency surface); it exists for flat-CSR-only consumers such as the
    // baselines, and the counter keeps that claim testable.
    std::call_once(flat_cache_->once, [this] {
      flat_cache_->csr = std::make_unique<const Graph>(sharded_->Flatten());
      g_sharded_csr_materializations.fetch_add(1, std::memory_order_relaxed);
    });
    return *flat_cache_->csr;
  }
  // A CSR handle is its own materialization. Compressed handles serve the
  // adjacency surface directly and must not be silently flattened to the
  // empty graph here — abort even in Release builds rather than return a
  // 0-vertex graph.
  if (compressed_ != nullptr) {
    std::fprintf(stderr,
                 "MaterializedCsr: compressed handles already provide "
                 "adjacency; use Visit\n");
    std::abort();
  }
  return csr_ != nullptr ? *csr_ : EmptyGraph();
}

const Graph& GraphHandle::EmptyGraph() {
  static const Graph* empty = new Graph();
  return *empty;
}

}  // namespace connectit
