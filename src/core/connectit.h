// The ConnectIt framework (paper Algorithms 1 and 2): compose a sampling
// method with a finish method to obtain a static connectivity or spanning
// forest algorithm.
//
// A finish method is a type exposing:
//   static constexpr bool kRootBased;
//   static void FinishComponents(const Graph&, std::vector<NodeId>& labels,
//                                NodeId frequent_label);
// and, when kRootBased:
//   static void FinishForest(const Graph&, std::vector<NodeId>& labels,
//                            std::vector<Edge>& slots, NodeId frequent_label);
//
// `labels` enters FinishComponents as the sampling phase's partial labeling
// (a depth-<=1 min-rooted forest; the identity when unsampled) and leaves
// fully compressed: labels[v] is the minimum vertex id of v's component
// (for ID-linking algorithms) or a canonical root (JTB).
//
// Representation support (paper §2 "Data Format"): the Finish*/Run* entry
// points are templates over any adjacency representation (plain CSR,
// byte-compressed CSR). Edge-centric finish methods additionally expose
// *OnCoo entry points that run natively on an EdgeList — no CSR is ever
// built — which the registry selects for unsampled runs on COO handles
// (see registry.cc and ARCHITECTURE.md for the dispatch contract).

#ifndef CONNECTIT_CORE_CONNECTIT_H_
#define CONNECTIT_CORE_CONNECTIT_H_

#include <numeric>
#include <vector>

#include "src/core/frequent.h"
#include "src/core/options.h"
#include "src/core/sampling.h"
#include "src/core/slot_recorder.h"
#include "src/graph/coo.h"
#include "src/graph/csr.h"
#include "src/liutarjan/label_prop.h"
#include "src/liutarjan/liu_tarjan.h"
#include "src/liutarjan/stergiou.h"
#include "src/parallel/primitives.h"
#include "src/sv/shiloach_vishkin.h"
#include "src/unionfind/dsu.h"

namespace connectit {

// skip[v] = 1 iff v carried the frequent label after sampling. Empty when
// unsampled.
inline std::vector<uint8_t> MakeSkipMask(const std::vector<NodeId>& labels,
                                         NodeId frequent) {
  if (frequent == kInvalidNode) return {};
  std::vector<uint8_t> skip(labels.size());
  ParallelFor(0, labels.size(), [&](size_t v) {
    skip[v] = (labels[v] == frequent) ? 1 : 0;
  });
  return skip;
}

// Decides whether the arc (u, v) should be applied so that every undirected
// edge not internal to the frequent component is applied exactly once.
inline bool ApplyArc(NodeId u, NodeId v, const std::vector<uint8_t>& skip) {
  if (skip.empty()) return u < v;
  if (skip[u]) return false;
  return u < v || skip[v];
}

// Materializes the edges the edge-centric finish algorithms (Liu-Tarjan,
// Stergiou) must process, *contracted* through the sampled labeling: the
// edge for arc (u, v) is (labels[u], labels[v]). This realizes the
// contraction view of the paper's Theorem 4 — the min-based finish runs on
// cluster representatives, so sampled clusters can never be split — and it
// keeps the endpoints roots, which RootUp variants require. Self-loops
// (intra-cluster edges) are dropped; each surviving undirected edge appears
// exactly once. When `originals` is non-null it receives the underlying
// graph edge for each emitted entry (spanning forest).
template <typename GraphT>
std::vector<Edge> CollectFinishEdges(const GraphT& graph,
                                     const std::vector<NodeId>& labels,
                                     const std::vector<uint8_t>& skip,
                                     std::vector<Edge>* originals = nullptr) {
  const NodeId n = graph.num_nodes();
  auto want = [&](NodeId u, NodeId v) {
    return ApplyArc(u, v, skip) && labels[u] != labels[v];
  };
  auto source_active = [&](NodeId u) { return skip.empty() || !skip[u]; };
  std::vector<EdgeId> counts(static_cast<size_t>(n) + 1, 0);
  ParallelFor(0, n, [&](size_t ui) {
    const NodeId u = static_cast<NodeId>(ui);
    if (!source_active(u)) return;  // counts[ui] stays 0
    EdgeId c = 0;
    graph.MapNeighbors(u, [&](NodeId v) { c += want(u, v) ? 1 : 0; });
    counts[ui] = c;
  });
  const EdgeId total = ScanExclusive(counts.data(), n);
  std::vector<Edge> edges(total);
  if (originals != nullptr) originals->resize(total);
  ParallelFor(0, n, [&](size_t ui) {
    const NodeId u = static_cast<NodeId>(ui);
    if (!source_active(u)) return;
    EdgeId pos = counts[ui];
    graph.MapNeighbors(u, [&](NodeId v) {
      if (want(u, v)) {
        if (originals != nullptr) (*originals)[pos] = {u, v};
        edges[pos] = {labels[u], labels[v]};
        ++pos;
      }
    });
  });
  return edges;
}

inline std::vector<NodeId> IdentityLabels(NodeId n) {
  std::vector<NodeId> labels(n);
  std::iota(labels.begin(), labels.end(), NodeId{0});
  return labels;
}

// Result of Algorithm 2 (and of the COO-native forest drivers below).
struct SpanningForestResult {
  std::vector<NodeId> labels;
  std::vector<Edge> edges;
};

// The splice a union-find spanning forest runs with. Rem's SpliceAtomic
// re-parents a *non-root* vertex into the other tree: a link Algorithm 2's
// slot recording never sees, so a concurrent Unite can then find one root
// and record no edge, breaking the root-based precondition (App. B.2) the
// forest relies on. SplitAtomicOne only shortcuts within a tree, so every
// cross-tree link stays a recorded root hook; the forest passes of
// SpliceAtomic variants use it, and their components pass keeps
// SpliceAtomic.
template <SpliceOption kSplice>
inline constexpr SpliceOption kForestSplice =
    kSplice == SpliceOption::kSplice ? SpliceOption::kSplitOne : kSplice;

// ---------------------------------------------------------------------------
// COO-native drivers (paper §2 "Data Format": CSR and COO are both
// first-class inputs)
// ---------------------------------------------------------------------------
//
// These run directly on a flat EdgeList — Liu-Tarjan's native input format,
// and the cheapest way to answer connectivity on edge-list input with
// union-find: one parallel unite per edge, no CSR build, no symmetrization.
// Self-loops and duplicate edges in the input are tolerated (unites of
// already-connected endpoints are no-ops; the Liu-Tarjan/Stergiou loops
// skip u == v entries). Sampling is adjacency-dependent and therefore not
// offered here; the registry materializes CSR for sampled runs on COO
// handles (GraphHandle::MaterializedCsr).

// Union-find connectivity on COO (paper §3.3.1), honoring the full
// unite/find/splice option space of Algorithms 10-14.
template <UniteOption kUnite, FindOption kFind,
          SpliceOption kSplice = SpliceOption::kNone>
std::vector<NodeId> ConnectivityOnEdges(const EdgeList& edges) {
  std::vector<NodeId> labels = IdentityLabels(edges.num_nodes);
  Dsu<kUnite, kFind, kSplice> dsu(labels.data(), edges.num_nodes);
  ParallelFor(0, edges.size(), [&](size_t i) {
    dsu.Unite(edges.edges[i].u, edges.edges[i].v);
  });
  FullyCompressParents(labels.data(), edges.num_nodes);
  return labels;
}

// Union-find spanning forest on COO (paper Algorithm 2's finish step,
// edge-centric form): the winning Unite records the responsible edge into
// the hooked root's slot.
template <UniteOption kUnite, FindOption kFind,
          SpliceOption kSplice = SpliceOption::kNone>
SpanningForestResult SpanningForestOnEdges(const EdgeList& edges) {
  const NodeId n = edges.num_nodes;
  SpanningForestResult result;
  result.labels = IdentityLabels(n);
  std::vector<Edge> slots(n, kEmptySlot);
  Dsu<kUnite, kFind, kForestSplice<kSplice>> dsu(result.labels.data(), n);
  ParallelFor(0, edges.size(), [&](size_t i) {
    const Edge e = edges.edges[i];
    const NodeId hooked = dsu.Unite(e.u, e.v);
    if (hooked != kInvalidNode) slots[hooked] = e;
  });
  FullyCompressParents(result.labels.data(), n);
  result.edges = ParallelPack<Edge>(
      n, [&](size_t v) { return slots[v] != kEmptySlot; },
      [&](size_t v) { return slots[v]; });
  return result;
}

// Liu-Tarjan connectivity on COO (paper §3.3.2 / Appendix D; their native
// input format), honoring the full connect/update/shortcut/alter space.
template <LtConnect kConnect, LtUpdate kUpdate, LtShortcut kShortcut,
          LtAlter kAlter>
std::vector<NodeId> ConnectivityOnEdgesLt(const EdgeList& edges) {
  std::vector<NodeId> labels = IdentityLabels(edges.num_nodes);
  std::vector<Edge> work = edges.edges;
  LiuTarjan<kConnect, kUpdate, kShortcut, kAlter> lt;
  lt.Run(work, labels);
  FullyCompressParents(labels.data(), edges.num_nodes);
  return labels;
}

// Liu-Tarjan spanning forest on COO (RootUp variants only — Appendix B.2's
// root-based criterion).
template <LtConnect kConnect, LtUpdate kUpdate, LtShortcut kShortcut,
          LtAlter kAlter>
SpanningForestResult SpanningForestOnEdgesLt(const EdgeList& edges) {
  static_assert(kUpdate == LtUpdate::kRootUp,
                "spanning forest requires a RootUp (root-based) variant");
  const NodeId n = edges.num_nodes;
  SpanningForestResult result;
  result.labels = IdentityLabels(n);
  std::vector<Edge> slots(n, kEmptySlot);
  SlotRecorder recorder(&slots, result.labels.data(), n);
  LiuTarjan<kConnect, kUpdate, kShortcut, kAlter> lt;
  // The work array is consumed (Alter rewrites it); originals stay aligned
  // with it so the recorder stores underlying graph edges.
  lt.RunForest(edges.edges, edges.edges, result.labels, recorder);
  FullyCompressParents(result.labels.data(), n);
  result.edges = ParallelPack<Edge>(
      n, [&](size_t v) { return slots[v] != kEmptySlot; },
      [&](size_t v) { return slots[v]; });
  return result;
}

// Stergiou's two-array BSP algorithm on COO (paper §B.2.5) — edge-centric
// like Liu-Tarjan, so it is COO-native too.
inline std::vector<NodeId> ConnectivityOnEdgesStergiou(const EdgeList& edges) {
  std::vector<NodeId> labels = IdentityLabels(edges.num_nodes);
  std::vector<Edge> work = edges.edges;
  Stergiou st;
  st.Run(work, labels);
  FullyCompressParents(labels.data(), edges.num_nodes);
  return labels;
}

// ---------------------------------------------------------------------------
// Finish adapters
// ---------------------------------------------------------------------------
//
// Each adapter binds one finish family to the framework surface. The
// ComponentsOnCoo/ForestOnCoo statics mark a family as COO-native: the
// registry detects them (registry.cc) and routes unsampled COO-handle runs
// there instead of materializing CSR. Vertex-centric families (SV, label
// propagation) deliberately omit them.

// Union-find finish (paper §3.3.1, Algorithms 10-14; 144 variants across
// unite x find x splice). Runs natively on CSR, compressed, and COO.
template <UniteOption kUnite, FindOption kFind,
          SpliceOption kSplice = SpliceOption::kNone>
struct UnionFindFinish {
  static constexpr bool kRootBased = true;

  template <typename GraphT>
  static void FinishComponents(const GraphT& graph,
                               std::vector<NodeId>& labels, NodeId frequent) {
    const NodeId n = graph.num_nodes();
    Dsu<kUnite, kFind, kSplice> dsu(labels.data(), n);
    const std::vector<uint8_t> skip = MakeSkipMask(labels, frequent);
    if (skip.empty()) {
      graph.MapArcs([&](NodeId u, NodeId v) {
        if (u < v) dsu.Unite(u, v);
      });
    } else {
      // Vertex-level skip is the point of sampling: the adjacency lists of
      // frequent-component vertices are never touched.
      graph.MapArcsIf([&](NodeId u) { return !skip[u]; },
                      [&](NodeId u, NodeId v) {
                        if (u < v || skip[v]) dsu.Unite(u, v);
                      });
    }
    FullyCompressParents(labels.data(), n);
  }

  template <typename GraphT>
  static void FinishForest(const GraphT& graph, std::vector<NodeId>& labels,
                           std::vector<Edge>& slots, NodeId frequent) {
    const NodeId n = graph.num_nodes();
    Dsu<kUnite, kFind, kForestSplice<kSplice>> dsu(labels.data(), n);
    const std::vector<uint8_t> skip = MakeSkipMask(labels, frequent);
    auto apply = [&](NodeId u, NodeId v) {
      const NodeId hooked = dsu.Unite(u, v);
      if (hooked != kInvalidNode) slots[hooked] = {u, v};
    };
    if (skip.empty()) {
      graph.MapArcs([&](NodeId u, NodeId v) {
        if (u < v) apply(u, v);
      });
    } else {
      graph.MapArcsIf([&](NodeId u) { return !skip[u]; },
                      [&](NodeId u, NodeId v) {
                        if (u < v || skip[v]) apply(u, v);
                      });
    }
    FullyCompressParents(labels.data(), n);
  }

  static std::vector<NodeId> ComponentsOnCoo(const EdgeList& edges) {
    return ConnectivityOnEdges<kUnite, kFind, kSplice>(edges);
  }
  static SpanningForestResult ForestOnCoo(const EdgeList& edges) {
    return SpanningForestOnEdges<kUnite, kFind, kSplice>(edges);
  }
};

// Liu-Tarjan finish (paper §3.3.2; the 16 Appendix D variants). Edge-centric
// — on CSR/compressed it first collects the contracted finish edges; on COO
// it runs natively on the input edge array.
template <LtConnect kConnect, LtUpdate kUpdate, LtShortcut kShortcut,
          LtAlter kAlter>
struct LiuTarjanFinish {
  static constexpr bool kRootBased = (kUpdate == LtUpdate::kRootUp);

  template <typename GraphT>
  static void FinishComponents(const GraphT& graph,
                               std::vector<NodeId>& labels, NodeId frequent) {
    const std::vector<uint8_t> skip = MakeSkipMask(labels, frequent);
    std::vector<Edge> edges = CollectFinishEdges(graph, labels, skip);
    LiuTarjan<kConnect, kUpdate, kShortcut, kAlter> lt;
    lt.Run(edges, labels);
    FullyCompressParents(labels.data(), graph.num_nodes());
  }

  template <typename GraphT>
  static void FinishForest(const GraphT& graph, std::vector<NodeId>& labels,
                           std::vector<Edge>& slots, NodeId frequent) {
    static_assert(kRootBased);
    const std::vector<uint8_t> skip = MakeSkipMask(labels, frequent);
    std::vector<Edge> originals;
    std::vector<Edge> edges =
        CollectFinishEdges(graph, labels, skip, &originals);
    SlotRecorder recorder(&slots, labels.data(), graph.num_nodes());
    LiuTarjan<kConnect, kUpdate, kShortcut, kAlter> lt;
    lt.RunForest(std::move(edges), std::move(originals), labels, recorder);
    FullyCompressParents(labels.data(), graph.num_nodes());
  }

  static std::vector<NodeId> ComponentsOnCoo(const EdgeList& edges) {
    return ConnectivityOnEdgesLt<kConnect, kUpdate, kShortcut, kAlter>(edges);
  }
  static SpanningForestResult ForestOnCoo(const EdgeList& edges) {
    return SpanningForestOnEdgesLt<kConnect, kUpdate, kShortcut, kAlter>(
        edges);
  }
};

// Stergiou finish (paper §B.2.5). Edge-centric; COO-native like Liu-Tarjan.
struct StergiouFinish {
  static constexpr bool kRootBased = false;

  template <typename GraphT>
  static void FinishComponents(const GraphT& graph,
                               std::vector<NodeId>& labels, NodeId frequent) {
    const std::vector<uint8_t> skip = MakeSkipMask(labels, frequent);
    std::vector<Edge> edges = CollectFinishEdges(graph, labels, skip);
    Stergiou st;
    st.Run(edges, labels);
    FullyCompressParents(labels.data(), graph.num_nodes());
  }

  static std::vector<NodeId> ComponentsOnCoo(const EdgeList& edges) {
    return ConnectivityOnEdgesStergiou(edges);
  }
};

// Label-propagation finish (paper §B.2.6). Vertex-centric: needs adjacency
// (per-vertex frontier expansion), so COO handles materialize CSR first.
struct LabelPropFinish {
  static constexpr bool kRootBased = false;

  template <typename GraphT>
  static void FinishComponents(const GraphT& graph,
                               std::vector<NodeId>& labels, NodeId frequent) {
    const NodeId n = graph.num_nodes();
    std::vector<uint8_t> active(n, 1);
    if (frequent != kInvalidNode) {
      ParallelFor(0, n, [&](size_t v) {
        active[v] = (labels[v] == frequent) ? 0 : 1;
      });
    }
    LabelPropagation lp;
    lp.Run(graph, labels, std::move(active));
    FullyCompressParents(labels.data(), n);
  }
};

// Shiloach-Vishkin finish (paper §B.2.4). Vertex-centric over adjacency
// lists (hook-and-compress rounds), so COO handles materialize CSR first.
struct ShiloachVishkinFinish {
  static constexpr bool kRootBased = true;

  template <typename GraphT>
  static void FinishComponents(const GraphT& graph,
                               std::vector<NodeId>& labels, NodeId frequent) {
    const std::vector<uint8_t> skip = MakeSkipMask(labels, frequent);
    ShiloachVishkin::Run(graph, labels, skip.empty() ? nullptr : &skip);
    FullyCompressParents(labels.data(), graph.num_nodes());
  }

  template <typename GraphT>
  static void FinishForest(const GraphT& graph, std::vector<NodeId>& labels,
                           std::vector<Edge>& slots, NodeId frequent) {
    const std::vector<uint8_t> skip = MakeSkipMask(labels, frequent);
    SlotRecorder recorder(&slots, labels.data(), graph.num_nodes());
    ShiloachVishkin::RunGraph(graph, labels,
                              skip.empty() ? nullptr : &skip, recorder);
    FullyCompressParents(labels.data(), graph.num_nodes());
  }
};

// ---------------------------------------------------------------------------
// Framework drivers (Algorithms 1 and 2)
// ---------------------------------------------------------------------------

// Algorithm 1: Connectivity(G, sampling, finish). GraphT is any adjacency
// representation (plain or byte-compressed CSR).
template <typename Finish, typename GraphT>
std::vector<NodeId> RunConnectivity(const GraphT& graph,
                                    const SamplingConfig& sampling = {}) {
  std::vector<NodeId> labels = IdentityLabels(graph.num_nodes());
  NodeId frequent = kInvalidNode;
  if (sampling.option != SamplingOption::kNone) {
    RunSamplingT(graph, sampling, labels);
    frequent = IdentifyFrequentSampled(labels).label;
  }
  Finish::FinishComponents(graph, labels, frequent);
  return labels;
}

// Algorithm 2: SpanningForest(G, sampling, finish). Root-based finish
// methods only.
template <typename Finish, typename GraphT>
SpanningForestResult RunSpanningForest(const GraphT& graph,
                                       const SamplingConfig& sampling = {}) {
  static_assert(Finish::kRootBased,
                "spanning forest requires a root-based finish method");
  const NodeId n = graph.num_nodes();
  SpanningForestResult result;
  result.labels = IdentityLabels(n);
  std::vector<Edge> slots(n, kEmptySlot);
  NodeId frequent = kInvalidNode;
  if (sampling.option != SamplingOption::kNone) {
    RunSamplingForestT(graph, sampling, result.labels, slots);
    frequent = IdentifyFrequentSampled(result.labels).label;
  }
  Finish::FinishForest(graph, result.labels, slots, frequent);
  // Filter the per-vertex slots down to the forest edge list (Algorithm 2,
  // line 7).
  result.edges = ParallelPack<Edge>(
      n, [&](size_t v) { return slots[v] != kEmptySlot; },
      [&](size_t v) { return slots[v]; });
  return result;
}

}  // namespace connectit

#endif  // CONNECTIT_CORE_CONNECTIT_H_
