// connectit::Connectivity — the serving façade over the variant space.
//
// This is the front door for downstream consumers (examples, the CLI,
// services embedding the library): one object that owns the full
// connectivity lifecycle, so callers never hand-assemble
// GraphHandle/SamplingConfig/StreamingSeed plumbing or look variants up by
// string. The registry (registry.h) stays the internal dispatch seam the
// façade sits on — benches and tests still sweep it directly.
//
//   Connectivity index(Connectivity::Spec()
//                          .Algorithm(VariantDescriptor::UnionFind(
//                              UniteOption::kRemCas, FindOption::kNaive,
//                              SpliceOption::kSplitOne))
//                          .Sampling(SamplingConfig::KOut()));
//   index.Build(graph);                  // bulk analytical pass (Alg. 1)
//   index.SameComponent(u, v);           // serve reads...
//   index.Stream();                      // ...hand off to incremental mode
//   index.Insert(todays_edges, queries); // batches + inline queries (§3.5)
//   Snapshot snap = index.Acquire();     // pin one labeling across queries
//   index.NumComponents();               // reads stay live throughout
//
// Lifecycle: Build runs the configured variant's static pass on the graph
// (converted to the Spec's representation if one was requested); Stream
// seeds the variant's own streaming structure from the built labeling
// through the registry's StreamingSeed seam (the same validation and
// min-rooted normalization as StreamingSeed::FromStatic, without re-running
// the pass); Insert applies §3.5 batches.
//
// Serving model (ServingMode::kSnapshot, the default): every mutation
// (Build, Stream, Insert, Erase) finishes by *publishing* an immutable
// Snapshot of the labeling through one atomic pointer swap. Reads
// (Component, SameComponent, NumComponents, ComponentSizes, Labels)
// dereference the published pointer inside an epoch guard
// (src/parallel/epoch.h) and answer by array indexing plus at most one
// hash probe — wait-free, no lock, no parent-chasing, scaling to all cores
// while an ingest thread applies batches. A reader can never observe a
// half-applied batch: the pointer swaps only between complete labelings.
// Replaced snapshots are retired into the epoch domain and freed once no
// reader can hold them (and, for Acquire'd snapshots, once every handle
// is released). The wait-free AtomicLoad find discipline of §3.5 thereby
// extends to the serving layer.
//
// A snapshot is a shared, immutable *base* (the fully compressed labels,
// sizes by label and component count of the last full publication) plus
// a small *overlay*: a hash map from each base label that is no longer a
// root to its current root, and from each root whose component grew to
// its size. Build, Stream and Erase publish a fresh base (Θ(n)). An
// Insert publishes in O(|overlay| + batch): the roots a batch can absorb
// are the pre-batch roots of its endpoints (a union only merges its
// endpoints' trees, and a root only ever loses root status), so the
// writer walks those to their current roots and extends the previous
// overlay. Once the overlay passes n / kOverlayShare entries, the next
// Insert compacts into a fresh base instead.
//
// ServingMode::kSharedLock keeps the previous design as an A/B baseline
// (bench_serving measures both): readers share a lock against exclusive
// mutators, and the served labeling is refreshed lazily — an Insert only
// marks it stale, and the first read afterwards pays the Θ(n) refresh once
// (the stale flag is re-checked under the exclusive lock, so racing
// readers cannot duplicate the refresh; stats::ReadServing().
// label_refreshes counts them). A pure ingest loop therefore never pays
// the snapshot cost per batch, at the price of lock-limited reads.
//
// Spec is a builder: algorithm (typed descriptor or registry-name string),
// sampling scheme, target representation, shard count, serving mode.
// Spec::Auto(graph, streaming) inspects graph traits (density, input
// representation, whether streaming is requested) and picks a variant +
// representation per the paper's guidance.

#ifndef CONNECTIT_CORE_CONNECTIVITY_INDEX_H_
#define CONNECTIT_CORE_CONNECTIVITY_INDEX_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string_view>
#include <vector>

#include "src/core/registry.h"
#include "src/core/variant_descriptor.h"
#include "src/graph/graph_handle.h"
#include "src/stats/counters.h"

namespace connectit {

class DynamicForest;

// How the read methods are served. kSnapshot is the default; kSharedLock
// is kept as the measured baseline (see the header comment).
enum class ServingMode : uint8_t { kSnapshot, kSharedLock };

const char* ToString(ServingMode mode);

namespace internal {

// The labeling of the last full publication (a compaction), shared by
// every snapshot published until the next one.
struct SnapshotBase {
  std::vector<NodeId> labels;  // fully path-compressed: labels[labels[v]]
                               // == labels[v] for every v
  std::vector<NodeId> sizes;   // component size by label
  NodeId num_components = 0;
};

// A base label whose component changed since the base. root != key: key
// was absorbed into root's component and labels nothing any more. root ==
// key: key is still a label and its component grew to `size`.
struct OverlayEntry {
  NodeId key = kInvalidNode;  // kInvalidNode marks an empty slot
  NodeId root = kInvalidNode;
  NodeId size = 0;
};

// Open addressing with linear probing over a power-of-two table kept at
// most half full. Immutable once published; the writer builds each
// publication's overlay from a copy of the previous one.
struct Overlay {
  std::vector<OverlayEntry> slots;  // empty or a power of two
  size_t entries = 0;

  static size_t Home(NodeId key, size_t mask) {
    return static_cast<size_t>((key * uint64_t{0x9E3779B97F4A7C15}) >> 32) &
           mask;
  }
  const OverlayEntry* Find(NodeId key) const {
    if (entries == 0) return nullptr;
    const size_t mask = slots.size() - 1;
    for (size_t i = Home(key, mask);; i = (i + 1) & mask) {
      if (slots[i].key == key) return &slots[i];
      if (slots[i].key == kInvalidNode) return nullptr;
    }
  }
};

// One published labeling: a shared base plus this publication's overlay.
// Immutable after publication (refs and the lazy caches aside), so any
// number of readers answer from it without synchronization: a point read
// is base.labels[v] and at most one overlay probe.
struct SnapshotData {
  std::shared_ptr<const SnapshotBase> base;
  Overlay overlay;
  NodeId num_components = 0;
  uint64_t version = 0;   // publication sequence number of this index
  bool published = false;  // true = lifetime managed by the epoch domain
  mutable std::atomic<uint64_t> refs{0};  // outstanding Snapshot handles

  NodeId num_nodes() const { return static_cast<NodeId>(base->labels.size()); }
  NodeId Component(NodeId v) const { return Resolve(base->labels.at(v)); }
  // The current label of a base label.
  NodeId Resolve(NodeId base_label) const {
    const OverlayEntry* e = overlay.Find(base_label);
    return e == nullptr ? base_label : e->root;
  }
  // Size of the component labeled `label`; 0 if it labels none. Every
  // label is a base label (roots only lose root status), so only base
  // labels need the probe.
  NodeId ComponentSize(NodeId label) const {
    if (label >= base->sizes.size() || base->sizes[label] == 0) return 0;
    const OverlayEntry* e = overlay.Find(label);
    if (e == nullptr) return base->sizes[label];
    return e->root == label ? e->size : 0;
  }
  // The n-sized forms, built on first use and cached (the base's own
  // arrays while the overlay is empty).
  const std::vector<NodeId>& Labels() const;
  const std::vector<NodeId>& Sizes() const;

 private:
  mutable std::once_flag labels_once_, sizes_once_;
  mutable std::vector<NodeId> labels_, sizes_;
};

}  // namespace internal

// An immutable, refcounted view of one published labeling. Answers are
// frozen at Acquire() time: any number of queries against one Snapshot
// are mutually consistent no matter how many batches land concurrently.
// Cheap to copy (one atomic increment); holding one defers reclamation of
// exactly its own block, never the epoch machinery. A default-constructed
// Snapshot is empty (valid() == false, zero nodes).
class Snapshot {
 public:
  Snapshot() = default;
  ~Snapshot();
  Snapshot(const Snapshot& other);
  Snapshot& operator=(const Snapshot& other);
  Snapshot(Snapshot&& other) noexcept;
  Snapshot& operator=(Snapshot&& other) noexcept;

  bool valid() const { return data_ != nullptr; }

  NodeId num_nodes() const {
    return data_ == nullptr ? 0 : data_->num_nodes();
  }
  NodeId Component(NodeId v) const { return data_->Component(v); }
  bool SameComponent(NodeId u, NodeId v) const {
    return data_->Component(u) == data_->Component(v);
  }
  NodeId NumComponents() const {
    return data_ == nullptr ? 0 : data_->num_components;
  }
  // Size of the component whose representative is `label` (0 if `label`
  // represents none). O(1): one overlay probe.
  NodeId ComponentSize(NodeId label) const {
    return data_->ComponentSize(label);
  }
  // Size of each component, indexed by representative (0 elsewhere), and
  // the full labeling. Θ(n) on the first call per snapshot, cached after.
  const std::vector<NodeId>& ComponentSizes() const { return data_->Sizes(); }
  const std::vector<NodeId>& Labels() const { return data_->Labels(); }

  // Publication sequence number: strictly increasing per Connectivity
  // publication, 0 for on-demand (kSharedLock-mode) snapshots.
  uint64_t version() const { return data_ == nullptr ? 0 : data_->version; }

 private:
  friend class Connectivity;
  // Takes ownership of one reference the caller already holds on `data`.
  explicit Snapshot(const internal::SnapshotData* data) : data_(data) {}
  void Release();

  const internal::SnapshotData* data_ = nullptr;
};

class Connectivity {
 public:
  class Spec {
   public:
    // Default: the paper's recommended all-around variant (DefaultVariant),
    // no sampling, keep the input graph's representation, snapshot serving.
    Spec() : algorithm_(DefaultVariant().descriptor) {}

    // Picks algorithm, sampling, and representation from the graph's
    // traits, following the paper's guidance:
    //  - the algorithm is always DefaultVariant (Union-Rem-CAS;FindNaive;
    //    SplitAtomicOne — fastest all-around, root-based, streamable);
    //  - COO inputs stay unsampled so the whole lifecycle runs natively on
    //    the edge list (sampling would force a CSR materialization);
    //  - otherwise dense graphs (avg degree >= 4) get k-out sampling —
    //    sampling only pays when most edges can be skipped after the giant
    //    component is rooted (§4.2);
    //  - large dense CSR inputs are resharded for shard-major locality
    //    unless streaming is requested (a one-shot seed pass would not
    //    amortize the partition cost).
    static Spec Auto(const GraphHandle& graph, bool streaming = false);

    // The finish variant, as a typed descriptor or a registry-name string.
    // The string form is the parse layer for CLIs/configs and dies with a
    // nearest-match suggestion on an unknown name (GetVariantOrDie).
    Spec& Algorithm(const VariantDescriptor& descriptor);
    Spec& Algorithm(std::string_view name);

    Spec& Sampling(const SamplingConfig& sampling) {
      sampling_ = sampling;
      return *this;
    }

    // Convert Build's input to this representation first. A conversion
    // produces an owning handle; an input that already matches is used
    // as-is (so a matching *view* follows Build's view-lifetime rule).
    // Unset: run on whatever representation the caller hands in.
    Spec& Representation(GraphRepresentation representation) {
      representation_ = representation;
      return *this;
    }

    // Shard count for Representation(kSharded); 0 = worker-count default.
    Spec& Shards(size_t num_shards) {
      shards_ = num_shards;
      return *this;
    }

    // Read-path discipline; see the header comment. kSnapshot (default):
    // wait-free epoch-published snapshots, an Insert publishes in
    // O(|overlay| + batch). kSharedLock: the lock-based baseline with lazy
    // refresh.
    Spec& Serving(ServingMode mode) {
      serving_ = mode;
      return *this;
    }

    // Snapshot-publication cadence under kSnapshot serving. k = 1 (the
    // default) publishes a snapshot after every Insert batch — the
    // behavior every parity test pins. k > 1 publishes after every k-th
    // batch: reads keep serving the labeling as of the last published
    // batch *boundary* (never a half-applied batch), skipped publications
    // tick stats::ReadServing().publication_skips, and Flush() or the
    // next Erase forces the held-back state out; the held-back batches'
    // endpoints all reach the next overlay. A publication costs
    // O(|overlay| + batch), plus a Θ(n) compaction once the overlay passes
    // n / kOverlayShare entries, so holding batches back saves only the
    // overlay's copy and scan and the pointer swap.
    Spec& PublishEvery(uint32_t k) {
      publish_every_ = k == 0 ? 1 : k;
      return *this;
    }

    // Measure instead of guessing k: after every publication the index
    // re-derives the cadence from EMAs of publication cost (overlay
    // publications and compactions alike) vs. batch processing cost, so
    // publication overhead stays a bounded fraction of ingest work (k
    // clamped to [1, kMaxAdaptiveCadence]). A quiet
    // stream still publishes promptly: any batch arriving later than
    // kCadenceQuietGapUs after the previous one publishes immediately.
    // Overrides PublishEvery; stats::ReadServing().publication_cadence_k
    // reports the current choice.
    Spec& AdaptiveCadence(bool adaptive = true) {
      adaptive_cadence_ = adaptive;
      return *this;
    }

    const VariantDescriptor& algorithm() const { return algorithm_; }
    const SamplingConfig& sampling() const { return sampling_; }
    std::optional<GraphRepresentation> representation() const {
      return representation_;
    }
    size_t shards() const { return shards_; }
    ServingMode serving() const { return serving_; }
    uint32_t publish_every() const { return publish_every_; }
    bool adaptive_cadence() const { return adaptive_cadence_; }

   private:
    VariantDescriptor algorithm_;
    SamplingConfig sampling_;
    std::optional<GraphRepresentation> representation_;
    size_t shards_ = 0;
    ServingMode serving_ = ServingMode::kSnapshot;
    uint32_t publish_every_ = 1;
    bool adaptive_cadence_ = false;
  };

  // An Insert publication compacts (publishes a fresh base) instead of
  // extending the overlay once the overlay holds more than n /
  // kOverlayShare entries. An overlay publication costs a fixed part
  // (walking the batch's endpoints) plus a copy and a scan of the table,
  // about 10 ns per entry on 4 cores; a compaction costs 4-10 ns per
  // vertex (compress, copy and count n labels). An entry thus costs about
  // as much as one to two vertices, and at n / 32 entries an overlay
  // publication costs at most a sixteenth of a compaction, while a
  // compaction every n / 32 absorbed roots stays a small share of the
  // work between two of them.
  static constexpr NodeId kOverlayShare = 32;
  // Adaptive cadence never holds back more than this many batches.
  static constexpr uint32_t kMaxAdaptiveCadence = 64;
  // A batch arriving after a gap longer than this publishes immediately
  // (the stream is quiet; holding back buys nothing).
  static constexpr uint64_t kCadenceQuietGapUs = 50'000;

  // Resolves the Spec's descriptor against the registry; dies if the
  // descriptor denotes an unregistered combination (impossible for
  // descriptors produced by Parse or Spec::Auto).
  Connectivity() : Connectivity(Spec()) {}
  explicit Connectivity(Spec spec);

  // Retires the published snapshot into the epoch domain. Snapshots
  // acquired from this index stay valid after destruction — their blocks
  // are reclaimed when the last handle releases.
  ~Connectivity();

  // Movable for setup-time ergonomics (pick-the-winner loops); the
  // moved-from index reverts to the un-built state of its spec. Not
  // copyable — an index owns its streaming structure and lock.
  Connectivity(Connectivity&& other) noexcept;
  Connectivity& operator=(Connectivity&& other) noexcept;
  Connectivity(const Connectivity&) = delete;
  Connectivity& operator=(const Connectivity&) = delete;

  const Spec& spec() const { return spec_; }
  // The resolved registry variant — the escape hatch for capabilities the
  // façade does not wrap (heatmap axis labels, family predicates, ...).
  const Variant& variant() const { return *variant_; }

  // Runs the variant's static pass (paper Algorithm 1) over `graph` under
  // the Spec's sampling scheme, replacing any previous state. If the Spec
  // requests a different representation the graph is converted (owning);
  // otherwise the handle is used as-is, and a *view* handle's target must
  // outlive the next Build/SpanningForest call. Returns *this for
  // chaining.
  Connectivity& Build(const GraphHandle& graph);

  // Hands off to batch-incremental mode (paper §3.5): seeds the variant's
  // streaming structure from the built labeling via the registry's
  // StreamingSeed seam. Requires a prior Build and a streaming-capable
  // variant (dies otherwise — query variant().supports_streaming first if
  // unsure).
  Connectivity& Stream();

  // Cold-starts streaming over `num_nodes` isolated vertices, no static
  // pass (StreamingSeed::Cold). The from-scratch ingest shape.
  Connectivity& Stream(NodeId num_nodes);

  // True once Stream() has run; Insert is only legal then.
  bool streaming() const;

  // Applies one batch of edge insertions and answers the batched
  // connectivity queries, one byte per query. Answers follow §3.5's
  // linearizable contract, not a post-batch one: for Type (i) variants the
  // queries run concurrently with the batch's unions, so a pair connected
  // before the batch answers 1 and a pair disconnected after it answers 0,
  // while a pair the batch itself connects may answer either. Batches
  // serialize against each other; under kSnapshot serving the post-batch
  // labeling is published before Insert returns, so every subsequent read
  // sees it.
  std::vector<uint8_t> Insert(const std::vector<Edge>& updates,
                              const std::vector<Edge>& queries = {});

  // Applies one batch of edge *deletions* and answers the batched
  // connectivity queries against the post-batch labeling. Requires
  // Stream() first, like Insert.
  //
  // Deletions ride on a dynamic spanning forest (src/core/dynamic_forest.h)
  // armed lazily on the first Erase: the variant's own run_forest pass
  // seeds the forest from the built graph, and every edge inserted since
  // Stream() is replayed from a journal the façade keeps. A deleted
  // non-forest edge is free; a deleted forest edge triggers a parallel
  // replacement-edge search over the affected component
  // (src/algo/replacement.h). Only when a component actually splits is
  // the insertion-only streaming structure reseeded
  // (StreamingSeed::FromLabels) — a deletion with a surviving replacement
  // changes no labels and no query answer. Erase publishes a fresh
  // Snapshot under kSnapshot serving, exactly like Insert, and ticks the
  // erase counters in stats::ReadServing().
  std::vector<uint8_t> Erase(const std::vector<Edge>& updates,
                             const std::vector<Edge>& queries = {});

  // Publishes any batches a cadence k > 1 is still holding back, so
  // Acquire() reflects every batch Insert/Erase has returned for. No-op
  // at k = 1, under kSharedLock serving, or when nothing is pending.
  void Flush();

  // Spanning forest of the built graph via the variant's run_forest (paper
  // Algorithm 2). Requires Build and a root-based variant (dies
  // otherwise).
  SpanningForestResult SpanningForest() const;

  // ---- thread-safe reads against the current labeling ----
  // kSnapshot: wait-free (epoch guard + array indexing, no lock).
  // kSharedLock: shared lock, lazy Θ(n) refresh after a batch.

  // The component representative of v (vertices in the same component
  // report the same representative).
  NodeId Component(NodeId v) const;
  bool SameComponent(NodeId u, NodeId v) const;
  NodeId NumComponents() const;
  // Size of each component, indexed by representative (0 elsewhere).
  std::vector<NodeId> ComponentSizes() const;
  // Snapshot of the full labeling.
  std::vector<NodeId> Labels() const;

  // Pins the current labeling for multi-query consistency: every answer
  // from the returned Snapshot reflects the same batch prefix, no matter
  // how many Inserts land while it is held. Wait-free under kSnapshot
  // serving; under kSharedLock it materializes a one-off snapshot (Θ(n))
  // under the lock.
  Snapshot Acquire() const;

  NodeId num_nodes() const;
  // Representation the index was built on (kCsr before any Build).
  GraphRepresentation representation() const;

 private:
  void CheckBuilt(const char* op) const;

  // First-Erase arming: seeds forest_ from the built graph via the
  // variant's run_forest, then replays insert_journal_. Callers hold mu_
  // exclusively.
  void ArmForestLocked();

  // Full publication (a compaction): builds a fresh base (sizes and
  // component count precomputed) from a fully compressed labeling and
  // publishes it under an empty overlay. Callers hold mu_ exclusively.
  void PublishLocked(std::vector<NodeId> labels);

  // Publishes the batches applied since the last publication: the
  // previous overlay plus the roots those batches absorbed, in
  // O(|overlay| + batch); compacts instead once the overlay holds more
  // than n / kOverlayShare entries. Callers hold mu_ exclusively.
  void PublishBatchesLocked();

  // Stamps `data` with the next version, swaps it in as the published
  // snapshot and retires the previous one. Callers hold mu_ exclusively.
  void SwapInLocked(internal::SnapshotData* data);

  // Unpublishes and retires the current snapshot (destructor, move-out).
  void RetireSnapshot();

  // Insert's publish step: publishes the post-batch labeling or, under a
  // cadence k > 1, holds it back (ticking publication_skips). Updates the
  // cost EMAs and, under AdaptiveCadence, re-derives k. Callers hold mu_
  // exclusively.
  void MaybePublishBatchLocked(uint64_t batch_cost_us);

  bool snapshot_serving() const {
    return spec_.serving() == ServingMode::kSnapshot;
  }

  // Runs fn(labels) under a shared lock, first refreshing the snapshot
  // from the streaming structure (under the exclusive lock) if an Insert
  // left it stale. Keeps reads free of the Theta(n) snapshot cost on the
  // ingest path: batches just flip the stale bit, and the first read
  // afterwards pays for the refresh once — the stale flag is re-checked
  // after the exclusive lock is acquired, so readers racing for the
  // refresh never run it twice (stats::ReadServing().label_refreshes
  // counts actual refreshes; tests pin "one per batch").
  template <typename F>
  decltype(auto) ReadLabels(F&& fn) const {
    {
      std::shared_lock<std::shared_mutex> lock(mu_);
      if (!labels_stale_) return fn(labels_);
    }
    std::unique_lock<std::shared_mutex> lock(mu_);
    if (labels_stale_) {
      labels_ = streaming_->Labels();
      labels_stale_ = false;
      stats::RecordLabelRefresh();
    }
    return fn(labels_);
  }

  Spec spec_;
  const Variant* variant_;

  mutable std::shared_mutex mu_;
  GraphHandle graph_;  // the built graph, Spec representation
  // Mutator-side labeling staging (empty before Build/Stream). Under
  // kSharedLock serving this is also what reads serve; stale after an
  // Insert until the next read refreshes it from streaming_. Under
  // kSnapshot serving reads never touch it — it only carries the
  // Build→Stream handoff.
  mutable std::vector<NodeId> labels_;
  mutable bool labels_stale_ = false;
  bool built_ = false;
  std::unique_ptr<StreamingConnectivity> streaming_;

  // Batch-deletion state. forest_ arms on the first Erase (null until
  // then — pure insert workloads never pay for it); insert_journal_
  // records every edge Insert applied since the last Build/Stream so the
  // arming pass sees the full current edge set, and drains into forest_
  // when it arms. Re-Stream() keeps both (the edge set is unchanged);
  // Build and cold Stream(n) reset them.
  std::unique_ptr<DynamicForest> forest_;
  std::vector<Edge> insert_journal_;

  // kSnapshot serving: the published labeling. Never null in that mode
  // (an empty snapshot is published at construction); always null under
  // kSharedLock. Swapped only under mu_; loaded lock-free by readers.
  std::atomic<internal::SnapshotData*> snapshot_{nullptr};
  uint64_t publish_seq_ = 0;
  // The pre-batch root of every endpoint inserted since the last
  // publication (PublishBatchesLocked's candidates; duplicates allowed).
  std::vector<NodeId> touched_;

  // Publication-cadence state (kSnapshot serving; see Spec::PublishEvery
  // and Spec::AdaptiveCadence). All mutated under mu_ exclusively.
  uint32_t cadence_k_ = 1;              // current effective k
  uint32_t batches_since_publish_ = 0;  // held-back batches
  uint64_t last_batch_end_us_ = 0;      // quiet-stream detection
  double publish_cost_ema_us_ = 0;      // EMA: one PublishLocked
  double batch_cost_ema_us_ = 0;        // EMA: one ProcessBatch
};

}  // namespace connectit

#endif  // CONNECTIT_CORE_CONNECTIVITY_INDEX_H_
