#include "src/core/connectivity_index.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <utility>

#include "src/core/components.h"
#include "src/core/dynamic_forest.h"
#include "src/graph/builder.h"
#include "src/parallel/epoch.h"
#include "src/parallel/thread_pool.h"

namespace connectit {

namespace {

[[noreturn]] void DieF(const char* message) {
  std::fprintf(stderr, "fatal: %s\n", message);
  std::abort();
}

void DeleteSnapshotData(void* p) {
  delete static_cast<internal::SnapshotData*>(p);
}

uint64_t SteadyNowUs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// A full publication: a fresh base (labels, sizes, count from one pass
// over the labels) under an empty overlay.
internal::SnapshotData* MakeSnapshotData(std::vector<NodeId> labels) {
  auto base = std::make_shared<internal::SnapshotBase>();
  base->sizes = ComponentSizes(labels, &base->num_components);
  base->labels = std::move(labels);
  auto* data = new internal::SnapshotData();
  data->num_components = base->num_components;
  data->base = std::move(base);
  return data;
}

// Inserts `entry`, or overwrites the entry with its key, doubling the
// table first if it would pass half full.
void OverlayPut(internal::Overlay* overlay,
                const internal::OverlayEntry& entry) {
  if (2 * (overlay->entries + 1) > overlay->slots.size()) {
    internal::Overlay grown;
    grown.slots.resize(std::max<size_t>(16, 2 * overlay->slots.size()));
    for (const internal::OverlayEntry& e : overlay->slots) {
      if (e.key != kInvalidNode) OverlayPut(&grown, e);
    }
    *overlay = std::move(grown);
  }
  const size_t mask = overlay->slots.size() - 1;
  size_t i = internal::Overlay::Home(entry.key, mask);
  while (overlay->slots[i].key != kInvalidNode &&
         overlay->slots[i].key != entry.key) {
    i = (i + 1) & mask;
  }
  if (overlay->slots[i].key == kInvalidNode) ++overlay->entries;
  overlay->slots[i] = entry;
}

// Builds an owning handle of `target` representation from a flat CSR
// reference. The kCsr target shares `flat`'s arrays (an O(1) Graph copy);
// the other converters build independent owning structures from it.
GraphHandle FromFlat(const Graph& flat, GraphRepresentation target,
                     size_t shards) {
  switch (target) {
    case GraphRepresentation::kCsr:
      return GraphHandle::Adopt(Graph(flat));
    case GraphRepresentation::kCompressed:
      return GraphHandle::Compress(flat);
    case GraphRepresentation::kCoo:
      return GraphHandle::Adopt(ExtractEdges(flat));
    case GraphRepresentation::kSharded:
      return GraphHandle::Shard(flat, shards);
  }
  return GraphHandle();
}

// The Spec-requested representation of `in`, reusing the input when it
// already matches (and, for sharded targets, the shard count agrees or was
// left defaulted). Conversions produce owning handles and work from a
// flat-CSR *reference* (the input's own CSR, or the cached materialization
// for COO/sharded sources) — no intermediate whole-graph copy; only a
// compressed source decodes into a temporary.
GraphHandle ConvertTo(const GraphHandle& in, GraphRepresentation target,
                      size_t shards) {
  if (in.representation() == target &&
      (target != GraphRepresentation::kSharded || shards == 0 ||
       in.sharded()->num_shards() == shards)) {
    return in;
  }
  if (in.representation() == GraphRepresentation::kCompressed) {
    // The only representation without a flat form on hand: decompress
    // (parallel, exact CSR reconstruction), then convert.
    Graph decoded = in.compressed()->Decode();
    if (target == GraphRepresentation::kCsr) {
      return GraphHandle::Adopt(std::move(decoded));
    }
    return FromFlat(decoded, target, shards);
  }
  const Graph& flat = in.representation() == GraphRepresentation::kCsr
                          ? *in.csr()
                          : in.MaterializedCsr();
  return FromFlat(flat, target, shards);
}

}  // namespace

const char* ToString(ServingMode mode) {
  switch (mode) {
    case ServingMode::kSnapshot: return "snapshot";
    case ServingMode::kSharedLock: return "shared-lock";
  }
  return "?";
}

// ---- SnapshotData ----

const std::vector<NodeId>& internal::SnapshotData::Labels() const {
  if (overlay.entries == 0) return base->labels;
  std::call_once(labels_once_, [this] {
    labels_.resize(base->labels.size());
    ParallelFor(0, labels_.size(),
                [&](size_t v) { labels_[v] = Resolve(base->labels[v]); });
  });
  return labels_;
}

const std::vector<NodeId>& internal::SnapshotData::Sizes() const {
  if (overlay.entries == 0) return base->sizes;
  std::call_once(sizes_once_, [this] {
    sizes_ = base->sizes;
    for (const OverlayEntry& e : overlay.slots) {
      if (e.key != kInvalidNode) sizes_[e.key] = e.root == e.key ? e.size : 0;
    }
  });
  return sizes_;
}

// ---- Snapshot ----

Snapshot::~Snapshot() { Release(); }

void Snapshot::Release() {
  const internal::SnapshotData* data = data_;
  data_ = nullptr;
  if (data == nullptr) return;
  // Read `published` before the decrement: the instant our reference is
  // dropped, a concurrent reclaim pass may observe refs==0 and free the
  // block, so no field may be touched after fetch_sub.
  const bool published = data->published;
  if (data->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    if (published) {
      // The block sits in the epoch domain's retire list (its publisher
      // unpublished it); we just dropped the last reference keeping it
      // there, so sweep now instead of waiting for the next publication.
      epoch::Domain::Global().TryReclaim();
    } else {
      // On-demand (kSharedLock-mode) snapshot: never published, owned by
      // its handles alone.
      delete data;
    }
  }
}

Snapshot::Snapshot(const Snapshot& other) : data_(other.data_) {
  if (data_ != nullptr) data_->refs.fetch_add(1, std::memory_order_relaxed);
}

Snapshot& Snapshot::operator=(const Snapshot& other) {
  if (this != &other) {
    if (other.data_ != nullptr) {
      other.data_->refs.fetch_add(1, std::memory_order_relaxed);
    }
    Release();
    data_ = other.data_;
  }
  return *this;
}

Snapshot::Snapshot(Snapshot&& other) noexcept : data_(other.data_) {
  other.data_ = nullptr;
}

Snapshot& Snapshot::operator=(Snapshot&& other) noexcept {
  if (this != &other) {
    Release();
    data_ = other.data_;
    other.data_ = nullptr;
  }
  return *this;
}

// ---- Connectivity::Spec ----

Connectivity::Spec Connectivity::Spec::Auto(const GraphHandle& graph,
                                            bool streaming) {
  Spec spec;  // DefaultVariant: fastest all-around, root-based, streamable.
  const NodeId n = graph.num_nodes();
  const double avg_degree =
      n == 0 ? 0.0 : static_cast<double>(graph.num_arcs()) / n;
  if (graph.representation() == GraphRepresentation::kCoo) {
    // Unsampled keeps the whole lifecycle COO-native (edge-centric default
    // variant, so neither Build nor a streaming seed ever builds a CSR).
    return spec;
  }
  if (avg_degree >= 4.0) {
    spec.Sampling(SamplingConfig::KOut());
  }
  // A CSR served from a container mapping stays as it is: resharding would
  // copy into memory the very arrays the mapping avoids loading, so
  // sampling is the only lever worth pulling.
  const bool mapped = graph.csr() != nullptr && graph.csr()->mapped();
  if (!streaming && !mapped &&
      graph.representation() == GraphRepresentation::kCsr &&
      avg_degree >= 8.0 && n >= (NodeId{1} << 18)) {
    // Big dense analytical pass: shard-major locality wins (see
    // ARCHITECTURE.md "Choosing a representation"). Not worth the
    // partition cost for a one-shot streaming seed.
    spec.Representation(GraphRepresentation::kSharded);
  }
  return spec;
}

Connectivity::Spec& Connectivity::Spec::Algorithm(
    const VariantDescriptor& descriptor) {
  algorithm_ = descriptor;
  return *this;
}

Connectivity::Spec& Connectivity::Spec::Algorithm(std::string_view name) {
  algorithm_ = GetVariantOrDie(name).descriptor;
  return *this;
}

// ---- Connectivity ----

Connectivity::Connectivity(Spec spec)
    : spec_(std::move(spec)), variant_(FindVariant(spec_.algorithm())) {
  if (variant_ == nullptr) {
    std::fprintf(stderr,
                 "fatal: Connectivity spec names an unregistered variant "
                 "combination (\"%s\")\n",
                 spec_.algorithm().ToString().c_str());
    std::abort();
  }
  cadence_k_ = spec_.publish_every();
  // Head is never null under snapshot serving: reads before the first
  // Build serve the empty labeling, exactly like the shared-lock path.
  if (snapshot_serving()) PublishLocked({});
}

Connectivity::~Connectivity() { RetireSnapshot(); }

Connectivity::Connectivity(Connectivity&& other) noexcept {
  std::unique_lock<std::shared_mutex> lock(other.mu_);
  spec_ = std::move(other.spec_);
  variant_ = other.variant_;  // registry storage is static; stays valid
  graph_ = std::move(other.graph_);
  labels_ = std::move(other.labels_);
  labels_stale_ = other.labels_stale_;
  built_ = other.built_;
  streaming_ = std::move(other.streaming_);
  forest_ = std::move(other.forest_);
  insert_journal_ = std::move(other.insert_journal_);
  touched_ = std::move(other.touched_);
  snapshot_.store(other.snapshot_.exchange(nullptr),
                  std::memory_order_release);
  publish_seq_ = other.publish_seq_;
  cadence_k_ = other.cadence_k_;
  batches_since_publish_ = other.batches_since_publish_;
  last_batch_end_us_ = other.last_batch_end_us_;
  publish_cost_ema_us_ = other.publish_cost_ema_us_;
  batch_cost_ema_us_ = other.batch_cost_ema_us_;
  other.batches_since_publish_ = 0;
  other.built_ = false;
  other.labels_stale_ = false;
  other.labels_.clear();
  other.insert_journal_.clear();
  other.touched_.clear();
  other.graph_ = GraphHandle();
  // The moved-from index reverts to un-built but must keep serving (its
  // spec stays usable): republish an empty labeling.
  if (other.snapshot_serving()) other.PublishLocked({});
}

Connectivity& Connectivity::operator=(Connectivity&& other) noexcept {
  if (this != &other) {
    std::scoped_lock lock(mu_, other.mu_);
    RetireSnapshot();
    spec_ = std::move(other.spec_);
    variant_ = other.variant_;
    graph_ = std::move(other.graph_);
    labels_ = std::move(other.labels_);
    labels_stale_ = other.labels_stale_;
    built_ = other.built_;
    streaming_ = std::move(other.streaming_);
    forest_ = std::move(other.forest_);
    insert_journal_ = std::move(other.insert_journal_);
    touched_ = std::move(other.touched_);
    snapshot_.store(other.snapshot_.exchange(nullptr),
                    std::memory_order_release);
    publish_seq_ = other.publish_seq_;
    cadence_k_ = other.cadence_k_;
    batches_since_publish_ = other.batches_since_publish_;
    last_batch_end_us_ = other.last_batch_end_us_;
    publish_cost_ema_us_ = other.publish_cost_ema_us_;
    batch_cost_ema_us_ = other.batch_cost_ema_us_;
    other.batches_since_publish_ = 0;
    other.built_ = false;
    other.labels_stale_ = false;
    other.labels_.clear();
    other.insert_journal_.clear();
    other.touched_.clear();
    other.graph_ = GraphHandle();
    if (other.snapshot_serving()) other.PublishLocked({});
  }
  return *this;
}

void Connectivity::PublishLocked(std::vector<NodeId> labels) {
  touched_.clear();
  SwapInLocked(MakeSnapshotData(std::move(labels)));
}

void Connectivity::SwapInLocked(internal::SnapshotData* data) {
  data->version = ++publish_seq_;
  data->published = true;
  internal::SnapshotData* old = snapshot_.exchange(data);  // seq_cst: pairs
  // with the reader-side pin fence (see epoch.h's safety argument).
  stats::RecordSnapshotPublication();
  epoch::Domain& domain = epoch::Domain::Global();
  if (old != nullptr) domain.Retire(old, DeleteSnapshotData, &old->refs);
  domain.AdvanceAndReclaim();
}

void Connectivity::PublishBatchesLocked() {
  const internal::SnapshotData* prev =
      snapshot_.load(std::memory_order_relaxed);
  if (prev->overlay.entries > prev->num_nodes() / kOverlayShare) {
    PublishLocked(streaming_->Labels());
    stats::RecordCompaction();
    return;
  }
  // The roots the batches absorbed, each with the root it sits under now.
  // Every absorbed root is the pre-batch root of some endpoint (touched_):
  // a union only merges the trees of its endpoints, so a component no
  // endpoint touched keeps its tree, and with it its root.
  std::vector<NodeId> roots(touched_.size());
  ParallelFor(0, touched_.size(),
              [&](size_t i) { roots[i] = streaming_->Root(touched_[i]); });
  internal::Overlay moved;
  for (size_t i = 0; i < touched_.size(); ++i) {
    if (roots[i] != touched_[i]) OverlayPut(&moved, {touched_[i], roots[i], 0});
  }
  touched_.clear();
  auto* data = new internal::SnapshotData();
  data->base = prev->base;
  data->overlay = prev->overlay;
  data->num_components =
      prev->num_components - static_cast<NodeId>(moved.entries);
  if (moved.entries != 0) {
    // Roots absorbed earlier follow theirs into its new component (Root
    // also re-points them at it in the forest, keeping every path from a
    // vertex to its root at most two hops long).
    std::vector<internal::OverlayEntry>& slots = data->overlay.slots;
    ParallelFor(0, slots.size(), [&](size_t i) {
      internal::OverlayEntry& e = slots[i];
      if (e.key != kInvalidNode && e.root != e.key &&
          moved.Find(e.root) != nullptr) {
        e.root = streaming_->Root(e.key);
      }
    });
    // A surviving root's size: its own plus that of every root it
    // absorbed, all as of the previous publication.
    ParallelFor(0, moved.slots.size(), [&](size_t i) {
      internal::OverlayEntry& m = moved.slots[i];
      if (m.key != kInvalidNode) m.size = prev->ComponentSize(m.key);
    });
    internal::Overlay grown;
    for (const internal::OverlayEntry& m : moved.slots) {
      if (m.key == kInvalidNode) continue;
      const internal::OverlayEntry* g = grown.Find(m.root);
      const NodeId size =
          g != nullptr ? g->size : prev->ComponentSize(m.root);
      OverlayPut(&grown, {m.root, m.root, size + m.size});
    }
    for (const internal::OverlayEntry& m : moved.slots) {
      if (m.key != kInvalidNode) OverlayPut(&data->overlay, {m.key, m.root, 0});
    }
    for (const internal::OverlayEntry& g : grown.slots) {
      if (g.key != kInvalidNode) OverlayPut(&data->overlay, g);
    }
  }
  stats::RecordOverlayPublication(data->overlay.entries);
  SwapInLocked(data);
}

void Connectivity::RetireSnapshot() {
  internal::SnapshotData* old = snapshot_.exchange(nullptr);
  if (old == nullptr) return;
  epoch::Domain& domain = epoch::Domain::Global();
  domain.Retire(old, DeleteSnapshotData, &old->refs);
  domain.AdvanceAndReclaim();
}

Connectivity& Connectivity::Build(const GraphHandle& graph) {
  GraphHandle prepared =
      spec_.representation().has_value()
          ? ConvertTo(graph, *spec_.representation(), spec_.shards())
          : graph;
  // The pass runs outside the lock so readers keep serving the previous
  // labeling until the swap below.
  std::vector<NodeId> labels = variant_->run(prepared, spec_.sampling());
  std::unique_lock<std::shared_mutex> lock(mu_);
  graph_ = std::move(prepared);
  labels_ = std::move(labels);
  labels_stale_ = false;
  built_ = true;
  streaming_.reset();
  forest_.reset();
  insert_journal_.clear();
  if (snapshot_serving()) PublishLocked(labels_);
  return *this;
}

Connectivity& Connectivity::Stream() {
  std::unique_lock<std::shared_mutex> lock(mu_);
  CheckBuilt("Stream");
  if (!variant_->supports_streaming) {
    DieF("Connectivity::Stream: the configured variant has no streaming "
         "form (check variant().supports_streaming)");
  }
  // A re-Stream after Inserts must seed from the post-batch labeling, not
  // a stale snapshot.
  if (labels_stale_) {
    labels_ = streaming_->Labels();
    labels_stale_ = false;
  }
  // Adopt the static pass's labeling through the registry's seed seam —
  // the FromStatic handoff without re-running the finish. labels_ moves
  // into the seed (no n-sized copies on the handoff path); the served
  // snapshot refreshes to the adopted (normalized) form on the next read.
  streaming_ =
      variant_->make_streaming(StreamingSeed::FromLabels(std::move(labels_)));
  labels_.clear();
  labels_stale_ = true;
  // Publish the adopted (min-root normalized) labeling so snapshot reads
  // switch to the streaming structure's representative choice at once.
  if (snapshot_serving()) PublishLocked(streaming_->Labels());
  return *this;
}

Connectivity& Connectivity::Stream(NodeId num_nodes) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  if (!variant_->supports_streaming) {
    DieF("Connectivity::Stream: the configured variant has no streaming "
         "form (check variant().supports_streaming)");
  }
  streaming_ = variant_->make_streaming(StreamingSeed::Cold(num_nodes));
  labels_stale_ = true;
  graph_ = GraphHandle();
  built_ = false;  // no static graph behind this state
  forest_.reset();
  insert_journal_.clear();
  if (snapshot_serving()) PublishLocked(streaming_->Labels());
  return *this;
}

bool Connectivity::streaming() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return streaming_ != nullptr;
}

std::vector<uint8_t> Connectivity::Insert(const std::vector<Edge>& updates,
                                          const std::vector<Edge>& queries) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  if (streaming_ == nullptr) {
    DieF("Connectivity::Insert requires Stream() first");
  }
  if (snapshot_serving()) {
    // Note the pre-batch root of every endpoint: the only roots the batch
    // can absorb (see PublishBatchesLocked). The walks also point the
    // endpoints straight at their roots, ahead of the batch's own finds.
    const size_t offset = touched_.size();
    touched_.resize(offset + 2 * updates.size());
    ParallelFor(0, updates.size(), [&](size_t i) {
      touched_[offset + 2 * i] = streaming_->Root(updates[i].u);
      touched_[offset + 2 * i + 1] = streaming_->Root(updates[i].v);
    });
  }
  const uint64_t process_start_us = SteadyNowUs();
  std::vector<uint8_t> results = streaming_->ProcessBatch(updates, queries);
  const uint64_t process_us = SteadyNowUs() - process_start_us;
  // Keep the deletion layer in step: an armed forest absorbs the batch
  // directly; before the first Erase the journal records it for the
  // arming replay (see ArmForestLocked).
  if (forest_ != nullptr) {
    forest_->InsertBatch(updates);
  } else {
    insert_journal_.insert(insert_journal_.end(), updates.begin(),
                           updates.end());
  }
  if (snapshot_serving()) {
    // Publish the post-batch labeling (readers switch labelings at the
    // pointer swap — never mid-batch), or hold it back under a cadence
    // k > 1.
    MaybePublishBatchLocked(process_us);
  }
  // Mutator-side staging refreshes lazily (shared-lock reads, re-Stream).
  labels_stale_ = true;
  return results;
}

void Connectivity::ArmForestLocked() {
  forest_ = std::make_unique<DynamicForest>(streaming_->num_nodes());
  if (built_) {
    // Seed from the built graph through the variant's own spanning-forest
    // pass (every streaming-capable variant is root-based, so run_forest
    // is always available here). Representation-native like Build: a COO
    // handle seeds without materializing a CSR, a sharded one without
    // flattening.
    forest_->AdoptGraph(graph_,
                        variant_->run_forest(graph_, spec_.sampling()));
  }
  if (!insert_journal_.empty()) {
    forest_->InsertBatch(insert_journal_);
    insert_journal_.clear();
    insert_journal_.shrink_to_fit();
  }
}

std::vector<uint8_t> Connectivity::Erase(const std::vector<Edge>& updates,
                                         const std::vector<Edge>& queries) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  if (streaming_ == nullptr) {
    DieF("Connectivity::Erase requires Stream() first");
  }
  if (forest_ == nullptr) ArmForestLocked();
  const DynamicForest::EraseStats batch = forest_->EraseBatch(updates);
  stats::RecordEraseBatch(batch.erased, batch.misses, batch.forest_hits,
                          batch.replacement_searches,
                          batch.components_split);
  if (batch.labels_changed) {
    // A component actually split: the insertion-only streaming structure
    // cannot represent that, so reseed it from the forest's canonical
    // labeling (the same FromLabels seam Stream() uses). Deletions whose
    // replacement search succeeded change no labels and skip this.
    streaming_ =
        variant_->make_streaming(StreamingSeed::FromLabels(forest_->Labels()));
  }
  std::vector<uint8_t> results(queries.size());
  const std::vector<NodeId>& labels = forest_->Labels();
  ParallelFor(0, queries.size(), [&](size_t i) {
    results[i] = labels[queries[i].u] == labels[queries[i].v] ? 1 : 0;
  });
  if (snapshot_serving()) {
    // Same discipline as Insert, but never held back by the cadence: a
    // deletion's effect (and any batches the cadence was holding) is
    // published before Erase returns, so no reader ever sees a
    // half-applied batch.
    PublishLocked(streaming_->Labels());
    batches_since_publish_ = 0;
  }
  labels_stale_ = true;
  return results;
}

void Connectivity::MaybePublishBatchLocked(uint64_t batch_cost_us) {
  const uint64_t now_us = SteadyNowUs();
  const bool quiet = last_batch_end_us_ != 0 &&
                     now_us - last_batch_end_us_ > kCadenceQuietGapUs;
  last_batch_end_us_ = now_us;
  ++batches_since_publish_;
  constexpr double kAlpha = 0.2;  // EMA smoothing for both cost estimates
  batch_cost_ema_us_ =
      batch_cost_ema_us_ == 0
          ? static_cast<double>(batch_cost_us)
          : (1 - kAlpha) * batch_cost_ema_us_ + kAlpha * batch_cost_us;
  if (batches_since_publish_ < cadence_k_ && !quiet) {
    stats::RecordPublicationSkip();
    return;
  }
  const uint64_t publish_start_us = SteadyNowUs();
  PublishBatchesLocked();
  const uint64_t publish_us = SteadyNowUs() - publish_start_us;
  batches_since_publish_ = 0;
  publish_cost_ema_us_ =
      publish_cost_ema_us_ == 0
          ? static_cast<double>(publish_us)
          : (1 - kAlpha) * publish_cost_ema_us_ + kAlpha * publish_us;
  if (spec_.adaptive_cadence()) {
    // Choose k so the amortized publication cost stays at most ~25% of
    // the measured per-batch processing work.
    const double budget_us = 0.25 * std::max(batch_cost_ema_us_, 1.0);
    const double k = std::ceil(publish_cost_ema_us_ / budget_us);
    cadence_k_ = static_cast<uint32_t>(std::clamp(
        k, 1.0, static_cast<double>(kMaxAdaptiveCadence)));
  } else {
    cadence_k_ = spec_.publish_every();
  }
  stats::RecordPublicationCost(publish_us, cadence_k_);
}

void Connectivity::Flush() {
  std::unique_lock<std::shared_mutex> lock(mu_);
  if (!snapshot_serving() || streaming_ == nullptr ||
      batches_since_publish_ == 0) {
    return;
  }
  PublishBatchesLocked();
  batches_since_publish_ = 0;
}

SpanningForestResult Connectivity::SpanningForest() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  CheckBuilt("SpanningForest");
  if (!variant_->root_based) {
    DieF("Connectivity::SpanningForest: the configured variant is not "
         "root-based (check variant().root_based)");
  }
  return variant_->run_forest(graph_, spec_.sampling());
}

NodeId Connectivity::Component(NodeId v) const {
  if (snapshot_serving()) {
    epoch::Domain::Guard guard;
    return snapshot_.load(std::memory_order_acquire)->Component(v);
  }
  return ReadLabels(
      [v](const std::vector<NodeId>& labels) { return labels.at(v); });
}

bool Connectivity::SameComponent(NodeId u, NodeId v) const {
  if (snapshot_serving()) {
    epoch::Domain::Guard guard;
    const internal::SnapshotData* data =
        snapshot_.load(std::memory_order_acquire);
    return data->Component(u) == data->Component(v);
  }
  return ReadLabels([u, v](const std::vector<NodeId>& labels) {
    return labels.at(u) == labels.at(v);
  });
}

NodeId Connectivity::NumComponents() const {
  if (snapshot_serving()) {
    epoch::Domain::Guard guard;
    return snapshot_.load(std::memory_order_acquire)->num_components;
  }
  return ReadLabels(
      [](const std::vector<NodeId>& labels) { return CountComponents(labels); });
}

std::vector<NodeId> Connectivity::ComponentSizes() const {
  if (snapshot_serving()) {
    epoch::Domain::Guard guard;
    return snapshot_.load(std::memory_order_acquire)->Sizes();
  }
  return ReadLabels([](const std::vector<NodeId>& labels) {
    return connectit::ComponentSizes(labels);
  });
}

std::vector<NodeId> Connectivity::Labels() const {
  if (snapshot_serving()) {
    epoch::Domain::Guard guard;
    return snapshot_.load(std::memory_order_acquire)->Labels();
  }
  return ReadLabels([](const std::vector<NodeId>& labels) { return labels; });
}

Snapshot Connectivity::Acquire() const {
  if (snapshot_serving()) {
    epoch::Domain::Guard guard;
    const internal::SnapshotData* data =
        snapshot_.load(std::memory_order_acquire);
    // The guard keeps the block alive across this increment even if a
    // concurrent publication just retired it; afterwards the reference
    // does.
    data->refs.fetch_add(1, std::memory_order_acq_rel);
    return Snapshot(data);
  }
  // Baseline mode has no published block: materialize a one-off,
  // unpublished snapshot under the lock (Θ(n)).
  return ReadLabels([](const std::vector<NodeId>& labels) {
    internal::SnapshotData* data = MakeSnapshotData(labels);
    data->refs.store(1, std::memory_order_relaxed);
    return Snapshot(data);
  });
}

NodeId Connectivity::num_nodes() const {
  if (snapshot_serving()) {
    epoch::Domain::Guard guard;
    return snapshot_.load(std::memory_order_acquire)->num_nodes();
  }
  return ReadLabels([](const std::vector<NodeId>& labels) {
    return static_cast<NodeId>(labels.size());
  });
}

GraphRepresentation Connectivity::representation() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return graph_.representation();
}

void Connectivity::CheckBuilt(const char* op) const {
  if (!built_) {
    std::fprintf(stderr, "fatal: Connectivity::%s requires Build() first\n",
                 op);
    std::abort();
  }
}

}  // namespace connectit
