// The wait-free serving layer: epoch-published Connectivity::Snapshot.
//
// Pins the four properties the design note in connectivity_index.h claims:
// (1) an Acquire'd Snapshot is immutable — its answers are frozen at the
// publication it pinned, no matter how many batches land afterwards;
// (2) the published snapshot after every batch equals Labels() — across
// streaming variants × representations and against the shared-lock
// baseline; (3) retired blocks drain through the epoch domain — a pinned
// reader defers exactly its own block, and everything is reclaimed once
// handles drop (ASan/TSan-clean by construction); (4) the shared-lock
// baseline's lazy refresh runs exactly once per batch even under racing
// readers. Plus the many-readers-one-writer stress the TSan CI job runs.

#include <atomic>
#include <cstdint>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/algo/verify.h"
#include "src/core/components.h"
#include "src/core/connectivity_index.h"
#include "src/core/registry.h"
#include "src/graph/builder.h"
#include "src/graph/generators.h"
#include "src/graph/graph_handle.h"
#include "src/parallel/epoch.h"
#include "src/stats/counters.h"

namespace connectit {
namespace {

// A snapshot's invariants hold internally: fully compressed labels, sizes
// indexed by representative summing to n, component count matching.
void CheckSnapshotConsistent(const Snapshot& snap) {
  const std::vector<NodeId>& labels = snap.Labels();
  ASSERT_EQ(labels.size(), snap.num_nodes());
  NodeId total = 0;
  for (NodeId v = 0; v < snap.num_nodes(); ++v) {
    ASSERT_EQ(labels[labels[v]], labels[v]) << "not fully compressed at " << v;
    total += snap.ComponentSizes()[v];
  }
  ASSERT_EQ(total, snap.num_nodes());
  ASSERT_EQ(snap.NumComponents(), CountComponents(labels));
}

TEST(ServingSnapshot, AcquiredSnapshotIsImmutableUnderConcurrentInsert) {
  const NodeId n = 1u << 11;
  const EdgeList stream = GenerateRmatEdges(n, 4ull * n, /*seed=*/3);
  EdgeList base;
  base.num_nodes = n;
  base.edges.assign(stream.edges.begin(),
                    stream.edges.begin() + stream.size() / 2);

  Connectivity index;
  index.Build(GraphHandle(base)).Stream();
  const Snapshot pinned = index.Acquire();
  const std::vector<NodeId> frozen = pinned.Labels();
  const NodeId frozen_components = pinned.NumComponents();
  const uint64_t frozen_version = pinned.version();

  // Land the rest of the stream while a thread hammers the pinned snapshot.
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      ASSERT_EQ(pinned.NumComponents(), frozen_components);
      ASSERT_EQ(pinned.Component(0), frozen[0]);
    }
  });
  for (size_t start = stream.size() / 2; start < stream.size();
       start += 512) {
    const size_t end = std::min(start + 512, stream.size());
    index.Insert(std::vector<Edge>(stream.edges.begin() + start,
                                   stream.edges.begin() + end));
  }
  stop.store(true);
  reader.join();

  // Every answer is still the publication Acquire pinned.
  EXPECT_EQ(pinned.Labels(), frozen);
  EXPECT_EQ(pinned.NumComponents(), frozen_components);
  EXPECT_EQ(pinned.version(), frozen_version);
  CheckSnapshotConsistent(pinned);

  // A fresh Acquire sees the post-batch world, strictly newer.
  const Snapshot fresh = index.Acquire();
  EXPECT_GT(fresh.version(), frozen_version);
  EXPECT_LE(fresh.NumComponents(), frozen_components);
  CheckSnapshotConsistent(fresh);
}

// After every batch, the published snapshot equals Labels() — across every
// streaming variant × representation — and the kSnapshot read surface
// matches the kSharedLock baseline fed the same batches.
TEST(ServingSnapshot, PublicationParityAfterEveryBatchAcrossVariants) {
  const Graph csr = GenerateComponentMixture(600, 5, /*seed=*/41);
  const EdgeList all = ExtractEdges(csr);
  const size_t held = all.size() / 4;
  EdgeList base;
  base.num_nodes = all.num_nodes;
  base.edges.assign(all.edges.begin(), all.edges.end() - held);
  const Graph base_csr = BuildGraph(base);

  const std::vector<Edge> tail(all.edges.end() - held, all.edges.end());
  const size_t kBatch = held / 3 + 1;

  for (const Variant* v : StreamingVariants()) {
    for (const GraphRepresentation repr :
         {GraphRepresentation::kCsr, GraphRepresentation::kCoo}) {
      Connectivity snap_index(Connectivity::Spec()
                                  .Algorithm(v->descriptor)
                                  .Representation(repr));
      Connectivity lock_index(Connectivity::Spec()
                                  .Algorithm(v->descriptor)
                                  .Representation(repr)
                                  .Serving(ServingMode::kSharedLock));
      snap_index.Build(base_csr).Stream();
      lock_index.Build(base_csr).Stream();
      uint64_t last_version = snap_index.Acquire().version();
      for (size_t start = 0; start < tail.size(); start += kBatch) {
        const size_t end = std::min(start + kBatch, tail.size());
        const std::vector<Edge> batch(tail.begin() + start,
                                      tail.begin() + end);
        snap_index.Insert(batch);
        lock_index.Insert(batch);
        const Snapshot snap = snap_index.Acquire();
        EXPECT_GT(snap.version(), last_version) << "variant=" << v->name;
        last_version = snap.version();
        CheckSnapshotConsistent(snap);
        // Snapshot == Labels() == the shared-lock baseline.
        ASSERT_EQ(snap.Labels(), snap_index.Labels())
            << "variant=" << v->name << " repr=" << ToString(repr);
        ASSERT_EQ(CanonicalizeLabels(snap.Labels()),
                  CanonicalizeLabels(lock_index.Labels()))
            << "variant=" << v->name << " repr=" << ToString(repr);
        ASSERT_EQ(snap.NumComponents(), lock_index.NumComponents());
      }
      // Final parity with the full static run.
      ASSERT_EQ(CanonicalizeLabels(snap_index.Labels()),
                CanonicalizeLabels(v->run(GraphHandle(csr), SamplingConfig())))
          << "variant=" << v->name << " repr=" << ToString(repr);
    }
  }
}

// A pinned reader defers reclamation of exactly its own block; once every
// handle drops and the index dies, the epoch domain drains back to where
// it started — no leaked snapshot blocks (ASan-clean is the real check;
// the counters make the drain observable in a plain build too).
TEST(ServingSnapshot, EpochReclamationDrainsWithPinnedReader) {
  const stats::ServingSnapshot before = stats::ReadServing();
  const size_t backlog_before = epoch::Domain::Global().backlog();
  {
    Connectivity index;
    index.Stream(/*num_nodes=*/512);
    Snapshot pinned = index.Acquire();  // pins publication #2 (post-Stream)
    const uint64_t pinned_version = pinned.version();
    for (int i = 0; i < 8; ++i) {
      index.Insert({{static_cast<NodeId>(i), static_cast<NodeId>(i + 1)}});
    }
    // Eight publications retired seven predecessors; the pinned block is
    // among them and must survive, the rest may reclaim eagerly.
    EXPECT_EQ(pinned.version(), pinned_version);
    EXPECT_EQ(pinned.num_nodes(), 512u);
    EXPECT_GE(epoch::Domain::Global().backlog(), 1u)
        << "the pinned block must sit in the deferred backlog";
    // Copies share the block (one refcount), droppable in any order.
    Snapshot copy = pinned;
    pinned = Snapshot();
    EXPECT_EQ(copy.version(), pinned_version);
    copy = Snapshot();  // last handle: release triggers TryReclaim
  }
  // Index destruction retired the head; with no pinned readers left the
  // domain drains completely.
  EXPECT_EQ(epoch::Domain::Global().backlog(), backlog_before);
  const stats::ServingSnapshot after = stats::ReadServing();
  EXPECT_EQ(after.snapshots_retired - before.snapshots_retired,
            after.snapshots_reclaimed - before.snapshots_reclaimed);
  // 1 ctor + 1 Stream + 8 Inserts = 10 publications from this test.
  EXPECT_EQ(after.snapshot_publications - before.snapshot_publications, 10u);
}

TEST(ServingSnapshot, SnapshotOutlivesItsIndex) {
  Snapshot survivor;
  {
    Connectivity index;
    index.Stream(/*num_nodes=*/64);
    index.Insert({{1, 2}, {2, 3}});
    survivor = index.Acquire();
  }
  // The index (and its published head) are gone; the handle keeps the
  // block alive.
  EXPECT_EQ(survivor.num_nodes(), 64u);
  EXPECT_TRUE(survivor.SameComponent(1, 3));
  EXPECT_FALSE(survivor.SameComponent(0, 1));
  CheckSnapshotConsistent(survivor);
}

// The shared-lock baseline's lazy refresh: racing readers after one batch
// trigger exactly one Θ(n) refresh (the stale flag is re-checked under the
// exclusive lock).
TEST(ServingSnapshot, SharedLockRefreshRunsOncePerBatch) {
  Connectivity index(
      Connectivity::Spec().Serving(ServingMode::kSharedLock));
  index.Stream(/*num_nodes=*/4096);
  index.Insert({{0, 1}});
  const uint64_t before = stats::ReadServing().label_refreshes;
  constexpr int kReaders = 8;
  std::atomic<int> ready{0};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int i = 0; i < kReaders; ++i) {
    readers.emplace_back([&] {
      ready.fetch_add(1);
      while (ready.load() < kReaders) {
      }  // line up at the gate so the race is real
      EXPECT_TRUE(index.SameComponent(0, 1));
      EXPECT_EQ(index.NumComponents(), 4095u);
    });
  }
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(stats::ReadServing().label_refreshes - before, 1u)
      << "racing readers must not duplicate the refresh";
  // The next batch re-arms the stale flag: exactly one more.
  index.Insert({{1, 2}});
  index.Component(0);
  index.Component(1);
  EXPECT_EQ(stats::ReadServing().label_refreshes - before, 2u);
}

// Acquire under the baseline mode materializes a one-off consistent view.
TEST(ServingSnapshot, SharedLockAcquireMaterializesConsistentView) {
  Connectivity index(
      Connectivity::Spec().Serving(ServingMode::kSharedLock));
  index.Stream(/*num_nodes=*/128);
  index.Insert({{5, 6}, {6, 7}});
  const Snapshot snap = index.Acquire();
  EXPECT_EQ(snap.version(), 0u) << "on-demand snapshots carry no publication";
  EXPECT_TRUE(snap.SameComponent(5, 7));
  CheckSnapshotConsistent(snap);
  index.Insert({{7, 8}});
  EXPECT_FALSE(snap.SameComponent(7, 8)) << "frozen at Acquire time";
  EXPECT_TRUE(index.SameComponent(7, 8));
}

// The TSan target: many wait-free readers, one ingesting writer, snapshots
// acquired and dropped mid-stream. Readers assert per-snapshot consistency
// (base edges stay connected, answers within one snapshot cohere).
TEST(ServingSnapshot, ManyReadersOneWriterStress) {
  const NodeId n = 1u << 12;
  const EdgeList stream = GenerateRmatEdges(n, 4ull * n, /*seed=*/23);
  const size_t bulk = stream.size() / 2;
  EdgeList base;
  base.num_nodes = n;
  base.edges.assign(stream.edges.begin(), stream.edges.begin() + bulk);

  Connectivity index;
  index.Build(GraphHandle(base)).Stream();

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> reads{0};
  constexpr int kReaders = 4;
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      uint64_t i = 0;
      uint64_t last_version = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const Edge& e = base.edges[(r * 7919 + i++) % base.edges.size()];
        // Point reads: wait-free, always against a complete labeling.
        if (!index.SameComponent(e.u, e.v)) {
          ADD_FAILURE() << "base edge disconnected in a served labeling";
          break;
        }
        // Pinned multi-query consistency + monotonic publications.
        const Snapshot snap = index.Acquire();
        if (snap.version() < last_version) {
          ADD_FAILURE() << "publication went backwards";
          break;
        }
        last_version = snap.version();
        const NodeId u_label = snap.Component(e.u);
        if (snap.Component(e.v) != u_label ||
            snap.Labels()[u_label] != u_label) {
          ADD_FAILURE() << "snapshot answers incoherent";
          break;
        }
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (size_t start = bulk; start < stream.size(); start += 1024) {
    const size_t end = std::min(start + 1024, stream.size());
    index.Insert(std::vector<Edge>(stream.edges.begin() + start,
                                   stream.edges.begin() + end));
  }
  // Give every reader a chance to finish at least one full check before
  // stopping, so the assertion below is not schedule-dependent on a small
  // machine (bounded: ~200k yields).
  for (int spin = 0; spin < 200000 && reads.load() < kReaders; ++spin) {
    std::this_thread::yield();
  }
  stop.store(true);
  for (std::thread& t : readers) t.join();
  EXPECT_GT(reads.load(), 0u);

  // Final parity with the full static run.
  Connectivity full;
  full.Build(GraphHandle(stream));
  EXPECT_EQ(CanonicalizeLabels(index.Labels()),
            CanonicalizeLabels(full.Labels()));
}

// ---- publication cadence (Spec::PublishEvery / Spec::AdaptiveCadence) ----

// Shared skeleton for the cadence tests: stream batches into an index with
// the given spec and require every acquired snapshot to sit exactly on a
// batch boundary — matching one of the reference prefix labelings, never a
// half-applied batch — with versions monotone and an unchanged version
// implying unchanged labels.
void StreamAndCheckBoundaries(Connectivity& index, const char* what) {
  const NodeId n = 512;
  const EdgeList stream = GenerateRmatEdges(n, 3ull * n, /*seed=*/7);
  const size_t kBatch = 128;

  // Reference labelings at every batch boundary, computed up front so the
  // cadence loop below runs tight (publication skips are timing-based:
  // a batch landing > kCadenceQuietGapUs after the previous one always
  // publishes).
  Connectivity ref;
  ref.Stream(n);
  std::vector<std::vector<NodeId>> boundary;
  boundary.push_back(CanonicalizeLabels(ref.Labels()));
  for (size_t start = 0; start < stream.size(); start += kBatch) {
    const size_t end = std::min(start + kBatch, stream.size());
    ref.Insert(std::vector<Edge>(stream.edges.begin() + start,
                                 stream.edges.begin() + end));
    boundary.push_back(CanonicalizeLabels(ref.Labels()));
  }

  index.Stream(n);
  uint64_t last_version = index.Acquire().version();
  std::vector<NodeId> last_canon = CanonicalizeLabels(index.Acquire().Labels());
  size_t batch_index = 0;
  for (size_t start = 0; start < stream.size(); start += kBatch) {
    const size_t end = std::min(start + kBatch, stream.size());
    index.Insert(std::vector<Edge>(stream.edges.begin() + start,
                                   stream.edges.begin() + end));
    ++batch_index;
    const Snapshot snap = index.Acquire();
    ASSERT_GE(snap.version(), last_version) << what;
    const std::vector<NodeId> canon = CanonicalizeLabels(snap.Labels());
    if (snap.version() == last_version) {
      ASSERT_EQ(canon, last_canon)
          << what << ": unpublished batch leaked into a stale snapshot";
    } else {
      // A fresh publication must be exactly some batch prefix <= current.
      bool on_boundary = false;
      for (size_t j = 0; j <= batch_index && !on_boundary; ++j) {
        on_boundary = (canon == boundary[j]);
      }
      ASSERT_TRUE(on_boundary)
          << what << ": snapshot after batch " << batch_index
          << " matches no batch boundary (half-applied batch exposed)";
    }
    last_version = snap.version();
    last_canon = canon;
  }

  // Flush publishes whatever was held back: the served view catches up to
  // the live labeling (the final boundary) unconditionally.
  index.Flush();
  EXPECT_EQ(CanonicalizeLabels(index.Acquire().Labels()), boundary.back())
      << what << ": Flush did not publish the held-back batches";
  EXPECT_EQ(index.Acquire().Labels(), index.Labels()) << what;
  // Idempotent: nothing held back, nothing published.
  const uint64_t pubs = stats::ReadServing().snapshot_publications;
  index.Flush();
  EXPECT_EQ(stats::ReadServing().snapshot_publications, pubs)
      << what << ": Flush with nothing held back must not publish";
}

TEST(ServingSnapshot, FixedCadenceNeverExposesHalfAppliedBatches) {
  const uint64_t skips_before = stats::ReadServing().publication_skips;
  Connectivity index(Connectivity::Spec().PublishEvery(4));
  StreamAndCheckBoundaries(index, "PublishEvery(4)");
  // 12 batches at k=4 on a tight loop: some batches must have been held
  // back (each skip ticks the counter; the quiet-gap override would need
  // 50ms stalls between the tiny batches above to defeat every skip).
  EXPECT_GT(stats::ReadServing().publication_skips, skips_before)
      << "k=4 never skipped a publication";
}

TEST(ServingSnapshot, AdaptiveCadenceKeepsSnapshotsOnBatchBoundaries) {
  Connectivity index(Connectivity::Spec().AdaptiveCadence());
  StreamAndCheckBoundaries(index, "AdaptiveCadence");
  const uint64_t k = stats::ReadServing().publication_cadence_k;
  EXPECT_GE(k, 1u);
  EXPECT_LE(k, Connectivity::kMaxAdaptiveCadence);
}

// Erase cuts through the cadence: a deletion (and the batches held back
// before it) is visible in the very next Acquire — a stale "still
// connected" answer after an erase is not acceptable staleness.
TEST(ServingSnapshot, CadenceErasePublishesImmediately) {
  Connectivity index(Connectivity::Spec().PublishEvery(8));
  index.Stream(/*num_nodes=*/64);
  index.Insert({{1, 2}, {2, 3}});  // batch 1 of 8: may be held back
  index.Insert({{4, 5}});          // batch 2 of 8: may be held back
  index.Erase({{1, 2}});
  const Snapshot snap = index.Acquire();
  EXPECT_EQ(snap.Labels(), index.Labels());
  EXPECT_FALSE(snap.SameComponent(1, 2)) << "erase not visible";
  EXPECT_TRUE(snap.SameComponent(2, 3))
      << "held-back insert lost across the erase";
  EXPECT_TRUE(snap.SameComponent(4, 5))
      << "held-back insert lost across the erase";
}

// The default spec keeps today's behavior bit-for-bit: k=1, every batch
// publishes, no skips — pinned so cadence stays strictly opt-in.
TEST(ServingSnapshot, DefaultSpecPublishesEveryBatch) {
  EXPECT_EQ(Connectivity::Spec().publish_every(), 1u);
  EXPECT_FALSE(Connectivity::Spec().adaptive_cadence());
  const uint64_t skips_before = stats::ReadServing().publication_skips;
  Connectivity index;
  index.Stream(/*num_nodes=*/128);
  uint64_t version = index.Acquire().version();
  for (int i = 0; i < 6; ++i) {
    index.Insert({{static_cast<NodeId>(i), static_cast<NodeId>(i + 1)}});
    const uint64_t now = index.Acquire().version();
    EXPECT_GT(now, version) << "default spec must publish every batch";
    version = now;
  }
  EXPECT_EQ(stats::ReadServing().publication_skips, skips_before);
}

// ---- base-plus-overlay publication ----

// Every read of `snap` equals a full recompute: `labels` is a fully
// compressed labeling of the streaming structure (a kSharedLock twin's
// Labels()), and sizes and count come from connectit::ComponentSizes.
void ExpectMatchesFullRecompute(const Snapshot& snap,
                                const std::vector<NodeId>& labels,
                                const std::string& what) {
  NodeId count = 0;
  const std::vector<NodeId> sizes = ComponentSizes(labels, &count);
  const NodeId n = static_cast<NodeId>(labels.size());
  ASSERT_EQ(snap.num_nodes(), n) << what;
  ASSERT_EQ(snap.NumComponents(), count) << what;
  // Point reads first, so the lazily built arrays cannot mask them.
  std::vector<NodeId> components(n), component_sizes(n);
  std::vector<uint8_t> same(n), expected_same(n);
  for (NodeId v = 0; v < n; ++v) {
    components[v] = snap.Component(v);
    component_sizes[v] = snap.ComponentSize(v);
    const NodeId u = static_cast<NodeId>((uint64_t{v} * 7919 + 13) % n);
    same[v] = snap.SameComponent(u, v);
    expected_same[v] = labels[u] == labels[v];
  }
  ASSERT_EQ(components, labels) << what;
  ASSERT_EQ(component_sizes, sizes) << what;
  ASSERT_EQ(same, expected_same) << what;
  ASSERT_EQ(snap.Labels(), labels) << what;
  ASSERT_EQ(snap.ComponentSizes(), sizes) << what;
}

// Streams random Insert batches, Flushes and Erases into an index and into
// a kSharedLock twin, whose Labels() recompute the labeling in full, and
// requires the index's snapshot to answer every read exactly like the
// recompute after every operation. Small n, so the overlay passes
// n / kOverlayShare several times; a snapshot pinned early must answer
// exactly as it did, across those compactions.
void RunOverlayDifferential(const Variant& variant, uint32_t publish_every) {
  constexpr NodeId kN = 1024;
  constexpr size_t kBatch = 8;
  std::mt19937_64 rng(publish_every);
  auto random_edge = [&] {
    return Edge{static_cast<NodeId>(rng() % kN),
                static_cast<NodeId>(rng() % kN)};
  };
  EdgeList base;
  base.num_nodes = kN;
  for (NodeId i = 0; i < kN / 4; ++i) base.edges.push_back(random_edge());
  const auto spec = Connectivity::Spec()
                        .Algorithm(variant.descriptor)
                        .PublishEvery(publish_every);
  Connectivity index(spec);
  Connectivity full(
      Connectivity::Spec(spec).Serving(ServingMode::kSharedLock));
  index.Build(GraphHandle(base)).Stream();
  full.Build(GraphHandle(base)).Stream();
  std::vector<Edge> inserted = base.edges;

  const std::string name = variant.name + " k=" + std::to_string(publish_every);
  const stats::ServingSnapshot before = stats::ReadServing();
  std::vector<NodeId> published = full.Labels();
  uint64_t version = index.Acquire().version();
  ASSERT_NO_FATAL_FAILURE(
      ExpectMatchesFullRecompute(index.Acquire(), published, name));
  Snapshot pinned;
  std::vector<NodeId> pinned_labels;
  uint64_t compactions_at_pin = 0;
  for (int step = 0; step < 64; ++step) {
    const std::string what = name + " step=" + std::to_string(step);
    if (step % 16 == 15) {
      std::vector<Edge> victims;
      for (size_t i = 0; i < kBatch; ++i) {
        victims.push_back(inserted[rng() % inserted.size()]);
      }
      index.Erase(victims);
      full.Erase(victims);
    } else if (step % 8 == 7) {
      index.Flush();
    } else {
      std::vector<Edge> batch;
      for (size_t i = 0; i < kBatch; ++i) batch.push_back(random_edge());
      inserted.insert(inserted.end(), batch.begin(), batch.end());
      index.Insert(batch);
      full.Insert(batch);
    }
    const Snapshot snap = index.Acquire();
    // A publication serves the whole current state, held-back batches
    // included; without one the previous publication stands.
    if (snap.version() != version) published = full.Labels();
    version = snap.version();
    ASSERT_NO_FATAL_FAILURE(ExpectMatchesFullRecompute(snap, published, what));
    if (step == 12) {
      pinned = snap;
      pinned_labels = published;
      compactions_at_pin = stats::ReadServing().compactions;
    }
  }
  const stats::ServingSnapshot after = stats::ReadServing();
  EXPECT_GE(after.compactions - compactions_at_pin, 2u) << name;
  EXPECT_GE(after.overlay_publications - before.overlay_publications, 5u)
      << name;
  ASSERT_NO_FATAL_FAILURE(
      ExpectMatchesFullRecompute(pinned, pinned_labels, name + " pinned"));
  index.Flush();
  EXPECT_EQ(index.Labels(), full.Labels()) << name;
}

TEST(OverlayPublication, EveryReadMatchesFullRecomputeAcrossVariants) {
  for (const Variant* v : StreamingVariants()) {
    ASSERT_NO_FATAL_FAILURE(RunOverlayDifferential(*v, 1));
  }
}

TEST(OverlayPublication, HeldBackBatchesAllReachTheOverlay) {
  for (const Variant* v : StreamingVariants()) {
    ASSERT_NO_FATAL_FAILURE(RunOverlayDifferential(*v, 4));
  }
}

}  // namespace
}  // namespace connectit
