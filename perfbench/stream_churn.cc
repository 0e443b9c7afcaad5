// stream_churn: Build + Stream() on the first half of a ~1M-vertex RMAT
// edge stream, then one closed-loop writer drives the second half.
//
//   Phase A: insert-only Insert(updates, queries) batches with inline
//            queries (paper §3.5); the deletion forest stays unarmed.
//   Arming:  one Erase, which builds the dynamic spanning forest (counted
//            in set-up, reported as forest.arm_ms).
//   Phase B: cycles of several Insert batches followed by one Erase of part
//            of the last batch.
//
// Phase-A answers are checked against a sequential union-find over the
// same edges; phase-B Insert answers against the labelings published before
// and after the call, Erase answers against the one it published; the final
// labeling against a sequential recompute over the surviving edges.
//
// The traced run feeds the same batches to a twin streaming structure
// (DefaultVariant().make_streaming) and times ProcessBatch, Labels() and
// the publication work (CountComponents, ComponentSizes) one by one.

#include <algorithm>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "perfbench/workloads.h"
#include "src/algo/verify.h"
#include "src/core/components.h"
#include "src/core/connectivity_index.h"
#include "src/core/registry.h"
#include "src/graph/builder.h"
#include "src/graph/generators.h"
#include "src/parallel/random.h"
#include "src/stats/counters.h"

namespace perfbench {
namespace {

using namespace connectit;

struct StreamInput {
  NodeId n = 0;
  std::vector<Edge> base_edges;
  Graph base;
  std::vector<Edge> stream;  // the writer's edges, in arrival order
};

StreamInput MakeStreamInput(uint64_t seed, bool tiny) {
  StreamInput in;
  in.n = tiny ? (NodeId{1} << 12) : (NodeId{1} << 20);
  EdgeList all = GenerateRmatEdges(in.n, EdgeId{4} * in.n, seed * 7 + 5);
  const size_t half = all.edges.size() / 2;
  in.stream.assign(all.edges.begin() + half, all.edges.end());
  all.edges.resize(half);
  in.base = BuildGraph(all);
  in.base_edges = std::move(all.edges);
  return in;
}

// The oracle: a plain sequential union-find.
class SequentialDsu {
 public:
  explicit SequentialDsu(NodeId n) : parent_(n) {
    for (NodeId v = 0; v < n; ++v) parent_[v] = v;
  }
  NodeId Find(NodeId v) {
    while (parent_[v] != v) {
      parent_[v] = parent_[parent_[v]];
      v = parent_[v];
    }
    return v;
  }
  void Unite(NodeId u, NodeId v) {
    u = Find(u);
    v = Find(v);
    if (u != v) parent_[std::max(u, v)] = std::min(u, v);
  }

 private:
  std::vector<NodeId> parent_;
};

uint64_t Key(const Edge& e) {
  const NodeId lo = std::min(e.u, e.v), hi = std::max(e.u, e.v);
  return (static_cast<uint64_t>(lo) << 32) | hi;
}

std::vector<Edge> RandomPairs(const Rng& rng, NodeId n, size_t count) {
  std::vector<Edge> pairs(count);
  for (size_t i = 0; i < count; ++i) {
    pairs[i] = {static_cast<NodeId>(rng.GetBounded(2 * i, n)),
                static_cast<NodeId>(rng.GetBounded(2 * i + 1, n))};
  }
  return pairs;
}

// Insert answers follow the paper's §3.5 contract for the default (Type
// (i)) variant: queries run concurrently with the batch's unions and are
// linearizable, so a pair connected before the batch must be reported
// connected and a pair disconnected after it must be reported
// disconnected; in between either answer is right. Returns how many
// answers saw a state before the whole batch was applied (the façade's
// comment promises post-batch answers; the count makes the gap visible).
template <typename Before, typename After>
uint64_t CheckInsertAnswers(const std::vector<Edge>& queries,
                            const std::vector<uint8_t>& answers,
                            Before before, After after, const char* what,
                            Result* result) {
  if (answers.size() != queries.size()) {
    result->Fail(std::string(what) + " returned the wrong number of answers");
    return 0;
  }
  uint64_t early = 0;
  for (size_t i = 0; i < queries.size(); ++i) {
    const bool answer = answers[i] != 0;
    const bool pre = before(i);
    const bool post = after(i);
    if ((pre && !answer) || (answer && !post)) {
      result->Fail(std::string(what) +
                   " answer matches neither the state before nor after");
      return early;
    }
    early += answer != post ? 1 : 0;
  }
  return early;
}

// Erase answers are computed after the batch: each must match the
// labeling the same call published.
void CheckAgainstPublished(const Connectivity& index,
                           const std::vector<Edge>& queries,
                           const std::vector<uint8_t>& answers,
                           const char* what, Result* result) {
  const Snapshot snap = index.Acquire();
  for (size_t i = 0; i < queries.size(); ++i) {
    const bool expect = snap.SameComponent(queries[i].u, queries[i].v);
    if (answers.size() != queries.size() || (answers[i] != 0) != expect) {
      result->Fail(std::string(what) +
                   " answer disagrees with the published labeling");
      return;
    }
  }
}

// One applied write, kept so the surviving edge set can be rebuilt.
struct WriteOp {
  bool erase = false;
  std::vector<Edge> edges;
};

// The surviving edge set (set semantics, like the deletion forest): an
// edge survives unless an erase removed it after its last insertion.
EdgeList SurvivingEdges(NodeId n, const std::vector<Edge>& base,
                        const std::vector<WriteOp>& log) {
  std::unordered_map<uint64_t, size_t> erased_at;
  for (size_t t = 0; t < log.size(); ++t) {
    if (!log[t].erase) continue;
    for (const Edge& e : log[t].edges) erased_at[Key(e)] = t + 1;
  }
  std::unordered_set<uint64_t> reinserted;
  for (size_t t = 0; t < log.size(); ++t) {
    if (log[t].erase) continue;
    for (const Edge& e : log[t].edges) {
      auto it = erased_at.find(Key(e));
      if (it != erased_at.end() && t + 1 > it->second) {
        reinserted.insert(Key(e));
      }
    }
  }
  auto survives = [&](const Edge& e) {
    return erased_at.count(Key(e)) == 0 || reinserted.count(Key(e)) > 0;
  };
  EdgeList out;
  out.num_nodes = n;
  for (const Edge& e : base) {
    if (survives(e)) out.edges.push_back(e);
  }
  for (const WriteOp& op : log) {
    if (op.erase) continue;
    for (const Edge& e : op.edges) {
      if (survives(e)) out.edges.push_back(e);
    }
  }
  return out;
}

}  // namespace

void RunStreamChurn(const Config& cfg, Result* result, Watchdog* dog) {
  Tracer tracer(cfg.trace);
  const size_t kBatch = cfg.tiny ? 256 : 4096;
  const size_t kQueries = cfg.tiny ? 32 : 256;
  const size_t kErase = cfg.tiny ? 32 : 1024;
  constexpr int kInsertsPerCycle = 4;
  constexpr int kSetups = 3;

  Samples setup_s;
  StreamInput in;
  std::unique_ptr<Connectivity> index;
  for (int rep = 0; rep < kSetups; ++rep) {
    Bounded bound(dog, "stream_churn set-up", 120);
    index.reset();
    in = StreamInput();
    const double t0 = NowS();
    in = MakeStreamInput(cfg.seed, cfg.tiny);
    index = std::make_unique<Connectivity>();
    index->Build(in.base);
    index->Stream();
    setup_s.Add(NowS() - t0);
  }
  const Rng rng = Rng(cfg.seed).Split(11);
  SequentialDsu oracle(in.n);
  for (const Edge& e : in.base_edges) oracle.Unite(e.u, e.v);
  std::unique_ptr<StreamingConnectivity> twin;
  if (cfg.trace) {
    twin = DefaultVariant().make_streaming(
        StreamingSeed::FromLabels(index->Labels()));
  }

  std::vector<WriteOp> log;
  uint64_t early_answers = 0;  // Insert answers that saw a pre-batch state
  size_t pos = 0;
  uint64_t batch_no = 0;
  auto next_batch = [&](std::vector<Edge>* batch, std::vector<Edge>* queries) {
    batch->assign(in.stream.begin() + pos, in.stream.begin() + pos + kBatch);
    pos += kBatch;
    *queries = RandomPairs(rng.Split(batch_no++), in.n, kQueries);
  };

  // ---- phase A: insert-only ----
  Samples insert_ms, traced_insert_ms, untraced_insert_ms;
  double insert_total_s = 0;
  size_t edges_applied = 0;
  const auto serving_a0 = stats::ReadServing();
  const size_t phase_a_limit = in.stream.size() * 6 / 10;
  const double phase_a_start = NowS();
  std::vector<Edge> batch, queries;
  while ((insert_ms.size() < 3 ||
          NowS() - phase_a_start < 0.4 * cfg.seconds) &&
         pos + kBatch <= phase_a_limit) {
    next_batch(&batch, &queries);
    const bool traced = cfg.trace && insert_ms.size() % 2 == 1;
    std::vector<uint8_t> answers;
    double ms;
    {
      Bounded bound(dog, "Connectivity::Insert", 60);
      Tracer::Scope s(traced ? &tracer : nullptr, "e2e.insert");
      const uint64_t t0 = NowNs();
      answers = index->Insert(batch, queries);
      ms = static_cast<double>(NowNs() - t0) * 1e-6;
    }
    insert_ms.Add(ms);
    (traced ? traced_insert_ms : untraced_insert_ms).Add(ms);
    insert_total_s += ms * 1e-3;
    edges_applied += batch.size();
    result->Attempt();
    std::vector<uint8_t> pre(queries.size());
    for (size_t i = 0; i < queries.size(); ++i) {
      pre[i] = oracle.Find(queries[i].u) == oracle.Find(queries[i].v);
    }
    for (const Edge& e : batch) oracle.Unite(e.u, e.v);
    auto before = [&](size_t i) { return pre[i] != 0; };
    auto after = [&](size_t i) {
      return oracle.Find(queries[i].u) == oracle.Find(queries[i].v);
    };
    early_answers +=
        CheckInsertAnswers(queries, answers, before, after, "Insert", result);
    if (cfg.trace) {
      Bounded bound(dog, "traced streaming layers", 60);
      Tracer::Scope replica(&tracer, "stream.replica");
      std::vector<uint8_t> twin_answers;
      {
        Tracer::Scope s(&tracer, "streaming.process_batch");
        twin_answers = twin->ProcessBatch(batch, queries);
      }
      std::vector<NodeId> labels;
      {
        Tracer::Scope s(&tracer, "streaming.labels");
        labels = twin->Labels();
      }
      {
        Tracer::Scope s(&tracer, "index.publish");
        const NodeId count = CountComponents(labels);
        const std::vector<NodeId> sizes = ComponentSizes(labels);
        if (count == 0 || sizes.size() != labels.size()) {
          result->Fail("replayed publication produced an empty labeling");
        }
      }
      result->Attempt();
      CheckInsertAnswers(queries, twin_answers, before, after,
                         "twin ProcessBatch", result);
    }
    log.push_back({false, batch});
  }
  const auto serving_a1 = stats::ReadServing();

  // ---- arming erase (set-up) ----
  Samples erase_ms;
  double erase_total_s = 0;
  const Rng erase_rng = rng.Split(99);
  auto erase_part_of = [&](const std::vector<Edge>& last, uint64_t salt) {
    std::vector<Edge> victims(kErase);
    const Rng pick = erase_rng.Split(salt);
    for (size_t i = 0; i < kErase; ++i) {
      victims[i] = last[pick.GetBounded(i, last.size())];
    }
    return victims;
  };
  double arm_s;
  {
    std::vector<Edge> victims = erase_part_of(batch, 0);
    queries = RandomPairs(rng.Split(batch_no++), in.n, kQueries);
    std::vector<uint8_t> answers;
    {
      Bounded bound(dog, "arming Connectivity::Erase", 150);
      const double t0 = NowS();
      answers = index->Erase(victims, queries);
      arm_s = NowS() - t0;
    }
    result->Attempt();
    CheckAgainstPublished(*index, queries, answers, "arming Erase", result);
    log.push_back({true, std::move(victims)});
  }

  // ---- phase B: insert cycles, each closed by one erase ----
  const auto serving_b0 = stats::ReadServing();
  const double phase_b_start = NowS();
  size_t edges_erased_requested = 0;
  while ((erase_ms.size() < 3 ||
          NowS() - phase_b_start < 0.6 * cfg.seconds) &&
         pos + kInsertsPerCycle * kBatch <= in.stream.size()) {
    for (int k = 0; k < kInsertsPerCycle; ++k) {
      next_batch(&batch, &queries);
      std::vector<uint8_t> answers;
      const Snapshot before = index->Acquire();
      {
        Bounded bound(dog, "Connectivity::Insert", 60);
        const uint64_t t0 = NowNs();
        answers = index->Insert(batch, queries);
        insert_total_s += static_cast<double>(NowNs() - t0) * 1e-9;
      }
      edges_applied += batch.size();
      result->Attempt();
      const Snapshot after = index->Acquire();
      early_answers += CheckInsertAnswers(
          queries, answers,
          [&](size_t i) {
            return before.SameComponent(queries[i].u, queries[i].v);
          },
          [&](size_t i) {
            return after.SameComponent(queries[i].u, queries[i].v);
          },
          "phase-B Insert", result);
      log.push_back({false, batch});
    }
    std::vector<Edge> victims = erase_part_of(batch, erase_ms.size() + 1);
    queries = RandomPairs(rng.Split(batch_no++), in.n, kQueries);
    std::vector<uint8_t> answers;
    {
      Bounded bound(dog, "Connectivity::Erase", 60);
      const uint64_t t0 = NowNs();
      answers = index->Erase(victims, queries);
      const double ms = static_cast<double>(NowNs() - t0) * 1e-6;
      erase_ms.Add(ms);
      erase_total_s += ms * 1e-3;
    }
    edges_applied += victims.size();
    edges_erased_requested += victims.size();
    result->Attempt();
    CheckAgainstPublished(*index, queries, answers, "Erase", result);
    log.push_back({true, std::move(victims)});
    if (cfg.trace) {
      Bounded bound(dog, "traced reseed", 60);
      std::vector<NodeId> labels = index->Labels();
      Tracer::Scope s(&tracer, "streaming.reseed");
      twin = DefaultVariant().make_streaming(
          StreamingSeed::FromLabels(std::move(labels)));
    }
  }
  const auto serving_b1 = stats::ReadServing();

  // ---- final labeling against a sequential recompute ----
  {
    Bounded bound(dog, "final oracle", 120);
    std::vector<NodeId> labels = index->Labels();
    if (cfg.inject == "wrong_label") {
      // Self-test: one endpoint of a base edge moved out of its
      // component.
      for (const Edge& e : in.base_edges) {
        if (e.u == e.v) continue;
        labels[e.u] = in.n;
        break;
      }
    }
    const EdgeList surviving = SurvivingEdges(in.n, in.base_edges, log);
    result->Attempt();
    if (!SamePartition(labels, SequentialComponents(surviving))) {
      result->Fail("final labels differ from a sequential recompute");
    }
  }

  result->Set("latency_ms_p50", insert_ms.Median(), "ms");
  result->Set("throughput_per_s",
              static_cast<double>(edges_applied) /
                  (insert_total_s + erase_total_s),
              "1/s");
  // Set-up is the base build (median of kSetups) plus the one arming
  // erase.
  Samples setup_with_arm;
  setup_with_arm.Add(setup_s.Median() + arm_s);
  ReportSetupAndMemory(setup_with_arm, result);
  result->ReportNumber("base_setup_s", setup_s.Median(), "s");
  const double phase_a_edges =
      static_cast<double>(insert_ms.size() * kBatch);
  result->ReportNumber("ingest_edges_per_s",
                       phase_a_edges / insert_ms.Sum() * 1e3, "edges/s");
  result->ReportNumber("insert_ms_p50", insert_ms.Median(), "ms");
  result->ReportNumber("insert_ms_p90", insert_ms.Quantile(0.9), "ms");
  result->ReportNumber("insert_samples", static_cast<double>(insert_ms.size()),
                       "count");
  result->ReportNumber("insert_answers_before_batch",
                       static_cast<double>(early_answers), "count");
  result->ReportNumber("erase_ms_p50", erase_ms.Median(), "ms");
  result->ReportNumber("erase_samples", static_cast<double>(erase_ms.size()),
                       "count");
  result->ReportNumber("erase_edges_requested",
                       static_cast<double>(edges_erased_requested), "count");

  const double publications = static_cast<double>(
      serving_a1.snapshot_publications - serving_a0.snapshot_publications);
  result->Set("index.publications",
              publications / std::max<double>(insert_ms.size(), 1), "ratio");
  result->Set("index.publication_cost_us",
              static_cast<double>(serving_a1.publication_cost_us -
                                  serving_a0.publication_cost_us) /
                  std::max(publications, 1.0),
              "us");
  const double erased =
      static_cast<double>(serving_b1.edges_erased - serving_b0.edges_erased);
  result->Set("forest.arm_ms", arm_s * 1e3, "ms");
  result->Set("forest.forest_hit_frac",
              static_cast<double>(serving_b1.forest_edge_hits -
                                  serving_b0.forest_edge_hits) /
                  std::max(erased, 1.0),
              "ratio");
  result->Set("forest.replacement_searches",
              static_cast<double>(serving_b1.replacement_searches -
                                  serving_b0.replacement_searches),
              "count");
  result->Set("forest.components_split",
              static_cast<double>(serving_b1.components_split -
                                  serving_b0.components_split),
              "count");
  result->Set("parallel.dispatch_us", MeasureDispatchUs(&tracer), "us");
  if (!cfg.trace) return;

  result->Set("streaming.process_batch_ms_p50",
              tracer.SelfMs("streaming.process_batch").Median(), "ms");
  result->Set("streaming.labels_ms_p50",
              tracer.SelfMs("streaming.labels").Median(), "ms");
  result->Set("index.publish_ms_p50", tracer.SelfMs("index.publish").Median(),
              "ms");
  result->Set("streaming.reseed_ms", tracer.SelfMs("streaming.reseed").Median(),
              "ms");
  // Mean replayed layer time per batch over mean traced Insert time.
  const Samples replicas = tracer.DurationMs("stream.replica");
  const Samples traced = tracer.DurationMs("e2e.insert");
  result->Set("trace.coverage.stream_churn",
              (tracer.SubtreeSelfMs("stream.replica") /
               std::max<size_t>(replicas.size(), 1)) /
                  traced.Mean(),
              "ratio");
  result->Set("trace.overhead_frac",
              traced_insert_ms.Median() / untraced_insert_ms.Median() - 1.0,
              "ratio");
  tracer.WriteJsonl(cfg.work_dir + "/traces/stream_churn-seed" +
                    std::to_string(cfg.seed) + ".jsonl");
}

}  // namespace perfbench
