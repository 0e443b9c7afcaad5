// static_build: Connectivity::Build with the default variant
// (Union-Rem-CAS;FindNaive;SplitAtomicOne) and k-out sampling, repeated
// round-robin over three ~1M-vertex CSR graphs: a grid (`road`, high
// diameter), an RMAT graph (`social`, skewed degrees) and a component
// mixture with one giant component (`web`, many small components).
//
// The traced run replays Build's layer sequence from benchmark code on the
// same graph (identity labels, RunSampling, IdentifyFrequentSampled,
// UnionFindFinish::FinishComponents, then the publication work: label copy,
// CountComponents, ComponentSizes), and times DefaultVariant().run and the
// Afforest baseline beside it.

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/workloads.h"
#include "src/algo/verify.h"
#include "src/baselines/afforest.h"
#include "src/core/components.h"
#include "src/core/connectit.h"
#include "src/core/connectivity_index.h"
#include "src/core/frequent.h"
#include "src/core/registry.h"
#include "src/core/sampling.h"
#include "src/graph/builder.h"
#include "src/graph/generators.h"

namespace perfbench {
namespace {

using namespace connectit;

using DefaultFinish = UnionFindFinish<UniteOption::kRemCas, FindOption::kNaive,
                                      SpliceOption::kSplitOne>;

struct StaticGraph {
  std::string name;
  Graph graph;
};

std::vector<StaticGraph> MakeGraphs(uint64_t seed, bool tiny) {
  const NodeId side = tiny ? 64 : 1024;
  const NodeId n = side * side;
  std::vector<StaticGraph> graphs;
  graphs.push_back({"road", GenerateGrid(side, side)});
  graphs.push_back({"social", GenerateRmat(n, EdgeId{8} * n, seed * 3 + 1)});
  // The mixture generator lays components out contiguously; a random
  // relabeling scatters them the way crawl order does.
  const Graph mixture =
      GenerateComponentMixture(n, tiny ? 8 : 64, seed * 3 + 2, 4);
  graphs.push_back(
      {"web", RelabelGraph(mixture, RandomPermutation(n, seed * 3 + 3))});
  return graphs;
}

// A vertex with at least one neighbor: moving it into a fresh label must
// change the partition.
NodeId VertexWithEdge(const Graph& graph) {
  for (NodeId v = 0; v < graph.num_nodes(); ++v) {
    if (graph.degree(v) > 0) return v;
  }
  return 0;
}

// Per-graph measurement state.
struct GraphRun {
  std::unique_ptr<Connectivity> index;
  std::vector<NodeId> oracle;
  Samples build_ms;           // untraced Build
  std::string span_build, span_init, span_kout, span_frequent, span_finish,
      span_publish, span_registry, span_afforest;
};

Connectivity::Spec StaticSpec() {
  return Connectivity::Spec().Sampling(SamplingConfig::KOut());
}

// Build's layer sequence, replayed through the layers' public functions
// inside one "static.replica" span; returns the labeling it produced.
std::vector<NodeId> ReplayBuild(const Graph& graph, const GraphRun& run,
                                Tracer* tracer, Result* result) {
  Tracer::Scope replica(tracer, "static.replica");
  std::vector<NodeId> labels;
  {
    Tracer::Scope s(tracer, run.span_init.c_str());
    labels = IdentityLabels(graph.num_nodes());
  }
  {
    Tracer::Scope s(tracer, run.span_kout.c_str());
    RunSampling(graph, SamplingConfig::KOut(), labels);
  }
  NodeId frequent;
  {
    Tracer::Scope s(tracer, run.span_frequent.c_str());
    frequent = IdentifyFrequentSampled(labels).label;
  }
  {
    Tracer::Scope s(tracer, run.span_finish.c_str());
    DefaultFinish::FinishComponents(graph, labels, frequent);
  }
  {
    Tracer::Scope s(tracer, run.span_publish.c_str());
    std::vector<NodeId> published = labels;
    const NodeId count = CountComponents(published);
    const std::vector<NodeId> sizes = ComponentSizes(published);
    if (count == 0 || sizes.size() != published.size()) {
      result->Fail("replayed publication produced an empty labeling");
    }
  }
  return labels;
}

}  // namespace

void RunStaticBuild(const Config& cfg, Result* result, Watchdog* dog) {
  Tracer tracer(cfg.trace);
  constexpr int kSetups = 3;
  Samples setup_s;
  std::vector<StaticGraph> graphs;
  std::vector<GraphRun> runs;
  for (int rep = 0; rep < kSetups; ++rep) {
    Bounded bound(dog, "static_build set-up", 120);
    runs.clear();
    graphs.clear();
    const double t0 = NowS();
    graphs = MakeGraphs(cfg.seed, cfg.tiny);
    for (const StaticGraph& g : graphs) {
      GraphRun run;
      run.index = std::make_unique<Connectivity>(StaticSpec());
      run.index->Build(g.graph);  // warm-up build
      runs.push_back(std::move(run));
    }
    setup_s.Add(NowS() - t0);
  }
  for (size_t i = 0; i < graphs.size(); ++i) {
    Bounded bound(dog, "sequential oracle", 120);
    const std::string& name = graphs[i].name;
    GraphRun& run = runs[i];
    run.oracle = SequentialComponents(graphs[i].graph);
    run.span_build = "e2e.build." + name;
    run.span_init = "registry.init." + name;
    run.span_kout = "sampling.kout." + name;
    run.span_frequent = "frequent." + name;
    run.span_finish = "unionfind.finish." + name;
    run.span_publish = "index.publish." + name;
    run.span_registry = "registry.run." + name;
    run.span_afforest = "baselines.afforest." + name;
  }

  const uint64_t publications_before =
      stats::ReadServing().snapshot_publications;
  uint64_t builds = 0;  // every Build publishes once
  bool inject_pending = cfg.inject == "wrong_label";
  const double start = NowS();
  constexpr int kMinRounds = 3;
  for (int round = 0; round < kMinRounds || NowS() - start < cfg.seconds;
       ++round) {
    for (size_t i = 0; i < graphs.size(); ++i) {
      const Graph& graph = graphs[i].graph;
      GraphRun& run = runs[i];
      {
        Bounded bound(dog, "Connectivity::Build", 60);
        const uint64_t t0 = NowNs();
        run.index->Build(graph);
        ++builds;
        run.build_ms.Add(static_cast<double>(NowNs() - t0) * 1e-6);
      }
      result->Attempt();
      {
        Snapshot snap = run.index->Acquire();
        bool ok;
        if (inject_pending) {
          // Self-test: hand the gate a labeling with one vertex moved out
          // of its component.
          std::vector<NodeId> wrong = snap.Labels();
          wrong[VertexWithEdge(graph)] = graph.num_nodes();
          ok = SamePartition(wrong, run.oracle);
          inject_pending = false;
        } else {
          ok = SamePartition(snap.Labels(), run.oracle);
        }
        if (!ok) result->Fail("Build labels differ from the oracle on " +
                              graphs[i].name);
      }
      if (!cfg.trace) continue;
      Bounded bound(dog, "traced static layers", 120);
      {
        Tracer::Scope s(&tracer, run.span_build.c_str());
        run.index->Build(graph);
        ++builds;
      }
      result->Attempt();
      if (!SamePartition(ReplayBuild(graph, run, &tracer, result),
                         run.oracle)) {
        result->Fail("replayed layer sequence produced a wrong labeling");
      }
      {
        Tracer::Scope s(&tracer, run.span_registry.c_str());
        const std::vector<NodeId> labels =
            DefaultVariant().run(graph, SamplingConfig::KOut());
        if (labels.size() != graph.num_nodes()) {
          result->Fail("registry run returned a short labeling");
        }
      }
      {
        Tracer::Scope s(&tracer, run.span_afforest.c_str());
        const std::vector<NodeId> labels = AfforestCC(graph);
        if (labels.size() != graph.num_nodes()) {
          result->Fail("Afforest returned a short labeling");
        }
      }
    }
  }
  const uint64_t publications =
      stats::ReadServing().snapshot_publications - publications_before;

  // End-to-end: per-graph medians, combined by geometric mean so each
  // regime weighs the same.
  std::vector<double> p50;
  double edges = 0, median_s = 0;
  for (size_t i = 0; i < graphs.size(); ++i) {
    const Samples& s = runs[i].build_ms;
    p50.push_back(s.Median());
    edges += static_cast<double>(graphs[i].graph.num_edges());
    median_s += s.Median() * 1e-3;
    const std::string& name = graphs[i].name;
    result->ReportNumber("build_ms." + name, s.Median(), "ms");
    result->ReportNumber("build_ms_p90." + name, s.Quantile(0.9), "ms");
    result->ReportNumber("build_samples." + name,
                         static_cast<double>(s.size()), "count");
    result->ReportNumber("graph_edges." + name,
                         static_cast<double>(graphs[i].graph.num_edges()),
                         "count");
  }
  result->Set("latency_ms_p50", GeoMean(p50), "ms");
  result->Set("throughput_per_s", edges / median_s, "1/s");
  ReportSetupAndMemory(setup_s, result);
  result->Set("parallel.dispatch_us", MeasureDispatchUs(&tracer), "us");
  result->Set("index.publications",
              static_cast<double>(publications) / std::max<double>(builds, 1),
              "ratio");
  if (!cfg.trace) return;

  // Per-layer self times from the spans.
  std::vector<double> overhead;
  for (size_t i = 0; i < graphs.size(); ++i) {
    const GraphRun& run = runs[i];
    const std::string& name = graphs[i].name;
    const double traced_build = tracer.DurationMs(run.span_build).Median();
    const double registry = tracer.DurationMs(run.span_registry).Median();
    overhead.push_back(traced_build / run.build_ms.Median());
    result->Set("sampling.kout_ms." + name,
                tracer.SelfMs(run.span_kout).Median(), "ms");
    result->Set("frequent.ms." + name,
                tracer.SelfMs(run.span_frequent).Median(), "ms");
    result->Set("unionfind.finish_ms." + name,
                tracer.SelfMs(run.span_finish).Median(), "ms");
    result->Set("index.publish_ms." + name,
                tracer.SelfMs(run.span_publish).Median(), "ms");
    result->Set("registry.run_ms." + name, registry, "ms");
    result->Set("index.overhead_ms." + name, traced_build - registry, "ms");
    result->Set("baselines.afforest_ms." + name,
                tracer.DurationMs(run.span_afforest).Median(), "ms");
    // Share of vertices the finish skips: the most frequent sampled
    // cluster.
    std::vector<NodeId> labels = IdentityLabels(graphs[i].graph.num_nodes());
    RunSampling(graphs[i].graph, SamplingConfig::KOut(), labels);
    result->Set("sampling.coverage." + name,
                MeasureSamplingQuality(graphs[i].graph, labels).coverage,
                "ratio");
  }
  double build_total = 0;
  for (size_t i = 0; i < graphs.size(); ++i) {
    build_total += tracer.DurationMs(runs[i].span_build).Sum();
  }
  result->Set("trace.coverage.static_build",
              tracer.SubtreeSelfMs("static.replica") / build_total, "ratio");
  result->Set("trace.overhead_frac", GeoMean(overhead) - 1.0, "ratio");
  tracer.WriteJsonl(cfg.work_dir + "/traces/static_build-seed" +
                    std::to_string(cfg.seed) + ".jsonl");
}

}  // namespace perfbench
