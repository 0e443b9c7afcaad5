// connectit_bench: one driver for the three benchmark workloads.
//
//   connectit_bench --workload static_build|stream_churn|wire_reads
//                   --seed N --seconds S --trace 0|1
//                   [--size full|tiny] [--inject wrong_label|drop_response]
//                   [--revision REV] [--work-dir DIR]
//
// Prints a report line (host/config block and the workload's named
// values), then the result line: {"correct", "attempted", "failed",
// "metrics"}. With --trace 0 the metrics are the end-to-end set, with
// --trace 1 the per-layer set. Exits 1 when any answer was wrong or any
// operation failed or timed out.

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "perfbench/workloads.h"
#include "src/parallel/thread_pool.h"

namespace perfbench {

std::vector<MetricName> EndToEndMetrics() {
  return {{"setup_s", "s"},
          {"peak_rss_mb", "MiB"},
          {"latency_ms_p50", "ms"},
          {"throughput_per_s", "1/s"}};
}

std::vector<MetricName> PerLayerMetrics() {
  std::vector<MetricName> out;
  const std::pair<const char*, const char*> per_graph[] = {
      {"sampling.kout_ms", "ms"},      {"sampling.coverage", "ratio"},
      {"frequent.ms", "ms"},           {"unionfind.finish_ms", "ms"},
      {"registry.run_ms", "ms"},       {"index.overhead_ms", "ms"},
      {"index.publish_ms", "ms"},      {"baselines.afforest_ms", "ms"}};
  for (const auto& [prefix, unit] : per_graph) {
    for (const std::string& g : StaticGraphNames()) {
      out.push_back({std::string(prefix) + "." + g, unit});
    }
  }
  const std::pair<const char*, const char*> single[] = {
      {"streaming.process_batch_ms_p50", "ms"},
      {"streaming.labels_ms_p50", "ms"},
      {"index.publish_ms_p50", "ms"},
      {"index.publications", "ratio"},
      {"index.publication_cost_us", "us"},
      {"forest.arm_ms", "ms"},
      {"forest.forest_hit_frac", "ratio"},
      {"forest.replacement_searches", "count"},
      {"forest.components_split", "count"},
      {"streaming.reseed_ms", "ms"},
      {"serve.encode_ns", "ns"},
      {"serve.decode_ns", "ns"},
      {"index.read_ns", "ns"},
      {"index.acquire_ns", "ns"},
      {"serve.rtt_us_p50", "us"},
      {"serve.mutate_ms_p50", "ms"},
      {"serve.backpressure_frac", "ratio"},
      {"serve.bytes_per_frame", "bytes"},
      {"serve.queue_depth_hwm", "count"},
      {"serve.protocol_errors", "count"},
      {"serve.connections_dropped", "count"},
      {"parallel.dispatch_us", "us"},
      {"loadgen.lag_us_p99", "us"},
      {"trace.overhead_frac", "ratio"},
      {"trace.coverage.static_build", "ratio"},
      {"trace.coverage.stream_churn", "ratio"},
      {"trace.coverage.wire_reads", "ratio"},
      {"failed_frac", "ratio"}};
  for (const auto& [name, unit] : single) out.push_back({name, unit});
  return out;
}

double MeasureDispatchUs(Tracer* tracer) {
  const size_t items = 4 * connectit::NumWorkers();
  Samples us;
  for (int rep = 0; rep < 400; ++rep) {
    Tracer::Scope s(tracer, "parallel.dispatch");
    const uint64_t t0 = NowNs();
    connectit::ParallelFor(0, items, [](size_t) {}, /*grain=*/1);
    us.Add(static_cast<double>(NowNs() - t0) * 1e-3);
  }
  return us.Median();
}

void ReportSetupAndMemory(const Samples& setup_s, Result* result) {
  result->Set("setup_s", setup_s.Median(), "s");
  result->Set("peak_rss_mb", PeakRssMiB(), "MiB");
  result->ReportNumber("setup_s_samples", static_cast<double>(setup_s.size()),
                       "count");
}

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: connectit_bench --workload static_build|stream_churn|"
               "wire_reads --seed N --seconds S --trace 0|1 [--size "
               "full|tiny] [--inject wrong_label|drop_response] "
               "[--revision REV] [--work-dir DIR]\n");
  return 2;
}

}  // namespace

int Main(int argc, char** argv) {
  if (argc >= 2 && std::strcmp(argv[1], "--loadgen") == 0) {
    return LoadGenMain(argc, argv);
  }
  Config cfg;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      cfg.workload = value;
    } else if (flag == "--seed") {
      cfg.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      cfg.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      cfg.trace = value == "1";
    } else if (flag == "--size") {
      cfg.tiny = value == "tiny";
    } else if (flag == "--inject") {
      cfg.inject = value;
    } else if (flag == "--revision") {
      cfg.revision = value;
    } else if (flag == "--work-dir") {
      cfg.work_dir = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 == 0 || cfg.seconds <= 0) return Usage();
  void (*run)(const Config&, Result*, Watchdog*) = nullptr;
  if (cfg.workload == "static_build") run = RunStaticBuild;
  if (cfg.workload == "stream_churn") run = RunStreamChurn;
  if (cfg.workload == "wire_reads") run = RunWireReads;
  if (run == nullptr) return Usage();

  // The benchmark never runs the pool inline: at least two workers, so the
  // fork-join paths (and their hazards) are on the measured path.
  if (connectit::NumWorkers() < 2) connectit::SetNumWorkers(2);
  if (cfg.workload == "wire_reads") {
    // Two cores stay with the load generator's two threads; the server's
    // writer path gets a pool of the rest.
    const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
    connectit::SetNumWorkers(static_cast<size_t>(std::max<long>(2, nproc - 2)));
  }

  // Exactly the declared metric set for this mode: a layer this workload
  // never enters reports 0; an end-to-end metric must always be measured.
  Result measured;
  measured.Declare(cfg.trace ? PerLayerMetrics() : EndToEndMetrics(),
                   /*missing_is_failure=*/!cfg.trace);
  ReportHost(&measured, cfg.seed, cfg.revision);
  {
    // Generous per-run cap; each blocking operation arms a tighter one.
    Watchdog dog(&measured, 170);
    run(cfg, &measured, &dog);
  }

  measured.Print();
  return measured.correct() ? 0 : 1;
}

}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
