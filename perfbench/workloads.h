// The three benchmark workloads and the metric names they report.
//
// Every run reports the same metric set: with tracing off the end-to-end
// metrics, with tracing on the per-layer metrics (a layer a workload never
// enters reports 0). README.md maps each metric to its layer and workload.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "perfbench/common.h"
#include "src/graph/types.h"

namespace perfbench {

struct Config {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;          // self-test sizes
  std::string inject;         // "", "wrong_label" or "drop_response"
  std::string revision = "unknown";
  std::string work_dir = ".";  // socket and trace files live here
};

// Sets up the workload several times (the median is setup_s), measures
// for cfg.seconds, checks every answer against a sequential oracle, and
// fills `result`.
void RunStaticBuild(const Config& cfg, Result* result, Watchdog* dog);
void RunStreamChurn(const Config& cfg, Result* result, Watchdog* dog);
void RunWireReads(const Config& cfg, Result* result, Watchdog* dog);

// Entry point of the wire workload's load-generator process.
int LoadGenMain(int argc, char** argv);

// The static workload's graphs, in report order.
inline const std::vector<std::string>& StaticGraphNames() {
  static const std::vector<std::string> names = {"road", "social", "web"};
  return names;
}

std::vector<MetricName> EndToEndMetrics();
std::vector<MetricName> PerLayerMetrics();

// Median wall time of one ParallelFor over 4 x NumWorkers() empty items,
// in microseconds (the parallel layer's dispatch cost).
double MeasureDispatchUs(Tracer* tracer);

// Sets setup_s to the median of the set-up times, and peak_rss_mb.
void ReportSetupAndMemory(const Samples& setup_s, Result* result);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
