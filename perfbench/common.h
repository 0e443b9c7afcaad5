// Shared pieces of the ConnectIt benchmark driver: clocks, sample
// statistics, the span tracer, the result record with its JSON output, the
// per-operation watchdog, and the host/config block.
//
// Everything here is benchmark code. The program under test is only ever
// reached through its public headers (src/core, src/serve, src/parallel).

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}
inline double NowS() { return static_cast<double>(NowNs()) * 1e-9; }

// A bag of measurements with nearest-rank quantiles.
class Samples {
 public:
  void Add(double x) { v_.push_back(x); }
  void Append(const Samples& other) {
    v_.insert(v_.end(), other.v_.begin(), other.v_.end());
  }
  size_t size() const { return v_.size(); }
  bool empty() const { return v_.empty(); }
  double Quantile(double q) const;
  double Median() const { return Quantile(0.5); }
  double Sum() const;
  double Mean() const { return v_.empty() ? 0.0 : Sum() / v_.size(); }

 private:
  std::vector<double> v_;
};

// In-memory span recorder for the traced run. Single-threaded: every span
// is opened and closed by the thread that owns the tracer. Spans are kept
// in memory and written out once, when the run ends.
class Tracer {
 public:
  struct Span {
    uint32_t name = 0;
    int64_t parent = -1;  // index into spans(), -1 for a root span
    uint64_t start_ns = 0;
    uint64_t end_ns = 0;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}

  // RAII span; a no-op when tracing is off.
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    int64_t index_ = -1;
  };

  // Self time (span duration minus the part its direct children cover) of
  // every span with this name, in milliseconds, one sample per span.
  Samples SelfMs(const std::string& name) const;
  // Total duration of every span with this name, in milliseconds.
  Samples DurationMs(const std::string& name) const;
  // Sum of self times over every span under (and including) spans named
  // `root`, in milliseconds.
  double SubtreeSelfMs(const std::string& root) const;

  // One JSON object per span: name, id, parent, start_ns, end_ns.
  bool WriteJsonl(const std::string& path) const;

 private:
  uint32_t Intern(const char* name);
  std::vector<double> SelfNs() const;

  bool enabled_;
  std::vector<Span> spans_;
  std::vector<std::string> names_;
  std::unordered_map<std::string, uint32_t> ids_;
  std::vector<int64_t> stack_;
};

struct MetricName {
  std::string name;
  const char* unit;
};

// The record one run prints as its last line. Metrics are keyed by name;
// `report` holds the human-facing extras (host block, per-workload named
// values) printed on the line before it.
class Result {
 public:
  void Set(const std::string& name, double value, const char* unit);
  void Attempt(uint64_t n = 1) { attempted_.fetch_add(n); }
  // Counts one failed, wrong, refused or timed-out operation.
  void Fail(const std::string& why);
  void Report(const std::string& key, const std::string& json_value);
  void ReportNumber(const std::string& key, double value, const char* unit);
  // The metrics Print emits: exactly these. One never set prints as 0
  // and, when `missing_is_failure`, counts as a failure. A declared
  // "failed_frac" is filled in from the counts.
  void Declare(std::vector<MetricName> names, bool missing_is_failure);

  uint64_t attempted() const { return attempted_.load(); }
  uint64_t failed() const { return failed_.load(); }
  bool correct() const { return failed() == 0; }

  // Prints the report line, then the result line. Later calls do nothing,
  // so the watchdog and the normal exit path cannot both print.
  void Print();

 private:
  struct Metric {
    double value;
    std::string unit;
  };
  std::mutex mu_;
  std::map<std::string, Metric> metrics_;
  std::map<std::string, std::string> report_;
  std::vector<MetricName> declared_;
  bool missing_is_failure_ = false;
  std::atomic<uint64_t> attempted_{0};
  std::atomic<uint64_t> failed_{0};
  std::atomic<bool> printed_{false};
};

// Bounds every operation the benchmark waits on. A background thread
// watches the armed deadline; when one passes (a hang, e.g. a deadlocked
// fork-join pool), the operation counts as failed, the result is printed,
// and the process exits non-zero instead of hanging.
class Watchdog {
 public:
  Watchdog(Result* result, double run_limit_s);
  ~Watchdog();
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;
  void Arm(const char* what, double seconds);
  void Disarm();

 private:
  void Loop();
  Result* result_;
  std::mutex mu_;
  const char* what_ = nullptr;
  uint64_t deadline_ns_ = 0;
  uint64_t run_deadline_ns_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

// RAII arming of the watchdog around one operation.
class Bounded {
 public:
  Bounded(Watchdog* dog, const char* what, double seconds) : dog_(dog) {
    dog_->Arm(what, seconds);
  }
  ~Bounded() { dog_->Disarm(); }
  Bounded(const Bounded&) = delete;
  Bounded& operator=(const Bounded&) = delete;

 private:
  Watchdog* dog_;
};

// Peak resident memory of this process in MiB.
double PeakRssMiB();

// Records nproc, pool workers, NUMA nodes, compiler, build type, source
// revision and the seed into the report.
void ReportHost(Result* result, uint64_t seed, const std::string& revision);

// Geometric mean of positive values.
double GeoMean(const std::vector<double>& values);

std::string JsonString(const std::string& s);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
