#include "perfbench/common.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <filesystem>

#include "src/parallel/numa.h"
#include "src/parallel/thread_pool.h"

namespace perfbench {

double Samples::Quantile(double q) const {
  if (v_.empty()) return 0.0;
  std::vector<double> sorted = v_;
  std::sort(sorted.begin(), sorted.end());
  const double rank = std::ceil(q * static_cast<double>(sorted.size()));
  const size_t index = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return sorted[std::min(index, sorted.size() - 1)];
}

double Samples::Sum() const {
  double sum = 0;
  for (double x : v_) sum += x;
  return sum;
}

// ---- Tracer ----

Tracer::Scope::Scope(Tracer* tracer, const char* name) : tracer_(tracer) {
  if (tracer_ == nullptr || !tracer_->enabled_) return;
  Span span;
  span.name = tracer_->Intern(name);
  span.parent = tracer_->stack_.empty() ? -1 : tracer_->stack_.back();
  index_ = static_cast<int64_t>(tracer_->spans_.size());
  tracer_->spans_.push_back(span);
  tracer_->stack_.push_back(index_);
  tracer_->spans_[index_].start_ns = NowNs();
}

Tracer::Scope::~Scope() {
  if (index_ < 0) return;
  tracer_->spans_[index_].end_ns = NowNs();
  tracer_->stack_.pop_back();
}

uint32_t Tracer::Intern(const char* name) {
  auto [it, inserted] =
      ids_.try_emplace(name, static_cast<uint32_t>(names_.size()));
  if (inserted) names_.push_back(name);
  return it->second;
}

std::vector<double> Tracer::SelfNs() const {
  std::vector<double> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    self[i] = static_cast<double>(spans_[i].end_ns - spans_[i].start_ns);
  }
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      self[span.parent] -= static_cast<double>(span.end_ns - span.start_ns);
    }
  }
  return self;
}

Samples Tracer::SelfMs(const std::string& name) const {
  Samples out;
  auto it = ids_.find(name);
  if (it == ids_.end()) return out;
  const std::vector<double> self = SelfNs();
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].name == it->second) out.Add(self[i] * 1e-6);
  }
  return out;
}

Samples Tracer::DurationMs(const std::string& name) const {
  Samples out;
  auto it = ids_.find(name);
  if (it == ids_.end()) return out;
  for (const Span& span : spans_) {
    if (span.name == it->second) {
      out.Add(static_cast<double>(span.end_ns - span.start_ns) * 1e-6);
    }
  }
  return out;
}

double Tracer::SubtreeSelfMs(const std::string& root) const {
  auto it = ids_.find(root);
  if (it == ids_.end()) return 0.0;
  const std::vector<double> self = SelfNs();
  // Parents always precede their children, so one forward pass marks
  // every descendant of a root span.
  std::vector<uint8_t> inside(spans_.size(), 0);
  double total_ns = 0;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    inside[i] = span.name == it->second ||
                (span.parent >= 0 && inside[span.parent]);
    if (inside[i]) total_ns += self[i];
  }
  return total_ns * 1e-6;
}

bool Tracer::WriteJsonl(const std::string& path) const {
  std::error_code ec;
  std::filesystem::create_directories(
      std::filesystem::path(path).parent_path(), ec);
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\": %zu, \"parent\": %lld, \"name\": %s, "
                 "\"start_ns\": %llu, \"end_ns\": %llu}\n",
                 i, static_cast<long long>(s.parent),
                 JsonString(names_[s.name]).c_str(),
                 static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

// ---- Result ----

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

namespace {

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

}  // namespace

void Result::Set(const std::string& name, double value, const char* unit) {
  std::lock_guard<std::mutex> lock(mu_);
  metrics_[name] = Metric{value, unit};
}

void Result::Fail(const std::string& why) {
  const uint64_t count = failed_.fetch_add(1) + 1;
  // The first few reasons are enough to diagnose; the count carries the
  // rest.
  if (count <= 5) std::fprintf(stderr, "perfbench: FAILED: %s\n", why.c_str());
}

void Result::Report(const std::string& key, const std::string& json_value) {
  std::lock_guard<std::mutex> lock(mu_);
  report_[key] = json_value;
}

void Result::ReportNumber(const std::string& key, double value,
                          const char* unit) {
  Report(key, "{\"value\": " + JsonNumber(value) +
                  ", \"unit\": " + JsonString(unit) + "}");
}

void Result::Declare(std::vector<MetricName> names, bool missing_is_failure) {
  std::lock_guard<std::mutex> lock(mu_);
  declared_ = std::move(names);
  missing_is_failure_ = missing_is_failure;
}

void Result::Print() {
  if (printed_.exchange(true)) return;
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, Metric> declared;
  for (const MetricName& want : declared_) {
    auto it = metrics_.find(want.name);
    if (it != metrics_.end() && it->second.unit == want.unit) {
      declared[want.name] = it->second;
      continue;
    }
    declared[want.name] = Metric{0.0, want.unit};
    if (missing_is_failure_) {
      Attempt();
      Fail("metric not measured: " + want.name);
    }
  }
  metrics_ = std::move(declared);
  const uint64_t attempted = std::max<uint64_t>(attempted_.load(), 1);
  const uint64_t failed = failed_.load();
  const double failed_frac =
      static_cast<double>(failed) / static_cast<double>(attempted);
  report_["failed_frac"] = "{\"value\": " + JsonNumber(failed_frac) +
                           ", \"unit\": \"ratio\"}";
  if (auto it = metrics_.find("failed_frac"); it != metrics_.end()) {
    it->second.value = failed_frac;
  }
  std::string report = "{\"report\": {";
  bool first = true;
  for (const auto& [key, value] : report_) {
    report += (first ? "" : ", ") + JsonString(key) + ": " + value;
    first = false;
  }
  report += "}}";
  std::string line = "{\"correct\": ";
  line += failed == 0 ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted);
  line += ", \"failed\": " + std::to_string(failed);
  line += ", \"metrics\": {";
  first = true;
  for (const auto& [name, metric] : metrics_) {
    line += (first ? "" : ", ") + JsonString(name) +
            ": {\"value\": " + JsonNumber(metric.value) +
            ", \"unit\": " + JsonString(metric.unit) + "}";
    first = false;
  }
  line += "}}";
  std::fprintf(stdout, "%s\n%s\n", report.c_str(), line.c_str());
  std::fflush(stdout);
}

// ---- Watchdog ----

Watchdog::Watchdog(Result* result, double run_limit_s)
    : result_(result),
      run_deadline_ns_(NowNs() + static_cast<uint64_t>(run_limit_s * 1e9)) {
  thread_ = std::thread([this] { Loop(); });
}

Watchdog::~Watchdog() {
  stop_.store(true);
  thread_.join();
}

void Watchdog::Arm(const char* what, double seconds) {
  std::lock_guard<std::mutex> lock(mu_);
  what_ = what;
  deadline_ns_ = NowNs() + static_cast<uint64_t>(seconds * 1e9);
}

void Watchdog::Disarm() {
  std::lock_guard<std::mutex> lock(mu_);
  what_ = nullptr;
  deadline_ns_ = 0;
}

void Watchdog::Loop() {
  while (!stop_.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    const uint64_t now = NowNs();
    std::string reason;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (deadline_ns_ != 0 && now > deadline_ns_) {
        reason = std::string("operation timed out: ") + what_;
      } else if (now > run_deadline_ns_) {
        reason = "run exceeded its time limit";
      }
    }
    if (reason.empty()) continue;
    result_->Attempt();
    result_->Fail(reason);
    result_->Print();
    std::_Exit(3);
  }
}

// ---- host ----

double PeakRssMiB() {
  rusage self{};
  getrusage(RUSAGE_SELF, &self);
  return static_cast<double>(self.ru_maxrss) / 1024.0;
}

void ReportHost(Result* result, uint64_t seed, const std::string& revision) {
#ifndef BENCH_BUILD_TYPE
#define BENCH_BUILD_TYPE "unknown"
#endif
  const char* threads_env = std::getenv("CONNECTIT_THREADS");
  std::string host = "{";
  host += "\"nproc\": " + std::to_string(sysconf(_SC_NPROCESSORS_ONLN));
  host += ", \"pool_workers\": " + std::to_string(connectit::NumWorkers());
  host += ", \"numa_nodes\": " +
          std::to_string(connectit::NumaTopology::Get().num_nodes());
  host += ", \"numa_backend\": " +
          JsonString(connectit::NumaTopology::Get().backend());
#ifdef __clang__
  const std::string compiler = std::string("clang ") + __clang_version__;
#else
  const std::string compiler = std::string("g++ ") + __VERSION__;
#endif
  host += ", \"compiler\": " + JsonString(compiler);
  host += ", \"build_type\": " + JsonString(BENCH_BUILD_TYPE);
  host += ", \"revision\": " + JsonString(revision);
  host += ", \"seed\": " + std::to_string(seed);
  host += ", \"CONNECTIT_THREADS\": " +
          JsonString(threads_env == nullptr ? "" : threads_env);
  host += "}";
  result->Report("host", host);
}

double GeoMean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double log_sum = 0;
  for (double v : values) log_sum += std::log(std::max(v, 1e-12));
  return std::exp(log_sum / static_cast<double>(values.size()));
}

}  // namespace perfbench
