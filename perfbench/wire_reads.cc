// wire_reads: a serve::Server over a Unix socket, serving snapshots of a
// ~1M-vertex streaming index, driven by one load-generator process (this
// binary re-executed with --loadgen).
//
// The generator has two read connections, one writer connection and two
// threads:
//   1. open loop: one thread sends at a fixed Poisson rate over both read
//      connections (90% SameComponent, 5% Component, 4% ComponentSizes, 1%
//      NumComponents, uniform keys), latency measured from each request's
//      scheduled send time, while the other thread sends paced insert-only
//      InsertBatch frames on the writer connection;
//   2. closed loop: the writer stops and each thread keeps a fixed window
//      in flight on one read connection, measuring capacity.
// The server runs one epoll worker (with several, the kernel picks the
// worker that accepts each connection, which made capacity bimodal), so
// server workers plus generator threads stay within nproc.
//
// Because the writer only inserts, connectivity only grows: a pair
// connected in the base graph must be reported connected, and a pair
// reported connected must be connected in the final labeling, which itself
// must match a sequential recompute over the base and the applied batches.
// The generator checks the first rule against its own sequential oracle of
// the base graph and ships the pairs the second rule needs back over a
// pipe. Every non-kOk status, transport error and timeout counts as failed.

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "perfbench/workloads.h"
#include "src/algo/verify.h"
#include "src/core/connectivity_index.h"
#include "src/graph/builder.h"
#include "src/graph/generators.h"
#include "src/parallel/random.h"
#include "src/serve/client.h"
#include "src/serve/protocol.h"
#include "src/serve/server.h"
#include "src/stats/counters.h"

extern char** environ;

namespace perfbench {
namespace {

using namespace connectit;
using serve::Opcode;
using serve::Status;

// Workload shape, shared by the server side and the generator.
struct WireShape {
  NodeId n;
  double read_rate;     // open-loop requests per second
  uint32_t window;      // closed-loop requests in flight per connection
  size_t batch_edges;   // writer InsertBatch size
  size_t batch_queries;
  double batch_rate;    // writer batches per second
};

WireShape ShapeFor(bool tiny) {
  if (tiny) return {NodeId{1} << 12, 2000, 8, 64, 8, 10};
  return {NodeId{1} << 20, 50000, 64, 2048, 16, 2};
}

EdgeList BaseEdges(const WireShape& shape, uint64_t seed) {
  return GenerateRmatEdges(shape.n, EdgeId{4} * shape.n, seed * 13 + 1);
}

EdgeList WriterEdges(const WireShape& shape, double seconds, uint64_t seed) {
  const size_t batches =
      static_cast<size_t>(std::ceil(seconds * shape.batch_rate)) + 8;
  return GenerateRmatEdges(shape.n, batches * shape.batch_edges,
                           seed * 13 + 7);
}

// What the generator sends back, followed by num_pairs Edge records: pairs
// reported connected that must be connected in the final labeling.
struct Summary {
  uint64_t reads_sent = 0;
  uint64_t checked = 0;           // answers checked against the base oracle
  uint64_t wrong = 0;             // answers contradicting it
  uint64_t bad_status = 0;        // non-kOk or undecodable responses
  uint64_t timeouts = 0;          // reads never answered
  uint64_t transport_errors = 0;
  uint32_t count_min = std::numeric_limits<uint32_t>::max();
  uint32_t count_max = 0;         // NumComponents / ComponentSizes counts
  uint64_t open_completed = 0;   // open-loop reads answered
  double open_seconds = 0;
  double read_us_p50 = 0, read_us_p90 = 0, read_us_p99 = 0;
  double lag_us_p99 = 0;
  double read_capacity = 0;       // closed-loop completions per second
  uint64_t batches_sent = 0;
  uint64_t batches_ok = 0;
  uint64_t batches_backpressure = 0;
  double mutate_ms_p50 = 0;
  double rtt_us_p50 = 0;
  double rtt_overhead_frac = 0;
  uint64_t stats_ok = 0;
  serve::StatsProbe stats;
  uint64_t num_pairs = 0;
};

// ---------------------------------------------------------------------
// Load generator (child process).
// ---------------------------------------------------------------------

// Checks answers against the base graph's labeling. Owned by one thread.
class AnswerGate {
 public:
  AnswerGate(const std::vector<NodeId>* base, bool flip_one)
      : base_(base), flip_one_(flip_one) {}

  void SameComponent(NodeId u, NodeId v, bool connected) {
    ++checked;
    const bool base_connected = (*base_)[u] == (*base_)[v];
    if (flip_one_ && base_connected) {
      // Self-test: corrupt one answer the way a wrong labeling would.
      flip_one_ = false;
      connected = false;
    }
    if (base_connected && !connected) ++wrong;
    if (!base_connected && connected) must_connect.push_back({u, v});
  }
  void Component(NodeId v, NodeId label) {
    ++checked;
    if (label >= base_->size()) {
      ++wrong;
    } else if ((*base_)[label] != (*base_)[v]) {
      must_connect.push_back({v, label});
    }
  }
  void Count(NodeId count) {
    ++checked;
    count_min = std::min(count_min, count);
    count_max = std::max(count_max, count);
  }

  uint64_t checked = 0, wrong = 0;
  NodeId count_min = std::numeric_limits<NodeId>::max(), count_max = 0;
  std::vector<Edge> must_connect;

 private:
  const std::vector<NodeId>* base_;
  bool flip_one_;
};

struct Pending {
  uint64_t sched_ns;
  Opcode op;
  NodeId u, v;
};

// Drives the read connections from one thread: pipelined sends, responses
// drained without blocking.
class ReadDriver {
 public:
  ReadDriver(std::vector<serve::Client*> clients, const WireShape& shape,
             uint64_t seed, bool drop_one, AnswerGate* gate, Summary* summary)
      : clients_(std::move(clients)),
        shape_(shape),
        rng_(Rng(seed).Split(21)),
        drop_one_(drop_one),
        gate_(gate),
        summary_(summary),
        pending_(clients_.size()) {}

  // Phase 1: Poisson arrivals at shape.read_rate, spread over the
  // connections. Latency counts from each request's scheduled send time.
  // Percentiles are taken per window and the median over windows reported,
  // so a short disturbance from outside moves few windows.
  void OpenLoop(double seconds) {
    const Rng arrivals = rng_.Split(5);
    const uint64_t start = NowNs() + 1'000'000;
    const uint64_t end = start + static_cast<uint64_t>(seconds * 1e9);
    const size_t conns = clients_.size();
    std::vector<uint8_t> dirty(conns, 0);
    uint64_t sched = start;
    Samples lag_us;
    open_start_ = start;
    open_us_.assign(Windows(seconds), Samples());
    open_phase_ = true;
    for (uint64_t k = 0; sched < end;) {
      const uint64_t now = NowNs();
      while (sched <= now && sched < end) {
        const size_t c = k % conns;
        Send(c, sched);
        dirty[c] = 1;
        lag_us.Add(static_cast<double>(now - sched) * 1e-3);
        const double u = arrivals.GetDouble(k++);
        sched += static_cast<uint64_t>(-std::log(1.0 - u) / shape_.read_rate *
                                       1e9);
      }
      for (size_t c = 0; c < conns; ++c) {
        if (dirty[c] && !Flush(c)) return;
        dirty[c] = 0;
        if (Drain(c) < 0) return;
      }
    }
    Settle(2.0);
    open_phase_ = false;
    Samples all, p50, p90;
    for (const Samples& window : open_us_) {
      all.Append(window);
      p50.Add(window.Median());
      p90.Add(window.Quantile(0.9));
    }
    summary_->open_completed = all.size();
    summary_->open_seconds = seconds;
    summary_->read_us_p50 = p50.Median();
    summary_->read_us_p90 = p90.Median();
    summary_->read_us_p99 = all.Quantile(0.99);
    summary_->lag_us_p99 = lag_us.Quantile(0.99);
  }

  // Phase 2: a fixed window in flight per connection, from `start`;
  // returns the completions in each time window.
  std::vector<uint64_t> ClosedLoop(double seconds, uint64_t start) {
    const size_t conns = clients_.size();
    for (size_t c = 0; c < conns; ++c) {
      for (uint32_t w = 0; w < shape_.window; ++w) Send(c, NowNs());
      if (!Flush(c)) return {};
    }
    const size_t windows = Windows(seconds);
    std::vector<uint64_t> completed(windows, 0);
    while (NowNs() < start) {
    }
    for (uint64_t now = start; now < start + windows * kWindowNs;
         now = NowNs()) {
      for (size_t c = 0; c < conns; ++c) {
        const int done = Drain(c);
        if (done < 0) return completed;
        completed[std::min((now - start) / kWindowNs, windows - 1)] +=
            static_cast<uint64_t>(done);
        for (int d = 0; d < done; ++d) Send(c, NowNs());
        if (done > 0 && !Flush(c)) return completed;
      }
    }
    Settle(2.0);
    return completed;
  }

  static constexpr uint64_t kWindowNs = 500'000'000;
  static size_t Windows(double seconds) {
    return std::max<size_t>(1, static_cast<size_t>(seconds * 1e9 / kWindowNs));
  }

 private:

  void Send(size_t c, uint64_t sched_ns) {
    const uint64_t i = summary_->reads_sent++;
    const double pick = rng_.GetDouble(3 * i);
    const NodeId u = static_cast<NodeId>(rng_.GetBounded(3 * i + 1, shape_.n));
    const NodeId v = static_cast<NodeId>(rng_.GetBounded(3 * i + 2, shape_.n));
    serve::Client& client = *clients_[c];
    Pending p{sched_ns, Opcode::kSameComponent, u, v};
    uint64_t id;
    if (pick < 0.90) {
      id = client.SendSameComponent(u, v);
    } else if (pick < 0.95) {
      p.op = Opcode::kComponent;
      id = client.SendComponent(u);
    } else if (pick < 0.99) {
      p.op = Opcode::kComponentSizes;
      id = client.SendComponentSizes(16);
    } else {
      p.op = Opcode::kNumComponents;
      id = client.SendNumComponents();
    }
    pending_[c][id] = p;
  }

  bool Flush(size_t c) {
    std::string error;
    if (clients_[c]->Flush(&error)) return true;
    ++summary_->transport_errors;
    std::fprintf(stderr, "loadgen: flush failed: %s\n", error.c_str());
    return false;
  }

  // Handles every response already received on connection `c`; returns
  // how many completed, or -1 on a transport error.
  int Drain(size_t c) {
    int completed = 0;
    serve::Client::Response resp;
    std::string error;
    while (clients_[c]->Poll(&resp, 0, &error)) {
      const uint64_t now = NowNs();
      auto it = pending_[c].find(resp.request_id);
      if (it == pending_[c].end()) continue;
      if (drop_one_) {
        // Self-test: act as if this response never arrived.
        drop_one_ = false;
        continue;
      }
      if (open_phase_) {
        const uint64_t sched = it->second.sched_ns;
        const size_t w = std::min<size_t>((sched - open_start_) / kWindowNs,
                                          open_us_.size() - 1);
        open_us_[w].Add(static_cast<double>(now - sched) * 1e-3);
      }
      Check(it->second, resp);
      pending_[c].erase(it);
      ++completed;
    }
    if (error != "request timed out") {  // anything but "nothing yet"
      ++summary_->transport_errors;
      std::fprintf(stderr, "loadgen: poll failed: %s\n", error.c_str());
      return -1;
    }
    return completed;
  }

  // Waits up to `seconds` for outstanding responses; whatever is still
  // missing then counts as timed out.
  void Settle(double seconds) {
    const double deadline = NowS() + seconds;
    bool alive = true;
    while (alive && NowS() < deadline) {
      size_t outstanding = 0;
      for (size_t c = 0; alive && c < clients_.size(); ++c) {
        alive = Drain(c) >= 0;
        outstanding += pending_[c].size();
      }
      if (outstanding == 0) break;
    }
    for (auto& p : pending_) {
      summary_->timeouts += p.size();
      p.clear();
    }
  }

  void Check(const Pending& p, const serve::Client::Response& resp) {
    Status status = resp.status;
    std::string error;
    const uint8_t* data = resp.payload.data();
    const size_t len = resp.payload.size();
    bool decoded = false;
    NodeId value = 0;
    switch (p.op) {
      case Opcode::kSameComponent: {
        bool connected = false;
        decoded = serve::DecodeSameComponentResponse(data, len, &status,
                                                     &connected, &error);
        value = connected ? 1 : 0;
        break;
      }
      case Opcode::kComponent:
        decoded =
            serve::DecodeComponentResponse(data, len, &status, &value, &error);
        break;
      case Opcode::kComponentSizes:
        decoded = serve::DecodeComponentSizesResponse(data, len, &status,
                                                      &value, &sizes_, &error);
        break;
      default: {
        uint64_t version = 0;
        decoded = serve::DecodeNumComponentsResponse(data, len, &status,
                                                     &value, &version, &error);
        break;
      }
    }
    if (!decoded || status != Status::kOk || resp.opcode != p.op) {
      ++summary_->bad_status;
      return;
    }
    if (p.op == Opcode::kSameComponent) {
      gate_->SameComponent(p.u, p.v, value != 0);
    } else if (p.op == Opcode::kComponent) {
      gate_->Component(p.u, value);
    } else {
      gate_->Count(value);
    }
  }

  std::vector<serve::Client*> clients_;
  WireShape shape_;
  Rng rng_;
  bool drop_one_;
  AnswerGate* gate_;
  Summary* summary_;
  std::vector<std::unordered_map<uint64_t, Pending>> pending_;
  std::vector<serve::ComponentSizesEntry> sizes_;
  std::vector<Samples> open_us_;  // per window
  uint64_t open_start_ = 0;
  bool open_phase_ = false;
};

struct WriterTally {
  uint64_t sent = 0, ok = 0, backpressure = 0;
  Samples mutate_ms;
};

// Paced insert-only batches over the writer connection, until `stop`. A
// failed batch ends the loop: later batches would leave a gap in the
// applied prefix the final check replays.
void WriterLoop(serve::Client* client, const WireShape& shape,
                const std::vector<Edge>& edges, uint64_t seed,
                const std::atomic<bool>* stop, AnswerGate* gate,
                WriterTally* tally) {
  const Rng rng = Rng(seed).Split(31);
  const uint64_t period = static_cast<uint64_t>(1e9 / shape.batch_rate);
  uint64_t next = NowNs();
  const size_t max_batches = edges.size() / shape.batch_edges;
  for (size_t b = 0; b < max_batches; ++b) {
    while (NowNs() < next && !stop->load()) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    if (stop->load()) return;
    next += period;
    serve::MutateRequest request;
    request.edges.assign(edges.begin() + b * shape.batch_edges,
                         edges.begin() + (b + 1) * shape.batch_edges);
    const Rng pick = rng.Split(b);
    for (size_t q = 0; q < shape.batch_queries; ++q) {
      request.queries.push_back(
          {static_cast<NodeId>(pick.GetBounded(2 * q, shape.n)),
           static_cast<NodeId>(pick.GetBounded(2 * q + 1, shape.n))});
    }
    serve::MutateResponse response;
    std::string error;
    ++tally->sent;
    const uint64_t t0 = NowNs();
    if (!client->Mutate(Opcode::kInsertBatch, request, &response, &error)) {
      std::fprintf(stderr, "loadgen: InsertBatch failed: %s\n",
                   error.c_str());
      return;
    }
    tally->mutate_ms.Add(static_cast<double>(NowNs() - t0) * 1e-6);
    if (response.status == Status::kBackpressure) ++tally->backpressure;
    if (response.status != Status::kOk ||
        response.answers.size() != request.queries.size()) {
      return;
    }
    ++tally->ok;
    for (size_t q = 0; q < request.queries.size(); ++q) {
      gate->SameComponent(request.queries[q].u, request.queries[q].v,
                          response.answers[q] != 0);
    }
  }
}

bool WriteAll(int fd, const void* data, size_t len) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  while (len > 0) {
    const ssize_t w = write(fd, p, len);
    if (w < 0 && errno == EINTR) continue;
    if (w <= 0) return false;
    p += w;
    len -= static_cast<size_t>(w);
  }
  return true;
}

// ---------------------------------------------------------------------
// Server side (the benchmark process).
// ---------------------------------------------------------------------

struct WireSetup {
  EdgeList base_edges;
  std::unique_ptr<Connectivity> index;
  std::unique_ptr<serve::Server> server;
};

bool StartServer(WireSetup* setup, const std::string& socket_path,
                 const WireShape& shape, uint64_t seed) {
  setup->base_edges = BaseEdges(shape, seed);
  const Graph base = BuildGraph(setup->base_edges);
  setup->index = std::make_unique<Connectivity>();
  setup->index->Build(base);
  setup->index->Stream();
  serve::ServerConfig config;
  config.unix_path = socket_path;
  config.workers = 1;
  setup->server = std::make_unique<serve::Server>(setup->index.get(), config);
  std::string error;
  if (!setup->server->Start(&error)) {
    std::fprintf(stderr, "perfbench: server start failed: %s\n",
                 error.c_str());
    return false;
  }
  // Warm-up: one connection answers a few reads.
  serve::ClientConfig cc;
  cc.unix_path = socket_path;
  serve::Client client(cc);
  if (!client.Connect(&error)) return false;
  for (NodeId v = 0; v < 64; ++v) {
    Status status;
    bool connected;
    if (!client.SameComponent(v, (v * 7919) % shape.n, &status, &connected,
                              &error)) {
      return false;
    }
  }
  return true;
}

// Per-op cost of the in-process pieces of one SameComponent round trip,
// in nanoseconds.
struct InProcessCosts {
  double encode_ns = 0, decode_ns = 0, read_ns = 0, acquire_ns = 0;
};

InProcessCosts MeasureInProcess(const Connectivity& index, NodeId n,
                                Tracer* tracer) {
  constexpr int kOps = 200'000;
  [[maybe_unused]] static volatile uint64_t sink;  // keeps the loops alive
  InProcessCosts costs;
  std::vector<uint8_t> buf;
  buf.reserve(256);
  {
    Tracer::Scope s(tracer, "serve.encode");
    const uint64_t t0 = NowNs();
    for (int i = 0; i < kOps; ++i) {
      buf.clear();
      serve::AppendSameComponentRequest(i, i % n, (i * 31) % n, &buf);
      serve::AppendSameComponentResponse(i, Status::kOk, (i & 1) != 0, &buf);
    }
    costs.encode_ns = static_cast<double>(NowNs() - t0) / kOps;
    sink = buf.size();
  }
  std::vector<uint8_t> request, response;
  serve::AppendSameComponentRequest(1, 3, n - 1, &request);
  serve::AppendSameComponentResponse(1, Status::kOk, true, &response);
  {
    Tracer::Scope s(tracer, "serve.decode");
    const uint64_t t0 = NowNs();
    std::string error;
    for (int i = 0; i < kOps; ++i) {
      serve::FrameHeader header;
      NodeId u = 0, v = 0;
      serve::DecodeFrameHeader(request.data(), request.size(), &header, &error);
      const uint8_t* payload = request.data() + serve::kFrameHeaderBytes;
      serve::ValidatePayload(header, payload, &error);
      serve::DecodeSameComponentRequest(payload, header.payload_length, &u, &v,
                                        &error);
      serve::DecodeFrameHeader(response.data(), response.size(), &header,
                               &error);
      const uint8_t* rpayload = response.data() + serve::kFrameHeaderBytes;
      serve::ValidatePayload(header, rpayload, &error);
      Status status;
      bool connected = false;
      serve::DecodeSameComponentResponse(rpayload, header.payload_length,
                                         &status, &connected, &error);
      sink = u + v + (connected ? 1 : 0);
    }
    costs.decode_ns = static_cast<double>(NowNs() - t0) / kOps;
  }
  const Rng rng(n);
  std::vector<NodeId> keys(4096);
  for (size_t i = 0; i < keys.size(); ++i) {
    keys[i] = static_cast<NodeId>(rng.GetBounded(i, n));
  }
  {
    Tracer::Scope s(tracer, "index.read");
    uint64_t connected = 0;
    const uint64_t t0 = NowNs();
    for (int i = 0; i < 4 * kOps; ++i) {
      connected += index.SameComponent(keys[i & 4095], keys[(i + 1) & 4095]);
    }
    costs.read_ns = static_cast<double>(NowNs() - t0) / (4 * kOps);
    sink = connected;
  }
  {
    Tracer::Scope s(tracer, "index.acquire");
    const uint64_t t0 = NowNs();
    for (int i = 0; i < kOps; ++i) {
      const Snapshot snap = index.Acquire();
      sink = snap.version();
    }
    costs.acquire_ns = static_cast<double>(NowNs() - t0) / kOps;
  }
  return costs;
}

// Runs the generator process and reads its summary and pairs from its
// pipe. False (after killing it) when it fails or overruns.
bool RunLoadGen(const Config& cfg, const std::string& socket_path,
                Summary* summary, std::vector<Edge>* must_connect) {
  int fds[2];
  if (pipe2(fds, O_CLOEXEC) != 0) return false;
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  std::vector<std::string> args = {
      "connectit_bench",          "--loadgen",
      socket_path,                std::to_string(cfg.seed),
      std::to_string(cfg.seconds), cfg.tiny ? "1" : "0",
      cfg.trace ? "1" : "0",      cfg.inject.empty() ? "-" : cfg.inject};
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  pid_t pid;
  const int rc = posix_spawn(&pid, "/proc/self/exe", &actions, nullptr,
                             argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  close(fds[1]);
  if (rc != 0) {
    close(fds[0]);
    return false;
  }
  std::vector<uint8_t> bytes;
  const double deadline = NowS() + cfg.seconds + 60;
  bool timed_out = false;
  while (true) {
    const double left = deadline - NowS();
    if (left <= 0) {
      timed_out = true;
      break;
    }
    pollfd pfd{fds[0], POLLIN, 0};
    if (poll(&pfd, 1, static_cast<int>(left * 1000) + 1) <= 0) continue;
    uint8_t buf[1 << 16];
    const ssize_t r = read(fds[0], buf, sizeof(buf));
    if (r < 0 && errno == EINTR) continue;
    if (r <= 0) break;
    bytes.insert(bytes.end(), buf, buf + r);
  }
  close(fds[0]);
  if (timed_out) kill(pid, SIGKILL);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (timed_out || !WIFEXITED(status) || WEXITSTATUS(status) != 0 ||
      bytes.size() < sizeof(Summary)) {
    return false;
  }
  std::memcpy(summary, bytes.data(), sizeof(Summary));
  if (bytes.size() != sizeof(Summary) + summary->num_pairs * sizeof(Edge)) {
    return false;
  }
  must_connect->resize(summary->num_pairs);
  std::memcpy(must_connect->data(), bytes.data() + sizeof(Summary),
              must_connect->size() * sizeof(Edge));
  return true;
}

}  // namespace

int LoadGenMain(int argc, char** argv) {
  if (argc != 8) return 2;
  const std::string socket_path = argv[2];
  const uint64_t seed = std::strtoull(argv[3], nullptr, 10);
  const double seconds = std::atof(argv[4]);
  const WireShape shape = ShapeFor(std::strcmp(argv[5], "1") == 0);
  const bool trace = std::strcmp(argv[6], "1") == 0;
  const std::string inject = argv[7];

  // The generator's own oracle: the base graph's components.
  const std::vector<NodeId> base = SequentialComponents(BaseEdges(shape, seed));
  const EdgeList writer_edges = WriterEdges(shape, seconds, seed);

  serve::ClientConfig cc;
  cc.unix_path = socket_path;
  cc.request_timeout_ms = 5000;
  std::vector<std::unique_ptr<serve::Client>> readers;
  std::string error;
  for (int c = 0; c < 2; ++c) {
    readers.push_back(std::make_unique<serve::Client>(cc));
    if (!readers.back()->Connect(&error)) {
      std::fprintf(stderr, "loadgen: connect failed: %s\n", error.c_str());
      return 1;
    }
  }
  serve::Client writer(cc);
  if (!writer.Connect(&error)) {
    std::fprintf(stderr, "loadgen: connect failed: %s\n", error.c_str());
    return 1;
  }

  Summary summary;
  AnswerGate read_gate(&base, inject == "wrong_label");
  AnswerGate write_gate(&base, false);
  WriterTally tally;
  std::atomic<bool> stop{false};
  std::thread writer_thread([&] {
    WriterLoop(&writer, shape, writer_edges.edges, seed, &stop, &write_gate,
               &tally);
  });
  {
    ReadDriver driver({readers[0].get(), readers[1].get()}, shape, seed,
                      inject == "drop_response", &read_gate, &summary);
    driver.OpenLoop(0.55 * seconds);
  }
  stop.store(true);
  writer_thread.join();

  // Capacity: the writer's thread is free now, so each read connection
  // gets its own thread and the server, not the generator, is the limit.
  Summary second;
  AnswerGate second_gate(&base, false);
  ReadDriver closed0({readers[0].get()}, shape, seed + 1, false, &read_gate,
                     &summary);
  ReadDriver closed1({readers[1].get()}, shape, seed + 2, false, &second_gate,
                     &second);
  const uint64_t start = NowNs() + 1'000'000;
  std::vector<uint64_t> windows1;
  std::thread closed_thread(
      [&] { windows1 = closed1.ClosedLoop(0.35 * seconds, start); });
  std::vector<uint64_t> windows = closed0.ClosedLoop(0.35 * seconds, start);
  closed_thread.join();
  Samples rate;
  for (size_t w = 0; w < windows.size() && w < windows1.size(); ++w) {
    rate.Add(static_cast<double>(windows[w] + windows1[w]) * 1e9 /
             ReadDriver::kWindowNs);
  }
  summary.read_capacity = rate.Median();
  summary.reads_sent += second.reads_sent;
  summary.bad_status += second.bad_status;
  summary.timeouts += second.timeouts;
  summary.transport_errors += second.transport_errors;

  if (trace) {
    // One request outstanding at a time; every other one inside a span,
    // so the difference is the tracing overhead.
    Tracer tracer(true);
    Samples traced_us, untraced_us;
    for (int i = 0; i < 2000; ++i) {
      const NodeId u = static_cast<NodeId>(i) % shape.n;
      const NodeId v = static_cast<NodeId>(i * 7919) % shape.n;
      const bool traced = i % 2 == 1;
      Status status;
      bool connected;
      bool ok;
      const uint64_t t0 = NowNs();
      {
        Tracer::Scope s(traced ? &tracer : nullptr, "serve.rtt");
        ok = readers[0]->SameComponent(u, v, &status, &connected, &error);
      }
      const double us = static_cast<double>(NowNs() - t0) * 1e-3;
      ++summary.reads_sent;
      if (!ok || status != Status::kOk) {
        ++summary.bad_status;
        break;
      }
      read_gate.SameComponent(u, v, connected);
      (traced ? traced_us : untraced_us).Add(us);
    }
    summary.rtt_us_p50 = untraced_us.Median();
    summary.rtt_overhead_frac = traced_us.Median() / untraced_us.Median() - 1;
  }
  summary.stats_ok = readers[0]->Stats(&summary.stats, &error) ? 1 : 0;
  for (auto& reader : readers) reader->Close();
  writer.Close();

  summary.batches_sent = tally.sent;
  summary.batches_ok = tally.ok;
  summary.batches_backpressure = tally.backpressure;
  summary.mutate_ms_p50 = tally.mutate_ms.Median();
  std::vector<Edge> pairs;
  for (const AnswerGate* gate : {&read_gate, &second_gate, &write_gate}) {
    pairs.insert(pairs.end(), gate->must_connect.begin(),
                 gate->must_connect.end());
    summary.checked += gate->checked;
    summary.wrong += gate->wrong;
    summary.count_min = std::min(summary.count_min, gate->count_min);
    summary.count_max = std::max(summary.count_max, gate->count_max);
  }
  summary.num_pairs = pairs.size();
  const bool written =
      WriteAll(STDOUT_FILENO, &summary, sizeof(summary)) &&
      WriteAll(STDOUT_FILENO, pairs.data(), pairs.size() * sizeof(Edge));
  return written ? 0 : 1;
}

void RunWireReads(const Config& cfg, Result* result, Watchdog* dog) {
  Tracer tracer(cfg.trace);
  const WireShape shape = ShapeFor(cfg.tiny);
  // A short relative socket path: the work directory may be deeper than a
  // sockaddr_un allows.
  if (chdir(cfg.work_dir.c_str()) != 0) {
    result->Attempt();
    result->Fail("cannot enter the work directory " + cfg.work_dir);
    return;
  }
  const std::string socket_path =
      "wire-" + std::to_string(getpid()) + ".sock";

  constexpr int kSetups = 3;
  Samples setup_s;
  WireSetup setup;
  for (int rep = 0; rep < kSetups; ++rep) {
    Bounded bound(dog, "wire_reads set-up", 120);
    setup.server.reset();  // stops it before its index goes
    setup.index.reset();
    stats::ResetTransport();
    const double t0 = NowS();
    if (!StartServer(&setup, socket_path, shape, cfg.seed)) {
      result->Attempt();
      result->Fail("server set-up failed");
      return;
    }
    setup_s.Add(NowS() - t0);
  }
  const NodeId base_components = setup.index->NumComponents();

  InProcessCosts costs;
  if (cfg.trace) {
    Bounded bound(dog, "in-process serving layers", 60);
    costs = MeasureInProcess(*setup.index, shape.n, &tracer);
  }
  const double dispatch_us = MeasureDispatchUs(&tracer);

  const auto serving0 = stats::ReadServing();
  Summary summary;
  std::vector<Edge> must_connect;
  const bool loadgen_ok = RunLoadGen(cfg, socket_path, &summary, &must_connect);
  {
    Bounded bound(dog, "server shutdown", 60);
    setup.server->Stop();
  }
  const auto serving1 = stats::ReadServing();
  // Memory of the serving process only: the generator is not under test.
  ReportSetupAndMemory(setup_s, result);
  if (!loadgen_ok) {
    result->Attempt();
    result->Fail("load generator failed or timed out");
    return;
  }

  // ---- correctness ----
  result->Attempt(summary.reads_sent + summary.batches_sent +
                  summary.checked + 2);
  for (uint64_t i = 0; i < summary.wrong; ++i) {
    result->Fail("answer contradicts the base graph");
  }
  const uint64_t lost =
      summary.bad_status + summary.timeouts + summary.transport_errors;
  for (uint64_t i = 0; i < lost; ++i) {
    result->Fail("non-kOk status, timeout or transport error");
  }
  for (uint64_t b = summary.batches_ok; b < summary.batches_sent; ++b) {
    result->Fail("writer batch refused, failed or timed out");
  }
  if (summary.stats_ok == 0) result->Fail("Stats probe failed");
  {
    Bounded bound(dog, "final oracle", 120);
    const std::vector<NodeId> final_labels = setup.index->Labels();
    const NodeId final_components = setup.index->NumComponents();
    const EdgeList writer_edges = WriterEdges(shape, cfg.seconds, cfg.seed);
    EdgeList applied = setup.base_edges;
    applied.edges.insert(
        applied.edges.end(), writer_edges.edges.begin(),
        writer_edges.edges.begin() + summary.batches_ok * shape.batch_edges);
    if (!SamePartition(final_labels, SequentialComponents(applied))) {
      result->Fail("final labels differ from a sequential recompute");
    }
    for (const Edge& e : must_connect) {
      result->Attempt();
      if (final_labels[e.u] != final_labels[e.v]) {
        result->Fail("reported connected, but not in the final labeling");
      }
    }
    if (summary.count_max > 0 && (summary.count_min < final_components ||
                                  summary.count_max > base_components)) {
      result->Fail("component count outside the base..final range");
    }
  }

  // ---- metrics ----
  // Bounded: reads served per second at the offered rate, which falls
  // only when the server stops keeping up. Capacity is report-only: its
  // spread over seeds on a shared 4-vCPU host (0.15-0.28 of the median)
  // is wider than the largest bound.
  const double capacity = summary.read_capacity;
  const double served_per_s = static_cast<double>(summary.open_completed) /
                              std::max(summary.open_seconds, 1e-9);
  result->Set("latency_ms_p50", summary.read_us_p50 * 1e-3, "ms");
  result->Set("throughput_per_s", served_per_s, "1/s");
  result->ReportNumber("read_us_p50", summary.read_us_p50, "us");
  result->ReportNumber("read_us_p90", summary.read_us_p90, "us");
  result->ReportNumber("read_us_p99", summary.read_us_p99, "us");
  result->ReportNumber("read_samples",
                       static_cast<double>(summary.open_completed), "count");
  result->ReportNumber("read_rate_per_s", shape.read_rate, "1/s");
  result->ReportNumber("read_capacity_ops_per_s", capacity, "ops/s");
  result->ReportNumber("writer_batches",
                       static_cast<double>(summary.batches_ok), "count");

  const double publications = static_cast<double>(
      serving1.snapshot_publications - serving0.snapshot_publications);
  result->Set("index.publications",
              publications / std::max<double>(summary.batches_ok, 1), "ratio");
  result->Set("index.publication_cost_us",
              static_cast<double>(serving1.publication_cost_us -
                                  serving0.publication_cost_us) /
                  std::max(publications, 1.0),
              "us");
  result->Set("parallel.dispatch_us", dispatch_us, "us");
  result->Set("loadgen.lag_us_p99", summary.lag_us_p99, "us");
  result->Set("serve.mutate_ms_p50", summary.mutate_ms_p50, "ms");
  result->Set("serve.backpressure_frac",
              static_cast<double>(summary.batches_backpressure) /
                  std::max<double>(summary.batches_sent, 1),
              "ratio");
  const serve::StatsProbe& st = summary.stats;
  result->Set("serve.bytes_per_frame",
              static_cast<double>(st.bytes_in + st.bytes_out) /
                  std::max<double>(st.frames_in + st.frames_out, 1),
              "bytes");
  result->Set("serve.queue_depth_hwm", static_cast<double>(st.queue_depth_hwm),
              "count");
  result->Set("serve.protocol_errors", static_cast<double>(st.protocol_errors),
              "count");
  result->Set("serve.connections_dropped",
              static_cast<double>(st.connections_dropped), "count");
  if (!cfg.trace) return;

  result->Set("serve.encode_ns", costs.encode_ns, "ns");
  result->Set("serve.decode_ns", costs.decode_ns, "ns");
  result->Set("index.read_ns", costs.read_ns, "ns");
  result->Set("index.acquire_ns", costs.acquire_ns, "ns");
  result->Set("serve.rtt_us_p50", summary.rtt_us_p50, "us");
  // Share of one blocking round trip the in-process pieces explain; the
  // rest is transport (syscalls, wake-ups, scheduling).
  result->Set("trace.coverage.wire_reads",
              (costs.encode_ns + costs.decode_ns + costs.read_ns +
               costs.acquire_ns) /
                  (summary.rtt_us_p50 * 1e3),
              "ratio");
  result->Set("trace.overhead_frac", summary.rtt_overhead_frac, "ratio");
  tracer.WriteJsonl("traces/wire_reads-seed" + std::to_string(cfg.seed) +
                    ".jsonl");
}

}  // namespace perfbench
