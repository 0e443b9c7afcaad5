// The TSan target for the network serving subsystem: a live Server on a
// Unix socket with pipelined reader clients racing wire mutations and a
// graceful Stop. The read path's contract — one epoch pin per ready-frame
// batch, no locking, single-owner connection state — is exactly the kind
// of claim a data-race detector can falsify, so CI runs this binary under
// ThreadSanitizer (and the whole test suite under ASan). The assertions
// here pin the observable half: every pipelined request is answered
// exactly once, answers are coherent with what was provably inserted,
// refusals are only the documented statuses, zero protocol errors, and a
// Stop with responses in flight still delivers every answer owed.

#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/connectivity_index.h"
#include "src/graph/generators.h"
#include "src/graph/graph_handle.h"
#include "src/serve/client.h"
#include "src/serve/protocol.h"
#include "src/serve/server.h"
#include "src/stats/counters.h"

namespace connectit::serve {
namespace {

std::string SocketPath(const char* name) {
  return ::testing::TempDir() + "/" + name + "." +
         std::to_string(::getpid()) + ".sock";
}

TEST(ServerConcurrency, PipelinedReadersRaceWireMutations) {
  stats::ResetTransport();
  const NodeId n = 1u << 10;
  const EdgeList base = GenerateRmatEdges(n, 2ull * n, /*seed=*/5);
  Connectivity index;
  index.Build(GraphHandle(base)).Stream();

  ServerConfig config;
  config.unix_path = SocketPath("concurrency");
  config.workers = 2;
  config.queue_capacity = 64;
  Server server(&index, config);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  constexpr int kReaders = 3;
  constexpr int kRequestsPerReader = 400;
  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      ClientConfig cc;
      cc.unix_path = config.unix_path;
      Client client(cc);
      std::string err;
      if (!client.Connect(&err)) {
        ADD_FAILURE() << "reader connect: " << err;
        failures.fetch_add(1);
        return;
      }
      // Pipeline a window of mixed reads, then drain it; every request
      // must come back kOk with a coherent answer.
      std::unordered_map<uint64_t, Edge> same_queries;
      int answered = 0;
      int sent = 0;
      while (answered < kRequestsPerReader) {
        while (sent < kRequestsPerReader &&
               sent - answered < 32) {
          const Edge& e = base.edges[(r * 7919 + sent) % base.edges.size()];
          switch (sent % 4) {
            case 0:
              same_queries[client.SendSameComponent(e.u, e.v)] = e;
              break;
            case 1:
              client.SendComponent(e.u);
              break;
            case 2:
              client.SendNumComponents();
              break;
            default:
              client.SendComponentSizes(8);
              break;
          }
          ++sent;
        }
        if (!client.Flush(&err)) {
          ADD_FAILURE() << "reader flush: " << err;
          failures.fetch_add(1);
          return;
        }
        Client::Response resp;
        if (!client.Poll(&resp, /*timeout_ms=*/10000, &err)) {
          ADD_FAILURE() << "reader poll: " << err;
          failures.fetch_add(1);
          return;
        }
        ++answered;
        if (resp.status != Status::kOk) {
          ADD_FAILURE() << "read refused: " << ToString(resp.status);
          failures.fetch_add(1);
          return;
        }
        const auto it = same_queries.find(resp.request_id);
        if (it != same_queries.end()) {
          // A base edge is connected in every published labeling, no
          // matter which snapshot the worker pinned.
          Status status;
          bool connected = false;
          if (!DecodeSameComponentResponse(resp.payload.data(),
                                           resp.payload.size(), &status,
                                           &connected, &err) ||
              !connected) {
            ADD_FAILURE() << "base edge (" << it->second.u << ","
                          << it->second.v << ") answered disconnected";
            failures.fetch_add(1);
            return;
          }
        }
      }
    });
  }

  // One mutator pushes insert/erase batches through the wire while the
  // readers run; backpressure is an acceptable (counted) refusal.
  std::thread mutator([&] {
    ClientConfig cc;
    cc.unix_path = config.unix_path;
    Client client(cc);
    std::string err;
    if (!client.Connect(&err)) {
      ADD_FAILURE() << "mutator connect: " << err;
      failures.fetch_add(1);
      return;
    }
    for (int i = 0; i < 40; ++i) {
      MutateRequest req;
      const NodeId a = static_cast<NodeId>((i * 13) % n);
      const NodeId b = static_cast<NodeId>((i * 29 + 7) % n);
      req.edges = {{a, b}};
      req.queries = {{a, b}};
      MutateResponse resp;
      const Opcode op = i % 5 == 4 ? Opcode::kEraseBatch : Opcode::kInsertBatch;
      if (!client.Mutate(op, req, &resp, &err)) {
        ADD_FAILURE() << "mutate: " << err;
        failures.fetch_add(1);
        return;
      }
      if (resp.status != Status::kOk &&
          resp.status != Status::kBackpressure) {
        ADD_FAILURE() << "mutate refused: " << ToString(resp.status);
        failures.fetch_add(1);
        return;
      }
      if (resp.status != Status::kOk || op != Opcode::kInsertBatch) continue;
      // The inline answer for a pair the batch itself connects may be
      // either value (§3.5). At the default cadence (k = 1) the post-batch
      // labeling is published before the response is sent, so a later
      // read on this connection must see the edge.
      Status status;
      bool connected = false;
      if (!client.SameComponent(a, b, &status, &connected, &err)) {
        ADD_FAILURE() << "post-insert read: " << err;
        failures.fetch_add(1);
        return;
      }
      if (status != Status::kOk || !connected) {
        ADD_FAILURE() << "inserted edge (" << a << "," << b
                      << ") read as disconnected after publication";
        failures.fetch_add(1);
        return;
      }
    }
  });

  for (std::thread& t : readers) t.join();
  mutator.join();
  server.Stop();

  EXPECT_EQ(failures.load(), 0);
  const stats::TransportSnapshot transport = stats::ReadTransport();
  EXPECT_EQ(transport.protocol_errors, 0u);
  EXPECT_EQ(transport.connections_dropped, 0u)
      << "an orderly client EOF must not count as a drop";
  EXPECT_EQ(transport.connections_accepted,
            static_cast<uint64_t>(kReaders + 1));
  // Every request frame produced exactly one response frame.
  EXPECT_EQ(transport.frames_in, transport.frames_out);
  EXPECT_GE(transport.frames_in,
            static_cast<uint64_t>(kReaders * kRequestsPerReader + 40));
}

// Stop with a full pipeline in flight: the drain still delivers every
// response the client was owed before the connection closes.
TEST(ServerConcurrency, GracefulStopDeliversPendingResponses) {
  stats::ResetTransport();
  Connectivity index;
  index.Stream(/*num_nodes=*/256);
  index.Insert({{1, 2}, {2, 3}});

  ServerConfig config;
  config.unix_path = SocketPath("graceful");
  config.workers = 1;
  Server server(&index, config);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  ClientConfig cc;
  cc.unix_path = config.unix_path;
  Client client(cc);
  ASSERT_TRUE(client.Connect(&error)) << error;
  constexpr int kPipelined = 100;
  for (int i = 0; i < kPipelined; ++i) {
    client.SendSameComponent(1, 3);
  }
  ASSERT_TRUE(client.Flush(&error)) << error;

  // Wait for the first answer — the worker has the pipeline in hand — then
  // race Stop against the remaining 99: everything owed must come back.
  Client::Response resp;
  std::string err;
  ASSERT_TRUE(client.Poll(&resp, 10000, &err)) << err;
  ASSERT_EQ(resp.status, Status::kOk);
  int answered = 1;
  std::thread stopper([&] { server.Stop(); });
  while (answered < kPipelined && client.Poll(&resp, 5000, &err)) {
    ASSERT_EQ(resp.status, Status::kOk);
    ++answered;
  }
  stopper.join();
  EXPECT_EQ(answered, kPipelined)
      << "graceful drain lost responses (" << err << ")";
  EXPECT_EQ(stats::ReadTransport().protocol_errors, 0u);
}

// A full mutation queue refuses with kBackpressure — explicitly, counted,
// and without wedging the server or corrupting later requests.
TEST(ServerConcurrency, BackpressureRefusalIsExplicitAndRecoverable) {
  stats::ResetTransport();
  Connectivity index;
  index.Stream(/*num_nodes=*/1u << 14);

  ServerConfig config;
  config.unix_path = SocketPath("backpressure");
  config.workers = 1;
  config.queue_capacity = 1;
  Server server(&index, config);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  ClientConfig cc;
  cc.unix_path = config.unix_path;
  Client client(cc);
  ASSERT_TRUE(client.Connect(&error)) << error;

  // Burst mutations far faster than the writer drains a capacity-1 queue.
  MutateRequest req;
  for (NodeId v = 0; v + 1 < 2048; v += 2) {
    req.edges.push_back({v, v + 1});
  }
  constexpr int kBurst = 32;
  for (int i = 0; i < kBurst; ++i) {
    client.SendMutate(Opcode::kInsertBatch, req);
  }
  ASSERT_TRUE(client.Flush(&error)) << error;
  int ok = 0, refused = 0;
  for (int i = 0; i < kBurst; ++i) {
    Client::Response resp;
    ASSERT_TRUE(client.Poll(&resp, 10000, &error)) << error;
    if (resp.status == Status::kOk) {
      ++ok;
    } else {
      ASSERT_EQ(resp.status, Status::kBackpressure);
      ++refused;
    }
  }
  EXPECT_GT(ok, 0) << "nothing was ever applied";
  EXPECT_GT(refused, 0) << "a capacity-1 queue absorbed a 32-batch burst";
  EXPECT_EQ(static_cast<uint64_t>(refused),
            stats::ReadTransport().backpressure_rejections);
  // The connection is still healthy: a read after the burst answers.
  Status status;
  NodeId count = 0;
  uint64_t version = 0;
  ASSERT_TRUE(client.NumComponents(&status, &count, &version, &error))
      << error;
  EXPECT_EQ(status, Status::kOk);
  server.Stop();
  EXPECT_EQ(stats::ReadTransport().protocol_errors, 0u);
}

}  // namespace
}  // namespace connectit::serve
