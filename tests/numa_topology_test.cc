// NUMA topology + node-bound scheduling (src/parallel/numa.h): the
// emulated backend that CI leans on, worker-group binding, shard
// placement, and the node-affine loop's completeness guarantee.

#include <atomic>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "src/graph/builder.h"
#include "src/graph/generators.h"
#include "src/graph/sharded.h"
#include "src/parallel/numa.h"
#include "src/parallel/thread_pool.h"
#include "tests/test_graphs.h"

namespace connectit {
namespace {

// Every test forces its own topology; restore ambient detection (env /
// sysfs) and the default pool afterwards so test order never matters.
class NumaTopologyTest : public ::testing::Test {
 protected:
  void TearDown() override {
    NumaTopology::OverrideNodes(0);
    SetNumWorkers(0);
    ThreadPool::Get().Rebind();
  }

  static void UseTopology(size_t nodes, size_t workers) {
    NumaTopology::OverrideNodes(nodes);
    SetNumWorkers(workers);
    ThreadPool::Get().Rebind();
  }
};

TEST_F(NumaTopologyTest, EmulatedOverridePartitionsCpus) {
  NumaTopology::OverrideNodes(3);
  const NumaTopology& topo = NumaTopology::Get();
  EXPECT_EQ(topo.num_nodes(), 3u);
  EXPECT_TRUE(topo.emulated());
  EXPECT_STREQ(topo.backend(), "emulated");

  // The node cpu lists partition the hardware cpus: disjoint, and every
  // cpu maps back to its node via NodeOfCpu.
  std::set<unsigned> seen;
  size_t total = 0;
  for (size_t node = 0; node < topo.num_nodes(); ++node) {
    for (unsigned cpu : topo.CpusOfNode(node)) {
      EXPECT_TRUE(seen.insert(cpu).second) << "cpu " << cpu << " twice";
      EXPECT_EQ(topo.NodeOfCpu(cpu), node);
      ++total;
    }
  }
  EXPECT_GE(total, 1u);  // at least the cpus that exist are assigned
}

TEST_F(NumaTopologyTest, SingleNodeOverrideIsTheFlatBackend) {
  NumaTopology::OverrideNodes(1);
  const NumaTopology& topo = NumaTopology::Get();
  EXPECT_EQ(topo.num_nodes(), 1u);
  EXPECT_STREQ(topo.backend(), "single");
}

TEST_F(NumaTopologyTest, RedetectYieldsAValidTopology) {
  NumaTopology::OverrideNodes(0);
  // Whatever the ambient environment is (CONNECTIT_NUMA_NODES in the CI
  // matrix job, sysfs on a real multi-socket box, single otherwise), the
  // result is internally consistent.
  const NumaTopology& topo = NumaTopology::Get();
  EXPECT_GE(topo.num_nodes(), 1u);
  for (size_t node = 0; node < topo.num_nodes(); ++node) {
    for (unsigned cpu : topo.CpusOfNode(node)) {
      EXPECT_EQ(topo.NodeOfCpu(cpu), node);
    }
  }
}

TEST_F(NumaTopologyTest, BindPublishesLogicalNodeEvenWithoutAffinity) {
  NumaTopology::OverrideNodes(2);
  const NumaTopology& topo = NumaTopology::Get();
  EXPECT_EQ(NumaTopology::CurrentNode(), 0u);
  // The affinity syscall may fail in a sandbox (or the emulated node may
  // own no cpus on a tiny machine); the logical assignment must hold
  // regardless.
  topo.BindCurrentThread(1);
  EXPECT_EQ(NumaTopology::CurrentNode(), 1u);
  topo.BindCurrentThread(0);
  EXPECT_EQ(NumaTopology::CurrentNode(), 0u);
}

TEST_F(NumaTopologyTest, WorkersFormContiguousNodeGroups) {
  UseTopology(/*nodes=*/4, /*workers=*/8);
  ThreadPool& pool = ThreadPool::Get();
  EXPECT_EQ(pool.num_workers(), 8u);
  EXPECT_EQ(pool.num_bound_nodes(), 4u);
  // worker * nodes / workers: contiguous groups of equal size, covering
  // every node, monotone in the worker id.
  std::vector<size_t> per_node(4, 0);
  size_t prev = 0;
  for (size_t w = 0; w < 8; ++w) {
    const size_t node = pool.NodeOf(w);
    ASSERT_LT(node, 4u);
    EXPECT_GE(node, prev);
    prev = node;
    ++per_node[node];
  }
  for (size_t node = 0; node < 4; ++node) EXPECT_EQ(per_node[node], 2u);
}

TEST_F(NumaTopologyTest, BoundWorkersReportTheirNode) {
  UseTopology(/*nodes=*/2, /*workers=*/4);
  ThreadPool& pool = ThreadPool::Get();
  // Each spawned worker published its node at thread start; worker 0 is
  // the caller and reports the caller's node (0).
  std::vector<size_t> observed(4, ~size_t{0});
  pool.RunOnWorkers(4, [&](size_t worker) {
    observed[worker] = NumaTopology::CurrentNode();
  });
  for (size_t w = 0; w < 4; ++w) {
    EXPECT_EQ(observed[w], pool.NodeOf(w)) << "worker " << w;
  }
}

TEST_F(NumaTopologyTest, NodeAffineLoopRunsEveryItemOnce) {
  UseTopology(/*nodes=*/3, /*workers=*/6);
  for (const size_t count : {size_t{0}, size_t{1}, size_t{2}, size_t{101}}) {
    std::vector<std::atomic<int>> hits(count);
    for (auto& h : hits) h.store(0);
    ParallelForNodeAffine(count, [&](size_t i) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (size_t i = 0; i < count; ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "item " << i << " of " << count;
    }
  }
}

TEST_F(NumaTopologyTest, NodeAffineLoopWorksFromInsideAWorker) {
  UseTopology(/*nodes=*/2, /*workers=*/4);
  // Nested use (a sweep inside RunOnWorkers) must still run every item:
  // the inline fn(0) call drains all queues.
  std::vector<std::atomic<int>> hits(37);
  for (auto& h : hits) h.store(0);
  ThreadPool::Get().RunOnWorkers(1, [&](size_t) {
    ParallelForNodeAffine(37, [&](size_t i) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
    });
  });
  for (size_t i = 0; i < 37; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST_F(NumaTopologyTest, ShardedPartitionRecordsPlacement) {
  UseTopology(/*nodes=*/3, /*workers=*/6);
  const Graph graph = GenerateGrid(20, 20);
  const ShardedGraph sharded = ShardedGraph::Partition(graph, 7);
  EXPECT_EQ(sharded.placement_nodes(), 3u);
  for (size_t s = 0; s < sharded.num_shards(); ++s) {
    EXPECT_EQ(sharded.NodeOfShard(s), s % 3);
  }
  // The node-affine fill and sweep change scheduling, never content.
  EXPECT_EQ(sharded.num_nodes(), graph.num_nodes());
  EXPECT_EQ(sharded.num_arcs(), graph.num_arcs());
  std::atomic<uint64_t> arcs{0};
  sharded.MapArcs([&](NodeId, NodeId) {
    arcs.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(arcs.load(), graph.num_arcs());
  EXPECT_EQ(testing::AsVector(sharded.Flatten().neighbor_array()),
            testing::AsVector(graph.neighbor_array()));
}

TEST_F(NumaTopologyTest, SingleNodePartitionHasNoPlacement) {
  UseTopology(/*nodes=*/1, /*workers=*/4);
  const ShardedGraph sharded =
      ShardedGraph::Partition(GeneratePath(50), 4);
  EXPECT_EQ(sharded.placement_nodes(), 1u);
  for (size_t s = 0; s < sharded.num_shards(); ++s) {
    EXPECT_EQ(sharded.NodeOfShard(s), 0u);
  }
}

}  // namespace
}  // namespace connectit
