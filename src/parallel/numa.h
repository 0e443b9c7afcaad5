// NUMA topology discovery, thread binding, and node-affine scheduling.
//
// Two backends share one interface:
//
//  * real ("sysfs"): node count and per-node cpu lists are parsed from
//    /sys/devices/system/node/node*/cpulist; BindCurrentThread pins the
//    calling thread to the node's cpus with sched_setaffinity. No libnuma
//    link dependency.
//  * emulated: CONNECTIT_NUMA_NODES=k partitions the hardware cpus into k
//    contiguous groups, so single-socket machines (CI in particular)
//    exercise the multi-node code paths — node-bound worker groups,
//    node-affine loops, shard->node placement — with real affinity masks
//    but no actual remote memory.
//
// On a machine that is neither multi-socket nor emulating, the topology is a
// single node and every NUMA-aware component falls back to the flat layout.
//
// Affinity syscalls are best-effort: in sandboxes where sched_setaffinity
// fails, the *logical* node assignment (CurrentNode) is still published, so
// worker groups and shard placement behave deterministically even when the
// OS ignores the placement hint.

#ifndef CONNECTIT_PARALLEL_NUMA_H_
#define CONNECTIT_PARALLEL_NUMA_H_

#include <atomic>
#include <cstddef>
#include <vector>

#include "src/parallel/thread_pool.h"

namespace connectit {

class NumaTopology {
 public:
  // Returns the process-wide topology, resolving it on first use:
  // CONNECTIT_NUMA_NODES (emulated) > sysfs (real) > single node.
  static const NumaTopology& Get();

  // Forces an emulated topology with `k` nodes (0 re-detects from the
  // environment / sysfs). Callers must quiesce parallel work and then
  // ThreadPool::Get().Rebind() so workers pick up the new node groups.
  static void OverrideNodes(size_t k);

  // Logical NUMA node of the calling thread: set by BindCurrentThread (and
  // hence by the pool's node-bound workers); 0 for unbound threads.
  static size_t CurrentNode();

  size_t num_nodes() const { return cpus_of_node_.size(); }
  bool emulated() const { return emulated_; }
  // "sysfs" (real), "emulated" (CONNECTIT_NUMA_NODES / OverrideNodes), or
  // "single" (no NUMA visible).
  const char* backend() const { return backend_; }

  const std::vector<unsigned>& CpusOfNode(size_t node) const {
    return cpus_of_node_[node];
  }
  size_t NodeOfCpu(unsigned cpu) const;

  // Best-effort: pins the calling thread to `node`'s cpus and publishes the
  // logical assignment to CurrentNode(). Returns false when the affinity
  // syscall is unsupported or rejected (the logical assignment still holds).
  bool BindCurrentThread(size_t node) const;

 private:
  NumaTopology() = default;
  static NumaTopology* Detect(size_t forced_nodes);

  // node -> sorted hardware cpu ids (empty per-node lists are legal when an
  // emulated k exceeds the cpu count).
  std::vector<std::vector<unsigned>> cpus_of_node_;
  std::vector<size_t> node_of_cpu_;
  bool emulated_ = false;
  const char* backend_ = "single";
};

// Node-affine parallel loop: item i is preferentially executed by a worker
// whose node is (i % num_nodes); idle workers steal from other nodes'
// queues, so the loop always completes even with skewed worker groups. This
// matches ShardedGraph's shard->node placement (shard i lives on node
// i % k), keeping sweep workers on the memory they touch. Falls back to a
// plain grain-1 ParallelFor on single-node topologies.
template <typename F>
void ParallelForNodeAffine(size_t count, F&& fn) {
  if (count == 0) return;
  const NumaTopology& topo = NumaTopology::Get();
  const size_t nodes = topo.num_nodes();
  ThreadPool& pool = ThreadPool::Get();
  const size_t workers = pool.num_workers();
  if (nodes <= 1 || workers <= 1 || count <= 1) {
    ParallelFor(0, count, fn, /*grain=*/1);
    return;
  }
  // One self-scheduling counter per node; the c-th claim on node j's queue
  // is item j + c * nodes. Padded to avoid false sharing between queues.
  struct alignas(64) NodeQueue {
    std::atomic<size_t> next{0};
  };
  std::vector<NodeQueue> queues(nodes);
  pool.RunOnWorkers(workers, [&](size_t worker) {
    const size_t home = pool.NodeOf(worker);
    for (size_t probe = 0; probe < nodes; ++probe) {
      const size_t q = (home + probe) % nodes;
      for (;;) {
        const size_t c = queues[q].next.fetch_add(1, std::memory_order_relaxed);
        const size_t item = q + c * nodes;
        if (item >= count) break;
        fn(item);
      }
    }
  });
}

}  // namespace connectit

#endif  // CONNECTIT_PARALLEL_NUMA_H_
