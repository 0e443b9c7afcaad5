#include "src/parallel/numa.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <string>
#include <thread>

#if defined(__linux__)
#include <sched.h>
#endif

namespace connectit {

namespace {

thread_local size_t t_current_node = 0;

// The resolved topology. Replaced wholesale by OverrideNodes; old instances
// are intentionally leaked (they are tiny and may still be referenced by
// running workers until the pool is rebound).
std::atomic<const NumaTopology*> g_topology{nullptr};
std::mutex g_topology_mu;

size_t HardwareCpus() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

// Parses a sysfs cpulist such as "0-15,32-47" into cpu ids.
std::vector<unsigned> ParseCpuList(const std::string& list) {
  std::vector<unsigned> cpus;
  size_t pos = 0;
  while (pos < list.size()) {
    size_t comma = list.find(',', pos);
    if (comma == std::string::npos) comma = list.size();
    const std::string tok = list.substr(pos, comma - pos);
    if (!tok.empty()) {
      const size_t dash = tok.find('-');
      const long lo = std::atol(tok.c_str());
      const long hi =
          dash == std::string::npos ? lo : std::atol(tok.c_str() + dash + 1);
      for (long c = lo; c >= 0 && c <= hi; ++c) {
        cpus.push_back(static_cast<unsigned>(c));
      }
    }
    pos = comma + 1;
  }
  return cpus;
}

// Reads /sys/devices/system/node/node<i>/cpulist; empty when absent.
std::vector<std::vector<unsigned>> SysfsNodeCpus() {
  std::vector<std::vector<unsigned>> nodes;
  for (size_t i = 0;; ++i) {
    char path[128];
    std::snprintf(path, sizeof(path),
                  "/sys/devices/system/node/node%zu/cpulist", i);
    std::FILE* f = std::fopen(path, "r");
    if (f == nullptr) break;
    std::string list;
    char buf[256];
    while (std::fgets(buf, sizeof(buf), f) != nullptr) list += buf;
    std::fclose(f);
    while (!list.empty() && (list.back() == '\n' || list.back() == ' ')) {
      list.pop_back();
    }
    nodes.push_back(ParseCpuList(list));
  }
  return nodes;
}

}  // namespace

NumaTopology* NumaTopology::Detect(size_t forced_nodes) {
  NumaTopology* topo = new NumaTopology();
  size_t emulated_k = forced_nodes;
  if (emulated_k == 0) {
    if (const char* env = std::getenv("CONNECTIT_NUMA_NODES")) {
      const long v = std::atol(env);
      if (v >= 1) emulated_k = static_cast<size_t>(v);
    }
  }
  if (emulated_k > 0) {
    // Emulated: partition the hardware cpus into k contiguous groups. k may
    // exceed the cpu count (trailing nodes then own no cpus but remain valid
    // logical nodes for shard placement).
    emulated_k = std::min<size_t>(emulated_k, 64);
    const size_t cpus = HardwareCpus();
    topo->cpus_of_node_.resize(emulated_k);
    topo->node_of_cpu_.resize(cpus, 0);
    for (size_t c = 0; c < cpus; ++c) {
      const size_t node = std::min(c * emulated_k / cpus, emulated_k - 1);
      topo->cpus_of_node_[node].push_back(static_cast<unsigned>(c));
      topo->node_of_cpu_[c] = node;
    }
    topo->emulated_ = true;
    topo->backend_ = emulated_k == 1 ? "single" : "emulated";
    return topo;
  }
  std::vector<std::vector<unsigned>> sys = SysfsNodeCpus();
  // Nodes with no cpus (memory-only nodes) are dropped: nothing can be
  // bound to them and shard placement wants compute next to memory.
  sys.erase(std::remove_if(sys.begin(), sys.end(),
                           [](const std::vector<unsigned>& c) {
                             return c.empty();
                           }),
            sys.end());
  if (sys.size() >= 2) {
    unsigned max_cpu = 0;
    for (const auto& cpus : sys) {
      for (unsigned c : cpus) max_cpu = std::max(max_cpu, c);
    }
    topo->cpus_of_node_ = std::move(sys);
    topo->node_of_cpu_.assign(static_cast<size_t>(max_cpu) + 1, 0);
    for (size_t node = 0; node < topo->cpus_of_node_.size(); ++node) {
      for (unsigned c : topo->cpus_of_node_[node]) {
        topo->node_of_cpu_[c] = node;
      }
    }
    topo->backend_ = "sysfs";
    return topo;
  }
  // Single node: every cpu on node 0.
  const size_t cpus = HardwareCpus();
  topo->cpus_of_node_.resize(1);
  topo->node_of_cpu_.resize(cpus, 0);
  for (size_t c = 0; c < cpus; ++c) {
    topo->cpus_of_node_[0].push_back(static_cast<unsigned>(c));
  }
  return topo;
}

const NumaTopology& NumaTopology::Get() {
  const NumaTopology* topo = g_topology.load(std::memory_order_acquire);
  if (topo != nullptr) return *topo;
  std::lock_guard<std::mutex> lock(g_topology_mu);
  topo = g_topology.load(std::memory_order_acquire);
  if (topo == nullptr) {
    topo = Detect(/*forced_nodes=*/0);
    g_topology.store(topo, std::memory_order_release);
  }
  return *topo;
}

void NumaTopology::OverrideNodes(size_t k) {
  std::lock_guard<std::mutex> lock(g_topology_mu);
  g_topology.store(Detect(k), std::memory_order_release);
}

size_t NumaTopology::CurrentNode() { return t_current_node; }

size_t NumaTopology::NodeOfCpu(unsigned cpu) const {
  if (static_cast<size_t>(cpu) >= node_of_cpu_.size()) return 0;
  return node_of_cpu_[cpu];
}

bool NumaTopology::BindCurrentThread(size_t node) const {
  if (node >= num_nodes()) node = 0;
  t_current_node = node;
  const std::vector<unsigned>& cpus = cpus_of_node_[node];
  if (cpus.empty() || num_nodes() <= 1) return false;
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  for (unsigned c : cpus) CPU_SET(c, &set);
  return sched_setaffinity(0, sizeof(set), &set) == 0;
#else
  return false;
#endif
}

}  // namespace connectit
