// Reproduces Figures 3, 13, 14, 15: heatmaps of relative union-find variant
// performance (slowdown vs. the fastest variant), averaged over the suite,
// for each sampling mode. Rows are find options, columns are unite(+splice)
// groups, exactly as in the paper's figures.

#include <cmath>
#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/core/registry.h"
#include "src/parallel/numa.h"

namespace {

using namespace connectit;

struct BenchInput {
  std::string name;
  GraphHandle handle;
};

void RunHeatmap(const std::vector<BenchInput>& suite, SamplingOption sampling,
                const char* title) {
  SamplingConfig config;
  config.option = sampling;

  // Geometric-mean slowdown per variant across the suite.
  std::map<std::string, std::map<std::string, double>> cell;  // find -> group
  std::set<std::string> groups;
  std::set<std::string> finds;

  // Per-graph times.
  std::map<std::string, std::vector<double>> variant_times;
  for (const Variant* v : VariantsOfFamily(AlgorithmFamily::kUnionFind)) {
    std::vector<double>& row = variant_times[v->name];
    for (const auto& bg : suite) {
      row.push_back(bench::TimeBest([&] { v->run(bg.handle, config); }, 2));
    }
  }
  // Per-graph minimum, then relative slowdowns averaged geometrically.
  const size_t num_graphs = suite.size();
  std::vector<double> best(num_graphs, 1e300);
  for (const auto& [name, row] : variant_times) {
    for (size_t g = 0; g < num_graphs; ++g) best[g] = std::min(best[g], row[g]);
  }
  for (const Variant* v : VariantsOfFamily(AlgorithmFamily::kUnionFind)) {
    const auto& row = variant_times[v->name];
    double log_sum = 0;
    for (size_t g = 0; g < num_graphs; ++g) {
      log_sum += std::log(row[g] / best[g]);
    }
    const double slowdown = std::exp(log_sum / static_cast<double>(num_graphs));
    cell[v->find_name][v->group] = slowdown;
    groups.insert(v->group);
    finds.insert(v->find_name);
  }

  bench::PrintTitle(title);
  std::printf("%-16s", "");
  for (const auto& g : groups) std::printf(" %-30s", g.c_str());
  std::printf("\n");
  for (const auto& f : finds) {
    std::printf("%-16s", f.c_str());
    for (const auto& g : groups) {
      auto it = cell[f].find(g);
      if (it == cell[f].end()) {
        std::printf(" %-30s", "-");
      } else {
        std::printf(" %-30.2f", it->second);
      }
    }
    std::printf("\n");
  }
}

}  // namespace

int main() {
  // The sweep is representation-generic: each suite graph becomes one
  // GraphHandle (plain CSR, byte-coded under
  // CONNECTIT_BENCH_REPR=compressed, or a COO edge list under
  // CONNECTIT_BENCH_REPR=coo) and every variant runs through it.
  const auto graphs = bench::SmallSuite();
  std::vector<BenchInput> suite;
  for (const auto& bg : graphs) {
    suite.push_back({bg.name, bench::MakeBenchHandle(bg.graph)});
  }
  std::printf("representation: %s\n",
              suite.empty() ? "csr" : suite.front().handle.representation_name());
  // The pool's workers are bound to this topology (src/parallel/numa.h).
  std::printf("numa: %zu node(s), backend=%s\n",
              NumaTopology::Get().num_nodes(), NumaTopology::Get().backend());
  RunHeatmap(suite, SamplingOption::kNone,
             "Figure 3: union-find slowdowns vs fastest (No Sampling)");
  RunHeatmap(suite, SamplingOption::kKOut,
             "Figure 13: union-find slowdowns vs fastest (k-out Sampling)");
  RunHeatmap(suite, SamplingOption::kBfs,
             "Figure 14: union-find slowdowns vs fastest (BFS Sampling)");
  RunHeatmap(suite, SamplingOption::kLdd,
             "Figure 15: union-find slowdowns vs fastest (LDD Sampling)");
  std::printf(
      "\nExpected shape (paper): without sampling the spread is wide (up to\n"
      "~6x) with Union-Rem-CAS;Split/HalveAtomicOne fastest; with sampling\n"
      "all variants compress to within ~1.3x of the fastest.\n");
  return 0;
}
