// Shared basket of test graphs. Every correctness sweep in the suite runs
// against these: degenerate shapes, structured graphs in both diameter
// regimes, random graphs with skewed and uniform degrees, and
// multi-component mixtures.

#ifndef CONNECTIT_TESTS_TEST_GRAPHS_H_
#define CONNECTIT_TESTS_TEST_GRAPHS_H_

#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/graph/builder.h"
#include "src/graph/csr.h"
#include "src/graph/generators.h"

namespace connectit::testing {

struct NamedGraph {
  std::string name;
  Graph graph;
};

inline std::vector<NamedGraph> CorrectnessBasket() {
  std::vector<NamedGraph> basket;
  basket.push_back({"empty", BuildGraph(0, {})});
  basket.push_back({"singleton", BuildGraph(1, {})});
  basket.push_back({"two_isolated", BuildGraph(2, {})});
  basket.push_back({"one_edge", BuildGraph(2, {{0, 1}})});
  basket.push_back({"self_loops", BuildGraph(3, {{0, 0}, {1, 2}, {2, 2}})});
  basket.push_back({"path_64", GeneratePath(64)});
  basket.push_back({"cycle_65", GenerateCycle(65)});
  basket.push_back({"star_100", GenerateStar(100)});
  basket.push_back({"complete_24", GenerateComplete(24)});
  basket.push_back({"grid_16x16", GenerateGrid(16, 16)});
  basket.push_back({"grid_64x4", GenerateGrid(64, 4)});
  basket.push_back({"rmat_1k", GenerateRmat(1024, 4096, /*seed=*/3)});
  basket.push_back({"er_1k", GenerateErdosRenyi(1000, 3000, /*seed=*/5)});
  basket.push_back({"er_sparse", GenerateErdosRenyi(2048, 1024, /*seed=*/9)});
  basket.push_back({"ba_1k", GenerateBarabasiAlbert(1000, 3, /*seed=*/7)});
  basket.push_back({"mixture", GenerateComponentMixture(2000, 8, /*seed=*/13)});
  return basket;
}

// A smaller basket for expensive sweeps (e.g. spanning forest x sampling).
inline std::vector<NamedGraph> SmallBasket() {
  std::vector<NamedGraph> basket;
  basket.push_back({"path_32", GeneratePath(32)});
  basket.push_back({"grid_12x12", GenerateGrid(12, 12)});
  basket.push_back({"rmat_512", GenerateRmat(512, 2048, /*seed=*/3)});
  basket.push_back({"mixture", GenerateComponentMixture(600, 5, /*seed=*/21)});
  return basket;
}

// A CSR array (Graph::offsets() / neighbor_array()) as a vector, so
// EXPECT_EQ compares it element by element and prints both sides on a
// mismatch.
template <typename T>
std::vector<T> AsVector(std::span<const T> array) {
  return {array.begin(), array.end()};
}

}  // namespace connectit::testing

#endif  // CONNECTIT_TESTS_TEST_GRAPHS_H_
