// IdentifyFrequent (paper Algorithm 1, line 6): find the most frequently
// occurring label after sampling. The framework uses the sampled estimator
// (as Afforest does); the exact count is used by tests and the sampling-
// quality experiments.

#ifndef CONNECTIT_CORE_FREQUENT_H_
#define CONNECTIT_CORE_FREQUENT_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/graph/types.h"

namespace connectit {

struct FrequentResult {
  NodeId label = kInvalidNode;
  // Number of occurrences among the inspected labels (all labels for the
  // exact version; the sample size for the sampled version).
  uint64_t count = 0;
  uint64_t inspected = 0;
};

// Exact most-frequent label (hash counting).
FrequentResult IdentifyFrequentExact(const std::vector<NodeId>& labels);

// Estimates the most frequent label from `num_samples` uniformly sampled
// positions; deterministic for a fixed seed.
FrequentResult IdentifyFrequentSampled(const std::vector<NodeId>& labels,
                                       uint32_t num_samples = 1024,
                                       uint64_t seed = 7);

// Every label holding at least `min_share` of `num_samples` uniformly
// sampled positions (of all positions when there are no more than that),
// most frequent first, at most `max_labels` of them; deterministic for a
// fixed seed.
std::vector<NodeId> FrequentLabelsSampled(const std::vector<NodeId>& labels,
                                          double min_share, size_t max_labels,
                                          uint32_t num_samples = 1024,
                                          uint64_t seed = 7);

}  // namespace connectit

#endif  // CONNECTIT_CORE_FREQUENT_H_
