#include "src/core/frequent.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "src/parallel/random.h"

namespace connectit {

FrequentResult IdentifyFrequentExact(const std::vector<NodeId>& labels) {
  FrequentResult result;
  result.inspected = labels.size();
  std::unordered_map<NodeId, uint64_t> counts;
  counts.reserve(1024);
  for (NodeId label : labels) ++counts[label];
  for (const auto& [label, count] : counts) {
    if (count > result.count ||
        (count == result.count && label < result.label)) {
      result.count = count;
      result.label = label;
    }
  }
  return result;
}

namespace {

// Occurrences of each label at `num_samples` uniformly sampled positions.
std::unordered_map<NodeId, uint64_t> SampleCounts(
    const std::vector<NodeId>& labels, uint32_t num_samples, uint64_t seed) {
  Rng rng(seed);
  std::unordered_map<NodeId, uint64_t> counts;
  counts.reserve(num_samples);
  for (uint32_t i = 0; i < num_samples; ++i) {
    ++counts[labels[rng.GetBounded(i, labels.size())]];
  }
  return counts;
}

}  // namespace

FrequentResult IdentifyFrequentSampled(const std::vector<NodeId>& labels,
                                       uint32_t num_samples, uint64_t seed) {
  FrequentResult result;
  if (labels.empty()) return result;
  if (labels.size() <= num_samples) return IdentifyFrequentExact(labels);
  result.inspected = num_samples;
  for (const auto& [label, count] : SampleCounts(labels, num_samples, seed)) {
    if (count > result.count ||
        (count == result.count && label < result.label)) {
      result.count = count;
      result.label = label;
    }
  }
  return result;
}

std::vector<NodeId> FrequentLabelsSampled(const std::vector<NodeId>& labels,
                                          double min_share, size_t max_labels,
                                          uint32_t num_samples,
                                          uint64_t seed) {
  std::unordered_map<NodeId, uint64_t> counts;
  if (labels.size() <= num_samples) {
    for (const NodeId label : labels) ++counts[label];
  } else {
    counts = SampleCounts(labels, num_samples, seed);
  }
  const double inspected =
      static_cast<double>(std::min<size_t>(labels.size(), num_samples));
  std::vector<std::pair<uint64_t, NodeId>> heavy;
  for (const auto& [label, count] : counts) {
    if (count >= min_share * inspected) heavy.emplace_back(count, label);
  }
  // Most frequent first, ties by label.
  std::sort(heavy.begin(), heavy.end(), [](const auto& a, const auto& b) {
    return a.first != b.first ? a.first > b.first : a.second < b.second;
  });
  std::vector<NodeId> result;
  for (size_t i = 0; i < heavy.size() && i < max_labels; ++i) {
    result.push_back(heavy[i].second);
  }
  return result;
}

}  // namespace connectit
