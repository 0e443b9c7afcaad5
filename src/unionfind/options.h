// Option enums spanning the concurrent union-find design space (paper
// §3.3.1, Algorithm 7). A union-find variant is a (unite, find, splice)
// triple; splice options only apply to Rem's algorithms.

#ifndef CONNECTIT_UNIONFIND_OPTIONS_H_
#define CONNECTIT_UNIONFIND_OPTIONS_H_

#include <string_view>

namespace connectit {

enum class UniteOption {
  kAsync,    // classic asynchronous union-find (Jayanti-Tarjan style)
  kHooks,    // CAS on an auxiliary hooks array, plain write to parents
  kEarly,    // eager hooking while walking both paths together
  kRemCas,   // lock-free Rem's algorithm (this paper's contribution)
  kRemLock,  // lock-based Rem's algorithm (Patwary et al.)
  kJtb,      // randomized two-try splitting (Jayanti-Tarjan-Boix-Adsera)
};

enum class FindOption {
  kNaive,        // no compaction
  kSplit,        // atomic path splitting
  kHalve,        // atomic path halving
  kCompress,     // full path compression
  kTwoTrySplit,  // JTB's provably-efficient two-try splitting
};

enum class SpliceOption {
  kNone,      // not a Rem variant
  kSplitOne,  // one atomic path split per non-root step
  kHalveOne,  // one atomic path halve per non-root step
  kSplice,    // Rem's splicing (phase-concurrent only)
};

constexpr std::string_view ToString(UniteOption u) {
  switch (u) {
    case UniteOption::kAsync: return "Union-Async";
    case UniteOption::kHooks: return "Union-Hooks";
    case UniteOption::kEarly: return "Union-Early";
    case UniteOption::kRemCas: return "Union-Rem-CAS";
    case UniteOption::kRemLock: return "Union-Rem-Lock";
    case UniteOption::kJtb: return "Union-JTB";
  }
  return "?";
}

constexpr std::string_view ToString(FindOption f) {
  switch (f) {
    case FindOption::kNaive: return "FindNaive";
    case FindOption::kSplit: return "FindSplit";
    case FindOption::kHalve: return "FindHalve";
    case FindOption::kCompress: return "FindCompress";
    case FindOption::kTwoTrySplit: return "FindTwoTrySplit";
  }
  return "?";
}

constexpr std::string_view ToString(SpliceOption s) {
  switch (s) {
    case SpliceOption::kNone: return "";
    case SpliceOption::kSplitOne: return "SplitAtomicOne";
    case SpliceOption::kHalveOne: return "HalveAtomicOne";
    case SpliceOption::kSplice: return "SpliceAtomic";
  }
  return "?";
}

// FindCompress combined with SpliceAtomic is incorrect (paper Appendix
// B.2.3 gives a counter-example); the registry never instantiates it.
constexpr bool IsValidCombination(UniteOption u, FindOption f,
                                  SpliceOption s) {
  const bool is_rem = (u == UniteOption::kRemCas || u == UniteOption::kRemLock);
  if (is_rem) {
    if (s == SpliceOption::kNone) return false;
    if (f == FindOption::kCompress && s == SpliceOption::kSplice) return false;
    if (f == FindOption::kTwoTrySplit) return false;
    return true;
  }
  if (s != SpliceOption::kNone) return false;
  if (u == UniteOption::kJtb) {
    return f == FindOption::kNaive || f == FindOption::kTwoTrySplit;
  }
  return f != FindOption::kTwoTrySplit;
}

}  // namespace connectit

#endif  // CONNECTIT_UNIONFIND_OPTIONS_H_
