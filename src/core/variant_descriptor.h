// Typed variant identity: the enum-per-axis descriptor behind every
// registered algorithm name.
//
// The registry's naming scheme ("Union-Rem-CAS;FindNaive;SplitAtomicOne",
// "Liu-Tarjan;PRF", ...) is a *parse layer* for humans and the CLI; inside
// the system a variant is identified by a VariantDescriptor — an algorithm
// family plus the family's option axes (unite/find/splice for union-find,
// the connect/update/shortcut/alter code for Liu-Tarjan). Parse and
// ToString are exact inverses over the registered name space, so consumers
// can move between the two forms losslessly:
//
//   VariantDescriptor::Parse(name)->ToString() == name   // every registry name
//   FindVariant(descriptor)                              // exact, not string match
//
// Descriptors are plain value types; invalid axis combinations (e.g.
// FindCompress with SpliceAtomic, paper Appendix B.2.3) are rejected by
// IsValid()/Parse and never appear in the registry.

#ifndef CONNECTIT_CORE_VARIANT_DESCRIPTOR_H_
#define CONNECTIT_CORE_VARIANT_DESCRIPTOR_H_

#include <optional>
#include <string>
#include <string_view>

#include "src/liutarjan/liu_tarjan.h"
#include "src/unionfind/options.h"

namespace connectit {

enum class AlgorithmFamily {
  kUnionFind,
  kShiloachVishkin,
  kLiuTarjan,
  kStergiou,
  kLabelPropagation,
};

constexpr std::string_view ToString(AlgorithmFamily family) {
  switch (family) {
    case AlgorithmFamily::kUnionFind: return "union-find";
    case AlgorithmFamily::kShiloachVishkin: return "shiloach-vishkin";
    case AlgorithmFamily::kLiuTarjan: return "liu-tarjan";
    case AlgorithmFamily::kStergiou: return "stergiou";
    case AlgorithmFamily::kLabelPropagation: return "label-propagation";
  }
  return "?";
}

// The 16 Appendix-D Liu-Tarjan variants are exactly the combinations where
// Connect-based variants alter (required for correctness, Liu & Tarjan) and
// ExtendedConnect pairs only with plain Update.
constexpr bool IsValidLtCombination(LtConnect c, LtUpdate u, LtShortcut,
                                    LtAlter a) {
  if (c == LtConnect::kConnect && a != LtAlter::kAlter) return false;
  if (c == LtConnect::kExtendedConnect && u != LtUpdate::kUpdate) return false;
  return true;
}

struct VariantDescriptor {
  AlgorithmFamily family = AlgorithmFamily::kUnionFind;

  // Union-find axes; meaningful iff family == kUnionFind.
  UniteOption unite = UniteOption::kAsync;
  FindOption find = FindOption::kNaive;
  SpliceOption splice = SpliceOption::kNone;

  // Liu-Tarjan axes; meaningful iff family == kLiuTarjan.
  LtConnect connect = LtConnect::kConnect;
  LtUpdate update = LtUpdate::kUpdate;
  LtShortcut shortcut = LtShortcut::kShortcut;
  LtAlter alter = LtAlter::kAlter;

  static VariantDescriptor UnionFind(UniteOption u, FindOption f,
                                     SpliceOption s = SpliceOption::kNone) {
    VariantDescriptor d;
    d.family = AlgorithmFamily::kUnionFind;
    d.unite = u;
    d.find = f;
    d.splice = s;
    return d;
  }
  static VariantDescriptor LiuTarjan(LtConnect c, LtUpdate u, LtShortcut s,
                                     LtAlter a) {
    VariantDescriptor d;
    d.family = AlgorithmFamily::kLiuTarjan;
    d.connect = c;
    d.update = u;
    d.shortcut = s;
    d.alter = a;
    return d;
  }
  static VariantDescriptor ShiloachVishkin() {
    VariantDescriptor d;
    d.family = AlgorithmFamily::kShiloachVishkin;
    return d;
  }
  static VariantDescriptor Stergiou() {
    VariantDescriptor d;
    d.family = AlgorithmFamily::kStergiou;
    return d;
  }
  static VariantDescriptor LabelPropagation() {
    VariantDescriptor d;
    d.family = AlgorithmFamily::kLabelPropagation;
    return d;
  }

  // True iff the meaningful axes form a registerable combination
  // (IsValidCombination for union-find, IsValidLtCombination for
  // Liu-Tarjan; the single-variant families are always valid).
  bool IsValid() const;

  // The registry name this descriptor denotes, in the exact naming scheme
  // of registry.h ("unite;find[;splice]", "Liu-Tarjan;<code>", ...).
  std::string ToString() const;

  // Inverse of ToString: parses a registry name back into its descriptor.
  // Returns nullopt for anything that is not a valid registered-form name
  // (unknown axis token, invalid combination, malformed Liu-Tarjan code).
  static std::optional<VariantDescriptor> Parse(std::string_view name);
};

// Equality compares the family and only that family's meaningful axes, so
// hand-built descriptors match regardless of what the unused axes hold.
bool operator==(const VariantDescriptor& a, const VariantDescriptor& b);
inline bool operator!=(const VariantDescriptor& a, const VariantDescriptor& b) {
  return !(a == b);
}

}  // namespace connectit

#endif  // CONNECTIT_CORE_VARIANT_DESCRIPTOR_H_
