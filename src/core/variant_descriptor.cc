#include "src/core/variant_descriptor.h"

#include <vector>

namespace connectit {

namespace {

// Token -> enum, by round-tripping through the canonical ToString tables so
// the parse layer can never drift from the format layer.
template <typename Enum>
bool ParseToken(std::string_view token, std::initializer_list<Enum> values,
                Enum* out) {
  for (const Enum value : values) {
    if (token == ToString(value)) {
      *out = value;
      return true;
    }
  }
  return false;
}

bool ParseUnite(std::string_view token, UniteOption* out) {
  return ParseToken(token,
                    {UniteOption::kAsync, UniteOption::kHooks,
                     UniteOption::kEarly, UniteOption::kRemCas,
                     UniteOption::kRemLock, UniteOption::kJtb},
                    out);
}

bool ParseFind(std::string_view token, FindOption* out) {
  return ParseToken(token,
                    {FindOption::kNaive, FindOption::kSplit, FindOption::kHalve,
                     FindOption::kCompress, FindOption::kTwoTrySplit},
                    out);
}

bool ParseSplice(std::string_view token, SpliceOption* out) {
  return ParseToken(token,
                    {SpliceOption::kSplitOne, SpliceOption::kHalveOne,
                     SpliceOption::kSplice},
                    out);
}

// Parses a paper Appendix-D code ("PRF", "CUSA", ...): one connect letter,
// one update letter, one shortcut letter, and an optional trailing 'A'.
bool ParseLtCode(std::string_view code, VariantDescriptor* out) {
  if (code.size() != 3 && code.size() != 4) return false;
  switch (code[0]) {
    case 'C': out->connect = LtConnect::kConnect; break;
    case 'P': out->connect = LtConnect::kParentConnect; break;
    case 'E': out->connect = LtConnect::kExtendedConnect; break;
    default: return false;
  }
  switch (code[1]) {
    case 'U': out->update = LtUpdate::kUpdate; break;
    case 'R': out->update = LtUpdate::kRootUp; break;
    default: return false;
  }
  switch (code[2]) {
    case 'S': out->shortcut = LtShortcut::kShortcut; break;
    case 'F': out->shortcut = LtShortcut::kFullShortcut; break;
    default: return false;
  }
  if (code.size() == 4) {
    if (code[3] != 'A') return false;
    out->alter = LtAlter::kAlter;
  } else {
    out->alter = LtAlter::kNoAlter;
  }
  return true;
}

}  // namespace

bool VariantDescriptor::IsValid() const {
  switch (family) {
    case AlgorithmFamily::kUnionFind:
      return IsValidCombination(unite, find, splice);
    case AlgorithmFamily::kLiuTarjan:
      return IsValidLtCombination(connect, update, shortcut, alter);
    case AlgorithmFamily::kShiloachVishkin:
    case AlgorithmFamily::kStergiou:
    case AlgorithmFamily::kLabelPropagation:
      return true;
  }
  return false;
}

std::string VariantDescriptor::ToString() const {
  switch (family) {
    case AlgorithmFamily::kUnionFind: {
      std::string name = std::string(connectit::ToString(unite)) + ";" +
                         std::string(connectit::ToString(find));
      if (splice != SpliceOption::kNone) {
        name += ";";
        name += connectit::ToString(splice);
      }
      return name;
    }
    case AlgorithmFamily::kLiuTarjan:
      return "Liu-Tarjan;" + LtVariantCode(connect, update, shortcut, alter);
    case AlgorithmFamily::kShiloachVishkin:
      return "Shiloach-Vishkin";
    case AlgorithmFamily::kStergiou:
      return "Stergiou";
    case AlgorithmFamily::kLabelPropagation:
      return "Label-Propagation";
  }
  return "?";
}

std::optional<VariantDescriptor> VariantDescriptor::Parse(
    std::string_view name) {
  if (name == "Shiloach-Vishkin") return ShiloachVishkin();
  if (name == "Stergiou") return Stergiou();
  if (name == "Label-Propagation") return LabelPropagation();

  constexpr std::string_view kLtPrefix = "Liu-Tarjan;";
  if (name.substr(0, kLtPrefix.size()) == kLtPrefix) {
    VariantDescriptor d;
    d.family = AlgorithmFamily::kLiuTarjan;
    if (!ParseLtCode(name.substr(kLtPrefix.size()), &d)) return std::nullopt;
    if (!d.IsValid()) return std::nullopt;
    return d;
  }

  // Union-find: "unite;find[;splice]".
  std::vector<std::string_view> tokens;
  size_t pos = 0;
  while (pos <= name.size()) {
    size_t semi = name.find(';', pos);
    if (semi == std::string_view::npos) semi = name.size();
    tokens.push_back(name.substr(pos, semi - pos));
    pos = semi + 1;
  }
  if (tokens.size() < 2 || tokens.size() > 3) return std::nullopt;
  VariantDescriptor d;
  d.family = AlgorithmFamily::kUnionFind;
  if (!ParseUnite(tokens[0], &d.unite)) return std::nullopt;
  if (!ParseFind(tokens[1], &d.find)) return std::nullopt;
  size_t next = 2;
  if (next < tokens.size() && ParseSplice(tokens[next], &d.splice)) ++next;
  if (next != tokens.size()) return std::nullopt;  // unrecognized trailing token
  if (!d.IsValid()) return std::nullopt;
  return d;
}

bool operator==(const VariantDescriptor& a, const VariantDescriptor& b) {
  if (a.family != b.family) return false;
  switch (a.family) {
    case AlgorithmFamily::kUnionFind:
      return a.unite == b.unite && a.find == b.find && a.splice == b.splice;
    case AlgorithmFamily::kLiuTarjan:
      return a.connect == b.connect && a.update == b.update &&
             a.shortcut == b.shortcut && a.alter == b.alter;
    case AlgorithmFamily::kShiloachVishkin:
    case AlgorithmFamily::kStergiou:
    case AlgorithmFamily::kLabelPropagation:
      return true;
  }
  return false;
}

}  // namespace connectit
