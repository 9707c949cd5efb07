#include "netlist/types.hpp"

#include <array>

namespace autolock::netlist {

std::string_view gate_type_name(GateType type) noexcept {
  switch (type) {
    case GateType::kInput: return "INPUT";
    case GateType::kConst0: return "CONST0";
    case GateType::kConst1: return "CONST1";
    case GateType::kBuf: return "BUF";
    case GateType::kNot: return "NOT";
    case GateType::kAnd: return "AND";
    case GateType::kNand: return "NAND";
    case GateType::kOr: return "OR";
    case GateType::kNor: return "NOR";
    case GateType::kXor: return "XOR";
    case GateType::kXnor: return "XNOR";
    case GateType::kMux: return "MUX";
  }
  return "?";
}

namespace {

/// A keyword of one to seven characters, upper-cased as std::toupper does
/// in the "C" locale, packed with its length into one nonzero word.
constexpr std::uint64_t pack_keyword(std::string_view keyword) noexcept {
  std::uint64_t word = std::uint64_t{keyword.size()} << 56;
  for (std::size_t i = 0; i < keyword.size(); ++i) {
    auto ch = static_cast<unsigned char>(keyword[i]);
    if (ch >= 'a' && ch <= 'z') ch = static_cast<unsigned char>(ch - 'a' + 'A');
    word |= std::uint64_t{ch} << (8 * i);
  }
  return word;
}

struct Keyword {
  std::string_view name;
  GateType type;
};

constexpr std::array<Keyword, 14> kKeywords{{
    {"INPUT", GateType::kInput},
    {"CONST0", GateType::kConst0},
    {"CONST1", GateType::kConst1},
    {"BUF", GateType::kBuf},
    {"BUFF", GateType::kBuf},  // ISCAS .bench spelling
    {"NOT", GateType::kNot},
    {"INV", GateType::kNot},
    {"AND", GateType::kAnd},
    {"NAND", GateType::kNand},
    {"OR", GateType::kOr},
    {"NOR", GateType::kNor},
    {"XOR", GateType::kXor},
    {"XNOR", GateType::kXnor},
    {"MUX", GateType::kMux},
}};

// parse_gate_type runs once per gate line of every .bench file, on a gate
// mix no branch predictor learns, so it looks a keyword up with one
// multiply and one load: a 64-slot table indexed by the top bits of
// packed * kMultiplier, where kMultiplier is the first odd number from
// the golden ratio up that gives every keyword its own slot.
constexpr std::size_t slot_of(std::uint64_t packed,
                              std::uint64_t multiplier) noexcept {
  return static_cast<std::size_t>((packed * multiplier) >> 58);
}

constexpr std::uint64_t find_multiplier() noexcept {
  for (std::uint64_t multiplier = 0x9E3779B97F4A7C15ULL;; multiplier += 2) {
    std::array<bool, 64> used{};
    bool distinct = true;
    for (const Keyword& keyword : kKeywords) {
      const std::size_t slot = slot_of(pack_keyword(keyword.name), multiplier);
      distinct = distinct && !used[slot];
      used[slot] = true;
    }
    if (distinct) return multiplier;
  }
}

constexpr std::uint64_t kMultiplier = find_multiplier();

struct Slot {
  std::uint64_t packed = 0;  // 0: empty (no keyword packs to 0)
  GateType type = GateType::kInput;
};

constexpr std::array<Slot, 64> kSlots = [] {
  std::array<Slot, 64> slots{};
  for (const Keyword& keyword : kKeywords) {
    const std::uint64_t packed = pack_keyword(keyword.name);
    slots[slot_of(packed, kMultiplier)] = {packed, keyword.type};
  }
  return slots;
}();

}  // namespace

std::optional<GateType> parse_gate_type(std::string_view keyword) noexcept {
  if (keyword.empty() || keyword.size() > 7) return std::nullopt;
  const std::uint64_t packed = pack_keyword(keyword);
  const Slot& slot = kSlots[slot_of(packed, kMultiplier)];
  if (slot.packed != packed) return std::nullopt;
  return slot.type;
}

std::uint64_t eval_gate_words(GateType type, const std::uint64_t* fanins,
                              std::size_t fanin_count) noexcept {
  switch (type) {
    case GateType::kInput:
      // Inputs are evaluated by the simulator directly; reaching here means
      // a pass-through of a preloaded word.
      return fanin_count ? fanins[0] : 0;
    case GateType::kConst0:
      return 0;
    case GateType::kConst1:
      return ~0ULL;
    case GateType::kBuf:
      return fanins[0];
    case GateType::kNot:
      return ~fanins[0];
    case GateType::kAnd: {
      std::uint64_t acc = ~0ULL;
      for (std::size_t i = 0; i < fanin_count; ++i) acc &= fanins[i];
      return acc;
    }
    case GateType::kNand: {
      std::uint64_t acc = ~0ULL;
      for (std::size_t i = 0; i < fanin_count; ++i) acc &= fanins[i];
      return ~acc;
    }
    case GateType::kOr: {
      std::uint64_t acc = 0;
      for (std::size_t i = 0; i < fanin_count; ++i) acc |= fanins[i];
      return acc;
    }
    case GateType::kNor: {
      std::uint64_t acc = 0;
      for (std::size_t i = 0; i < fanin_count; ++i) acc |= fanins[i];
      return ~acc;
    }
    case GateType::kXor: {
      std::uint64_t acc = 0;
      for (std::size_t i = 0; i < fanin_count; ++i) acc ^= fanins[i];
      return acc;
    }
    case GateType::kXnor: {
      std::uint64_t acc = 0;
      for (std::size_t i = 0; i < fanin_count; ++i) acc ^= fanins[i];
      return ~acc;
    }
    case GateType::kMux:
      // fanins = {select, in0, in1}
      return (~fanins[0] & fanins[1]) | (fanins[0] & fanins[2]);
  }
  return 0;
}

bool eval_gate_bits(GateType type, const bool* fanins,
                    std::size_t fanin_count) noexcept {
  std::uint64_t words[16];
  const std::size_t n = fanin_count < 16 ? fanin_count : 16;
  for (std::size_t i = 0; i < n; ++i) words[i] = fanins[i] ? ~0ULL : 0ULL;
  if (fanin_count <= 16) {
    return (eval_gate_words(type, words, fanin_count) & 1ULL) != 0;
  }
  // Rare wide gate: fold manually via words in chunks.
  // (All library call sites use <=16 fanins; this is a safe fallback.)
  std::uint64_t acc_words[1];
  bool first = true;
  bool acc = false;
  for (std::size_t i = 0; i < fanin_count; ++i) {
    if (first) {
      acc = fanins[i];
      first = false;
      continue;
    }
    switch (type) {
      case GateType::kAnd:
      case GateType::kNand: acc = acc && fanins[i]; break;
      case GateType::kOr:
      case GateType::kNor: acc = acc || fanins[i]; break;
      case GateType::kXor:
      case GateType::kXnor: acc = acc != fanins[i]; break;
      default: break;
    }
  }
  (void)acc_words;
  if (type == GateType::kNand || type == GateType::kNor ||
      type == GateType::kXnor) {
    acc = !acc;
  }
  return acc;
}

}  // namespace autolock::netlist
