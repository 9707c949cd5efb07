// Netlist optimization passes: constant propagation, algebraic
// simplification of degenerate gates, buffer collapsing, and dead-logic
// removal.
//
// Two roles in this repo:
//  1. Substrate realism — defenders resynthesize locked netlists before
//     handing them to the foundry; attacks must not rely on unoptimized
//     artifacts (our tests check locking survives optimization).
//  2. The SCOPE-style oracle-less attack (attacks/scope.hpp) scores key-bit
//     hypotheses by how much the circuit simplifies under each constant —
//     which requires exactly this pass. KeyConeAreas answers those area
//     queries with one baseline rewrite per design plus a per-hypothesis
//     delta over the pinned key's fanout cone.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "netlist/netlist.hpp"

namespace autolock::netlist {

struct OptStats {
  std::size_t gates_before = 0;
  std::size_t gates_after = 0;
  std::size_t constants_folded = 0;
  std::size_t buffers_collapsed = 0;
  std::size_t dead_removed = 0;
};

/// Returns an optimized, functionally-equivalent copy of `input`:
///  - constant folding (gates with constant fanins simplify or disappear),
///  - identity rules (AND(x) -> x, XOR(x, 0) -> x, NOT(NOT(x)) -> x, MUX
///    with constant select -> selected input, MUX with equal data -> data),
///  - buffer collapsing,
///  - dead-node elimination (inputs are always preserved).
/// Output names of ports are preserved; internal node names may change.
Netlist optimize(const Netlist& input, OptStats* stats = nullptr);

/// Convenience: optimize with key input `bit` pinned to `value` (the key
/// input is *kept* in the interface but its uses are replaced by the
/// constant). Used by hypothesis-testing attacks.
Netlist optimize_with_key_bit(const Netlist& input, std::size_t bit,
                              bool value, OptStats* stats = nullptr);

/// Working storage of the rewrite pass. Contents are an implementation
/// detail of opt.cpp; callers only construct it (via KeyConeAreas).
struct OptScratch {
  // Rewrite state: packed per-input-node values and per-gate staging.
  std::vector<std::uint32_t> values;
  std::vector<std::uint32_t> ins;
  std::vector<NodeId> live;
  // Flat output graph (types + CSR fanins), built instead of a Netlist.
  std::vector<std::uint8_t> out_types;
  std::vector<std::uint32_t> out_fanin_begin;
  std::vector<NodeId> out_fanins;
};

/// The SCOPE attack's area oracle: `area(bit, value)` is exactly
/// `optimize_with_key_bit(input, bit, value).gate_count()`, computed
/// without a full rewrite per hypothesis.
///
/// reset() rewrites the design once with no pin into a flat output graph
/// and reference-counts its live nodes. A hypothesis then re-runs the same
/// rewrite rules over the pinned key's fanout cone only, appending fresh
/// nodes: everything outside the cone keeps its baseline value, and fresh
/// ids keep every identity the rules test (fanin dedupe, MUX equal data,
/// NOT(NOT)), so the result is isomorphic to the full pass. The area is
/// the baseline area plus an MFFC-style delta: each output port the cone
/// drives references its new driver and dereferences its old one, so logic
/// that dies behind a collapsed MUX leaves the count. A journal then rolls
/// the counts, values and graph back to the baseline.
///
/// Key cones come from one topological pass per block of 8 keys that ORs
/// a per-node byte of key bits over the fanins (byte masks keep the
/// per-worker footprint at N bytes). All storage is retained across
/// reset() calls, so one instance serves design after design.
class KeyConeAreas {
 public:
  /// Indexes `input`, which must outlive every area() query on it.
  void reset(const Netlist& input);

  std::size_t key_bits() const noexcept { return keys_.size(); }
  /// Gate count of `optimize(input)`.
  std::size_t baseline_area() const noexcept { return base_area_; }
  /// Gate count of `optimize_with_key_bit(input, bit, value)`. O(cone of
  /// `bit`) work, plus one O(N) scan per bit and one topological pass per
  /// block of 8 bits when queried bit by bit. Throws std::invalid_argument
  /// when `bit` is out of range.
  std::size_t area(std::size_t bit, bool value);

 private:
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  static constexpr std::size_t kBlockKeys = 8;

  void load_cone(std::size_t bit);
  std::size_t ref(NodeId root);
  std::size_t deref(NodeId root);
  void journal(NodeId v);

  const Netlist* input_ = nullptr;
  std::vector<NodeId> keys_;
  OptScratch rewrite_;
  // Baseline: output driver of every port, constant nodes, live-edge counts.
  std::vector<NodeId> drivers_;
  NodeId const0_ = kNoNode;
  NodeId const1_ = kNoNode;
  std::vector<std::uint32_t> refs_;
  std::size_t base_nodes_ = 0;
  std::size_t base_fanins_ = 0;
  std::size_t base_area_ = 0;
  // Key masks of the current 8-key block, and the current bit's cone:
  // input-netlist nodes in topological order (the key input first) plus
  // the output ports they drive.
  std::size_t block_ = kNone;
  std::vector<std::uint8_t> masks_;
  std::size_t cone_bit_ = kNone;
  std::vector<NodeId> cone_;
  std::vector<std::uint32_t> cone_ports_;
  // Per-hypothesis state, undone before area() returns.
  std::vector<std::uint32_t> saved_values_;
  std::vector<std::pair<NodeId, std::uint32_t>> journal_;
  std::vector<NodeId> new_drivers_;
  std::vector<NodeId> stack_;
};

}  // namespace autolock::netlist
