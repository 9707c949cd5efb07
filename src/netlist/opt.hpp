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
//     queries with one baseline rewrite per design plus per-hypothesis
//     in-place edits of what the pinned key changes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "netlist/csr.hpp"
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
/// reset() rewrites the design once with no pin into a flat output graph,
/// reference-counts its live nodes in one reverse sweep (the graph is
/// emitted fanins first), records which input nodes emitted their own
/// baseline value, and indexes the input's fanouts and topological
/// positions. A hypothesis pins the key and re-rewrites only the nodes with
/// a dirty fanin: one whose value changed, or whose value is a NOT edited
/// in place (a user's NOT(NOT) collapse looks through it). Each node that
/// turns dirty queues its fanouts on a min-heap of topological positions,
/// so the nodes are re-rewritten in the order the full pass rewrites them.
/// When a node re-emits its own baseline gate with the same type, the new
/// fanins overwrite that gate's in a journaled overlay and the id stays, so
/// its users stay clean; any other result is appended, or a collapsed
/// value, and marks the node dirty. The live part of the graph is then
/// isomorphic to the full pass's, node for node.
///
/// The area is the baseline area plus an MFFC-style delta along the changed
/// edges only: ref every new port driver and the overlay fanins of every
/// live edited node, then deref the old drivers and the replaced base
/// fanins, so logic both share never dies in between. ref()/deref() read a
/// node's base fanins until its edit is applied; an edited node that is
/// dead at that point holds no references, so its overlay applies at once.
/// A journal then rolls counts, values, overlay and graph back. All storage
/// is retained across reset() calls, so one instance serves design after
/// design.
class KeyConeAreas {
 public:
  /// Indexes `input`, which must outlive every area() query on it.
  void reset(const Netlist& input);

  std::size_t key_bits() const noexcept { return keys_.size(); }
  /// Gate count of `optimize(input)`.
  std::size_t baseline_area() const noexcept { return base_area_; }
  /// Gate count of `optimize_with_key_bit(input, bit, value)`. Work in
  /// what the pin changes: a heap push and pop per re-rewritten node, no
  /// O(N) pass. Throws std::invalid_argument when `bit` is out of range.
  std::size_t area(std::size_t bit, bool value);

 private:
  // flags_ bits per input node: its baseline value is a node its own
  // rewrite emitted (as RewriterT::run records it), it drives an output
  // port, it is dirty, and it is on the hypothesis' heap.
  static constexpr std::uint8_t kOwn = 1;
  static constexpr std::uint8_t kPort = 2;
  static constexpr std::uint8_t kDirty = 4;
  static constexpr std::uint8_t kQueued = 8;

  class EditBuilder;

  /// New fanins of baseline node `node`, at [begin, end) of edit_fanins_.
  /// Edits are made in ascending node order: the walk visits nodes in the
  /// order the baseline rewrite emitted them.
  struct Edit {
    NodeId node;
    std::uint32_t begin;
    std::uint32_t end;
    bool applied;
    bool was_live;
  };

  std::span<const NodeId> base_fanins(NodeId v) const;
  std::span<const NodeId> edit_fanins(const Edit& edit) const;
  bool is_edited(NodeId v) const { return v < base_nodes_ && edited_[v]; }
  /// The edit of `v`, which is_edited().
  const Edit& edit_of(NodeId v) const;
  /// Fanins as ref()/deref() see them: the overlay once applied.
  std::span<const NodeId> fanins(NodeId v) const;
  std::size_t ref(NodeId root);
  std::size_t deref(NodeId root);
  void journal(NodeId v);

  const Netlist* input_ = nullptr;
  std::vector<NodeId> keys_;
  // Input indexes: fanouts, each node's position in topological_order(),
  // and the output ports as (driver, port) pairs sorted by driver.
  CsrFanouts fanouts_;
  std::vector<std::uint32_t> position_;
  std::vector<std::pair<NodeId, std::uint32_t>> driver_ports_;
  OptScratch rewrite_;
  // Baseline: output driver of every port, constant nodes, live-edge counts.
  std::vector<NodeId> drivers_;
  NodeId const0_ = kNoNode;
  NodeId const1_ = kNoNode;
  std::vector<std::uint32_t> refs_;
  std::vector<std::uint8_t> flags_;
  std::size_t base_nodes_ = 0;
  std::size_t base_fanins_ = 0;
  std::size_t base_area_ = 0;
  // Per-hypothesis state, undone before area() returns: the heap of queued
  // positions, dirty input nodes with their baseline values, the overlay (a
  // mark per baseline node plus the edits), changed ports with their new
  // drivers, and the refcount journal.
  std::vector<std::uint32_t> heap_;
  std::vector<std::pair<NodeId, std::uint32_t>> changed_;
  std::vector<bool> edited_;
  std::vector<Edit> edits_;
  std::vector<NodeId> edit_fanins_;
  std::vector<std::pair<std::uint32_t, NodeId>> new_drivers_;
  std::vector<std::pair<NodeId, std::uint32_t>> journal_;
  std::vector<NodeId> stack_;
};

}  // namespace autolock::netlist
