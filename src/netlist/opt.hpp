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
//     queries with one baseline rewrite per design family, patched per
//     design, plus per-hypothesis in-place edits of what the pinned key
//     changes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "netlist/csr.hpp"
#include "netlist/decode_delta.hpp"
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
  // Flat output graph, built instead of a Netlist: per node its type and
  // its fanin row, out_fanins[out_fanin_begin[v], + out_fanin_count[v]).
  // Rows are emitted in node order; an in-place edit moves a row to the
  // end.
  std::vector<std::uint8_t> out_types;
  std::vector<std::uint32_t> out_fanin_begin;
  std::vector<std::uint32_t> out_fanin_count;
  std::vector<NodeId> out_fanins;
};

/// The SCOPE attack's area oracle: `area(bit, value)` is exactly
/// `optimize_with_key_bit(input, bit, value).gate_count()`, computed
/// without a full rewrite per hypothesis.
///
/// The baseline is the design rewritten once with no pin into a flat output
/// graph, its live nodes reference-counted, a flag per input node that
/// emitted its own baseline value (or drives a port), and the input's
/// fanouts and topological positions. reset(input) builds all of it from
/// scratch. reset(design, original, delta) builds it once per design
/// family, from the original, and then patches the design's decode delta
/// onto it: the appended key logic and the rewired original gates are
/// re-rewritten as seeds and the moved ports re-driven, the fanout rows of
/// the drivers of the delta's added and cut wires and of the appended nodes
/// are replaced, and the counts move along the changed edges only. The next
/// design of the family rolls those edits back first. Only the positions
/// are scattered afresh per design, from the design's own topological
/// order.
///
/// A hypothesis pins the key and re-rewrites only the nodes with a dirty
/// fanin: one whose value changed, or whose value is a NOT edited in place
/// (a user's NOT(NOT) collapse looks through it). Each node that turns dirty
/// queues its fanouts on a min-heap of topological positions, so the nodes
/// are re-rewritten in the order the full pass rewrites them. When a node
/// re-emits its own baseline gate with the same type, the gate keeps its id
/// and takes the new fanins in a row appended behind the graph (the old row
/// is saved), so its users stay clean; any other result is appended, or a
/// collapsed value, and marks the node dirty. The live part of the graph is
/// then isomorphic to the full pass's, node for node. A design's patch is
/// the same walk, kept instead of rolled back, so a rewired gate in the
/// key's fanout cone keeps its id and the cone stays clean.
///
/// The area is the baseline area plus an MFFC-style delta along the changed
/// edges only: ref every new port driver and the new fanins of every live
/// edited node, then deref the old drivers and the replaced fanins, so
/// logic both share never dies in between. ref()/deref() read an edited
/// node's old row until its edit is applied; an edited node that is dead at
/// that point holds no references, so its edit applies at once. A journal
/// then rolls counts, values, rows and graph back to the design's baseline.
/// All storage is retained across resets, so one instance serves design
/// after design.
class KeyConeAreas {
 public:
  /// Indexes `input` alone, with a full rewrite. `input` must outlive every
  /// area() query on it.
  void reset(const Netlist& input);

  /// Indexes `design`, decoded from `original`, whose differences `delta`
  /// lists (the delta lock::replay_records accepted for the two, with its
  /// wires filled): the rewired original gates have new fanins, the moved
  /// ports new drivers, every other original node is unchanged, and the
  /// design's nodes from original.size() on are the appended key logic.
  /// Builds the baseline of `original` on the first call for it as it
  /// stands (and after a one-shot reset), then patches the design onto it.
  /// Falls back to reset(design) when `delta` does not list the wires of
  /// the two as they stand (DecodeDelta::lists_wires). Both netlists must
  /// outlive every area() query on the design.
  void reset(const Netlist& design, const Netlist& original,
             const DecodeDelta& delta);

  /// True when the last reset patched a family's baseline.
  bool patched() const noexcept { return patched_; }
  std::size_t key_bits() const noexcept { return keys_.size(); }
  /// Gate count of `optimize(input)`.
  std::size_t baseline_area() const noexcept { return base_.area; }
  /// Gate count of `optimize_with_key_bit(input, bit, value)`. Work in
  /// what the pin changes: a heap push and pop per re-rewritten node, no
  /// O(N) pass. Throws std::invalid_argument when `bit` is out of range.
  std::size_t area(std::size_t bit, bool value);

 private:
  // flags_ bits per input node: its baseline value is a node its own
  // rewrite emitted (as RewriterT::run records it), it drives an output
  // port, it is on the walk's heap, and the design replaced its fanout row.
  static constexpr std::uint8_t kOwn = 1;
  static constexpr std::uint8_t kPort = 2;
  static constexpr std::uint8_t kQueued = 4;
  static constexpr std::uint8_t kRowPatched = 8;

  class EditBuilder;
  class Walk;

  /// A fanin row of the output graph.
  struct Row {
    std::uint32_t begin;
    std::uint32_t count;
  };
  /// Node `node` re-emitted with new fanins: its row before the edit, and
  /// (once the walk is over) the edit's row.
  struct Edit {
    NodeId node;
    Row base;
    Row edit;
    bool was_live;
  };
  /// An input node a walk gave a new value, with its value and own flag
  /// before.
  struct Changed {
    NodeId node;
    std::uint32_t value;
    bool own;
  };
  /// The design's fanout row of original node `node`, at [begin, end) of
  /// patched_fanouts_.
  struct RowPatch {
    NodeId node;
    std::uint32_t begin;
    std::uint32_t end;
  };
  /// Sizes, area and constant nodes of a baseline.
  struct Level {
    std::size_t nodes = 0;
    std::size_t fanins = 0;
    std::size_t area = 0;
    NodeId const0 = kNoNode;
    NodeId const1 = kNoNode;
  };

  /// The full rewrite behind both resets.
  void build(const Netlist& input);
  /// Patches the design onto the family baseline (which build() made).
  void patch(const Netlist& design, const DecodeDelta& delta);
  /// Replaces the fanout rows the design changes.
  void patch_fanouts(const DecodeDelta& delta);
  /// Restores the family baseline after a patch.
  void roll_back_design();
  /// Restores the design's baseline after a hypothesis.
  void roll_back_hypothesis();
  /// Indexes the ports of `net` by driver and flags their drivers.
  void index_ports(const Netlist& net);

  std::span<const NodeId> fanouts(NodeId v) const;
  /// A node's current fanin row.
  std::span<const NodeId> fanins(NodeId v) const;
  /// True when the running walk edited baseline node `v`.
  bool is_edited(NodeId v) const {
    return v < base_.nodes && rewrite_.out_fanin_begin[v] >= base_.fanins;
  }
  std::size_t ref(NodeId root);
  std::size_t deref(NodeId root);
  void journal(NodeId v);

  const Netlist* input_ = nullptr;
  std::vector<NodeId> keys_;
  // The original under the design's edits (null after a one-shot reset),
  // its structural version then, and whether a design is patched on.
  const Netlist* family_ = nullptr;
  std::uint64_t family_version_ = 0;
  bool patched_ = false;
  // Input indexes: fanouts (the original's, with the rows of the design's
  // changed drivers and appended nodes from `tail_` on replaced), each
  // node's position in topological_order(), and the output ports as
  // (driver, port) pairs sorted by driver.
  CsrFanouts fanouts_;
  NodeId tail_ = 0;
  std::vector<RowPatch> row_patches_;
  std::vector<std::uint32_t> tail_fanout_begin_;
  std::vector<NodeId> patched_fanouts_;
  std::vector<std::uint32_t> position_;
  std::vector<std::pair<NodeId, std::uint32_t>> driver_ports_;
  OptScratch rewrite_;
  // Baseline: output driver of every port, live-edge counts, flags, and
  // the level the walks start from (the design's, or the family's while
  // the design is patched on).
  std::vector<NodeId> drivers_;
  std::vector<std::uint32_t> refs_;
  std::vector<std::uint8_t> flags_;
  Level base_;
  // The family's level, and what the design changed on it: edited rows,
  // journaled counts, changed values, port drivers (port, family driver),
  // and whether it moved a port to another node.
  Level family_level_;
  std::vector<Edit> design_edits_;
  std::vector<std::pair<NodeId, std::uint32_t>> design_journal_;
  std::vector<Changed> design_changed_;
  std::vector<std::pair<std::uint32_t, NodeId>> design_drivers_;
  bool ports_moved_ = false;
  // Per-walk state, undone before area() returns: the heap of queued
  // positions, changed input nodes, edits, ports with their new drivers,
  // and the refcount journal. Patch-time scratch: the original drivers the
  // delta's added and cut wires touch.
  std::vector<std::uint32_t> heap_;
  std::vector<Changed> changed_;
  std::vector<Edit> edits_;
  std::vector<std::pair<std::uint32_t, NodeId>> new_drivers_;
  std::vector<std::pair<NodeId, std::uint32_t>> journal_;
  std::vector<NodeId> stack_;
  std::vector<NodeId> touched_;
};

}  // namespace autolock::netlist
