// Attacker's view of a MUX-locked netlist.
//
// MuxLink models the locked design as a graph in which every key-controlled
// MUX is *removed*: the attacker knows which gate each MUX feeds (its
// fanout) and which two signals are its candidate drivers (the MUX data
// inputs), and must predict which candidate link is the true one. Key
// inputs and key-MUX nodes therefore do not appear in the graph at all —
// they carry no usable structure by construction of D-MUX-style locking.
//
// This module builds that view from a locked netlist alone (no ground
// truth): the undirected adjacency over non-key nodes, per-node structural
// features, and the list of key-bit decision problems.
//
// The adjacency is stored in CSR form (one offsets array + one flat edge
// array) rather than a vector-of-vectors, and the object is reusable: every
// build re-derives the view into the existing storage, so evaluation loops
// that attack thousands of candidate designs allocate nothing once the
// buffers are warm. Rows are sorted and deduplicated, matching the order
// the historical list-of-lists representation produced (attack RNG
// trajectories depend on it).
//
// Two ways to build it:
//   - build(locked) derives the view from the netlist alone, in O(N + E).
//     One-shot attacks and .bench inputs take this path.
//   - patch(design, original, delta) derives the view of a design decoded
//     from `original` from this graph's build(original), given the
//     design's checked decode delta (lock::replay_records, then
//     DecodeDelta::fill_wires): only the rows
//     of the rewired gates, of the drivers of the cut and added wires and
//     of the tail are written, in place: the original's rows of those
//     nodes are journaled and new rows are appended, and the next patch
//     rolls them back first. The positives are the original's, copied in
//     runs between the changed drivers. The result equals
//     build(design) exactly. AttackScratch::view keeps one graph per
//     worker based on the design family's original and picks the path.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "netlist/decode_delta.hpp"
#include "netlist/netlist.hpp"

namespace autolock::attack {

/// One candidate link (u, v): "signal u drives gate v".
struct CandidateLink {
  netlist::NodeId u = netlist::kNoNode;
  netlist::NodeId v = netlist::kNoNode;
};

/// The decision problem for one key bit: every key-MUX controlled by that
/// key input contributes one (link-if-0, link-if-1) candidate pair per
/// fanout gate.
struct KeyBitProblem {
  int key_bit_index = -1;
  /// Pairs are aligned: choosing key value 0 asserts all `if_zero` links,
  /// key value 1 asserts all `if_one` links.
  std::vector<CandidateLink> if_zero;
  std::vector<CandidateLink> if_one;
};

class AttackGraph {
 public:
  /// Creates an empty graph; call build() before use. Exists so worker
  /// scratch state can own a reusable instance.
  AttackGraph() = default;

  /// Builds the attacker view. `locked` must contain MUX key-gates whose
  /// select input is a key input (the convention every scheme in this repo
  /// follows). Non-MUX key gates (e.g. RLL XORs) are left in the graph —
  /// MuxLink does not attack them, and their presence mirrors reality.
  explicit AttackGraph(const netlist::Netlist& locked) { build(locked); }

  /// (Re)derives the view for `locked`, reusing all internal storage.
  /// `locked` must outlive the graph (or the next build()).
  void build(const netlist::Netlist& locked);

  /// Turns this graph, a build() of the key-free `original` (possibly
  /// patched for another design since), into the view of `design`, decoded
  /// from `original`, whose differences `delta` lists (the delta
  /// lock::replay_records accepted for the two, with its wires filled):
  /// equal to build(design), in work proportional to the delta plus one
  /// copy of the positives. Returns false, leaving the view of `original`,
  /// when this graph is not based on `original` as it stands, when `delta`
  /// does not list the wires of this design and original as they stand
  /// (DecodeDelta::lists_wires), or when it does not fit the rows.
  /// `design` must outlive the view (or the next build or patch).
  bool patch(const netlist::Netlist& design, const netlist::Netlist& original,
             const netlist::DecodeDelta& delta);

  /// The netlist the view is of (the design's, once patched).
  const netlist::Netlist& locked() const noexcept { return *locked_; }

  /// True when the view was derived by patch() rather than build().
  bool patched() const noexcept { return patched_; }

  /// True when the graph's last build() was of `original` as it stands now,
  /// so patch() can derive its designs' views.
  bool based_on(const netlist::Netlist& original) const noexcept {
    return base_ == &original &&
           base_version_ == original.structural_version();
  }

  /// True for nodes that exist in the attacker graph (false for key inputs
  /// and key-MUX nodes).
  bool in_graph(netlist::NodeId v) const { return present_[v]; }

  /// Undirected neighbours of `v` (sorted ascending, deduplicated; empty
  /// for absent nodes). Valid until the next build() or patch().
  std::span<const netlist::NodeId> neighbors(netlist::NodeId v) const {
    return {adj_edges_.data() + row_begin_[v], row_size_[v]};
  }

  std::size_t degree(netlist::NodeId v) const noexcept {
    return row_size_[v];
  }

  /// All existing directed wires (driver, sink) between present nodes —
  /// the self-supervision positives — ascending by driver, then sink.
  const std::vector<CandidateLink>& known_links() const noexcept {
    return patched_ ? patched_links_ : known_links_;
  }

  /// Present nodes, ascending: the possible drivers of a candidate link.
  const std::vector<netlist::NodeId>& present_nodes() const noexcept {
    return present_nodes_;
  }

  /// Present nodes with at least one fanin (present or not), ascending:
  /// the possible sinks of a candidate link.
  const std::vector<netlist::NodeId>& present_sinks() const noexcept {
    return present_sinks_;
  }

  /// One decision problem per key bit, sorted by key bit index.
  const std::vector<KeyBitProblem>& problems() const noexcept {
    return problems_;
  }

  std::size_t key_bits() const noexcept { return problems_.size(); }

 private:
  using Wire = netlist::DecodeDelta::Wire;

  /// Restores the view of the base after a patch.
  void roll_back();
  /// The patch behind patch() on the rolled-back base; false may leave it
  /// partly written (patch() rolls back).
  bool apply_patch(const netlist::Netlist& design,
                   const netlist::Netlist& original,
                   const netlist::DecodeDelta& delta);
  /// Clears the per-bit problem slots for `key_bit_count` bits.
  void begin_problems(int key_bit_count);
  /// Emits the non-empty per-bit slots into problems_, in bit order.
  void emit_problems(int key_bit_count);

  const netlist::Netlist* locked_ = nullptr;
  // The netlist of the last build() and its structural version then, and
  // the view's sizes at that point (a patch rolls back to them).
  const netlist::Netlist* base_ = nullptr;
  std::uint64_t base_version_ = 0;
  std::size_t base_nodes_ = 0;
  std::size_t base_edges_ = 0;
  std::size_t base_present_nodes_ = 0;
  std::size_t base_present_sinks_ = 0;
  bool patched_ = false;
  std::vector<bool> present_;
  // Rows: row v is adj_edges_[row_begin_[v], + row_size_[v]). A build lays
  // them out in id order; a patch appends its new rows after the base's.
  std::vector<std::uint32_t> row_begin_;
  std::vector<std::uint32_t> row_size_;
  std::vector<netlist::NodeId> adj_edges_;
  std::vector<CandidateLink> known_links_;
  std::vector<CandidateLink> patched_links_;
  std::vector<netlist::NodeId> present_nodes_;
  std::vector<netlist::NodeId> present_sinks_;
  std::vector<KeyBitProblem> problems_;
  // Build-time scratch, retained for reuse.
  std::vector<bool> is_key_mux_;
  std::vector<int> bit_of_node_;
  std::vector<std::uint32_t> cursor_;
  std::vector<KeyBitProblem> slots_;
  /// Key-MUX sink CSR (dense slot per key MUX): the deduplicated ascending
  /// gate fanouts of each key MUX, collected in one pass over all fanin
  /// lists — the per-build replacement for materializing the netlist's full
  /// vector-of-vectors fanout cache just to read the key-MUX rows.
  std::vector<std::int32_t> mux_slot_;
  std::vector<std::uint32_t> mux_sink_offsets_;
  std::vector<netlist::NodeId> mux_sink_edges_;
  // Patch-time state, retained for reuse: the base rows a patch replaced
  // (node, begin, size); the row entries the delta's cut wires and the
  // tail's present wires change (both ways round), as sorted (row,
  // neighbour) pairs; per tail node, present or not and its key bit (-1
  // unless a key input); and the original nodes whose rows change.
  struct SavedRow {
    netlist::NodeId node;
    std::uint32_t begin;
    std::uint32_t size;
  };
  std::vector<SavedRow> saved_rows_;
  std::vector<Wire> cut_entries_;
  std::vector<Wire> added_entries_;
  std::vector<char> tail_present_;
  std::vector<int> tail_bit_;
  std::vector<netlist::NodeId> touched_;
};

}  // namespace autolock::attack
