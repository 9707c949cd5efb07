// Incrementally maintained dynamic topological order over the decode-time
// working netlist (Pearce–Kelly style).
//
// Genotype decode applies MUX-pair lock sites one at a time to a working
// copy of the original netlist, and must reject any site whose cross edges
// would close a combinational cycle. The historical check ran a from-scratch
// backward DFS over the working netlist's per-gate fanin vectors for every
// candidate site — and gene repair probes up to 64 candidates per key bit,
// so one decode could walk the whole graph hundreds of times.
//
// DecodeTopo replaces that with a dynamic topological order:
//
//   - Ranks are sparse u64 values seeded once per decode from the original
//     netlist's longest-path levels, spaced kRankGap apart (the seed array
//     lives in SiteContext, computed once per design family from the cached
//     topological order). Invariant: every working-netlist edge u -> v has
//     rank(u) < rank(v) strictly. Ties between unordered nodes are allowed
//     and harmless — levels tie every pair the edges do not order, which
//     keeps relabel windows small.
//   - A cycle check "does the working netlist have a path g ~> f?" is
//     answered O(1) false when rank(g) > rank(f) — the common case — and
//     otherwise by a backward DFS from f over the flat CSR fanin mirror,
//     pruned to the rank window [rank(g), rank(f)].
//   - An accepted site appends its three new nodes (key input + two MUXes)
//     with ranks placed directly between the site's drivers and gates. When
//     a driver currently sits above a target gate (legal — ranks are one
//     linearization, not reachability), its bounded dependency window is
//     relabelled to just below the gate (the Pearce–Kelly reorder,
//     restricted to the affected window) instead of recomputing the order.
//   - The fanin adjacency is mirrored in CSR form: a memcpy of the
//     original's flat edge array (see netlist::CsrFanins) patched in place
//     as MUXes splice into fanin lists, plus a tail for appended nodes —
//     traversals walk contiguous u32 spans, never per-node heap vectors.
//
// Verdict equivalence with the legacy DFS (same accepts, same rejects, in
// the same order — decode repair RNG consumption is bit-identical) is pinned
// by the property test in tests/test_sites.cpp.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <span>
#include <vector>

#include "netlist/csr.hpp"
#include "netlist/types.hpp"
#include "util/epoch_flags.hpp"

namespace autolock::lock {

class DecodeTopo {
 public:
  /// Rank spacing of a freshly seeded order. SiteContext multiplies the
  /// original's longest-path levels by this to produce the seed array;
  /// relabels subdivide the gaps and a (rare) global renumber restores
  /// them. The gap is deliberately huge: each nested relabel into the same
  /// region divides the available space by its window size, and a window
  /// at scale can span tens of thousands of nodes — 2^40 survives several
  /// such nestings where 2^20 forced a global renumber (an O(V log V) sort
  /// that also poisons the incremental-reset journal) almost every decode.
  /// Depth stays comfortably inside u64: ~100 levels * 2^40 ≈ 2^47, and a
  /// renumbered million-node graph peaks near 2^60.
  static constexpr std::uint64_t kRankGap = std::uint64_t{1} << 40;

  /// Rebinds the working graph to a new decode: adjacency := `base` (the
  /// offsets array is aliased, the edge array copied so it can be patched),
  /// ranks := `seed_ranks`. `base` must outlive this object (both live for
  /// the duration of one apply_genotype call; SiteContext owns the base).
  ///
  /// `context_token` identifies the (base, seed_ranks) pair — SiteContext
  /// issues one unique token per instance. When it matches the previous
  /// reset's token, the rebind is INCREMENTAL: instead of re-copying the
  /// O(E) edge array and O(V) rank array, the journal of base-edge patches
  /// is undone, the dirty ranks are restored from `seed_ranks`, and the
  /// tail is truncated — O(sites touched), which is what makes per-decode
  /// cost independent of design size. Token 0 (the default) always takes
  /// the full path. Both paths leave byte-identical state (pinned by
  /// tests): a rare global renumber() poisons the journal and forces the
  /// next reset full.
  void reset(const netlist::CsrFanins& base,
             const std::vector<std::uint64_t>& seed_ranks,
             std::uint64_t context_token = 0);

  /// Pre-sizes the buffers for a base graph of `base_nodes` nodes and
  /// `base_edges` edges plus up to `extra_nodes` appended nodes (optional —
  /// everything grows on demand).
  void reserve(std::size_t base_nodes, std::size_t base_edges,
               std::size_t extra_nodes);

  std::size_t node_count() const noexcept { return rank_.size(); }

  std::uint64_t rank(netlist::NodeId v) const noexcept { return rank_[v]; }

  /// Fanins of `v` in the working netlist (mirrors Node::fanins exactly).
  std::span<const netlist::NodeId> fanins(netlist::NodeId v) const noexcept {
    if (v < base_nodes_) {
      const std::uint32_t begin = (*base_offsets_)[v];
      return {edges_.data() + begin, (*base_offsets_)[v + 1] - begin};
    }
    const std::uint32_t t = v - static_cast<std::uint32_t>(base_nodes_);
    return {tail_edges_.data() + tail_offsets_[t],
            tail_offsets_[t + 1] - tail_offsets_[t]};
  }

  bool has_fanin(netlist::NodeId gate, netlist::NodeId fanin) const noexcept {
    for (netlist::NodeId f : fanins(gate)) {
      if (f == fanin) return true;
    }
    return false;
  }

  /// True iff `target` is in the transitive fanin of `from` in the working
  /// netlist — the same verdict as a from-scratch backward DFS. O(1) when
  /// rank(target) > rank(from); otherwise a backward DFS over the CSR
  /// mirror pruned to the [rank(target), rank(from)] window.
  bool depends_on(netlist::NodeId from, netlist::NodeId target);

  /// Fused cycle check + ordering guarantee for one prospective cross edge:
  /// returns false iff `pivot` is a dependency of `node` (identical verdict
  /// to !depends_on(node, pivot) — the site must be rejected). On true,
  /// additionally guarantees rank(node) < rank(pivot), relabelling node's
  /// bounded dependency window below pivot when the ranks were inverted —
  /// the DFS that proves pivot unreachable IS the window collection, so
  /// check and relabel share a single traversal. A relabel performed for a
  /// site its second check later rejects is harmless: relabels never touch
  /// the graph, only pick another equally valid linearization.
  bool ensure_order(netlist::NodeId node, netlist::NodeId pivot);

  /// Mirrors one accepted site insertion (must match apply_genes exactly):
  /// a new key input `sel` (no fanins), MUX nodes m1 = {sel, a0, a1}
  /// replacing the f_i fanin of g_i and m2 = {sel, a1, a0} replacing the
  /// f_j fanin of g_j, where {a0, a1} is {f_i, f_j} in key-bit order. The
  /// three ids must be consecutive, in that order, starting at
  /// node_count(). Precondition (checked by the caller via depends_on): the
  /// working netlist has no path g_i ~> f_j and no path g_j ~> f_i.
  void insert_mux_pair(netlist::NodeId f_i, netlist::NodeId f_j,
                       netlist::NodeId g_i, netlist::NodeId g_j,
                       netlist::NodeId a0, netlist::NodeId a1,
                       netlist::NodeId sel, netlist::NodeId m1,
                       netlist::NodeId m2);

  /// Mirrors one accepted RLL gene insertion: a new key input `key_in` (no
  /// fanins) and key gate `gate` = {key_in, driver} replacing the `driver`
  /// fanin of `sink`. The two ids must be consecutive, in that order,
  /// starting at node_count(). Precondition: the working netlist has the
  /// edge driver -> sink (so rank(driver) < rank(sink) already holds).
  void insert_rll_gate(netlist::NodeId driver, netlist::NodeId sink,
                       netlist::NodeId key_in, netlist::NodeId gate);

  /// Rank slots for an appended multi-level block (the anti-SAT decode):
  /// level L of the block gets rank base + (L + 1) * step. The slots sit
  /// strictly above every node in `lows` and — when `sink` != kNoNode —
  /// strictly below rank(sink) for up to `levels` levels; the caller must
  /// have established rank(low) < rank(sink) for every low (ensure_order).
  /// Without a sink the slots sit above every rank in the working graph.
  /// May renumber once when the gap below `sink` is exhausted, so read the
  /// slots before appending and do not cache ranks across this call.
  struct BlockSlots {
    std::uint64_t base = 0;
    std::uint64_t step = 0;
  };
  BlockSlots block_slots(std::span<const netlist::NodeId> lows,
                         netlist::NodeId sink, std::size_t levels);

  /// Appends node `id` (== node_count()) with `node_fanins` at rank `r` —
  /// the caller guarantees every fanin ranks strictly below `r` (use
  /// block_slots). Mirrors a netlist add_input/add_gate.
  void append_node(netlist::NodeId id,
                   std::span<const netlist::NodeId> node_fanins,
                   std::uint64_t r);

  /// Mirrors a netlist-side replace_fanin on the working graph: replaces
  /// every `old_fanin` slot of `gate` with `new_fanin` and returns the
  /// replacement count (must agree with the netlist). Precondition:
  /// rank(new_fanin) < rank(gate).
  std::size_t splice_fanin(netlist::NodeId gate, netlist::NodeId old_fanin,
                           netlist::NodeId new_fanin) {
    return patch_fanin(gate, old_fanin, new_fanin);
  }

  /// Global renumbers performed since reset() (observability: the relabel
  /// windows are expected to stay bounded, making this almost always 0).
  std::size_t renumber_count() const noexcept { return renumbers_; }

  /// Incremental resets taken since construction (observability: at scale
  /// every decode after the first through a warm scratch should count).
  std::size_t incremental_resets() const noexcept {
    return incremental_resets_;
  }

  /// Nodes the current decode actually visited or moved since reset():
  /// cycle-check DFS pops, relabelled window nodes, appended MUX nodes, and
  /// (when one happens) a full renumber's node count. This is the decode's
  /// genuine working set — bench_scale divides wall clock by it to show
  /// per-decode cost tracks touched gates, not design size.
  std::size_t touched() const noexcept { return touched_; }

  /// Derives a full topological order of the working netlist from the
  /// maintained ranks: all nodes sorted by (rank, id) — a valid
  /// linearization because every edge orders its endpoints' ranks strictly,
  /// and ties are only ever between unordered nodes. `seed_order` must be
  /// the base nodes pre-sorted by (seed rank, id), with `seed_order_ranks`
  /// its position-aligned seed ranks and `seed_pos` its inverse permutation
  /// (SiteContext supplies the original's cached (level, id) order, which
  /// is sorted by seed rank, and the other two, once per family); nodes
  /// whose rank never moved are merged straight from it, so the per-decode
  /// cost is O(V) with a memcpy-grade constant plus O(D log D) for the D
  /// rank-dirty/appended nodes — never an O(V + E) re-sort plus CSR
  /// fanout rebuild per genotype. While no
  /// renumber has happened this decode (the common case), the base lane's
  /// merge keys and skip flags are read position-sequentially from the
  /// precomputed arrays — no per-node random access into rank_ at all.
  void order_into(const std::vector<netlist::NodeId>& seed_order,
                  const std::vector<std::uint64_t>& seed_order_ranks,
                  const std::vector<std::uint32_t>& seed_pos,
                  std::vector<netlist::NodeId>& out);

 private:
  /// Ensures rank(node) < rank(pivot) by relabelling node's dependency
  /// window — the fanin closure of `node` restricted to ranks >= rank(pivot)
  /// — to fresh ranks strictly between the window's external fanins and
  /// pivot, preserving relative order. Throws std::logic_error if pivot is
  /// a dependency of node (the caller's cycle check must rule that out).
  void demote_before(netlist::NodeId node, netlist::NodeId pivot);

  /// Relabels the nodes in `window_` (visited_-marked, any order) to fresh
  /// ranks strictly between `lo` (the max rank of any edge into the window
  /// from outside it, collected by the caller's DFS) and rank(pivot),
  /// preserving relative (rank, id) order. Renumbers globally if the gap
  /// below pivot is exhausted.
  void relabel_window_below(netlist::NodeId pivot, std::uint64_t lo);

  /// Re-spaces all ranks kRankGap apart, preserving the current order.
  void renumber();

  /// initializer_list convenience for the fixed-shape insertions above.
  void append_node(netlist::NodeId id,
                   std::initializer_list<netlist::NodeId> node_fanins,
                   std::uint64_t r) {
    append_node(id, std::span<const netlist::NodeId>{node_fanins.begin(),
                                                     node_fanins.size()},
                r);
  }

  /// Replaces every `old_fanin` in gate's mirrored fanin span. Returns the
  /// number of replacements (the netlist-side replace_fanin must agree).
  std::size_t patch_fanin(netlist::NodeId gate, netlist::NodeId old_fanin,
                          netlist::NodeId new_fanin);

  /// Marks `v` rank-dirty (idempotent): its rank no longer matches the
  /// seed, so the next incremental reset must restore it and order_into
  /// must merge it explicitly.
  void mark_rank_dirty(netlist::NodeId v);

  std::size_t base_nodes_ = 0;
  const std::vector<std::uint32_t>* base_offsets_ = nullptr;
  std::vector<netlist::NodeId> edges_;       // patched copy of base edges
  std::vector<std::uint32_t> tail_offsets_;  // appended-node spans; [0] == 0
  std::vector<netlist::NodeId> tail_edges_;
  std::vector<std::uint64_t> rank_;
  util::EpochFlags visited_;
  std::vector<netlist::NodeId> stack_;
  /// The closure collected by ensure_order, as (rank, node) pairs so the
  /// relative-order sort runs over contiguous keys.
  std::vector<std::pair<std::uint64_t, netlist::NodeId>> window_;
  std::vector<netlist::NodeId> order_scratch_;  // renumber's sort buffer
  /// Upper bound on every current rank (exact after reset/renumber; relabels
  /// only demote, appends update it). block_slots' sink-less mode places
  /// appended blocks strictly above it.
  std::uint64_t max_rank_ = 0;
  std::uint64_t seed_max_rank_ = 0;  // max seed rank, restored on reset
  std::size_t renumbers_ = 0;
  std::size_t incremental_resets_ = 0;
  std::size_t touched_ = 0;
  // Incremental-reset state. The journal records every base-edge slot
  // patch_fanin overwrote (slot index, previous value); dirty_ / dirty_nodes_
  // record every node whose rank left its seed value. A renumber rewrites
  // ranks wholesale, so it clears journal_ok_ and the next reset falls back
  // to the full copy.
  std::uint64_t last_token_ = 0;
  bool journal_ok_ = false;
  std::vector<std::pair<std::uint32_t, netlist::NodeId>> edge_journal_;
  util::EpochFlags dirty_;
  std::vector<netlist::NodeId> dirty_nodes_;
  /// order_into's dirty-skip flags indexed by seed-order POSITION (not node
  /// id), so the merge's skip test reads the stamp array in order.
  util::EpochFlags skip_;
  /// order_into's (rank, id) buffer for the dirty/appended merge lane.
  std::vector<std::pair<std::uint64_t, netlist::NodeId>> dirty_sorted_;
};

}  // namespace autolock::lock
