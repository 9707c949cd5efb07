// Genotype decoding (scheme-polymorphic) and the D-MUX baseline.
//
// Decoding (genotype -> locked netlist) walks the tagged genes in order and
// assigns key bits in gene order. For the paper's MUX genes, each locality
// {f_i, f_j, g_i, g_j, k} inserts a key-controlled pair of multiplexers
//
//      M1 = MUX(keyinput_t, ., .)  -> replaces the f_i input of g_i
//      M2 = MUX(keyinput_t, ., .)  -> replaces the f_j input of g_j
//
// wired so that key bit value k restores the original paths and the wrong
// value swaps them (g_i sees f_j and g_j sees f_i). Both polarities are
// structurally symmetric — the defining property of D-MUX-style locking that
// forces attacks to reason about the surrounding locality rather than the
// key gate itself. RLL and Anti-SAT genes splice XOR/XNOR key gates and
// Anti-SAT blocks the same way their standalone schemes do (locking/rll.hpp,
// locking/antisat.hpp); see locking/compound.hpp for the key-bit layout of
// mixed genotypes.
//
// D-MUX baseline ("dmux_lock"): K sites sampled uniformly at random with
// random key bits — exactly how the paper seeds the GA population.
#pragma once

#include <cstdint>
#include <vector>

#include "locking/gene.hpp"
#include "locking/sites.hpp"
#include "netlist/netlist.hpp"
#include "netlist/simulator.hpp"
#include "util/rng.hpp"

namespace autolock::lock {

/// Result of locking a netlist.
struct LockedDesign {
  netlist::Netlist netlist;  // the locked netlist (original is untouched)
  netlist::Key key;          // correct key; bit t belongs to keyinput<t>
  /// The applied genotype in gene order, all schemes (repairs written back).
  Genotype genes;
  /// Per-gene decode record, aligned with `genes` (see AppliedGene). A MUX
  /// gene t owns keyinput<t>'s node at applied[t].first_node followed by
  /// its two MUXes: M1 (feeding g_i) at first_node + 1 and M2 (feeding g_j)
  /// at first_node + 2.
  std::vector<AppliedGene> applied;
  /// Netlist::structural_version() of the original this design was decoded
  /// from, and of `netlist` as decode left it (0 = not decoded). Versions
  /// travel with moves, so a design moved out of its workspace keeps both.
  /// While they still match, the records above describe every difference
  /// between `netlist` and the original (replay_records checks them), which
  /// is what lets the next decode undo this one in place and an attack
  /// patch its view of the original instead of rebuilding it.
  std::uint64_t original_version = 0;
  std::uint64_t decoded_version = 0;
};

/// Decodes a genotype into a locked netlist. A structurally invalid gene
/// (stale after crossover/mutation, or a cross-gene clash) is repaired: a
/// fresh valid gene of the same kind is drawn from `repair_rng` and written
/// back into the design's `genes`. Throws std::runtime_error if repair
/// cannot find a valid replacement. The returned design always has exactly
/// sum(gene.key_bits()) key bits and passes netlist.validate().
///
/// One-shot form of apply_genotype_into: that decode on a fresh design and
/// scratch, followed by netlist.validate(). So its design, topological
/// order included, is the one a workspace decode produces.
LockedDesign apply_genotype(const netlist::Netlist& original,
                            const SiteContext& context, const Genotype& genes,
                            util::Rng& repair_rng);

/// The decode, buffer-reusing for evaluation loops: writes the locked design
/// into `out` (its netlist buffers, key, gene and decode-record vectors are
/// reused across calls) and runs every cycle check through `scratch`.
/// Unlike apply_genotype it skips the full structural validate() — the
/// per-gene acyclicity checks against the decode's dynamic order already
/// cover everything decode can get wrong, and the construction-side
/// invariants (names, arity) are enforced by the Netlist mutators
/// themselves. The design is primed with a topological order merged from
/// those ranks rather than re-sorted: the original's (level, id) order
/// with the decode's touched nodes merged in by (rank, id).
///
/// Decoding into a design that already holds a decode of the same
/// original is warm: when replay_records accepts `out`, its delta undoes the
/// previous rewiring in place (each rewired gate's fanins and each moved
/// port restored from the original) and the key-logic tail is truncated,
/// instead of re-copying the netlist; the genes then append their logic
/// exactly as a cold decode does (append after undo), whatever the two
/// genotypes' shapes. Any other `out` (fresh, moved from, structurally
/// mutated since, or with records that no longer check out) takes the
/// copy. Cycle checks run against an incrementally maintained dynamic
/// topological order — see locking/decode_topo.hpp.
void apply_genotype_into(LockedDesign& out, const netlist::Netlist& original,
                         const SiteContext& context, const Genotype& genes,
                         util::Rng& repair_rng, ReachScratch& scratch);

/// True when `design` was decoded from `original` as it stands now, its
/// netlist is as decode left it (both structural versions match), and its
/// records (genes, applied) describe every difference between the two
/// netlists: each gene owns the consecutive tail ids its kind fixes, from
/// original.size() to the end of the design, and replaying every splice,
/// in gene order, on the original fanin lists of the gates the records
/// name gives exactly the design's lists. Then fills `delta` with those
/// gates and the moved output ports, and stamps it with the two netlists'
/// structural versions. This is the one place after decode that reads the
/// records: the warm decode (apply_genotype_into) undoes a design by its
/// delta, and the attackers patch their views of the original with it once
/// DecodeDelta::fill_wires has listed its wires (attack::AttackGraph::patch,
/// netlist::KeyConeAreas::reset). On false the stamps are 0, so no
/// consumer takes the delta for any design.
bool replay_records(const LockedDesign& design,
                    const netlist::Netlist& original, DecodeDelta& delta);

/// Pre-interns the decode-generated names ({keyinput<t>, keymux<t>a/b,
/// keyxor<t>} for t in [0, key_bits)) into `original`'s name table and
/// fills `scratch`'s cache, so even the very first apply_genotype_into
/// through a fresh workspace builds no name strings.
void warm_decode_names(const netlist::Netlist& original, std::size_t key_bits,
                       ReachScratch& scratch);

/// D-MUX-style random MUX locking with `key_bits` key bits. Throws
/// std::invalid_argument on `key_bits` 0: a keyless design is no lock.
LockedDesign dmux_lock(const netlist::Netlist& original, std::size_t key_bits,
                       std::uint64_t seed);

/// The production applicability check decode runs per candidate MUX gene: a
/// site is applicable to the working netlist iff the edges it locks are
/// still present (no earlier gene consumed them) and the two cross edges do
/// not close a cycle given all previously inserted key logic — answered
/// against `topo`'s incrementally maintained ranks. Site ids must be in
/// range (decode guarantees this via SiteContext::structurally_valid).
bool applicable_to_working_ranks(DecodeTopo& topo, const Gene& site);

/// Random MUX-only genotype of `key_bits` valid, pairwise edge-disjoint
/// sites (the paper's population initialisation: "lock the provided ON with
/// a key of size K ... repeated N times with random keys").
Genotype random_genotype(const SiteContext& context, std::size_t key_bits,
                         util::Rng& rng);

/// Random mixed genotype following `spec`: MUX sites first (same sampling
/// stream as the MUX-only overload), then RLL genes on distinct random
/// wires, then one Anti-SAT gene (its taps/keys/splice derived from a
/// freshly drawn gene seed). A pure-MUX spec draws the identical stream as
/// the MUX-only overload. Throws std::invalid_argument on a spec with no
/// key bits: every optimizer starts here, and a keyless design would score
/// as perfectly resilient.
Genotype random_genotype(const SiteContext& context, const GenotypeSpec& spec,
                         util::Rng& rng);

}  // namespace autolock::lock
