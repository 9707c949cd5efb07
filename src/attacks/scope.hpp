// SCOPE-style oracle-less synthesis attack (after Alaql et al.'s SCOPE):
// for each key bit, pin it to 0 and to 1, run the optimizer, and compare
// the synthesized circuit's cost metrics. A transparent key gate (XOR with
// the correct constant) simplifies away, while the wrong constant leaves an
// inverter behind — an area signal that leaks the bit with no oracle at all.
//
// The 2*K optimizer runs share one pin-free rewrite of the design: pinning
// bit b only changes part of b's fanout cone and the logic that dies behind
// it, so each hypothesis edits just that part of the baseline and adjusts
// its area by reference counting (netlist::KeyConeAreas), with results
// identical to a full optimize_with_key_bit pass. A design decoded from a
// workspace's original does not even pay the one rewrite: the original's
// is patched from the design's decode records.
//
// Expected behaviour (and the point of including it): this attack strips
// classic XOR/XNOR RLL almost completely, but is *blind* against MUX-pair
// locking — pinning a MUX select collapses the MUX either way, with
// symmetric cost — which is precisely the deceptive property D-MUX
// introduced and AutoLock inherits.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "netlist/netlist.hpp"

namespace autolock::lock {
struct LockedDesign;
}

namespace autolock::attack {

struct AttackScratch;

/// The attack's native result; eval::scope_report scores it against the
/// ground-truth key.
struct ScopeResult {
  /// Per key bit: 0 / 1, or -1 when both hypotheses cost the same
  /// (undecidable by this attack).
  std::vector<int> predicted_bits;
  /// Synthesized gate counts for the (bit=0, bit=1) hypotheses.
  std::vector<std::pair<std::size_t, std::size_t>> areas;
};

class ScopeAttack {
 public:
  /// One-shot variant: runs attack(locked, scratch) on a local scratch.
  ScopeResult attack(const netlist::Netlist& locked) const;

  /// The per-hypothesis areas come from the scratch's
  /// netlist::KeyConeAreas: one pin-free rewrite of `locked`, then an
  /// in-place edit per (bit, value), with no synthesized netlist
  /// materialized. Each area equals the gate count of
  /// netlist::optimize_with_key_bit for the same (bit, value), the
  /// reference the tests pin it against.
  ScopeResult attack(const netlist::Netlist& locked,
                     AttackScratch& scratch) const;

  /// The same attack on a decoded design: when it was decoded from the
  /// scratch's family, the areas patch the family's baseline from the
  /// design's records instead of rewriting the design
  /// (AttackScratch::scope_view). The result is identical.
  ScopeResult attack(const lock::LockedDesign& design,
                     AttackScratch& scratch) const;
};

}  // namespace autolock::attack
