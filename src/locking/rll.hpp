// Random Logic Locking (RLL) — the classic EPIC-style XOR/XNOR scheme.
//
// Serves two roles in this repo: (1) the traditional baseline the
// ML-resilience literature measures against, and (2) the "easy prey" that
// demonstrates why structural attacks motivated MUX-based locking in the
// first place (an XOR key gate with key bit 0 vs an XNOR with key bit 1 is
// structurally distinguishable — exactly the leakage D-MUX removes).
#pragma once

#include <cstdint>

#include "locking/mux_lock.hpp"
#include "netlist/netlist.hpp"

namespace autolock::lock {

/// Inserts `key_bits` XOR/XNOR key gates on distinct random wires.
/// Key bit 0 -> XOR gate, key bit 1 -> XNOR gate, so the correct key value
/// always makes the key gate transparent. The returned design's `genes` are
/// RLL genes (no MUX gene); `key` holds the correct key. Throws
/// std::invalid_argument on `key_bits` 0.
LockedDesign rll_lock(const netlist::Netlist& original, std::size_t key_bits,
                      std::uint64_t seed);

}  // namespace autolock::lock
