// Scheme-polymorphic genotype decode: key-bit layout and helpers.
//
// A Genotype (locking/gene.hpp) is a flat vector of tagged genes — MUX
// pairs, RLL XOR/XNOR sites and Anti-SAT blocks mixed freely. Decode
// (lock::apply_genotype / apply_genotype_into, declared in
// locking/mux_lock.hpp) walks the genes IN ORDER against one working copy
// of the original netlist and assigns key bits in that same order:
//
//   key bit index = sum of key_bits() of all earlier genes + bit-in-gene
//
// because netlist key inputs are named keyinput<t> at creation and every
// attack (eval/attack_graph.hpp) numbers key bits by key-input creation
// order. Per gene kind:
//
//   - kMux: 1 key bit (the MUX select, keyinput<t>).
//   - kRll: 1 key bit (the XOR/XNOR key input, keyinput<t>).
//   - kAntiSat of width n: 2n key bits — the K1 block inputs occupy
//     [offset, offset + n) and the K2 block inputs [offset + n, offset + 2n),
//     matching the standalone antisat_lock layout. The correct key sets
//     K1 == K2 == the gene's derived tap pattern.
//
// So compound_lock(original, M, {width n}) yields M MUX bits [0, M)
// followed by K1 bits [M, M + n) and K2 bits [M + n, M + 2n) — the layout
// the round-trip test in tests/test_compound.cpp pins. key_layout() below
// materializes the mapping for key-recovery bookkeeping: attack-recovered
// bit t belongs to slot[t].gene at slot[t].bit_in_gene.
#pragma once

#include <cstddef>
#include <vector>

#include "locking/gene.hpp"
#include "locking/mux_lock.hpp"

namespace autolock::lock {

/// One key bit's position in a genotype: the gene that owns it and the
/// bit's index within that gene (always 0 for MUX/RLL genes; [0, n) = K1,
/// [n, 2n) = K2 for an Anti-SAT gene of width n).
struct KeyBitSlot {
  std::size_t gene = 0;
  GeneKind kind = GeneKind::kMux;
  std::size_t bit_in_gene = 0;

  friend bool operator==(const KeyBitSlot&, const KeyBitSlot&) = default;
};

/// The genotype's key-bit layout in key-input creation order: entry t maps
/// keyinput<t> (== attack-recovered bit t) back to its owning gene.
std::vector<KeyBitSlot> key_layout(const Genotype& genes);

}  // namespace autolock::lock
