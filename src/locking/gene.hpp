// Scheme-polymorphic genotype genes.
//
// A Gene is one flat POD-friendly record that encodes either
//
//   kMux     — a D-MUX locality {f_i, f_j, g_i, g_j, k} (the paper's
//              genotype element): f_i drives g_i and f_j drives g_j in the
//              original netlist, and a key-controlled MUX pair swaps the two
//              paths under a wrong key. 1 key bit.
//   kRll     — an EPIC-style XOR/XNOR key gate on one wire (f_i = driver,
//              g_i = sink gate, key_bit selects XNOR vs XOR): 1 key bit.
//   kAntiSat — an Anti-SAT block (Xie & Srivastava): width n, 2n key bits,
//              with the tap/key/splice choices derived from `seed` so the
//              gene stays a few words instead of carrying node lists.
//
// A Genotype is a plain std::vector<Gene>; decoding a genotype walks the
// genes in order and assigns key bits in gene order (see
// locking/compound.hpp for the exact key-bit layout). All ids refer to the
// ORIGINAL netlist, which keeps genes composable across crossover: decoding
// always starts from the same original netlist.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "netlist/decode_delta.hpp"
#include "netlist/types.hpp"

namespace autolock::lock {

enum class GeneKind : std::uint8_t {
  kMux,
  kRll,
  kAntiSat,
};

struct Gene {
  GeneKind kind = GeneKind::kMux;
  /// MUX: the key value that restores the original paths. RLL: true =
  /// XNOR key gate (key value 1), false = XOR (key value 0). Anti-SAT:
  /// unused.
  bool key_bit = false;
  /// Anti-SAT only: splice the block at a primary output (guaranteed
  /// observable) instead of a random internal wire.
  bool splice_output = true;
  /// Anti-SAT only: block width n (the gene contributes 2n key bits).
  std::uint16_t width = 0;
  /// MUX: the locality's drivers/gates. RLL: f_i = wire driver, g_i = sink
  /// gate (f_j/g_j unused).
  netlist::NodeId f_i = netlist::kNoNode;
  netlist::NodeId f_j = netlist::kNoNode;
  netlist::NodeId g_i = netlist::kNoNode;
  netlist::NodeId g_j = netlist::kNoNode;
  /// Anti-SAT only: seeds the gene-local RNG stream that draws the input
  /// taps, the correct key values, and the splice location.
  std::uint64_t seed = 0;

  /// A MUX gene for the locality {f_i, f_j, g_i, g_j, key_bit}. Every
  /// other field keeps its default, which FitnessCache hashes and compares
  /// like any other.
  static Gene mux(netlist::NodeId f_i, netlist::NodeId f_j,
                  netlist::NodeId g_i, netlist::NodeId g_j,
                  bool key_bit) noexcept {
    Gene gene;
    gene.kind = GeneKind::kMux;
    gene.key_bit = key_bit;
    gene.f_i = f_i;
    gene.f_j = f_j;
    gene.g_i = g_i;
    gene.g_j = g_j;
    return gene;
  }

  static Gene rll(netlist::NodeId driver, netlist::NodeId sink,
                  bool key_value) noexcept {
    Gene gene;
    gene.kind = GeneKind::kRll;
    gene.key_bit = key_value;
    gene.f_i = driver;
    gene.g_i = sink;
    return gene;
  }

  static Gene antisat(std::size_t block_width, std::uint64_t block_seed,
                      bool splice_at_output = true) noexcept {
    Gene gene;
    gene.kind = GeneKind::kAntiSat;
    gene.width = static_cast<std::uint16_t>(block_width);
    gene.seed = block_seed;
    gene.splice_output = splice_at_output;
    return gene;
  }

  /// Key bits this gene contributes to the decoded design.
  std::size_t key_bits() const noexcept {
    return kind == GeneKind::kAntiSat ? 2 * static_cast<std::size_t>(width)
                                      : 1;
  }

  friend bool operator==(const Gene&, const Gene&) = default;
};

/// The scheme-polymorphic genotype. A plain alias (not a wrapper type):
/// the POD-vector layout is what FitnessCache hashes.
using Genotype = std::vector<Gene>;

/// Per-gene decode record: where the gene's nodes landed in the locked
/// netlist and which original edge (or output port) its splice displaced.
/// Written by the forward decode; after it, only lock::replay_records
/// reads the records, checking them against the design and turning them
/// into a DecodeDelta.
struct AppliedGene {
  GeneKind kind = GeneKind::kMux;
  std::uint16_t width = 0;
  bool splice_output = true;
  /// First key-bit index owned by this gene (bits are assigned in gene
  /// order).
  std::uint32_t key_offset = 0;
  /// First appended node id; the gene owns `node_count` consecutive ids.
  netlist::NodeId first_node = netlist::kNoNode;
  std::uint32_t node_count = 0;
  /// RLL / anti-SAT: the displaced driver of the spliced wire or port.
  netlist::NodeId driver = netlist::kNoNode;
  /// RLL / internal anti-SAT: the gate whose fanin was rewired.
  netlist::NodeId sink = netlist::kNoNode;
  /// Output-spliced anti-SAT: the redirected output port index.
  std::uint32_t port = 0;

  friend bool operator==(const AppliedGene&, const AppliedGene&) = default;
};

/// What a decode changed on its original (netlist/decode_delta.hpp);
/// lock::replay_records fills it from the records.
using DecodeDelta = netlist::DecodeDelta;

/// Shape of a randomly drawn genotype: how many genes of each scheme
/// random_genotype(context, spec, rng) emits (MUX sites first, then RLL
/// gates, then one anti-SAT block — the decode key layout follows gene
/// order).
struct GenotypeSpec {
  std::size_t mux_sites = 0;
  std::size_t rll_gates = 0;
  /// 0 = no anti-SAT gene; otherwise the block width n (2n key bits).
  std::size_t antisat_width = 0;
  bool antisat_splice_output = true;

  std::size_t key_bits() const noexcept {
    return mux_sites + rll_gates + 2 * antisat_width;
  }
};

}  // namespace autolock::lock
