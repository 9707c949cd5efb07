// Structural link predictor — a fast, hand-featured surrogate for MuxLink.
//
// Logistic regression over classic link-prediction features (common
// neighbours, Jaccard, Adamic-Adar, degrees, preferential attachment, gate
// type compatibility). Roughly two orders of magnitude cheaper than the GNN,
// which makes it useful as (a) an inner-loop fitness proxy for large GA runs
// and (b) an independent second attack vector for multi-objective search
// (the paper's research-plan item 3).
//
// It trains on MuxLink's self-supervised link set and decides key bits
// through MuxLink's decision frame (sample_training_links / decide_key_bits
// in muxlink.hpp), so it emits the same MuxLinkResult, scored by the same
// eval::link_report, and only its own seed salt, pair features and model
// differ.
#pragma once

#include <array>
#include <cstdint>

#include "attacks/attack_graph.hpp"
#include "attacks/muxlink.hpp"
#include "netlist/netlist.hpp"

namespace autolock::attack {

/// The model's step size (0.1), L2 weight decay (1e-4) and decision
/// threshold (0.05) are fixed in structural.cpp.
struct StructuralPredictorConfig {
  std::size_t epochs = 40;
  std::size_t max_train_links = 4000;
  std::uint64_t seed = 0x57A7ULL;
};

class StructuralLinkPredictor {
 public:
  explicit StructuralLinkPredictor(StructuralPredictorConfig config = {});

  MuxLinkResult attack(const netlist::Netlist& locked) const;

  /// Attacks a decoded design through `scratch`, whose attacker view of it
  /// is patched from the view of its original when it can be
  /// (AttackScratch::view); bit-identical to attack(design.netlist).
  MuxLinkResult attack(const lock::LockedDesign& design,
                       AttackScratch& scratch) const;

  /// Number of features per candidate pair (exposed for tests).
  static constexpr std::size_t kPairFeatureDim = 10;

  /// One training sample: a candidate pair's features and its label.
  struct Sample {
    std::array<double, kPairFeatureDim> x;
    double y;
  };

 private:
  /// The attack on the view already in `scratch.graph`.
  MuxLinkResult attack_view(AttackScratch& scratch) const;

  StructuralPredictorConfig config_;
};

}  // namespace autolock::attack
