// MuxLink — GNN-based link-prediction attack on MUX locking (re-implemented
// from the DATE'22 paper's description, with the from-scratch GNN of
// attacks/gnn.hpp in place of the authors' DGCNN).
//
// Pipeline (self-supervised — no oracle, no second netlist needed):
//   1. Build the attacker graph (key MUXes and key inputs removed).
//   2. Train a link predictor on the locked design's own wires: existing
//      wires are positives, random non-adjacent pairs are negatives; each
//      sample is an enclosing subgraph with DRNL + gate-type features.
//   3. For every key bit, score the candidate links implied by key=0 vs
//      key=1 and pick the likelier side. The margin between the two sides
//      gives a confidence; bits below a threshold can be left undecided.
//
// eval::link_report scores a result with the literature's metrics:
// *accuracy* (all bits, forced decision) is what the AutoLock paper uses as
// the GA fitness signal; *precision* is the correctness among
// confidently-decided bits.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "attacks/attack_graph.hpp"
#include "attacks/features.hpp"
#include "attacks/gnn.hpp"
#include "locking/mux_lock.hpp"
#include "netlist/netlist.hpp"
#include "util/rng.hpp"

namespace autolock::attack {

struct MuxLinkConfig {
  SubgraphConfig subgraph;
  GnnConfig gnn;
  std::size_t epochs = 18;
  /// Cap on positive training links (negatives are matched 1:1).
  std::size_t max_train_links = 1000;
  /// Minimum probability margin between the two key-value hypotheses for a
  /// bit to count as "decided" in the thresholded (precision) metric.
  double decision_threshold = 0.05;
  /// Number of independently-initialized GNNs trained per attack; candidate
  /// probabilities are averaged across them before deciding. >1 trades
  /// training time for decision variance (use for final evaluations, keep
  /// at 1 inside GA fitness loops).
  std::size_t ensemble = 1;
  /// Seeds link sampling and GNN initialization. The registry's "muxlink"
  /// at option seed 0 (eval::AttackOptions::seed) is exactly a default
  /// MuxLinkAttack(), so re-attacking a design evolved against that
  /// fitness with a default MuxLinkAttack() replays the in-loop score: a
  /// held-out re-attack must change this seed or the preset.
  std::uint64_t seed = 0xA77AC4ULL;
};

struct MuxLinkResult {
  /// Forced 0/1 decision per key bit (indexed by key bit).
  std::vector<int> predicted_bits;
  /// Probability margin |p(key=0 side) - p(key=1 side)| per bit.
  std::vector<double> margins;
  /// Thresholded decision per bit: 0, 1, or -1 (undecided).
  std::vector<int> thresholded_bits;
  /// 1 iff the attack formed a key-MUX hypothesis for this bit. Key bits
  /// driven by non-MUX key gates (RLL XOR/XNOR, anti-SAT blocks) have no
  /// MUX link problem and stay 0; eval::link_report credits them as coin
  /// flips instead of letting the forced-0 default score on zero bits.
  std::vector<char> bit_attacked;
  double first_epoch_loss = 0.0;
  double last_epoch_loss = 0.0;
  std::size_t train_samples = 0;
};

struct AttackScratch;

class MuxLinkAttack {
 public:
  explicit MuxLinkAttack(MuxLinkConfig config = {});

  /// Runs the attack on a locked netlist (attacker knowledge only).
  MuxLinkResult attack(const netlist::Netlist& locked) const;

  /// Attacks a decoded design through `scratch`, whose attacker view of it
  /// is patched from the view of its original when it can be
  /// (AttackScratch::view); bit-identical to attack(design.netlist).
  MuxLinkResult attack(const lock::LockedDesign& design,
                       AttackScratch& scratch) const;

 private:
  /// The attack on the view already in `scratch.graph`.
  MuxLinkResult attack_view(AttackScratch& scratch) const;

  MuxLinkConfig config_;
};

// ---- the link-prediction frame MuxLink shares with the structural attack --
// Both attacks train on the same kind of self-supervised link set and turn
// link probabilities into key bits the same way; each keeps only its own
// seed salt, its features and its model.

/// Fills `scratch.positives` and `scratch.negatives` from the graph in
/// `scratch.graph` (drivers and sinks drawn from its present_nodes() and
/// present_sinks()). Positives are the design's own wires, shuffled down to
/// `max_positives` when there are more; as many negatives follow,
/// alternately a hard one (a false driver 2..3 hops from a random sink)
/// and a uniform non-link. Returns false (after drawing only the positives'
/// shuffle) when the graph has fewer than 4 present nodes or no present
/// sink.
bool sample_training_links(std::size_t max_positives, util::Rng& rng,
                           AttackScratch& scratch);

/// Decides every key bit of `graph`: each side of a bit (key = 0 or 1)
/// scores the mean of `prob` over its candidate links (0.5 for none), the
/// likelier side is the forced decision, and the margin between the sides
/// keeps that decision in the thresholded bits when it reaches `threshold`.
/// Sizes the per-bit vectors of `result` to the highest key bit with a
/// problem and marks exactly the bits with one as attacked.
void decide_key_bits(const AttackGraph& graph, double threshold,
                     const std::function<double(const CandidateLink&)>& prob,
                     MuxLinkResult& result);

}  // namespace autolock::attack
