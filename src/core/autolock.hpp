// AutoLock — the paper's top-level system (Fig. 1).
//
//   input:  original netlist (ON), key length (K)
//   output: locked netlist (LN) meeting the security objective
//
//   1. Lock ON with K random MUX pairs, N times -> initial GA population.
//   2. Evolve with selection / crossover / mutation; fitness of a genotype
//      is derived from the MuxLink attack accuracy against its decoded
//      locked netlist (lower accuracy = higher fitness).
//   3. Stop after a set number of generations or when the desired fitness
//      (target attack accuracy) is achieved.
//
// Extensions beyond the 2-page paper, per its research plan (§III):
//   - selectable fitness attack: GNN MuxLink, fast structural surrogate, or
//     the mean of both ("set of distinct attacks");
//   - optional corruption term in the fitness, guarding against the GA
//     converging to functionally-inert localities (wrong key = no error);
//   - parallel fitness evaluation.
//
// AutoLock is a thin driver: it translates its config into an
// eval::EvalPipeline (attacks constructed by registry name) and hands the
// pipeline to the GA. Decode/attack/score plumbing lives entirely in eval/.
#pragma once

#include <cstdint>
#include <optional>

#include "attacks/muxlink.hpp"
#include "attacks/structural.hpp"
#include "core/ga.hpp"
#include "eval/pipeline.hpp"
#include "locking/mux_lock.hpp"
#include "netlist/netlist.hpp"

namespace autolock {

enum class FitnessAttack {
  kMuxLinkGnn,   // the paper's choice
  kStructural,   // fast surrogate
  kBoth,         // mean of both accuracies
};

struct AutoLockConfig {
  ga::GaConfig ga;
  attack::MuxLinkConfig muxlink;
  attack::StructuralPredictorConfig structural;
  FitnessAttack fitness_attack = FitnessAttack::kMuxLinkGnn;
  /// Stop as soon as the best individual's attack accuracy drops to this
  /// value or below (translated into a GA fitness target).
  std::optional<double> target_accuracy;
  /// Weight of the wrong-key corruption term in the fitness (0 = paper
  /// behaviour: fitness is attack accuracy only).
  double corruption_weight = 0.0;
  /// Random vectors used for the corruption estimate (when weight > 0).
  std::size_t corruption_vectors = 256;
  /// Worker threads for population evaluation (0 = hardware concurrency,
  /// 1 = sequential).
  std::size_t threads = 0;
};

struct AutoLockReport {
  lock::LockedDesign locked;          // best locked design found
  double initial_best_accuracy = 1.0; // best (lowest) accuracy in gen 0
  double initial_mean_accuracy = 1.0; // mean accuracy of the initial random
                                      // D-MUX population (the "before" of
                                      // the paper's First Insights claim)
  double final_accuracy = 1.0;        // attack accuracy of the result
  double accuracy_drop = 0.0;         // initial_mean - final (pp / 100)
  std::vector<ga::GenerationStats> history;
  std::size_t evaluations = 0;
  bool reached_target = false;
  double seconds = 0.0;
};

class AutoLock {
 public:
  explicit AutoLock(AutoLockConfig config = {});

  /// Runs the full workflow on `original`, evolving genotypes of `spec`'s
  /// shape ({.mux_sites = K} is the paper's K-bit D-MUX).
  AutoLockReport run(const netlist::Netlist& original,
                     const lock::GenotypeSpec& spec);

  const AutoLockConfig& config() const noexcept { return config_; }

  /// The evaluation pipeline AutoLock wires into the GA (exposed so benches
  /// and the multi-objective driver can reuse identical semantics by
  /// constructing an eval::EvalPipeline from it).
  eval::EvalPipelineConfig pipeline_config() const;

  /// One-off evaluation of a decoded design with this config's fitness
  /// semantics (builds a temporary pipeline; use pipeline_config() for
  /// anything hot).
  ga::Evaluation evaluate(const lock::LockedDesign& design,
                          const netlist::Netlist& original) const;

 private:
  AutoLockConfig config_;
};

}  // namespace autolock
