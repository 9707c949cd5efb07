// Alternative black-box search heuristics over locking genotypes —
// the paper's research-plan item 5: "explore other techniques out of the
// evolutionary computation field to better understand what heuristics are
// more suitable for this form of automation."
//
// All three share the GA's genotype, the eval::EvalPipeline decode/repair
// path and fitness semantics (higher = better), so results are directly
// comparable at equal evaluation budgets (see campaign::heuristics_spec,
// run by `bench_campaign --spec heuristics`, where annealing is "anneal"):
//
//   RandomSearch     — i.i.d. random genotypes; the no-intelligence floor.
//   HillClimb        — first-improvement local search over single-gene moves.
//   SimulatedAnnealing — Metropolis acceptance with geometric cooling.
#pragma once

#include <cstdint>
#include <vector>

#include "core/ga.hpp"
#include "locking/mux_lock.hpp"

namespace autolock::eval {
class EvalPipeline;
}  // namespace autolock::eval

namespace autolock::ga {

struct HeuristicResult {
  Individual best;
  /// Best-so-far fitness after every evaluation (length = evaluations).
  std::vector<double> trajectory;
  std::size_t evaluations = 0;
};

struct RandomSearchConfig {
  std::size_t evaluations = 100;
  std::uint64_t seed = 7;
};

/// Draws `evaluations` independent random genotypes and keeps the best.
/// All heuristics evaluate through an eval::EvalPipeline (custom fitness
/// callbacks plug in as its fitness_override) and expect one built on the
/// same original netlist with caching disabled (every proposal counts as
/// one evaluation).
///
/// Like the GA and NSGA-II, every heuristic is scheme-polymorphic:
/// proposals are drawn by random_genotype(context, spec, rng) and moves are
/// dispatched per gene kind.
HeuristicResult random_search(eval::EvalPipeline& pipeline,
                              const lock::GenotypeSpec& spec,
                              const RandomSearchConfig& config);

struct HillClimbConfig {
  std::size_t evaluations = 100;
  /// Probability a mutation flips the key bit instead of re-siting.
  double key_flip_rate = 0.5;
  /// Restart from a fresh random genotype after this many consecutive
  /// non-improving moves (0 = never restart).
  std::size_t restart_after = 30;
  std::uint64_t seed = 7;
};

/// Stochastic first-improvement hill climbing with optional restarts.
HeuristicResult hill_climb(eval::EvalPipeline& pipeline,
                           const lock::GenotypeSpec& spec,
                           const HillClimbConfig& config);

struct AnnealingConfig {
  std::size_t evaluations = 100;
  double initial_temperature = 0.08;
  /// Geometric cooling factor applied per evaluation.
  double cooling = 0.97;
  double key_flip_rate = 0.5;
  std::uint64_t seed = 7;
};

/// Classic simulated annealing (Metropolis criterion on fitness delta).
HeuristicResult simulated_annealing(eval::EvalPipeline& pipeline,
                                    const lock::GenotypeSpec& spec,
                                    const AnnealingConfig& config);

}  // namespace autolock::ga
