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
//   HillClimb        — first-improvement local search over single-gene
//                      moves, restarting from a fresh random genotype after
//                      30 consecutive non-improving moves.
//   SimulatedAnnealing — Metropolis acceptance, temperature 0.08 cooled
//                      geometrically by 0.97 per evaluation.
//
// Each takes only an evaluation budget and a seed; the schedule constants
// above are fixed in heuristics.cpp.
#pragma once

#include <cstdint>

#include "core/ga.hpp"
#include "locking/mux_lock.hpp"

namespace autolock::eval {
class EvalPipeline;
}  // namespace autolock::eval

namespace autolock::ga {

struct HeuristicResult {
  Individual best;
  std::size_t evaluations = 0;
};

struct HeuristicConfig {
  std::size_t evaluations = 100;
  std::uint64_t seed = 7;
};

/// Earlier per-heuristic names, still spelled by perfbench/stages.cpp.
using RandomSearchConfig = HeuristicConfig;
using HillClimbConfig = HeuristicConfig;

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
                              const HeuristicConfig& config);

/// Stochastic first-improvement hill climbing with restarts.
HeuristicResult hill_climb(eval::EvalPipeline& pipeline,
                           const lock::GenotypeSpec& spec,
                           const HeuristicConfig& config);

/// Classic simulated annealing (Metropolis criterion on fitness delta).
HeuristicResult simulated_annealing(eval::EvalPipeline& pipeline,
                                    const lock::GenotypeSpec& spec,
                                    const HeuristicConfig& config);

}  // namespace autolock::ga
