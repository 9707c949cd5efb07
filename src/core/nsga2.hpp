// NSGA-II multi-objective optimizer over locking genotypes — the research
// plan's "multi-objective optimization that includes a set of distinct
// attacks" (paper §III, item 3).
//
// Implements the standard algorithm: fast non-dominated sorting, crowding
// distance, binary tournament on (rank, crowding), elitist (mu + lambda)
// environmental selection. Variation operators are shared with the
// single-objective GA. All objectives are MINIMIZED; callers typically use
//   { MuxLink accuracy, structural-attack accuracy, 1 - corruption }.
//
// Like the GA, NSGA-II only searches: eval::EvalPipeline decodes and scores
// every genotype (custom objectives plug in as its objectives_override),
// and callers decode front members with EvalPipeline::decode.
#pragma once

#include <cstdint>
#include <vector>

#include "core/ga.hpp"
#include "locking/mux_lock.hpp"
#include "netlist/netlist.hpp"

namespace autolock::eval {
class EvalPipeline;
}  // namespace autolock::eval

namespace autolock::ga {

struct MoIndividual {
  Genotype genes;
  std::vector<double> objectives;
  std::size_t rank = 0;          // 0 = first (non-dominated) front
  double crowding = 0.0;
};

struct Nsga2Config {
  std::size_t population = 24;
  std::size_t generations = 10;
  CrossoverOp crossover = CrossoverOp::kOnePoint;
  double crossover_rate = 0.9;
  double mutation_rate = 0.08;
  double key_flip_rate = 0.5;
  std::uint64_t seed = 1337;
};

struct Nsga2Result {
  /// Final first (non-dominated) front.
  std::vector<MoIndividual> front;
  std::size_t evaluations = 0;
  /// Size of the first front after every generation.
  std::vector<std::size_t> front_size_history;
};

class Nsga2 {
 public:
  Nsga2(const netlist::Netlist& original, Nsga2Config config);

  /// Runs NSGA-II with all evaluation through `pipeline` (built on the same
  /// original netlist); the objective count is pipeline.num_objectives().
  /// Seeds from random genotypes of `spec`'s shape; operators dispatch per
  /// gene kind via core/gene_ops.hpp.
  Nsga2Result run(const lock::GenotypeSpec& spec, eval::EvalPipeline& pipeline);

  /// True iff `a` Pareto-dominates `b` (<= everywhere, < somewhere).
  static bool dominates(const std::vector<double>& a,
                        const std::vector<double>& b);

  /// Fast non-dominated sort; returns fronts as index lists and fills ranks.
  static std::vector<std::vector<std::size_t>> non_dominated_sort(
      std::vector<MoIndividual>& population);

  /// Crowding distance within one front (fills the individuals' fields).
  static void assign_crowding(std::vector<MoIndividual>& population,
                              const std::vector<std::size_t>& front);

 private:
  const netlist::Netlist* original_;
  Nsga2Config config_;
};

}  // namespace autolock::ga
