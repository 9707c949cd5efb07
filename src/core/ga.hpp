// Genetic algorithm over locking genotypes — the paper's optimization
// engine.
//
// The genotype generalizes the paper's: a list of tagged genes
// (locking/gene.hpp) — the paper's MUX localities {f_i, f_j, g_i, g_j, k},
// plus optional RLL and Anti-SAT genes for compound locking. Decoding
// (apply_genotype) produces the locked netlist; the fitness function runs
// an attack on it ("the fitness of each genotype is measured by MuxLink
// accuracy, where lower accuracy indicates higher fitness"). A MUX-only
// spec ({.mux_sites = K}) is the paper's D-MUX genotype.
//
// Operators (paper §II: selection, crossover, mutation):
//   selection: tournament or roulette-wheel
//   crossover: one-point or uniform over the gene list
//   mutation:  per-gene, dispatched on the gene kind by core/gene_ops.hpp —
//              flip the key bit (cheap local move) or re-sample the gene
//              (exploration); invalid offspring genes are repaired at
//              decode time and written back.
// Elitism preserves the best individuals.
//
// Evaluation (genotype decode, attack scoring, the collision-safe fitness
// cache that skips elites and duplicate offspring, and thread-pool fan-out)
// lives in eval::EvalPipeline — the GA only runs the evolutionary loop and
// samples genotypes from the pipeline's SiteContext. Custom fitness
// callbacks plug into the pipeline (EvalPipelineConfig::fitness_override),
// and callers decode a returned genotype with EvalPipeline::decode.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "locking/mux_lock.hpp"
#include "netlist/netlist.hpp"
#include "util/rng.hpp"

namespace autolock::eval {
class EvalPipeline;
}  // namespace autolock::eval

namespace autolock::ga {

using Genotype = lock::Genotype;

enum class SelectionOp { kTournament, kRoulette };
enum class CrossoverOp { kOnePoint, kUniform };

struct GaConfig {
  std::size_t population = 16;   // N in the paper's Fig. 1
  std::size_t generations = 10;
  std::size_t elites = 2;
  SelectionOp selection = SelectionOp::kTournament;
  std::size_t tournament_size = 3;
  CrossoverOp crossover = CrossoverOp::kOnePoint;
  double crossover_rate = 0.9;
  /// Per-gene mutation probability.
  double mutation_rate = 0.08;
  /// Within a mutation: probability of flipping the key bit (otherwise the
  /// entire site is re-sampled).
  double key_flip_rate = 0.5;
  /// Early stop once best fitness reaches this value (nullopt = disabled).
  std::optional<double> fitness_target;
  std::uint64_t seed = 42;
};

/// Result of evaluating one individual. `fitness` is maximized by the GA;
/// the remaining fields are carried for reporting.
struct Evaluation {
  double fitness = 0.0;
  double attack_accuracy = 1.0;  // raw attack accuracy on this individual
  double attack_precision = 0.0;
  double corruption = 0.0;       // wrong-key output error rate (if measured)
};

struct Individual {
  Genotype genes;
  Evaluation eval;
};

struct GenerationStats {
  std::size_t generation = 0;
  double best_fitness = 0.0;
  double mean_fitness = 0.0;
  double worst_fitness = 0.0;
  double best_accuracy = 1.0;  // attack accuracy of the best individual
  double mean_accuracy = 1.0;  // mean attack accuracy of the population
  std::size_t cache_hits = 0;
};

struct GaResult {
  Individual best;
  std::vector<GenerationStats> history;
  std::size_t evaluations = 0;  // fitness function invocations (cache misses)
  bool reached_target = false;
};

class GeneticAlgorithm {
 public:
  /// `original` must outlive the GA.
  GeneticAlgorithm(const netlist::Netlist& original, GaConfig config);

  /// Runs the full loop of the paper's Fig. 1: N random lockings of
  /// `spec`'s shape (MUX + RLL + Anti-SAT genes; {.mux_sites = K} is the
  /// paper's D-MUX) seed the population, and every operator dispatches per
  /// gene kind; evolve for `generations` or until the fitness target. All
  /// evaluation goes through `pipeline`, which must have been built on the
  /// same original netlist.
  GaResult run(const lock::GenotypeSpec& spec, eval::EvalPipeline& pipeline);

  const GaConfig& config() const noexcept { return config_; }

 private:
  Genotype select_parent(const std::vector<Individual>& population,
                         util::Rng& rng) const;
  const netlist::Netlist* original_;
  GaConfig config_;
};

}  // namespace autolock::ga
