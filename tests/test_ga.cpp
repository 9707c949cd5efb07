#include "core/ga.hpp"

#include <gtest/gtest.h>

#include "eval/pipeline.hpp"
#include "locking/verify.hpp"
#include "netlist/generator.hpp"

namespace autolock::ga {
namespace {

using netlist::Netlist;

/// Cheap synthetic fitness: reward key bits set to 1 (pure genotype
/// property, no attack) — lets GA mechanics be tested quickly.
Evaluation count_ones_fitness(const lock::LockedDesign& design) {
  Evaluation eval;
  double ones = 0.0;
  for (bool bit : design.key) ones += bit ? 1.0 : 0.0;
  eval.fitness = ones / static_cast<double>(design.key.size());
  eval.attack_accuracy = 1.0 - eval.fitness;
  return eval;
}

/// The pipeline a GA run on count_ones_fitness evaluates through: the
/// synthetic fitness replaces the attack list, repair draws from the GA's
/// seed, and `pool` (when given) fans population batches out.
eval::EvalPipelineConfig counting_ones(std::uint64_t seed,
                                       util::ThreadPool* pool = nullptr) {
  eval::EvalPipelineConfig config;
  config.fitness_override = count_ones_fitness;
  config.seed = seed;
  config.pool = pool;
  return config;
}

/// Runs `engine` on count_ones_fitness through a single-use pipeline.
GaResult evolve_ones(GeneticAlgorithm& engine, const Netlist& original,
                     const lock::GenotypeSpec& spec,
                     util::ThreadPool* pool = nullptr) {
  eval::EvalPipeline pipeline(original,
                              counting_ones(engine.config().seed, pool));
  return engine.run(spec, pipeline);
}

GaConfig small_config(std::uint64_t seed) {
  GaConfig config;
  config.population = 10;
  config.generations = 8;
  config.elites = 2;
  config.seed = seed;
  return config;
}

TEST(Ga, ConfigValidation) {
  const Netlist original =
      netlist::gen::make_profile(netlist::gen::ProfileId::kC432, 1);
  GaConfig config;
  config.population = 1;
  EXPECT_THROW(GeneticAlgorithm(original, config), std::invalid_argument);
  config.population = 4;
  config.elites = 4;
  EXPECT_THROW(GeneticAlgorithm(original, config), std::invalid_argument);
  config.elites = 1;
  config.tournament_size = 0;
  EXPECT_THROW(GeneticAlgorithm(original, config), std::invalid_argument);
}

TEST(Ga, ImprovesSyntheticFitness) {
  const Netlist original =
      netlist::gen::make_profile(netlist::gen::ProfileId::kC432, 2);
  GeneticAlgorithm engine(original, small_config(7));
  const GaResult result = evolve_ones(engine, original, {.mux_sites = 16});
  ASSERT_FALSE(result.history.empty());
  // Key-bit flipping is trivially learnable: final best must beat initial.
  EXPECT_GT(result.history.back().best_fitness,
            result.history.front().best_fitness);
  EXPECT_GT(result.best.eval.fitness, 0.7);
}

TEST(Ga, ElitismMakesBestFitnessMonotone) {
  const Netlist original =
      netlist::gen::make_profile(netlist::gen::ProfileId::kC432, 3);
  GeneticAlgorithm engine(original, small_config(11));
  const GaResult result = evolve_ones(engine, original, {.mux_sites = 12});
  for (std::size_t g = 1; g < result.history.size(); ++g) {
    EXPECT_GE(result.history[g].best_fitness,
              result.history[g - 1].best_fitness - 1e-12);
  }
}

TEST(Ga, DeterministicForSameSeed) {
  const Netlist original =
      netlist::gen::make_profile(netlist::gen::ProfileId::kC432, 4);
  GeneticAlgorithm a(original, small_config(13));
  GeneticAlgorithm b(original, small_config(13));
  const GaResult ra = evolve_ones(a, original, {.mux_sites = 8});
  const GaResult rb = evolve_ones(b, original, {.mux_sites = 8});
  EXPECT_EQ(ra.best.eval.fitness, rb.best.eval.fitness);
  ASSERT_EQ(ra.best.genes.size(), rb.best.genes.size());
  for (std::size_t i = 0; i < ra.best.genes.size(); ++i) {
    EXPECT_EQ(ra.best.genes[i], rb.best.genes[i]);
  }
}

TEST(Ga, FitnessTargetStopsEarly) {
  const Netlist original =
      netlist::gen::make_profile(netlist::gen::ProfileId::kC432, 5);
  GaConfig config = small_config(17);
  config.generations = 50;
  config.fitness_target = 0.6;
  GeneticAlgorithm engine(original, config);
  const GaResult result = evolve_ones(engine, original, {.mux_sites = 10});
  EXPECT_TRUE(result.reached_target);
  EXPECT_LT(result.history.size(), 51u);
  EXPECT_GE(result.best.eval.fitness, 0.6);
}

TEST(Ga, CacheAvoidsReevaluatingElites) {
  const Netlist original =
      netlist::gen::make_profile(netlist::gen::ProfileId::kC432, 6);
  GeneticAlgorithm engine(original, small_config(19));
  const GaResult result = evolve_ones(engine, original, {.mux_sites = 8});
  std::size_t hits = 0;
  for (const auto& stats : result.history) hits += stats.cache_hits;
  EXPECT_GT(hits, 0u);
  // Evaluations strictly fewer than population * (generations + 1).
  EXPECT_LT(result.evaluations, 10u * 9u);
}

TEST(Ga, BestGenotypeDecodesToVerifiedLocking) {
  const Netlist original =
      netlist::gen::make_profile(netlist::gen::ProfileId::kC432, 7);
  GeneticAlgorithm engine(original, small_config(23));
  eval::EvalPipeline pipeline(original, counting_ones(23));
  const GaResult result = engine.run({.mux_sites = 12}, pipeline);
  const lock::LockedDesign design = pipeline.decode(result.best.genes);
  EXPECT_EQ(design.key.size(), 12u);
  EXPECT_TRUE(lock::verify_unlocks(design, original));
}

TEST(Ga, RouletteSelectionAlsoImproves) {
  const Netlist original =
      netlist::gen::make_profile(netlist::gen::ProfileId::kC432, 8);
  GaConfig config = small_config(29);
  config.selection = SelectionOp::kRoulette;
  GeneticAlgorithm engine(original, config);
  const GaResult result = evolve_ones(engine, original, {.mux_sites = 12});
  EXPECT_GE(result.history.back().best_fitness,
            result.history.front().best_fitness);
}

TEST(Ga, UniformCrossoverAlsoImproves) {
  const Netlist original =
      netlist::gen::make_profile(netlist::gen::ProfileId::kC432, 9);
  GaConfig config = small_config(31);
  config.crossover = CrossoverOp::kUniform;
  GeneticAlgorithm engine(original, config);
  const GaResult result = evolve_ones(engine, original, {.mux_sites = 12});
  EXPECT_GE(result.history.back().best_fitness,
            result.history.front().best_fitness);
}

TEST(Ga, ParallelEvaluationMatchesSequentialBest) {
  const Netlist original =
      netlist::gen::make_profile(netlist::gen::ProfileId::kC432, 10);
  GeneticAlgorithm a(original, small_config(37));
  GeneticAlgorithm b(original, small_config(37));
  util::ThreadPool pool(3);
  const GaResult seq = evolve_ones(a, original, {.mux_sites = 8});
  const GaResult par = evolve_ones(b, original, {.mux_sites = 8}, &pool);
  // The evolution path is identical (same seeds, same deterministic
  // fitness), so results must agree.
  EXPECT_EQ(seq.best.eval.fitness, par.best.eval.fitness);
}

TEST(Ga, HistoryRecordsEveryGeneration) {
  const Netlist original =
      netlist::gen::make_profile(netlist::gen::ProfileId::kC432, 11);
  GaConfig config = small_config(41);
  config.generations = 5;
  GeneticAlgorithm engine(original, config);
  const GaResult result = evolve_ones(engine, original, {.mux_sites = 8});
  EXPECT_EQ(result.history.size(), 6u);  // gen 0 + 5
  for (std::size_t g = 0; g < result.history.size(); ++g) {
    EXPECT_EQ(result.history[g].generation, g);
    EXPECT_LE(result.history[g].worst_fitness,
              result.history[g].mean_fitness + 1e-12);
    EXPECT_LE(result.history[g].mean_fitness,
              result.history[g].best_fitness + 1e-12);
    // count_ones_fitness scores accuracy = 1 - fitness per individual, so
    // the mean accuracy mirrors the mean fitness.
    EXPECT_NEAR(result.history[g].mean_accuracy,
                1.0 - result.history[g].mean_fitness, 1e-12);
  }
}

}  // namespace
}  // namespace autolock::ga
