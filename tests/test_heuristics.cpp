#include "core/heuristics.hpp"

#include <gtest/gtest.h>

#include "eval/pipeline.hpp"
#include "locking/verify.hpp"
#include "netlist/generator.hpp"

namespace autolock::ga {
namespace {

using netlist::Netlist;

/// Cheap synthetic fitness (same as test_ga): fraction of key bits set.
Evaluation count_ones(const lock::LockedDesign& design) {
  Evaluation eval;
  double ones = 0.0;
  for (const bool bit : design.key) ones += bit ? 1.0 : 0.0;
  eval.fitness = ones / static_cast<double>(design.key.size());
  eval.attack_accuracy = 1.0 - eval.fitness;
  return eval;
}

/// A pipeline scoring proposals with count_ones alone. Caching is off:
/// single-trajectory searches budget proposals, not unique genotypes.
eval::EvalPipelineConfig counting_ones(std::uint64_t seed) {
  eval::EvalPipelineConfig config;
  config.fitness_override = count_ones;
  config.seed = seed;
  config.cache = false;
  return config;
}

TEST(RandomSearch, RespectsBudgetAndTrajectoryMonotone) {
  const Netlist original =
      netlist::gen::make_profile(netlist::gen::ProfileId::kC432, 1);
  RandomSearchConfig config;
  config.evaluations = 30;
  config.seed = 3;
  eval::EvalPipeline pipeline(original, counting_ones(config.seed));
  const HeuristicResult result =
      random_search(pipeline, {.mux_sites = 12}, config);
  EXPECT_EQ(result.evaluations, 30u);
  EXPECT_EQ(result.trajectory.size(), 30u);
  for (std::size_t i = 1; i < result.trajectory.size(); ++i) {
    EXPECT_GE(result.trajectory[i], result.trajectory[i - 1]);
  }
  EXPECT_EQ(result.best.genes.size(), 12u);
}

TEST(HillClimb, ImprovesOnSyntheticObjective) {
  const Netlist original =
      netlist::gen::make_profile(netlist::gen::ProfileId::kC432, 2);
  HillClimbConfig config;
  config.evaluations = 80;
  config.seed = 5;
  eval::EvalPipeline pipeline(original, counting_ones(config.seed));
  const HeuristicResult result =
      hill_climb(pipeline, {.mux_sites = 12}, config);
  EXPECT_EQ(result.evaluations, 80u);
  // Key-bit flipping is a perfect hill-climbing landscape: expect near-max.
  EXPECT_GT(result.best.eval.fitness, 0.8);
  for (std::size_t i = 1; i < result.trajectory.size(); ++i) {
    EXPECT_GE(result.trajectory[i], result.trajectory[i - 1]);
  }
}

TEST(HillClimb, RestartsDoNotLoseBest) {
  const Netlist original =
      netlist::gen::make_profile(netlist::gen::ProfileId::kC432, 3);
  HillClimbConfig config;
  config.evaluations = 60;
  config.restart_after = 5;  // frequent restarts
  config.seed = 7;
  eval::EvalPipeline pipeline(original, counting_ones(config.seed));
  const HeuristicResult result =
      hill_climb(pipeline, {.mux_sites = 10}, config);
  EXPECT_DOUBLE_EQ(result.trajectory.back(), result.best.eval.fitness);
}

TEST(SimulatedAnnealing, ImprovesOnSyntheticObjective) {
  const Netlist original =
      netlist::gen::make_profile(netlist::gen::ProfileId::kC432, 4);
  AnnealingConfig config;
  config.evaluations = 80;
  config.seed = 9;
  eval::EvalPipeline pipeline(original, counting_ones(config.seed));
  const HeuristicResult result =
      simulated_annealing(pipeline, {.mux_sites = 12}, config);
  EXPECT_EQ(result.evaluations, 80u);
  EXPECT_GT(result.best.eval.fitness, result.trajectory.front());
}

TEST(SimulatedAnnealing, DeterministicPerSeed) {
  const Netlist original =
      netlist::gen::make_profile(netlist::gen::ProfileId::kC432, 5);
  AnnealingConfig config;
  config.evaluations = 40;
  config.seed = 11;
  eval::EvalPipeline pipeline_a(original, counting_ones(config.seed));
  eval::EvalPipeline pipeline_b(original, counting_ones(config.seed));
  const auto a = simulated_annealing(pipeline_a, {.mux_sites = 8}, config);
  const auto b = simulated_annealing(pipeline_b, {.mux_sites = 8}, config);
  EXPECT_EQ(a.best.eval.fitness, b.best.eval.fitness);
  EXPECT_EQ(a.trajectory, b.trajectory);
}

TEST(Heuristics, BestGenotypesDecodeAndVerify) {
  const Netlist original =
      netlist::gen::make_profile(netlist::gen::ProfileId::kC432, 6);
  RandomSearchConfig rs_config;
  rs_config.evaluations = 10;
  eval::EvalPipeline pipeline(original, counting_ones(rs_config.seed));
  const auto rs = random_search(pipeline, {.mux_sites = 8}, rs_config);
  const auto design = pipeline.decode(rs.best.genes);
  EXPECT_TRUE(lock::verify_unlocks(design, original));
}

TEST(Heuristics, HillClimbBeatsRandomOnLocalStructure) {
  // With a smooth objective and a tight budget, the local searcher should
  // (weakly) dominate blind sampling.
  const Netlist original =
      netlist::gen::make_profile(netlist::gen::ProfileId::kC432, 7);
  RandomSearchConfig rs_config;
  rs_config.evaluations = 50;
  rs_config.seed = 13;
  HillClimbConfig hc_config;
  hc_config.evaluations = 50;
  hc_config.seed = 13;
  eval::EvalPipeline rs_pipeline(original, counting_ones(rs_config.seed));
  eval::EvalPipeline hc_pipeline(original, counting_ones(hc_config.seed));
  const auto rs = random_search(rs_pipeline, {.mux_sites = 16}, rs_config);
  const auto hc = hill_climb(hc_pipeline, {.mux_sites = 16}, hc_config);
  EXPECT_GE(hc.best.eval.fitness + 0.1, rs.best.eval.fitness);
}

}  // namespace
}  // namespace autolock::ga
