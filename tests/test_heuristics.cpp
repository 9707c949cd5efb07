#include "core/heuristics.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

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

/// counting_ones that also appends every evaluated fitness to `seen`, in
/// evaluation order.
eval::EvalPipelineConfig recording_ones(std::uint64_t seed,
                                        std::vector<double>& seen) {
  eval::EvalPipelineConfig config = counting_ones(seed);
  config.fitness_override = [&seen](const lock::LockedDesign& design) {
    const Evaluation eval = count_ones(design);
    seen.push_back(eval.fitness);
    return eval;
  };
  return config;
}

using Heuristic = HeuristicResult (*)(eval::EvalPipeline&,
                                      const lock::GenotypeSpec&,
                                      const HeuristicConfig&);

/// Runs `search` on `original` and returns its result with every fitness
/// it evaluated.
std::pair<HeuristicResult, std::vector<double>> run_recorded(
    Heuristic search, const Netlist& original, std::size_t sites,
    const HeuristicConfig& config) {
  std::vector<double> seen;
  eval::EvalPipeline pipeline(original, recording_ones(config.seed, seen));
  HeuristicResult result = search(pipeline, {.mux_sites = sites}, config);
  return {std::move(result), std::move(seen)};
}

/// The budget is met exactly and `best` is the best fitness evaluated:
/// neither a restart nor an accepted downhill move may lose it.
void expect_budget_and_best(const HeuristicResult& result,
                            const std::vector<double>& seen,
                            std::size_t budget) {
  EXPECT_EQ(result.evaluations, budget);
  ASSERT_EQ(seen.size(), budget);
  EXPECT_EQ(result.best.eval.fitness, *std::ranges::max_element(seen));
}

TEST(RandomSearch, RespectsBudgetAndKeepsBest) {
  const Netlist original =
      netlist::gen::make_profile(netlist::gen::ProfileId::kC432, 1);
  const HeuristicConfig config{.evaluations = 30, .seed = 3};
  const auto [result, seen] = run_recorded(random_search, original, 12, config);
  expect_budget_and_best(result, seen, 30);
  EXPECT_EQ(result.best.genes.size(), 12u);
}

TEST(HillClimb, ImprovesOnSyntheticObjective) {
  const Netlist original =
      netlist::gen::make_profile(netlist::gen::ProfileId::kC432, 2);
  const HeuristicConfig config{.evaluations = 80, .seed = 5};
  const auto [result, seen] = run_recorded(hill_climb, original, 12, config);
  expect_budget_and_best(result, seen, 80);
  // Key-bit flipping is a perfect hill-climbing landscape: expect near-max.
  EXPECT_GT(result.best.eval.fitness, 0.8);
}

TEST(HillClimb, RestartsDoNotLoseBest) {
  // Ten key bits saturate the objective within the budget; 30 stale moves
  // later the climber restarts from a fresh random genotype, whose fitness
  // a single move from a saturated one (at most one key bit off) cannot
  // reach.
  const Netlist original =
      netlist::gen::make_profile(netlist::gen::ProfileId::kC432, 3);
  const HeuristicConfig config{.evaluations = 300, .seed = 7};
  const auto [result, seen] = run_recorded(hill_climb, original, 10, config);
  expect_budget_and_best(result, seen, 300);
  EXPECT_EQ(result.best.eval.fitness, 1.0);
  const auto saturated = std::ranges::find(seen, 1.0);
  const auto restart = std::find_if(
      saturated, seen.end(), [](double fitness) { return fitness < 0.85; });
  ASSERT_NE(restart, seen.end()) << "no restart after saturation";

  // The same run cut off at the restart's first evaluation (a budget only
  // shortens the run) still reports the saturated genotype.
  const HeuristicConfig cut{
      .evaluations = static_cast<std::size_t>(restart - seen.begin()) + 1,
      .seed = config.seed};
  const auto [cut_result, cut_seen] =
      run_recorded(hill_climb, original, 10, cut);
  expect_budget_and_best(cut_result, cut_seen, cut.evaluations);
  EXPECT_EQ(cut_result.best.eval.fitness, 1.0);
}

TEST(SimulatedAnnealing, ImprovesOnSyntheticObjective) {
  const Netlist original =
      netlist::gen::make_profile(netlist::gen::ProfileId::kC432, 4);
  const HeuristicConfig config{.evaluations = 80, .seed = 9};
  const auto [result, seen] =
      run_recorded(simulated_annealing, original, 12, config);
  expect_budget_and_best(result, seen, 80);
  EXPECT_GT(result.best.eval.fitness, seen.front());
}

TEST(Heuristics, DeterministicPerSeed) {
  const Netlist original =
      netlist::gen::make_profile(netlist::gen::ProfileId::kC432, 5);
  const HeuristicConfig config{.evaluations = 40, .seed = 11};
  for (const Heuristic search :
       {Heuristic{random_search}, Heuristic{hill_climb},
        Heuristic{simulated_annealing}}) {
    const auto [a, seen_a] = run_recorded(search, original, 8, config);
    const auto [b, seen_b] = run_recorded(search, original, 8, config);
    EXPECT_EQ(seen_a, seen_b);
    EXPECT_EQ(a.best.eval.fitness, b.best.eval.fitness);
    EXPECT_EQ(a.best.genes, b.best.genes);
  }
}

TEST(Heuristics, BestIsTheMaximumAtEveryBudget) {
  // A budget only shortens a run, so every cut-off point is checked: one
  // that falls right after an accepted downhill move (annealing) or a
  // restart (hill climbing) must still report the best fitness seen.
  const Netlist original =
      netlist::gen::make_profile(netlist::gen::ProfileId::kC432, 8);
  for (const Heuristic search :
       {Heuristic{random_search}, Heuristic{hill_climb},
        Heuristic{simulated_annealing}}) {
    for (std::size_t budget = 1; budget <= 40; ++budget) {
      const auto [result, seen] = run_recorded(
          search, original, 12, {.evaluations = budget, .seed = 21});
      expect_budget_and_best(result, seen, budget);
    }
  }
}

TEST(Heuristics, BestGenotypesDecodeAndVerify) {
  const Netlist original =
      netlist::gen::make_profile(netlist::gen::ProfileId::kC432, 6);
  HeuristicConfig rs_config;
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
  const HeuristicConfig rs_config{.evaluations = 50, .seed = 13};
  const HeuristicConfig hc_config = rs_config;
  eval::EvalPipeline rs_pipeline(original, counting_ones(rs_config.seed));
  eval::EvalPipeline hc_pipeline(original, counting_ones(hc_config.seed));
  const auto rs = random_search(rs_pipeline, {.mux_sites = 16}, rs_config);
  const auto hc = hill_climb(hc_pipeline, {.mux_sites = 16}, hc_config);
  EXPECT_GE(hc.best.eval.fitness + 0.1, rs.best.eval.fitness);
}

}  // namespace
}  // namespace autolock::ga
