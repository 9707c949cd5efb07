#include "core/nsga2.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "eval/pipeline.hpp"
#include "netlist/generator.hpp"

namespace autolock::ga {
namespace {

using netlist::Netlist;

/// A pipeline scoring genotypes with `fitness` alone: no attacks, repair
/// drawn from `seed`, and no cache, so duplicate offspring re-run the
/// callback.
eval::EvalPipelineConfig objectives(const eval::MultiFitnessFn& fitness,
                                    std::size_t arity, std::uint64_t seed) {
  eval::EvalPipelineConfig config;
  config.objectives_override = fitness;
  config.objectives_override_arity = arity;
  config.seed = seed;
  config.cache = false;
  return config;
}

TEST(Nsga2Static, DominatesBasic) {
  EXPECT_TRUE(Nsga2::dominates({0.0, 0.0}, {1.0, 1.0}));
  EXPECT_TRUE(Nsga2::dominates({0.0, 1.0}, {1.0, 1.0}));
  EXPECT_FALSE(Nsga2::dominates({1.0, 1.0}, {1.0, 1.0}));  // equal
  EXPECT_FALSE(Nsga2::dominates({0.0, 2.0}, {1.0, 1.0}));  // trade-off
  EXPECT_FALSE(Nsga2::dominates({2.0, 0.0}, {1.0, 1.0}));
}

TEST(Nsga2Static, NonDominatedSortRanksCorrectly) {
  std::vector<MoIndividual> population(5);
  population[0].objectives = {0.0, 0.0};  // dominates everything
  population[1].objectives = {1.0, 2.0};
  population[2].objectives = {2.0, 1.0};  // trade-off with [1]
  population[3].objectives = {2.0, 2.0};  // dominated by 1 and 2
  population[4].objectives = {3.0, 3.0};  // last
  const auto fronts = Nsga2::non_dominated_sort(population);
  ASSERT_EQ(fronts.size(), 4u);
  EXPECT_EQ(fronts[0], (std::vector<std::size_t>{0}));
  EXPECT_EQ(population[1].rank, 1u);
  EXPECT_EQ(population[2].rank, 1u);
  EXPECT_EQ(population[3].rank, 2u);
  EXPECT_EQ(population[4].rank, 3u);
}

TEST(Nsga2Static, AllNonDominatedSingleFront) {
  std::vector<MoIndividual> population(4);
  population[0].objectives = {0.0, 3.0};
  population[1].objectives = {1.0, 2.0};
  population[2].objectives = {2.0, 1.0};
  population[3].objectives = {3.0, 0.0};
  const auto fronts = Nsga2::non_dominated_sort(population);
  EXPECT_EQ(fronts.size(), 1u);
  EXPECT_EQ(fronts[0].size(), 4u);
}

TEST(Nsga2Static, CrowdingBoundaryInfinite) {
  std::vector<MoIndividual> population(4);
  population[0].objectives = {0.0, 3.0};
  population[1].objectives = {1.0, 2.0};
  population[2].objectives = {2.0, 1.0};
  population[3].objectives = {3.0, 0.0};
  const std::vector<std::size_t> front{0, 1, 2, 3};
  Nsga2::assign_crowding(population, front);
  EXPECT_TRUE(std::isinf(population[0].crowding));
  EXPECT_TRUE(std::isinf(population[3].crowding));
  EXPECT_FALSE(std::isinf(population[1].crowding));
  EXPECT_GT(population[1].crowding, 0.0);
}

TEST(Nsga2Static, CrowdingTinyFrontAllInfinite) {
  std::vector<MoIndividual> population(2);
  population[0].objectives = {0.0, 1.0};
  population[1].objectives = {1.0, 0.0};
  Nsga2::assign_crowding(population, {0, 1});
  EXPECT_TRUE(std::isinf(population[0].crowding));
  EXPECT_TRUE(std::isinf(population[1].crowding));
}

TEST(Nsga2, PopulationTooSmallThrows) {
  const Netlist original =
      netlist::gen::make_profile(netlist::gen::ProfileId::kC432, 1);
  Nsga2Config config;
  config.population = 2;
  EXPECT_THROW(Nsga2(original, config), std::invalid_argument);
}

TEST(Nsga2, EvolvesTowardBothObjectives) {
  // Two synthetic conflicting-ish objectives over the genotype:
  //   o1 = fraction of key bits set to 0  (minimize -> prefer ones)
  //   o2 = fraction of key bits set to 1  (minimize -> prefer zeros)
  // The Pareto front should spread across the ones-count spectrum.
  const Netlist original =
      netlist::gen::make_profile(netlist::gen::ProfileId::kC432, 2);
  Nsga2Config config;
  config.population = 16;
  config.generations = 6;
  config.seed = 5;
  Nsga2 engine(original, config);
  const eval::MultiFitnessFn fitness = [](const lock::LockedDesign& design) {
    double ones = 0.0;
    for (bool bit : design.key) ones += bit ? 1.0 : 0.0;
    const double frac = ones / static_cast<double>(design.key.size());
    return std::vector<double>{1.0 - frac, frac};
  };
  eval::EvalPipeline pipeline(original, objectives(fitness, 2, config.seed));
  const Nsga2Result result = engine.run({.mux_sites = 12}, pipeline);
  EXPECT_FALSE(result.front.empty());
  EXPECT_GT(result.evaluations, 16u);
  // Front members are mutually non-dominating.
  for (const auto& a : result.front) {
    for (const auto& b : result.front) {
      EXPECT_FALSE(Nsga2::dominates(a.objectives, b.objectives) &&
                   Nsga2::dominates(b.objectives, a.objectives));
    }
  }
  EXPECT_EQ(result.front_size_history.size(), 7u);
}

TEST(Nsga2, ObjectiveCountMismatchThrows) {
  const Netlist original =
      netlist::gen::make_profile(netlist::gen::ProfileId::kC432, 3);
  Nsga2 engine(original, {});
  const eval::MultiFitnessFn bad = [](const lock::LockedDesign&) {
    return std::vector<double>{1.0};
  };
  eval::EvalPipeline pipeline(original,
                              objectives(bad, 2, Nsga2Config{}.seed));
  EXPECT_THROW(engine.run({.mux_sites = 8}, pipeline), std::runtime_error);
}

TEST(Nsga2, FrontGenotypesDecodeValid) {
  const Netlist original =
      netlist::gen::make_profile(netlist::gen::ProfileId::kC432, 4);
  Nsga2Config config;
  config.population = 8;
  config.generations = 3;
  Nsga2 engine(original, config);
  const eval::MultiFitnessFn fitness = [](const lock::LockedDesign& design) {
    double ones = 0.0;
    for (bool bit : design.key) ones += bit ? 1.0 : 0.0;
    return std::vector<double>{ones, design.key.size() - ones};
  };
  eval::EvalPipeline pipeline(original, objectives(fitness, 2, config.seed));
  const Nsga2Result result = engine.run({.mux_sites = 6}, pipeline);
  for (const auto& individual : result.front) {
    const auto design = pipeline.decode(individual.genes);
    EXPECT_EQ(design.key.size(), 6u);
    EXPECT_NO_THROW(design.netlist.validate());
  }
}

}  // namespace
}  // namespace autolock::ga
