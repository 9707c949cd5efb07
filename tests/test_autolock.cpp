#include "core/autolock.hpp"

#include <gtest/gtest.h>

#include "locking/verify.hpp"
#include "netlist/generator.hpp"

namespace autolock {
namespace {

using netlist::Netlist;

/// Small, fast configuration: structural surrogate fitness, tiny GA.
AutoLockConfig fast_config(std::uint64_t seed) {
  AutoLockConfig config;
  config.fitness_attack = FitnessAttack::kStructural;
  config.ga.population = 8;
  config.ga.generations = 4;
  config.ga.seed = seed;
  config.threads = 1;
  return config;
}

TEST(AutoLock, RunsEndToEndAndVerifies) {
  const Netlist original =
      netlist::gen::make_profile(netlist::gen::ProfileId::kC432, 3);
  AutoLock driver(fast_config(7));
  const AutoLockReport report = driver.run(original, {.mux_sites = 16});
  EXPECT_EQ(report.locked.key.size(), 16u);
  EXPECT_EQ(report.history.size(), 5u);
  EXPECT_GT(report.evaluations, 0u);
  EXPECT_TRUE(lock::verify_unlocks(report.locked, original));
  EXPECT_GE(report.final_accuracy, 0.0);
  EXPECT_LE(report.final_accuracy, 1.0);
}

TEST(AutoLock, FinalAccuracyNotWorseThanInitialBest) {
  // Elitism guarantees the best individual never regresses, and fitness is
  // 1 - accuracy, so final accuracy <= the initial best's accuracy.
  const Netlist original =
      netlist::gen::make_profile(netlist::gen::ProfileId::kC432, 5);
  AutoLock driver(fast_config(11));
  const AutoLockReport report = driver.run(original, {.mux_sites = 16});
  EXPECT_LE(report.final_accuracy, report.initial_best_accuracy + 1e-12);
  EXPECT_LE(report.initial_best_accuracy, report.initial_mean_accuracy + 1e-12);
}

TEST(AutoLock, TargetAccuracyStopsEarly) {
  const Netlist original =
      netlist::gen::make_profile(netlist::gen::ProfileId::kC432, 7);
  AutoLockConfig config = fast_config(13);
  config.ga.generations = 40;
  config.target_accuracy = 0.95;  // trivially reachable
  AutoLock driver(config);
  const AutoLockReport report = driver.run(original, {.mux_sites = 12});
  EXPECT_TRUE(report.reached_target);
  EXPECT_LT(report.history.size(), 41u);
}

TEST(AutoLock, CorruptionTermAddsToFitness) {
  const Netlist original =
      netlist::gen::make_profile(netlist::gen::ProfileId::kC432, 9);
  AutoLockConfig config = fast_config(17);
  config.corruption_weight = 0.3;
  AutoLock driver(config);
  const lock::LockedDesign design = lock::dmux_lock(original, 8, 3);
  const ga::Evaluation eval = driver.evaluate(design, original);
  EXPECT_GE(eval.corruption, 0.0);
  EXPECT_GE(eval.fitness, 1.0 - eval.attack_accuracy - 1e-12);
}

TEST(AutoLock, GnnFitnessPathWorks) {
  const Netlist original =
      netlist::gen::make_profile(netlist::gen::ProfileId::kC432, 11);
  AutoLockConfig config = fast_config(19);
  config.fitness_attack = FitnessAttack::kMuxLinkGnn;
  config.muxlink.epochs = 4;            // keep the test fast
  config.muxlink.max_train_links = 120;
  config.ga.population = 4;
  config.ga.generations = 1;
  AutoLock driver(config);
  const AutoLockReport report = driver.run(original, {.mux_sites = 8});
  EXPECT_EQ(report.locked.key.size(), 8u);
  EXPECT_TRUE(lock::verify_unlocks(report.locked, original));
}

TEST(AutoLock, BothFitnessPathWorks) {
  const Netlist original =
      netlist::gen::make_profile(netlist::gen::ProfileId::kC432, 13);
  AutoLockConfig config = fast_config(23);
  config.fitness_attack = FitnessAttack::kBoth;
  config.muxlink.epochs = 3;
  config.muxlink.max_train_links = 100;
  config.ga.population = 4;
  config.ga.generations = 1;
  AutoLock driver(config);
  const AutoLockReport report = driver.run(original, {.mux_sites = 6});
  EXPECT_EQ(report.locked.key.size(), 6u);
}

TEST(AutoLock, DeterministicForSameConfig) {
  const Netlist original =
      netlist::gen::make_profile(netlist::gen::ProfileId::kC432, 15);
  AutoLock a(fast_config(29));
  AutoLock b(fast_config(29));
  const AutoLockReport ra = a.run(original, {.mux_sites = 10});
  const AutoLockReport rb = b.run(original, {.mux_sites = 10});
  EXPECT_EQ(ra.final_accuracy, rb.final_accuracy);
  EXPECT_EQ(ra.locked.key, rb.locked.key);
}

TEST(AutoLock, ReportAccountsDrop) {
  const Netlist original =
      netlist::gen::make_profile(netlist::gen::ProfileId::kC432, 17);
  AutoLock driver(fast_config(31));
  const AutoLockReport report = driver.run(original, {.mux_sites = 12});
  EXPECT_NEAR(report.accuracy_drop,
              report.initial_mean_accuracy - report.final_accuracy, 1e-12);
}

}  // namespace
}  // namespace autolock
