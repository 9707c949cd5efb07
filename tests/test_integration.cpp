// Cross-module integration tests: the full pipeline the paper's Fig. 1
// describes, exercised end to end on small configurations.
#include <gtest/gtest.h>

#include "attacks/muxlink.hpp"
#include "attacks/sat_attack.hpp"
#include "attacks/structural.hpp"
#include "core/ga.hpp"
#include "eval/pipeline.hpp"
#include "locking/rll.hpp"
#include "locking/verify.hpp"
#include "netlist/bench_io.hpp"
#include "netlist/generator.hpp"
#include "sat/cnf.hpp"

namespace autolock {
namespace {

using netlist::Key;
using netlist::Netlist;

/// Evolves a `key_bits`-bit D-MUX genotype against the structural
/// predictor with a small GA and returns the decoded best design.
lock::LockedDesign evolve_structural(const Netlist& original,
                                     std::size_t key_bits,
                                     std::size_t generations,
                                     std::uint64_t seed) {
  ga::GaConfig config;
  config.population = 6;
  config.generations = generations;
  config.seed = seed;
  eval::EvalPipelineConfig pipeline_config;
  pipeline_config.attacks = {"structural"};
  pipeline_config.seed = seed;
  eval::EvalPipeline pipeline(original, std::move(pipeline_config));
  const ga::GaResult result = ga::GeneticAlgorithm(original, config).run(
      {.mux_sites = key_bits}, pipeline);
  return pipeline.decode(result.best.genes);
}

TEST(Integration, LockedBenchFileRoundTripStaysAttackable) {
  // Lock -> serialize to .bench -> reparse -> the attack still sees the
  // same decision problems and the key convention survives.
  const Netlist original =
      netlist::gen::make_profile(netlist::gen::ProfileId::kC432, 3);
  const auto design = lock::dmux_lock(original, 12, 3);
  const Netlist reparsed =
      netlist::bench::parse(netlist::bench::write(design.netlist));
  EXPECT_EQ(reparsed.key_inputs().size(), 12u);

  const attack::AttackGraph graph_a(design.netlist);
  const attack::AttackGraph graph_b(reparsed);
  EXPECT_EQ(graph_a.problems().size(), graph_b.problems().size());

  // And it still unlocks.
  EXPECT_TRUE(sat::check_equivalent(reparsed, design.key, original, Key{}));
}

TEST(Integration, AutoLockOutputSurvivesFullToolchain) {
  const Netlist original =
      netlist::gen::make_profile(netlist::gen::ProfileId::kC432, 5);
  const lock::LockedDesign locked = evolve_structural(original, 12, 3, 5);

  // 1. Functional: unlocks under the correct key (SAT-proven).
  EXPECT_TRUE(lock::verify_unlocks(locked, original));

  // 2. The SAT attack still breaks it (MUX locking is not SAT-resilient —
  //    the paper's security objective is ML resilience).
  const auto sat_result = attack::SatAttack().attack(locked.netlist, original);
  EXPECT_TRUE(sat_result.success);

  // 3. Serialization round trip.
  const Netlist reparsed =
      netlist::bench::parse(netlist::bench::write(locked.netlist));
  EXPECT_TRUE(sat::check_equivalent(reparsed, locked.key, original, Key{}));
}

TEST(Integration, StructuralAndGnnAgreeOnProblemSpace) {
  const Netlist original =
      netlist::gen::make_profile(netlist::gen::ProfileId::kC432, 7);
  const auto design = lock::dmux_lock(original, 10, 7);
  attack::MuxLinkConfig gnn_config;
  gnn_config.epochs = 4;
  gnn_config.max_train_links = 100;
  const auto gnn_result =
      attack::MuxLinkAttack(gnn_config).attack(design.netlist);
  const auto str_result =
      attack::StructuralLinkPredictor().attack(design.netlist);
  EXPECT_EQ(gnn_result.predicted_bits.size(),
            str_result.predicted_bits.size());
}

TEST(Integration, WrongKeyCorruptionSurvivesEvolution) {
  // The GA optimizes ML-resilience; locking must remain *functional*
  // (wrong keys corrupt at least somewhere for most bits).
  const Netlist original =
      netlist::gen::make_profile(netlist::gen::ProfileId::kC432, 9);
  const lock::LockedDesign locked = evolve_structural(original, 16, 2, 9);
  const auto corruption = lock::measure_corruption(locked, original, 16, 256);
  EXPECT_GT(corruption.mean_error_rate, 0.0);
}

TEST(Integration, RllVsMuxAttackSurfaces) {
  // RLL: SAT attack succeeds, MuxLink has nothing to attack.
  // D-MUX: SAT attack succeeds, MuxLink attacks every bit.
  const Netlist original =
      netlist::gen::make_profile(netlist::gen::ProfileId::kC432, 11);
  const auto rll = lock::rll_lock(original, 8, 11);
  const auto dmux = lock::dmux_lock(original, 8, 11);

  EXPECT_TRUE(attack::SatAttack().attack(rll.netlist, original).success);
  EXPECT_TRUE(attack::SatAttack().attack(dmux.netlist, original).success);

  attack::MuxLinkConfig fast;
  fast.epochs = 3;
  fast.max_train_links = 80;
  const attack::MuxLinkAttack muxlink(fast);
  EXPECT_TRUE(muxlink.attack(rll.netlist).predicted_bits.empty());
  EXPECT_EQ(muxlink.attack(dmux.netlist).predicted_bits.size(), 8u);
}

TEST(Integration, C17EndToEndTiny) {
  // The real ISCAS circuit through the whole stack with K=2.
  const Netlist c17 = netlist::gen::c17();
  const auto design = lock::dmux_lock(c17, 2, 1);
  EXPECT_TRUE(lock::verify_unlocks(design, c17));
  const auto sat_result = attack::SatAttack().attack(design.netlist, c17);
  EXPECT_TRUE(sat_result.success);
}

}  // namespace
}  // namespace autolock
