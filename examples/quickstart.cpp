// Quickstart: the complete AutoLock workflow (paper Fig. 1).
//
//   1. Obtain an original netlist (ON) — here the c432-profile benchmark.
//   2. Baseline: lock it with random D-MUX and attack it with MuxLink.
//   3. Run AutoLock: the GA searches lock-site genotypes that minimize
//      MuxLink's key-recovery accuracy.
//   4. Verify the result still unlocks correctly and report the accuracy
//      drop.
//   5. Sweep every registered attack against the evolved locking — the
//      registry turns "which attacks?" into a string list.
#include <cstdio>

#include "core/ga.hpp"
#include "eval/pipeline.hpp"
#include "eval/registry.hpp"
#include "eval/workspace.hpp"
#include "locking/verify.hpp"
#include "netlist/generator.hpp"
#include "util/timer.hpp"

int main() {
  using namespace autolock;

  // 1. Original netlist.
  const netlist::Netlist original =
      netlist::gen::make_profile(netlist::gen::ProfileId::kC432, /*seed=*/1);
  const auto stats = original.stats();
  std::printf("circuit %s: %zu PIs, %zu POs, %zu gates, depth %zu\n",
              original.name().c_str(), stats.primary_inputs, stats.outputs,
              stats.gates, stats.depth);

  constexpr std::size_t kKeyBits = 32;

  // 2. Baseline: plain random D-MUX locking, attacked by MuxLink.
  const lock::LockedDesign baseline = lock::dmux_lock(original, kKeyBits, 7);
  if (!lock::verify_unlocks(baseline, original)) {
    std::printf("baseline locking failed verification!\n");
    return 1;
  }
  const eval::AttackReport baseline_report = eval::link_report(
      "muxlink", attack::MuxLinkAttack().attack(baseline.netlist),
      baseline.key);
  std::printf("D-MUX baseline:  MuxLink accuracy %.1f%% (precision %.1f%% on "
              "%.0f%% decided)\n",
              100.0 * baseline_report.accuracy,
              100.0 * baseline_report.precision,
              100.0 * baseline_report.decided_fraction);

  // 3. AutoLock: evolve lock sites against MuxLink. The GA proposes
  //    genotypes; the pipeline decodes each one and scores it by MuxLink
  //    accuracy (fitness = 1 - accuracy).
  util::Timer timer;
  ga::GaConfig config;
  config.population = 12;
  config.generations = 6;
  config.seed = 7;
  eval::EvalPipelineConfig pipeline_config;
  pipeline_config.attacks = {"muxlink"};
  pipeline_config.threads = 0;  // one worker per hardware thread
  pipeline_config.seed = config.seed;
  eval::EvalPipeline pipeline(original, std::move(pipeline_config));
  const ga::GaResult result = ga::GeneticAlgorithm(original, config).run(
      {.mux_sites = kKeyBits}, pipeline);
  const lock::LockedDesign locked = pipeline.decode(result.best.genes);
  const double initial_accuracy = result.history.front().mean_accuracy;
  const double final_accuracy = result.best.eval.attack_accuracy;

  std::printf("AutoLock:        MuxLink accuracy %.1f%% -> %.1f%%  "
              "(drop %.1f pp, %zu evaluations, %.1fs)\n",
              100.0 * initial_accuracy, 100.0 * final_accuracy,
              100.0 * (initial_accuracy - final_accuracy), result.evaluations,
              timer.elapsed_seconds());

  // 4. The evolved locked netlist must still unlock with its key.
  if (!lock::verify_unlocks(locked, original)) {
    std::printf("AutoLock result failed verification!\n");
    return 1;
  }
  std::printf("verification:    locked netlist + correct key == original "
              "(SAT-proven)\n");

  // 5. Full attack sweep through the registry.
  std::printf("\nattack sweep on the evolved locking:\n");
  eval::AttackOptions options;
  options.oracle = &original;  // the SAT attack is oracle-guided
  options.muxlink.epochs = 10;
  options.muxlink.max_train_links = 400;
  eval::EvalWorkspace workspace;
  for (const auto& name : eval::AttackRegistry::instance().names()) {
    const eval::AttackReport sweep =
        eval::make_attack(name, options)->evaluate(locked, workspace);
    std::printf("  %-18s accuracy %5.1f%%  key recovery %5.1f%%  %s  (%.2fs)\n",
                name.c_str(), 100.0 * sweep.accuracy,
                100.0 * sweep.key_recovery,
                sweep.key_recovered ? "KEY RECOVERED" : "key safe",
                sweep.seconds);
  }
  return 0;
}
