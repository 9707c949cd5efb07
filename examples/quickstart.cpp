// Quickstart: the complete AutoLock workflow (paper Fig. 1).
//
//   1. Obtain an original netlist (ON) — here the c432-profile benchmark.
//   2. Baseline: lock it with random D-MUX (lock seeds 1..3) and attack
//      each with MuxLink.
//   3. Run AutoLock: the GA searches lock-site genotypes that minimize
//      MuxLink's key-recovery accuracy. Re-attack the evolved design with
//      the baselines' MuxLink (held out: a seed the fitness never used) and
//      report both accuracy drops and the per-generation trace.
//   4. Verify the result still unlocks correctly.
//   5. Sweep every registered attack against the evolved locking — the
//      registry turns "which attacks?" into a string list.
//
// For a user's own circuit, `lock_file_tool lock <in> <out> K dmux|autolock`
// and `lock_file_tool report` run the same comparison on .bench files.
#include <cstdio>

#include "core/ga.hpp"
#include "eval/pipeline.hpp"
#include "eval/registry.hpp"
#include "eval/workspace.hpp"
#include "locking/verify.hpp"
#include "netlist/generator.hpp"
#include "util/stats.hpp"
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

  // 2. Baseline: plain random D-MUX locking, attacked by MuxLink, averaged
  //    over three lock seeds. The evaluator is the GA's MuxLink preset with
  //    a fresh attack seed: with the fitness's own seed, step 3's re-attack
  //    would replay the in-loop score exactly.
  attack::MuxLinkConfig evaluator_config;
  evaluator_config.seed = 1;
  const attack::MuxLinkAttack evaluator(evaluator_config);
  util::OnlineStats baseline;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const lock::LockedDesign design = lock::dmux_lock(original, kKeyBits, seed);
    if (!lock::verify_unlocks(design, original)) {
      std::printf("baseline locking failed verification!\n");
      return 1;
    }
    const eval::AttackReport report = eval::link_report(
        "muxlink", evaluator.attack(design.netlist), design.key);
    baseline.add(report.accuracy);
    std::printf("D-MUX seed %llu:    MuxLink accuracy %.1f%% (precision %.1f%% "
                "on %.0f%% decided)\n",
                static_cast<unsigned long long>(seed), 100.0 * report.accuracy,
                100.0 * report.precision, 100.0 * report.decided_fraction);
  }
  std::printf("D-MUX baseline:  MuxLink accuracy %.1f%% (mean of 3 seeds)\n",
              100.0 * baseline.mean());

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

  std::printf("AutoLock:        in-loop MuxLink accuracy %.1f%% -> %.1f%%  "
              "(drop %.1f pp, %zu evaluations, %.1fs)\n",
              100.0 * initial_accuracy, 100.0 * final_accuracy,
              100.0 * (initial_accuracy - final_accuracy), result.evaluations,
              timer.elapsed_seconds());
  const eval::AttackReport held_out = eval::link_report(
      "muxlink", evaluator.attack(locked.netlist), locked.key);
  std::printf("                 held-out MuxLink accuracy %.1f%%  "
              "(drop vs D-MUX baseline %.1f pp)\n",
              100.0 * held_out.accuracy,
              100.0 * (baseline.mean() - held_out.accuracy));
  std::printf("GA trace (fitness = 1 - in-loop MuxLink accuracy):\n");
  for (const auto& generation : result.history) {
    std::printf("  gen %2zu: best %.3f  mean %.3f  best-acc %.1f%%\n",
                generation.generation, generation.best_fitness,
                generation.mean_fitness, 100.0 * generation.best_accuracy);
  }

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
