// Quickstart: the complete AutoLock workflow (paper Fig. 1) in ~60 lines.
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

#include "core/autolock.hpp"
#include "eval/registry.hpp"
#include "eval/workspace.hpp"
#include "locking/verify.hpp"
#include "netlist/generator.hpp"

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
  attack::MuxLinkAttack muxlink;
  const auto baseline_score = muxlink.run(baseline);
  std::printf("D-MUX baseline:  MuxLink accuracy %.1f%% (precision %.1f%% on "
              "%.0f%% decided)\n",
              100.0 * baseline_score.accuracy, 100.0 * baseline_score.precision,
              100.0 * baseline_score.decided_fraction);

  // 3. AutoLock: evolve lock sites against MuxLink.
  AutoLockConfig config;
  config.ga.population = 12;
  config.ga.generations = 6;
  config.ga.seed = 7;
  AutoLock autolock(config);
  const AutoLockReport report = autolock.run(original, {.mux_sites = kKeyBits});

  std::printf("AutoLock:        MuxLink accuracy %.1f%% -> %.1f%%  "
              "(drop %.1f pp, %zu evaluations, %.1fs)\n",
              100.0 * report.initial_mean_accuracy,
              100.0 * report.final_accuracy, 100.0 * report.accuracy_drop,
              report.evaluations, report.seconds);

  // 4. The evolved locked netlist must still unlock with its key.
  if (!lock::verify_unlocks(report.locked, original, lock::VerifyMode::kBoth)) {
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
        eval::make_attack(name, options)->evaluate(report.locked, workspace);
    std::printf("  %-18s accuracy %5.1f%%  key recovery %5.1f%%  %s  (%.2fs)\n",
                name.c_str(), 100.0 * sweep.accuracy,
                100.0 * sweep.key_recovery,
                sweep.key_recovered ? "KEY RECOVERED" : "key safe",
                sweep.seconds);
  }
  return 0;
}
