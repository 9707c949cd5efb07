// E1 (paper Fig. 1): the AutoLock workflow, traced stage by stage.
//
// Reproduces the figure's pipeline as a table of stages: original netlist ->
// N random D-MUX lockings (population init) -> GA generations (selection,
// crossover, mutation, MuxLink fitness) -> final locked netlist, with the
// numbers each stage produces.
#include "bench/common.hpp"

#include "locking/verify.hpp"

int main(int argc, char** argv) {
  using namespace autolock;
  const auto args = benchx::parse_args(argc, argv);

  const auto original =
      netlist::gen::make_profile(netlist::gen::ProfileId::kC432, 1);
  const std::size_t key_bits = args.quick ? 16 : 32;

  AutoLockConfig config;
  config.fitness_attack = FitnessAttack::kMuxLinkGnn;
  config.muxlink = benchx::muxlink_fast();
  config.ga.population = args.quick ? 6 : 10;   // N in Fig. 1
  config.ga.generations = args.quick ? 2 : 5;
  config.ga.seed = 1;
  config.threads = 1;

  util::Table stages({"stage", "detail", "value"});
  const auto stats = original.stats();
  stages.add_row({"1. original netlist (ON)", original.name(),
                  std::to_string(stats.gates) + " gates / " +
                      std::to_string(stats.primary_inputs) + " PIs / " +
                      std::to_string(stats.outputs) + " POs"});
  stages.add_row({"2. key length (K)", "user input", std::to_string(key_bits)});

  util::Timer timer;
  AutoLock driver(config);
  const AutoLockReport report = driver.run(original, {.mux_sites = key_bits});

  stages.add_row({"3. population init",
                  std::to_string(config.ga.population) +
                      " random D-MUX lockings of K bits",
                  "mean MuxLink acc " +
                      util::fmt_pct(report.initial_mean_accuracy)});
  stages.add_row({"4. GA loop",
                  "selection + crossover + mutation, fitness = 1 - MuxLink acc",
                  std::to_string(report.history.size() - 1) + " generations, " +
                      std::to_string(report.evaluations) + " evaluations"});
  stages.add_row({"5. locked netlist (LN)", report.locked.netlist.name(),
                  "MuxLink acc " + util::fmt_pct(report.final_accuracy) +
                      " (drop " +
                      util::fmt(100.0 * report.accuracy_drop, 1) + " pp)"});
  const bool unlocks = lock::verify_unlocks(report.locked, original);
  stages.add_row({"6. functional check", "LN + correct key == ON",
                  unlocks ? "PASS" : "FAIL"});
  stages.add_row({"total time", "", util::fmt(timer.elapsed_seconds(), 1) + " s"});

  benchx::emit(stages, args, "E1 / Fig.1 — AutoLock workflow (c432, GNN fitness)");

  util::Table curve({"generation", "best fitness", "mean fitness",
                     "best MuxLink acc"});
  for (const auto& g : report.history) {
    curve.add_row({std::to_string(g.generation), util::fmt(g.best_fitness),
                   util::fmt(g.mean_fitness), util::fmt_pct(g.best_accuracy)});
  }
  benchx::emit(curve, args, "E1 — per-generation trace");
  return unlocks ? 0 : 1;
}
