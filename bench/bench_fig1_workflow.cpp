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

  ga::GaConfig config;
  config.population = args.quick ? 6 : 10;   // N in Fig. 1
  config.generations = args.quick ? 2 : 5;
  config.seed = 1;
  eval::EvalPipelineConfig pipeline_config;
  pipeline_config.attacks = {"muxlink"};
  pipeline_config.attack_options.muxlink = benchx::muxlink_fast();
  pipeline_config.seed = config.seed;

  util::Table stages({"stage", "detail", "value"});
  const auto stats = original.stats();
  stages.add_row({"1. original netlist (ON)", original.name(),
                  std::to_string(stats.gates) + " gates / " +
                      std::to_string(stats.primary_inputs) + " PIs / " +
                      std::to_string(stats.outputs) + " POs"});
  stages.add_row({"2. key length (K)", "user input", std::to_string(key_bits)});

  util::Timer timer;
  eval::EvalPipeline pipeline(original, std::move(pipeline_config));
  const ga::GaResult result = ga::GeneticAlgorithm(original, config).run(
      {.mux_sites = key_bits}, pipeline);
  lock::LockedDesign locked = pipeline.decode(result.best.genes);
  locked.netlist.set_name(original.name() + "_autolock");
  const double initial_accuracy = result.history.front().mean_accuracy;
  const double final_accuracy = result.best.eval.attack_accuracy;
  const double drop_pp = 100.0 * (initial_accuracy - final_accuracy);

  stages.add_row({"3. population init",
                  std::to_string(config.population) +
                      " random D-MUX lockings of K bits",
                  "mean MuxLink acc " + util::fmt_pct(initial_accuracy)});
  stages.add_row({"4. GA loop",
                  "selection + crossover + mutation, fitness = 1 - MuxLink acc",
                  std::to_string(result.history.size() - 1) + " generations, " +
                      std::to_string(result.evaluations) + " evaluations"});
  stages.add_row({"5. locked netlist (LN)", locked.netlist.name(),
                  "MuxLink acc " + util::fmt_pct(final_accuracy) + " (drop " +
                      util::fmt(drop_pp, 1) + " pp)"});
  const bool unlocks = lock::verify_unlocks(locked, original);
  stages.add_row({"6. functional check", "LN + correct key == ON",
                  unlocks ? "PASS" : "FAIL"});
  stages.add_row({"total time", "", util::fmt(timer.elapsed_seconds(), 1) + " s"});

  benchx::emit(stages, args, "E1 / Fig.1 — AutoLock workflow (c432, GNN fitness)");

  util::Table curve({"generation", "best fitness", "mean fitness",
                     "best MuxLink acc"});
  for (const auto& g : result.history) {
    curve.add_row({std::to_string(g.generation), util::fmt(g.best_fitness),
                   util::fmt(g.mean_fitness), util::fmt_pct(g.best_accuracy)});
  }
  benchx::emit(curve, args, "E1 — per-generation trace");
  return unlocks ? 0 : 1;
}
