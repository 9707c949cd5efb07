// Example: the paper's core comparison — random D-MUX locking vs
// GA-evolved AutoLock locking, measured by MuxLink key-recovery accuracy.
//
// Runs several independent D-MUX lockings (what an untuned designer would
// ship) and one AutoLock evolution, then attacks everything with the same
// thorough MuxLink configuration and prints the comparison.
//
// Usage: dmux_vs_autolock [circuit] [key_bits] [generations]
#include <cstdio>
#include <cstdlib>
#include <string>

#include "attacks/muxlink.hpp"
#include "core/ga.hpp"
#include "eval/pipeline.hpp"
#include "locking/verify.hpp"
#include "netlist/generator.hpp"
#include "util/stats.hpp"

int main(int argc, char** argv) {
  using namespace autolock;

  const std::string circuit_name = argc > 1 ? argv[1] : "c432";
  const std::size_t key_bits =
      argc > 2 ? static_cast<std::size_t>(std::atoi(argv[2])) : 32;
  const std::size_t generations =
      argc > 3 ? static_cast<std::size_t>(std::atoi(argv[3])) : 5;

  const auto profile = netlist::gen::profile_by_name(circuit_name);
  const netlist::Netlist original = netlist::gen::make_profile(profile, 1);

  attack::MuxLinkConfig eval_config;
  eval_config.epochs = 20;
  eval_config.max_train_links = 800;
  const attack::MuxLinkAttack evaluator(eval_config);

  std::printf("== random D-MUX baselines (%s, K=%zu) ==\n",
              original.name().c_str(), key_bits);
  util::OnlineStats baseline;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const auto design = lock::dmux_lock(original, key_bits, seed);
    const auto score = evaluator.run(design);
    baseline.add(score.accuracy);
    std::printf("  seed %llu: MuxLink accuracy %.1f%%  (precision %.1f%% on "
                "%.0f%% decided)\n",
                static_cast<unsigned long long>(seed), 100.0 * score.accuracy,
                100.0 * score.precision, 100.0 * score.decided_fraction);
  }
  std::printf("  mean: %.1f%%\n\n", 100.0 * baseline.mean());

  std::printf("== AutoLock (GNN fitness, %zu generations) ==\n", generations);
  ga::GaConfig config;
  config.population = 10;
  config.generations = generations;
  config.seed = 1;
  eval::EvalPipelineConfig pipeline_config;
  pipeline_config.attacks = {"muxlink"};
  pipeline_config.attack_options.muxlink.epochs = 10;
  pipeline_config.attack_options.muxlink.max_train_links = 400;
  pipeline_config.seed = config.seed;
  eval::EvalPipeline pipeline(original, std::move(pipeline_config));
  const ga::GaResult result = ga::GeneticAlgorithm(original, config).run(
      {.mux_sites = key_bits}, pipeline);
  const lock::LockedDesign locked = pipeline.decode(result.best.genes);

  const auto evolved_score = evaluator.run(locked);
  std::printf("  evolved design: MuxLink accuracy %.1f%% (thorough re-eval)\n",
              100.0 * evolved_score.accuracy);
  std::printf("  drop vs D-MUX mean: %.1f pp\n",
              100.0 * (baseline.mean() - evolved_score.accuracy));
  std::printf("  functional: %s\n",
              lock::verify_unlocks(locked, original) ? "verified" : "BROKEN");

  std::printf("\nGA trace (fitness = 1 - fast-MuxLink accuracy):\n");
  for (const auto& generation : result.history) {
    std::printf("  gen %2zu: best %.3f  mean %.3f  best-acc %.1f%%\n",
                generation.generation, generation.best_fitness,
                generation.mean_fitness, 100.0 * generation.best_accuracy);
  }
  return 0;
}
