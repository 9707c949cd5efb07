// X1: GA convergence dynamics — best/mean fitness per generation across
// seeds (the "fitness vs generation" curve the paper's research plan implies
// for operator evaluation).
#include "bench/common.hpp"

#include "util/stats.hpp"

int main(int argc, char** argv) {
  using namespace autolock;
  const auto args = benchx::parse_args(argc, argv);

  const auto original = netlist::gen::make_profile(
      args.quick ? netlist::gen::ProfileId::kC432
                 : netlist::gen::ProfileId::kC880,
      1);
  const std::size_t key_bits = args.quick ? 16 : 32;
  const std::size_t generations = args.quick ? 5 : 20;
  const std::vector<std::uint64_t> seeds =
      args.quick ? std::vector<std::uint64_t>{1} : std::vector<std::uint64_t>{1, 2, 3};

  // Structural-surrogate fitness keeps this bench cheap enough to run many
  // generations; the GNN-fitness dynamics are covered by quickstart and E2.
  std::vector<std::vector<ga::GenerationStats>> histories;
  for (const std::uint64_t seed : seeds) {
    ga::GaConfig config;
    config.population = 16;
    config.generations = generations;
    config.seed = seed;
    eval::EvalPipelineConfig pipeline_config;
    pipeline_config.attacks = {"structural"};
    pipeline_config.seed = seed;
    eval::EvalPipeline pipeline(original, std::move(pipeline_config));
    histories.push_back(ga::GeneticAlgorithm(original, config)
                            .run({.mux_sites = key_bits}, pipeline)
                            .history);
  }

  util::Table table({"generation", "best fitness (mean over seeds)",
                     "mean fitness (mean over seeds)",
                     "best attack acc (mean)", "best fitness (min..max)"});
  for (std::size_t g = 0; g <= generations; ++g) {
    util::OnlineStats best, mean, acc;
    for (const auto& history : histories) {
      if (g >= history.size()) continue;  // early-stopped seed
      best.add(history[g].best_fitness);
      mean.add(history[g].mean_fitness);
      acc.add(history[g].best_accuracy);
    }
    if (best.count() == 0) break;
    table.add_row({std::to_string(g), util::fmt(best.mean()),
                   util::fmt(mean.mean()), util::fmt_pct(acc.mean()),
                   util::fmt(best.min()) + ".." + util::fmt(best.max())});
  }
  benchx::emit(table, args,
               "X1 — convergence on " + original.name() + " (K=" +
                   std::to_string(key_bits) + ", structural fitness, " +
                   std::to_string(seeds.size()) + " seeds)");
  return 0;
}
