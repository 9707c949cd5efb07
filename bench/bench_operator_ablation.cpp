// X2: evolutionary-operator ablation (research plan item 2: "the design of
// problem-specific operators").
//
// Grid over {selection} x {crossover} x {mutation rate}, measuring the final
// best fitness (= 1 - attack accuracy) after a fixed budget, averaged over
// seeds. Shows which operator combinations drive resilience fastest.
//
// X1: the first variant is GaConfig's default operator set, so its
// per-seed histories also give the convergence table — best and mean
// fitness per generation across seeds.
#include "bench/common.hpp"

#include "util/stats.hpp"

int main(int argc, char** argv) {
  using namespace autolock;
  const auto args = benchx::parse_args(argc, argv);

  const auto original =
      netlist::gen::make_profile(netlist::gen::ProfileId::kC432, 1);
  const std::size_t key_bits = args.quick ? 12 : 32;
  const std::size_t generations = args.quick ? 3 : 8;
  const std::vector<std::uint64_t> seeds =
      args.quick ? std::vector<std::uint64_t>{1}
                 : std::vector<std::uint64_t>{1, 2, 3};
  const std::string setup = "c432 (K=" + std::to_string(key_bits) +
                            ", structural fitness, " +
                            std::to_string(seeds.size()) + " seeds)";

  struct Variant {
    const char* name;
    ga::SelectionOp selection;
    ga::CrossoverOp crossover;
    double mutation_rate;
    double crossover_rate = ga::GaConfig{}.crossover_rate;
  };
  const std::vector<Variant> variants = {
      {"tournament/1-point/0.08", ga::SelectionOp::kTournament,
       ga::CrossoverOp::kOnePoint, 0.08},
      {"tournament/uniform/0.08", ga::SelectionOp::kTournament,
       ga::CrossoverOp::kUniform, 0.08},
      {"roulette/1-point/0.08", ga::SelectionOp::kRoulette,
       ga::CrossoverOp::kOnePoint, 0.08},
      {"roulette/uniform/0.08", ga::SelectionOp::kRoulette,
       ga::CrossoverOp::kUniform, 0.08},
      {"tournament/1-point/0.02", ga::SelectionOp::kTournament,
       ga::CrossoverOp::kOnePoint, 0.02},
      {"tournament/1-point/0.25", ga::SelectionOp::kTournament,
       ga::CrossoverOp::kOnePoint, 0.25},
      {"mutation-only (no crossover)", ga::SelectionOp::kTournament,
       ga::CrossoverOp::kOnePoint, 0.25, 0.0},
  };

  util::Table table({"operators", "final best fitness (mean)",
                     "final attack acc (mean)", "gen-0 best fitness",
                     "evals (mean)"});
  std::vector<std::vector<ga::GenerationStats>> default_histories;
  for (const auto& variant : variants) {
    util::OnlineStats final_fitness, final_acc, initial_fitness, evals;
    for (const std::uint64_t seed : seeds) {
      ga::GaConfig config;
      config.population = 12;
      config.generations = generations;
      config.selection = variant.selection;
      config.crossover = variant.crossover;
      config.mutation_rate = variant.mutation_rate;
      config.crossover_rate = variant.crossover_rate;
      config.seed = seed;
      eval::EvalPipelineConfig pipeline_config;
      pipeline_config.attacks = {"structural"};
      pipeline_config.seed = seed;
      eval::EvalPipeline pipeline(original, std::move(pipeline_config));
      ga::GaResult result = ga::GeneticAlgorithm(original, config).run(
          {.mux_sites = key_bits}, pipeline);
      final_fitness.add(result.history.back().best_fitness);
      final_acc.add(result.best.eval.attack_accuracy);
      initial_fitness.add(result.history.front().best_fitness);
      evals.add(static_cast<double>(result.evaluations));
      if (&variant == &variants.front()) {
        default_histories.push_back(std::move(result.history));
      }
    }
    table.add_row({variant.name, util::fmt(final_fitness.mean()),
                   util::fmt_pct(final_acc.mean()),
                   util::fmt(initial_fitness.mean()),
                   util::fmt(evals.mean(), 0)});
  }
  benchx::emit(table, args, "X2 — operator ablation on " + setup);

  util::Table convergence({"generation", "best fitness (mean over seeds)",
                           "mean fitness (mean over seeds)",
                           "best attack acc (mean)",
                           "best fitness (min..max)"});
  for (std::size_t g = 0; g <= generations; ++g) {
    util::OnlineStats best, mean, acc;
    for (const auto& history : default_histories) {
      if (g >= history.size()) continue;  // early-stopped seed
      best.add(history[g].best_fitness);
      mean.add(history[g].mean_fitness);
      acc.add(history[g].best_accuracy);
    }
    if (best.count() == 0) break;
    convergence.add_row({std::to_string(g), util::fmt(best.mean()),
                         util::fmt(mean.mean()), util::fmt_pct(acc.mean()),
                         util::fmt(best.min()) + ".." + util::fmt(best.max())});
  }
  benchx::emit(convergence, args,
               "X1 — convergence of " + std::string(variants.front().name) +
                   " on " + setup);
  return 0;
}
