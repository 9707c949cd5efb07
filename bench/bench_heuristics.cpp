// X7: search-heuristic comparison (research-plan item 5: "explore other
// techniques out of the evolutionary computation field").
//
// GA vs simulated annealing vs hill climbing vs random search at an equal
// fitness-evaluation budget, on the same circuit/key length, with the same
// structural-surrogate fitness. Shape: all informed heuristics beat random
// search; the GA is competitive with or better than the single-trajectory
// methods at equal budget.
#include "bench/common.hpp"

#include "core/heuristics.hpp"
#include "util/stats.hpp"

int main(int argc, char** argv) {
  using namespace autolock;
  const auto args = benchx::parse_args(argc, argv);

  const auto original =
      netlist::gen::make_profile(netlist::gen::ProfileId::kC432, 1);
  const std::size_t key_bits = args.quick ? 12 : 32;
  const std::size_t budget = args.quick ? 30 : 120;
  const std::vector<std::uint64_t> seeds =
      args.quick ? std::vector<std::uint64_t>{1}
                 : std::vector<std::uint64_t>{1, 2, 3};

  // Every heuristic evaluates through the same pipeline configuration: the
  // structural attack, constructed by registry name. Single-trajectory
  // searches disable the cache (they budget proposals, not unique
  // genotypes); the GA keeps it.
  const auto make_pipeline_config = [&](std::uint64_t seed, bool cache) {
    eval::EvalPipelineConfig config;
    config.attacks = {"structural"};
    config.seed = seed;
    config.cache = cache;
    return config;
  };

  util::Table table({"heuristic", "final fitness (mean)",
                     "final attack acc (mean)", "fitness @ budget/2",
                     "evals"});

  // GA sized so population * (generations + 1) ~= budget.
  {
    util::OnlineStats final_fit, final_acc, half_fit;
    for (const std::uint64_t seed : seeds) {
      ga::GaConfig config;
      config.population = 12;
      config.generations = budget / 12 - 1;
      config.seed = seed;
      ga::GeneticAlgorithm engine(original, config);
      eval::EvalPipeline pipeline(original, make_pipeline_config(seed, true));
      const auto result = engine.run({.mux_sites = key_bits}, pipeline);
      final_fit.add(result.best.eval.fitness);
      final_acc.add(result.best.eval.attack_accuracy);
      half_fit.add(result.history[result.history.size() / 2].best_fitness);
    }
    table.add_row({"genetic algorithm", util::fmt(final_fit.mean()),
                   util::fmt_pct(final_acc.mean()), util::fmt(half_fit.mean()),
                   std::to_string(budget) + " (approx)"});
  }

  const auto add_heuristic =
      [&](const char* name,
          const std::function<ga::HeuristicResult(std::uint64_t)>& run) {
        util::OnlineStats final_fit, final_acc, half_fit;
        std::size_t evals = 0;
        for (const std::uint64_t seed : seeds) {
          const auto result = run(seed);
          final_fit.add(result.best.eval.fitness);
          final_acc.add(result.best.eval.attack_accuracy);
          half_fit.add(result.trajectory[result.trajectory.size() / 2]);
          evals = result.evaluations;
        }
        table.add_row({name, util::fmt(final_fit.mean()),
                       util::fmt_pct(final_acc.mean()),
                       util::fmt(half_fit.mean()), std::to_string(evals)});
      };

  add_heuristic("simulated annealing", [&](std::uint64_t seed) {
    ga::AnnealingConfig config;
    config.evaluations = budget;
    config.seed = seed;
    eval::EvalPipeline pipeline(original, make_pipeline_config(seed, false));
    return ga::simulated_annealing(pipeline, {.mux_sites = key_bits}, config);
  });
  add_heuristic("hill climbing", [&](std::uint64_t seed) {
    ga::HillClimbConfig config;
    config.evaluations = budget;
    config.seed = seed;
    eval::EvalPipeline pipeline(original, make_pipeline_config(seed, false));
    return ga::hill_climb(pipeline, {.mux_sites = key_bits}, config);
  });
  add_heuristic("random search", [&](std::uint64_t seed) {
    ga::RandomSearchConfig config;
    config.evaluations = budget;
    config.seed = seed;
    eval::EvalPipeline pipeline(original, make_pipeline_config(seed, false));
    return ga::random_search(pipeline, {.mux_sites = key_bits}, config);
  });

  benchx::emit(table, args,
               "X7 — heuristic comparison at equal budget (c432, K=" +
                   std::to_string(key_bits) + ", " + std::to_string(budget) +
                   " evaluations, structural fitness)");
  return 0;
}
