// X2: evolutionary-operator ablation (research plan item 2: "the design of
// problem-specific operators").
//
// Grid over {selection} x {crossover} x {mutation rate}, measuring the final
// best fitness (= 1 - attack accuracy) after a fixed budget, averaged over
// seeds. Shows which operator combinations drive resilience fastest.
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

  struct Variant {
    const char* name;
    ga::SelectionOp selection;
    ga::CrossoverOp crossover;
    double mutation_rate;
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
       ga::CrossoverOp::kOnePoint, 0.25},
  };

  util::Table table({"operators", "final best fitness (mean)",
                     "final attack acc (mean)", "gen-0 best fitness",
                     "evals (mean)"});
  for (const auto& variant : variants) {
    util::OnlineStats final_fitness, final_acc, initial_fitness, evals;
    for (const std::uint64_t seed : seeds) {
      ga::GaConfig config;
      config.population = 12;
      config.generations = generations;
      config.selection = variant.selection;
      config.crossover = variant.crossover;
      config.mutation_rate = variant.mutation_rate;
      if (std::string(variant.name).find("mutation-only") != std::string::npos) {
        config.crossover_rate = 0.0;
      }
      config.seed = seed;
      eval::EvalPipelineConfig pipeline_config;
      pipeline_config.attacks = {"structural"};
      pipeline_config.seed = seed;
      eval::EvalPipeline pipeline(original, std::move(pipeline_config));
      const ga::GaResult result = ga::GeneticAlgorithm(original, config).run(
          {.mux_sites = key_bits}, pipeline);
      final_fitness.add(result.history.back().best_fitness);
      final_acc.add(result.best.eval.attack_accuracy);
      initial_fitness.add(result.history.front().best_fitness);
      evals.add(static_cast<double>(result.evaluations));
    }
    table.add_row({variant.name, util::fmt(final_fitness.mean()),
                   util::fmt_pct(final_acc.mean()),
                   util::fmt(initial_fitness.mean()),
                   util::fmt(evals.mean(), 0)});
  }
  benchx::emit(table, args,
               "X2 — operator ablation on c432 (K=" + std::to_string(key_bits) +
                   ", structural fitness, " + std::to_string(seeds.size()) +
                   " seeds)");
  return 0;
}
