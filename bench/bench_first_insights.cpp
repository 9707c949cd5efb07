// E2 ("First Insights"): the paper's headline quantitative claim.
//
//   "First experimental results (without parameter tuning) indicate the
//    capability of AutoLock to generate locked netlists that successfully
//    decrease the attack accuracy by 25 percentage points."
//
// For each circuit we measure (a) the mean MuxLink accuracy over the initial
// random D-MUX population (the pre-evolution baseline) and (b) the accuracy
// against the evolved locked netlist, and report the drop in percentage
// points. Expected shape: average drop in the ~20-30 pp range.
#include "bench/common.hpp"

#include "locking/verify.hpp"
#include "util/stats.hpp"

int main(int argc, char** argv) {
  using namespace autolock;
  const auto args = benchx::parse_args(argc, argv);

  struct Case {
    netlist::gen::ProfileId profile;
    std::size_t key_bits;
  };
  std::vector<Case> cases;
  if (args.quick) {
    cases = {{netlist::gen::ProfileId::kC432, 16}};
  } else {
    cases = {{netlist::gen::ProfileId::kC432, 32},
             {netlist::gen::ProfileId::kC432, 64},
             {netlist::gen::ProfileId::kC880, 32},
             {netlist::gen::ProfileId::kC1355, 32}};
  }

  util::Table table({"circuit", "K", "acc before (init pop mean)",
                     "acc after (evolved)", "drop (pp)", "verified",
                     "evals", "time (s)"});
  util::OnlineStats drops;

  for (const auto& test_case : cases) {
    const auto original = netlist::gen::make_profile(test_case.profile, 1);

    ga::GaConfig config;
    config.population = args.quick ? 6 : 10;
    config.generations = args.quick ? 2 : 5;
    config.seed = 42;
    eval::EvalPipelineConfig pipeline_config;
    pipeline_config.attacks = {"muxlink"};
    pipeline_config.attack_options.muxlink = benchx::muxlink_fast();
    pipeline_config.seed = config.seed;

    util::Timer timer;
    eval::EvalPipeline pipeline(original, std::move(pipeline_config));
    const ga::GaResult result = ga::GeneticAlgorithm(original, config).run(
        {.mux_sites = test_case.key_bits}, pipeline);
    const bool verified =
        lock::verify_unlocks(pipeline.decode(result.best.genes), original);
    const double initial_accuracy = result.history.front().mean_accuracy;
    const double final_accuracy = result.best.eval.attack_accuracy;
    const double drop_pp = 100.0 * (initial_accuracy - final_accuracy);
    drops.add(drop_pp);

    table.add_row({original.name(), std::to_string(test_case.key_bits),
                   util::fmt_pct(initial_accuracy),
                   util::fmt_pct(final_accuracy), util::fmt(drop_pp, 1),
                   verified ? "yes" : "NO", std::to_string(result.evaluations),
                   util::fmt(timer.elapsed_seconds(), 1)});
  }

  table.add_row({"mean", "", "", "", util::fmt(drops.mean(), 1), "", "", ""});
  benchx::emit(table, args,
               "E2 / First Insights — MuxLink accuracy drop from AutoLock "
               "(paper: ~25 pp)");
  return 0;
}
