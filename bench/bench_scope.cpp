// X9: oracle-less synthesis attack (SCOPE-style) across schemes.
//
// Shape: SCOPE strips RLL nearly completely (high decided fraction, ~100%
// accuracy on decided bits) but is blind against MUX-pair locking — the
// structural symmetry D-MUX introduced and AutoLock inherits. This is the
// second, independent confirmation that MUX locking moved the battleground
// to *learning* attacks, which is the paper's premise.
#include "bench/common.hpp"

#include "attacks/scope.hpp"
#include "locking/rll.hpp"

int main(int argc, char** argv) {
  using namespace autolock;
  const auto args = benchx::parse_args(argc, argv);

  struct Case {
    netlist::gen::ProfileId profile;
    std::size_t key_bits;
  };
  const std::vector<Case> cases =
      args.quick ? std::vector<Case>{{netlist::gen::ProfileId::kC432, 8}}
                 : std::vector<Case>{{netlist::gen::ProfileId::kC432, 32},
                                     {netlist::gen::ProfileId::kC880, 32},
                                     {netlist::gen::ProfileId::kC1355, 32}};

  util::Table table({"circuit", "K", "scheme", "decided", "acc on decided",
                     "expected overall acc"});
  const attack::ScopeAttack attacker;

  for (const auto& test_case : cases) {
    const auto original = netlist::gen::make_profile(test_case.profile, 1);

    struct Row {
      const char* scheme;
      lock::LockedDesign design;
    };
    std::vector<Row> rows;
    rows.push_back({"RLL", lock::rll_lock(original, test_case.key_bits, 5)});
    rows.push_back(
        {"D-MUX", lock::dmux_lock(original, test_case.key_bits, 5)});
    {
      ga::GaConfig config;
      config.population = 8;
      config.generations = args.quick ? 1 : 3;
      config.seed = 5;
      eval::EvalPipelineConfig pipeline_config;
      pipeline_config.attacks = {"structural"};
      pipeline_config.seed = config.seed;
      eval::EvalPipeline pipeline(original, std::move(pipeline_config));
      const ga::GaResult result = ga::GeneticAlgorithm(original, config).run(
          {.mux_sites = test_case.key_bits}, pipeline);
      rows.push_back({"AutoLock", pipeline.decode(result.best.genes)});
    }

    for (const auto& [scheme, design] : rows) {
      const auto score = attacker.run(design);
      table.add_row({original.name(), std::to_string(test_case.key_bits),
                     scheme, util::fmt_pct(score.decided_fraction),
                     util::fmt_pct(score.accuracy_on_decided),
                     util::fmt_pct(score.expected_overall_accuracy)});
    }
  }
  benchx::emit(table, args,
               "X9 — SCOPE-style oracle-less attack: RLL leaks, MUX locking "
               "does not");
  return 0;
}
