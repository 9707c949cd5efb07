// Tests for the unified attack-oracle & evaluation subsystem (src/eval/):
//   - AttackRegistry by-name construction and error handling;
//   - conformance: every registered attack runs on the same small locked
//     design and produces an in-range, fully-populated AttackReport that
//     does not depend on what its EvalWorkspace evaluated before; every
//     attack's report on a D-MUX, RLL, Anti-SAT and compound lock is pinned
//     field by field;
//   - FitnessCache regression for the genotype-hash-collision bug (the old
//     GA cache keyed on a 64-bit digest and silently served wrong fitness
//     on collision; the cache now keys on the full genotype);
//   - EvalPipeline scalar/multi-objective evaluation, caching, and the GA
//     integration path.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>

#include "core/ga.hpp"
#include "core/nsga2.hpp"
#include "eval/fitness_cache.hpp"
#include "eval/pipeline.hpp"
#include "eval/registry.hpp"
#include "eval/workspace.hpp"
#include "locking/antisat.hpp"
#include "locking/mux_lock.hpp"
#include "locking/rll.hpp"
#include "netlist/generator.hpp"

namespace autolock::eval {
namespace {

using netlist::Netlist;

/// Cheap attack knobs so the conformance suite stays fast.
AttackOptions fast_options(const Netlist& oracle) {
  AttackOptions options;
  options.oracle = &oracle;
  options.muxlink.epochs = 4;
  options.muxlink.max_train_links = 120;
  options.muxlink.subgraph.max_nodes = 32;
  options.structural.epochs = 10;
  options.structural.max_train_links = 400;
  options.ensemble = 2;
  return options;
}

TEST(AttackRegistry, ListsAllFiveBuiltinAttacks) {
  const std::vector<std::string> expected = {
      "muxlink", "muxlink-ensemble", "sat", "scope", "structural"};
  EXPECT_EQ(AttackRegistry::instance().names(), expected);
  // Every name constructs an attack that reports that name.
  const Netlist original =
      netlist::gen::make_profile(netlist::gen::ProfileId::kC432, 1);
  for (const std::string& name : expected) {
    EXPECT_EQ(AttackRegistry::instance()
                  .create(name, fast_options(original))
                  ->name(),
              name);
  }
}

TEST(AttackRegistry, UnknownNameThrowsWithKnownNames) {
  try {
    make_attack("no-such-attack");
    FAIL() << "expected std::out_of_range";
  } catch (const std::out_of_range& e) {
    EXPECT_NE(std::string(e.what()).find("muxlink"), std::string::npos);
  }
}

TEST(AttackRegistry, SatRequiresOracle) {
  EXPECT_THROW(make_attack("sat"), std::invalid_argument);
}

TEST(AttackConformance, EveryRegisteredAttackPopulatesReportInRange) {
  const Netlist original =
      netlist::gen::make_profile(netlist::gen::ProfileId::kC432, 11);
  const auto design = lock::dmux_lock(original, 6, 3);
  const AttackOptions options = fast_options(original);

  for (const auto& name : AttackRegistry::instance().names()) {
    SCOPED_TRACE(name);
    const auto attack = make_attack(name, options);
    ASSERT_NE(attack, nullptr);
    EXPECT_EQ(attack->name(), name);
    EvalWorkspace workspace;
    const AttackReport report = attack->evaluate(design, workspace);
    EXPECT_EQ(report.attack, name);
    EXPECT_EQ(report.key_bits, 6u);
    EXPECT_GE(report.accuracy, 0.0);
    EXPECT_LE(report.accuracy, 1.0);
    EXPECT_GE(report.precision, 0.0);
    EXPECT_LE(report.precision, 1.0);
    EXPECT_GE(report.decided_fraction, 0.0);
    EXPECT_LE(report.decided_fraction, 1.0);
    EXPECT_GE(report.key_recovery, 0.0);
    EXPECT_LE(report.key_recovery, 1.0);
    EXPECT_GE(report.seconds, 0.0);
    if (report.key_recovered) {
      EXPECT_GT(report.key_bits, 0u);
    }
  }
}

TEST(AttackConformance, SatRecoversMuxKeyThroughAdapter) {
  const Netlist original = netlist::gen::c17();
  const auto design = lock::dmux_lock(original, 2, 7);
  const auto attack = make_attack("sat", fast_options(original));
  EvalWorkspace workspace;
  const AttackReport report = attack->evaluate(design, workspace);
  EXPECT_TRUE(report.key_recovered);
  EXPECT_EQ(report.accuracy, 1.0);
}

TEST(AttackConformance, FreshAndWarmedWorkspacesGiveIdenticalReports) {
  // One-shot callers pass a fresh EvalWorkspace, the pipeline a per-shard
  // one that has evaluated other designs (and other attacks) before. Every
  // registered attack must report the same thing either way.
  const Netlist original =
      netlist::gen::make_profile(netlist::gen::ProfileId::kC432, 11);
  const auto design = lock::dmux_lock(original, 6, 3);
  const auto other = lock::dmux_lock(original, 12, 99);
  const AttackOptions options = fast_options(original);

  EvalWorkspace warmed;
  warmed.reserve(original, 12);
  for (const auto& name : AttackRegistry::instance().names()) {
    SCOPED_TRACE(name);
    const auto attack = make_attack(name, options);
    EvalWorkspace fresh;
    const AttackReport expected = attack->evaluate(design, fresh);
    (void)attack->evaluate(other, warmed);  // dirty every buffer it uses
    const AttackReport actual = attack->evaluate(design, warmed);
    EXPECT_EQ(actual.attack, expected.attack);
    EXPECT_EQ(actual.key_bits, expected.key_bits);
    EXPECT_EQ(actual.accuracy, expected.accuracy);
    EXPECT_EQ(actual.precision, expected.precision);
    EXPECT_EQ(actual.decided_fraction, expected.decided_fraction);
    EXPECT_EQ(actual.attacked_fraction, expected.attacked_fraction);
    EXPECT_EQ(actual.key_recovery, expected.key_recovery);
    EXPECT_EQ(actual.key_recovered, expected.key_recovered);
  }
}

TEST(AttackConformance, ReportsPinnedOnEveryScheme) {
  // Every registered attack's report on every locking scheme, pinned to the
  // last bit: which key bits count, and for how much, feeds every fitness
  // value, NSGA-II objective and campaign cell, so a scoring change must
  // show here. Values printed with %.17g.
  struct Pinned {
    const char* scheme;
    const char* attack;
    std::size_t key_bits;
    double accuracy;
    double precision;
    double decided_fraction;
    double attacked_fraction;
    double key_recovery;
    bool key_recovered;
  };
  static constexpr Pinned kPinned[] = {
      {"dmux", "muxlink", 6, 0.66666666666666663, 0, 0, 1,
       0.66666666666666663, false},
      {"dmux", "muxlink-ensemble", 6, 0.5, 0, 0.16666666666666666, 1, 0.5,
       false},
      {"dmux", "sat", 6, 1, 1, 1, 1, 1, true},
      {"dmux", "scope", 6, 0.66666666666666663, 1, 0.33333333333333331, 1,
       0.33333333333333331, false},
      {"dmux", "structural", 6, 0.66666666666666663, 0.59999999999999998,
       0.83333333333333337, 1, 0.66666666666666663, false},
      {"rll", "muxlink", 6, 0.5, 0, 0, 0, 0.5, false},
      {"rll", "muxlink-ensemble", 6, 0.5, 0, 0, 0, 0.5, false},
      {"rll", "sat", 6, 1, 0.66666666666666663, 1, 1, 0.66666666666666663,
       true},
      {"rll", "scope", 6, 1, 1, 1, 1, 1, true},
      {"rll", "structural", 6, 0.5, 0, 0, 0, 0.5, false},
      {"antisat", "muxlink", 4, 0.5, 0, 0, 0, 0.5, false},
      {"antisat", "muxlink-ensemble", 4, 0.5, 0, 0, 0, 0.5, false},
      {"antisat", "sat", 4, 1, 0.5, 1, 1, 0.5, true},
      {"antisat", "scope", 4, 0.5, 0.5, 1, 1, 0.5, false},
      {"antisat", "structural", 4, 0.5, 0, 0, 0, 0.5, false},
      {"compound", "muxlink", 8, 0.75, 1, 0.125, 0.5, 0.75, false},
      {"compound", "muxlink-ensemble", 8, 0.75, 1, 0.125, 0.5, 0.75, false},
      {"compound", "sat", 8, 1, 1, 1, 1, 1, true},
      {"compound", "scope", 8, 0.875, 1, 0.75, 1, 0.75, false},
      {"compound", "structural", 8, 0.5, 0.33333333333333331, 0.375, 0.5,
       0.5, false},
  };

  const Netlist original =
      netlist::gen::make_profile(netlist::gen::ProfileId::kC432, 11);
  lock::AntiSatOptions antisat;
  antisat.width = 2;
  const std::vector<std::pair<std::string, lock::LockedDesign>> designs = {
      {"dmux", lock::dmux_lock(original, 6, 3)},
      {"rll", lock::rll_lock(original, 6, 3)},
      {"antisat", lock::antisat_lock(original, antisat, 3)},
      {"compound", lock::compound_lock(original, 4, antisat, 3)},
  };
  const AttackOptions options = fast_options(original);
  std::size_t checked = 0;
  for (const Pinned& pin : kPinned) {
    SCOPED_TRACE(std::string(pin.scheme) + " / " + pin.attack);
    const auto design = std::find_if(
        designs.begin(), designs.end(),
        [&](const auto& entry) { return entry.first == pin.scheme; });
    ASSERT_NE(design, designs.end());
    EvalWorkspace workspace;
    const AttackReport report =
        make_attack(pin.attack, options)->evaluate(design->second, workspace);
    EXPECT_EQ(report.attack, pin.attack);
    EXPECT_EQ(report.key_bits, pin.key_bits);
    EXPECT_EQ(report.accuracy, pin.accuracy);
    EXPECT_EQ(report.precision, pin.precision);
    EXPECT_EQ(report.decided_fraction, pin.decided_fraction);
    EXPECT_EQ(report.attacked_fraction, pin.attacked_fraction);
    EXPECT_EQ(report.key_recovery, pin.key_recovery);
    EXPECT_EQ(report.key_recovered, pin.key_recovered);
    ++checked;
  }
  // Every scheme meets every registered attack.
  EXPECT_EQ(checked,
            designs.size() * AttackRegistry::instance().names().size());
}

// ---- fitness cache: the collision regression -----------------------------

/// Degenerate hash that maps every genotype to one bucket: with the old
/// digest-keyed cache this aliased all genotypes to a single entry; with
/// full-genotype keys they must stay distinct.
struct CollidingHash {
  std::size_t operator()(const Genotype&) const noexcept { return 42; }
};

Genotype genotype_of(netlist::NodeId base, bool key_bit) {
  return {lock::Gene::mux(base, base + 1, base + 2, base + 3, key_bit)};
}

TEST(FitnessCache, HashCollisionDoesNotAliasGenotypes) {
  FitnessCache<int, CollidingHash> cache;
  const Genotype a = genotype_of(1, false);
  const Genotype b = genotype_of(9, true);
  cache.store(a, 111);
  cache.store(b, 222);
  ASSERT_EQ(cache.size(), 2u);  // the old digest cache would hold 1
  int out = 0;
  ASSERT_TRUE(cache.lookup(a, out));
  EXPECT_EQ(out, 111);
  ASSERT_TRUE(cache.lookup(b, out));
  EXPECT_EQ(out, 222);
}

TEST(FitnessCache, KeyBitDifferenceIsADifferentGenotype) {
  // Key-bit flips are the GA's cheapest mutation; a cache that conflated
  // them would freeze the search. (Guards the GenotypeHash/equality pair.)
  FitnessCache<int> cache;
  cache.store(genotype_of(1, false), 1);
  cache.store(genotype_of(1, true), 2);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_NE(GenotypeHash{}(genotype_of(1, false)),
            GenotypeHash{}(genotype_of(1, true)));
}

// ---- EvalPipeline --------------------------------------------------------

TEST(EvalPipeline, ScalarFitnessMatchesAttackAccuracy) {
  // Fitness is 1 - the mean accuracy of the attack list, plus the
  // saturated corruption term when it is weighted in.
  const Netlist original =
      netlist::gen::make_profile(netlist::gen::ProfileId::kC432, 12);
  const auto design = lock::dmux_lock(original, 8, 5);
  struct Case {
    std::vector<std::string> attacks;
    double corruption_weight;
  };
  const std::vector<Case> cases = {{{"structural"}, 0.0},
                                   {{"structural", "scope"}, 0.0},
                                   {{"structural"}, 0.3}};
  for (const Case& c : cases) {
    SCOPED_TRACE(testing::Message() << c.attacks.size() << " attack(s), weight "
                                    << c.corruption_weight);
    EvalPipelineConfig config;
    config.attacks = c.attacks;
    config.attack_options = fast_options(original);
    config.corruption_weight = c.corruption_weight;
    EvalPipeline pipeline(original, std::move(config));
    const ga::Evaluation eval = pipeline.score(design);

    double accuracy = 0.0;
    EvalWorkspace workspace;
    for (const auto& name : c.attacks) {
      accuracy += make_attack(name, fast_options(original))
                      ->evaluate(design, workspace)
                      .accuracy;
    }
    accuracy /= static_cast<double>(c.attacks.size());
    EXPECT_GE(eval.attack_accuracy, 0.0);
    EXPECT_LE(eval.attack_accuracy, 1.0);
    EXPECT_DOUBLE_EQ(eval.attack_accuracy, accuracy);
    if (c.corruption_weight == 0.0) {
      EXPECT_DOUBLE_EQ(eval.fitness, 1.0 - eval.attack_accuracy);
    } else {
      EXPECT_GT(eval.corruption, 0.0);
      EXPECT_DOUBLE_EQ(eval.fitness,
                       1.0 - eval.attack_accuracy +
                           std::min(eval.corruption, 0.5) / 0.5 * 0.3);
    }
  }
}

TEST(EvalPipeline, ObjectivesOnePerAttackPlusCorruption) {
  const Netlist original =
      netlist::gen::make_profile(netlist::gen::ProfileId::kC432, 13);
  EvalPipelineConfig config;
  config.attacks = {"structural", "scope"};
  config.attack_options = fast_options(original);
  config.corruption_objective = true;
  config.corruption_vectors = 64;
  EvalPipeline pipeline(original, std::move(config));
  ASSERT_EQ(pipeline.num_objectives(), 3u);

  util::Rng rng(3);
  std::vector<ga::MoIndividual> population(1);
  population[0].genes = lock::random_genotype(pipeline.context(), 6, rng);
  pipeline.evaluate_population(population, 0);
  const std::vector<double>& objectives = population[0].objectives;
  ASSERT_EQ(objectives.size(), 3u);
  for (const double objective : objectives) {
    EXPECT_GE(objective, 0.0);
    EXPECT_LE(objective, 1.0 + 1e-12);
  }
}

TEST(EvalPipeline, CacheHitSkipsReevaluation) {
  const Netlist original =
      netlist::gen::make_profile(netlist::gen::ProfileId::kC432, 14);
  std::atomic<std::size_t> calls{0};
  EvalPipelineConfig config;
  config.fitness_override = [&calls](const lock::LockedDesign& design) {
    calls.fetch_add(1);
    ga::Evaluation eval;
    eval.fitness = static_cast<double>(design.key.size());
    return eval;
  };
  EvalPipeline pipeline(original, std::move(config));

  util::Rng rng(5);
  ga::Genotype genes = lock::random_genotype(pipeline.context(), 8, rng);
  const auto first = pipeline.evaluate(genes);
  const auto second = pipeline.evaluate(genes);  // repaired genes -> hit
  EXPECT_EQ(calls.load(), 1u);
  EXPECT_EQ(pipeline.evaluations(), 1u);
  EXPECT_EQ(pipeline.cache_hits(), 1u);
  EXPECT_EQ(first.fitness, second.fitness);

  pipeline.clear_cache();
  pipeline.evaluate(genes);
  EXPECT_EQ(calls.load(), 2u);
}

TEST(EvalPipeline, GaRunsEntirelyThroughPipeline) {
  const Netlist original =
      netlist::gen::make_profile(netlist::gen::ProfileId::kC432, 15);
  std::atomic<std::size_t> calls{0};
  EvalPipelineConfig config;
  config.fitness_override = [&calls](const lock::LockedDesign& design) {
    calls.fetch_add(1);
    ga::Evaluation eval;
    double ones = 0.0;
    for (bool bit : design.key) ones += bit ? 1.0 : 0.0;
    eval.fitness = ones / static_cast<double>(design.key.size());
    eval.attack_accuracy = 1.0 - eval.fitness;
    return eval;
  };
  config.seed = 21;
  EvalPipeline pipeline(original, std::move(config));

  ga::GaConfig ga_config;
  ga_config.population = 8;
  ga_config.generations = 4;
  ga_config.seed = 21;
  ga::GeneticAlgorithm engine(original, ga_config);
  const ga::GaResult result = engine.run({.mux_sites = 10}, pipeline);

  // Every GA evaluation was one pipeline fitness call — no side channels —
  // and elites/duplicates were served by the cache.
  EXPECT_EQ(calls.load(), result.evaluations);
  EXPECT_EQ(pipeline.evaluations(), result.evaluations);
  EXPECT_LT(result.evaluations, 8u * 5u);
  EXPECT_GT(pipeline.cache_hits(), 0u);
}

TEST(EvalPipeline, MismatchedNetlistThrows) {
  const Netlist a = netlist::gen::make_profile(netlist::gen::ProfileId::kC432, 1);
  const Netlist b = netlist::gen::make_profile(netlist::gen::ProfileId::kC432, 2);
  EvalPipelineConfig config;
  config.fitness_override = [](const lock::LockedDesign&) {
    return ga::Evaluation{};
  };
  EvalPipeline pipeline(a, std::move(config));
  ga::GeneticAlgorithm engine(b, {});
  EXPECT_THROW(engine.run({.mux_sites = 4}, pipeline), std::invalid_argument);
}

TEST(EvalPipeline, ParallelBatchMatchesSequential) {
  const Netlist original =
      netlist::gen::make_profile(netlist::gen::ProfileId::kC432, 16);
  const auto make_config = [&](std::size_t threads) {
    EvalPipelineConfig config;
    config.attacks = {"structural"};
    config.attack_options = fast_options(original);
    config.threads = threads;
    config.seed = 77;
    return config;
  };
  EvalPipeline sequential(original, make_config(1));
  EvalPipeline parallel(original, make_config(3));

  std::vector<ga::Individual> pop_a(6);
  std::vector<ga::Individual> pop_b(6);
  util::Rng rng(9);
  for (std::size_t i = 0; i < pop_a.size(); ++i) {
    util::Rng fork = rng.fork();
    pop_a[i].genes = lock::random_genotype(sequential.context(), 6, fork);
    pop_b[i].genes = pop_a[i].genes;
  }
  sequential.evaluate_population(pop_a, 0);
  parallel.evaluate_population(pop_b, 0);
  for (std::size_t i = 0; i < pop_a.size(); ++i) {
    EXPECT_DOUBLE_EQ(pop_a[i].eval.fitness, pop_b[i].eval.fitness);
    EXPECT_EQ(pop_a[i].genes, pop_b[i].genes);
  }
}

}  // namespace
}  // namespace autolock::eval
