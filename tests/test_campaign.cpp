// Tier-1 coverage for the campaign runner (src/campaign/):
//
//   - the quick matrix passes every verification stage and its
//     deterministic JSON is byte-identical across runs and thread counts
//     (the contract CI's cmp gate relies on);
//   - a sub-matrix reproduces exactly the cells of a larger matrix for the
//     shared axes (the quick-vs-committed-full CI diff contract);
//   - the named experiment specs (scope, muxlink, heuristics), cut to their
//     c432 row, verify every cell at byte-identical reports across thread
//     counts, and every simulated-annealing lock spends exactly its budget;
//   - axis_seed depends on axis NAMES (with separator, so ("ab","c") and
//     ("a","bc") differ) and not on enumeration order;
//   - to_json escapes every control character by its byte value;
//   - check_report_invariants accepts a sane report and names each
//     violated invariant;
//   - resolve-time validation rejects unknown circuit/attack/optimizer
//     names and budgets the optimizers cannot run before any cell runs;
//   - two shard pipelines sharing one SiteContext and oracle simulator, as
//     campaign::run builds them, decode, measure corruption and prove from
//     two threads at once with the results of one sequential pipeline.
#include <gtest/gtest.h>

#include <cstddef>
#include <stdexcept>
#include <string>
#include <vector>

#include "campaign/campaign.hpp"
#include "eval/pipeline.hpp"
#include "eval/workspace.hpp"
#include "locking/verify.hpp"
#include "netlist/generator.hpp"
#include "sat/cnf.hpp"
#include "util/thread_pool.hpp"

namespace autolock {
namespace {

// Both determinism tests share one reference run; a second run (and a
// multi-threaded one) must serialize identically.
class CampaignQuick : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    result_ = new campaign::CampaignResult(campaign::run(campaign::quick_spec()));
  }
  static void TearDownTestSuite() {
    delete result_;
    result_ = nullptr;
  }
  static const campaign::CampaignResult* result_;
};

const campaign::CampaignResult* CampaignQuick::result_ = nullptr;

TEST_F(CampaignQuick, EveryCellPassesVerification) {
  ASSERT_FALSE(result_->cells.empty());
  for (const campaign::CellResult& cell : result_->cells) {
    EXPECT_TRUE(cell.verification.passed())
        << cell.circuit << "/" << cell.scheme << "/" << cell.optimizer << "/"
        << cell.attack << ": " << cell.verification.failure;
  }
  EXPECT_TRUE(result_->all_passed());
  // The quick matrix must actually span the scheme axis (4 built-ins) and
  // the full attack registry — otherwise the tier-1 gate stops covering
  // the compound decode and the registry's newest entry silently.
  EXPECT_EQ(result_->spec.schemes.size(), 4u);
  EXPECT_EQ(result_->spec.attacks.size(), 5u);
}

TEST_F(CampaignQuick, ReportIsByteDeterministicAcrossRunsAndThreads) {
  const std::string reference = campaign::to_json(*result_);

  const campaign::CampaignResult rerun = campaign::run(campaign::quick_spec());
  EXPECT_EQ(campaign::to_json(rerun), reference);

  // 2 is the benchmark's pool size; 9 gives more shards than the quick
  // matrix has lock jobs (8), so some shards never run a job.
  for (const std::size_t threads : {2u, 3u, 9u}) {
    campaign::CampaignSpec threaded = campaign::quick_spec();
    threaded.threads = threads;
    const campaign::CampaignResult parallel = campaign::run(threaded);
    EXPECT_EQ(campaign::to_json(parallel), reference)
        << "report depends on the thread count (" << threads << " threads)";
  }
}

TEST_F(CampaignQuick, SubMatrixReproducesFullMatrixCells) {
  // Drop one scheme and one attack from the quick matrix: every surviving
  // (circuit, scheme, optimizer, attack) cell must be field-identical to
  // the full run's cell — the property that lets CI diff a quick run
  // against the committed full-campaign baseline.
  campaign::CampaignSpec subset = campaign::quick_spec();
  subset.schemes = {result_->spec.schemes[0], result_->spec.schemes[2]};
  subset.attacks = {"structural", "sat"};
  const campaign::CampaignResult sub = campaign::run(subset);

  ASSERT_FALSE(sub.cells.empty());
  for (const campaign::CellResult& cell : sub.cells) {
    const campaign::CellResult* match = nullptr;
    for (const campaign::CellResult& full : result_->cells) {
      if (full.circuit == cell.circuit && full.scheme == cell.scheme &&
          full.optimizer == cell.optimizer && full.attack == cell.attack) {
        match = &full;
        break;
      }
    }
    ASSERT_NE(match, nullptr) << cell.scheme << "/" << cell.attack;
    EXPECT_EQ(cell.accuracy, match->accuracy);
    EXPECT_EQ(cell.precision, match->precision);
    EXPECT_EQ(cell.attacked_fraction, match->attacked_fraction);
    EXPECT_EQ(cell.key_recovery, match->key_recovery);
    EXPECT_EQ(cell.key_recovered, match->key_recovered);
    EXPECT_EQ(cell.resilience, match->resilience);
    EXPECT_EQ(cell.key_bits, match->key_bits);
  }
}

// Runs `spec` on its c432 row alone, everything else unchanged: every cell
// verifies, the report is the same at 1 and 3 threads, and each "anneal"
// lock reports exactly the heuristic budget. Returns the anneal lock count.
std::size_t check_c432_row(campaign::CampaignSpec spec) {
  std::erase_if(spec.circuits, [](const campaign::CircuitAxis& circuit) {
    return circuit.name != "c432";
  });
  EXPECT_EQ(spec.circuits.size(), 1u);
  spec.threads = 1;
  const campaign::CampaignResult serial = campaign::run(spec);
  EXPECT_FALSE(serial.cells.empty());
  EXPECT_TRUE(serial.all_passed());
  for (const campaign::CellResult& cell : serial.cells) {
    EXPECT_TRUE(cell.verification.passed())
        << cell.scheme << "/" << cell.optimizer << "/" << cell.attack << ": "
        << cell.verification.failure;
  }
  std::size_t anneal_locks = 0;
  for (const campaign::LockResult& lock : serial.locks) {
    if (lock.optimizer != "anneal") continue;
    ++anneal_locks;
    EXPECT_EQ(lock.optimizer_evaluations, spec.budget.heuristic_evaluations)
        << lock.scheme;
  }
  spec.threads = 3;
  EXPECT_EQ(campaign::to_json(campaign::run(spec)), campaign::to_json(serial));
  return anneal_locks;
}

TEST(CampaignNamedSpecs, ScopeC432RowPasses) {
  check_c432_row(campaign::scope_spec());
}

TEST(CampaignNamedSpecs, MuxLinkC432RowPasses) {
  check_c432_row(campaign::muxlink_spec());
}

TEST(CampaignNamedSpecs, HeuristicsC432RowPassesAtEqualBudgets) {
  EXPECT_EQ(check_c432_row(campaign::heuristics_spec()), 1u);
}

TEST(CampaignSeeds, DependOnAxisNamesNotOrder) {
  const std::uint64_t a = campaign::axis_seed(1, "c432", "dmux", "ga", "sat");
  EXPECT_EQ(a, campaign::axis_seed(1, "c432", "dmux", "ga", "sat"));
  EXPECT_NE(a, campaign::axis_seed(2, "c432", "dmux", "ga", "sat"));
  EXPECT_NE(a, campaign::axis_seed(1, "c880", "dmux", "ga", "sat"));
  EXPECT_NE(a, campaign::axis_seed(1, "c432", "rll", "ga", "sat"));
  EXPECT_NE(a, campaign::axis_seed(1, "c432", "dmux", "random", "sat"));
  EXPECT_NE(a, campaign::axis_seed(1, "c432", "dmux", "ga", "scope"));
  // Field separation: shifting a character across the axis boundary must
  // change the hash, or ("ab","c") and ("a","bc") would share streams.
  EXPECT_NE(campaign::axis_seed(1, "ab", "c", "ga", "sat"),
            campaign::axis_seed(1, "a", "bc", "ga", "sat"));
  // The attack slot is part of the stream identity (lock-stage streams use
  // an empty attack, cell streams a real name — they must never collide).
  EXPECT_NE(campaign::axis_seed(1, "c432", "dmux", "ga"),
            campaign::axis_seed(1, "c432", "dmux", "ga", "sat"));
}

TEST(CampaignJson, EscapesControlCharactersByByteValue) {
  // Campaign and scheme names are free-form: every control character must
  // serialize as the \u00XX escape of its own byte.
  campaign::CampaignResult result;
  result.spec.name = "a\rb\x01" "c\x1f\"\\\n\t";
  result.spec.schemes = {{"s\x7f\x02", lock::GenotypeSpec{.mux_sites = 8}}};
  const std::string json = campaign::to_json(result);
  EXPECT_NE(json.find(R"("campaign": "a\u000db\u0001c\u001f\"\\\n\t")"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("{\"name\": \"s\x7f\\u0002\""), std::string::npos)
      << json;
}

eval::AttackReport sane_report() {
  eval::AttackReport report;
  report.attack = "structural";
  report.key_bits = 8;
  report.accuracy = 0.75;
  report.precision = 0.8;
  report.key_recovery = 0.5;
  report.decided_fraction = 1.0;
  report.attacked_fraction = 1.0;
  report.key_recovered = false;
  report.seconds = 0.1;
  return report;
}

TEST(CampaignInvariants, AcceptSaneReport) {
  EXPECT_EQ(campaign::check_report_invariants(sane_report(), 8), "");
}

TEST(CampaignInvariants, NameEachViolation) {
  auto violation = [](auto mutate) {
    eval::AttackReport report = sane_report();
    mutate(report);
    return campaign::check_report_invariants(report, 8);
  };
  EXPECT_NE(violation([](auto& r) { r.attack.clear(); }), "");
  EXPECT_NE(violation([](auto& r) { r.key_bits = 7; }), "");
  EXPECT_NE(violation([](auto& r) { r.accuracy = 1.5; }), "");
  EXPECT_NE(violation([](auto& r) { r.accuracy = -0.1; }), "");
  EXPECT_NE(violation([](auto& r) { r.precision = 2.0; }), "");
  EXPECT_NE(violation([](auto& r) { r.key_recovery = -1.0; }), "");
  EXPECT_NE(violation([](auto& r) { r.decided_fraction = 1.01; }), "");
  EXPECT_NE(violation([](auto& r) { r.attacked_fraction = -0.5; }), "");
  EXPECT_NE(violation([](auto& r) { r.seconds = -1.0; }), "");
  // A recovered key with imperfect accuracy is contradictory.
  EXPECT_NE(violation([](auto& r) { r.key_recovered = true; }), "");
}

TEST(CampaignResolve, RejectsUnknownAxisNames) {
  campaign::CampaignSpec base = campaign::quick_spec();
  base.budget.heuristic_evaluations = 1;

  campaign::CampaignSpec bad_attack = base;
  bad_attack.attacks = {"no-such-attack"};
  EXPECT_THROW(campaign::run(bad_attack), std::invalid_argument);

  campaign::CampaignSpec bad_optimizer = base;
  bad_optimizer.optimizers = {"gradient-descent"};
  EXPECT_THROW(campaign::run(bad_optimizer), std::invalid_argument);

  campaign::CampaignSpec bad_circuit = base;
  bad_circuit.circuits = {{"c9999", {}, {}}};
  EXPECT_THROW(campaign::run(bad_circuit), std::invalid_argument);

  campaign::CampaignSpec bad_fitness = base;
  bad_fitness.fitness_attacks = {"no-such-attack"};
  EXPECT_THROW(campaign::run(bad_fitness), std::invalid_argument);
}

// A zero heuristic budget used to return an empty genotype whose zero-key
// design passed every cell, and a one-individual GA population threw only
// after lock jobs were on the pool. resolve() now rejects both, and an
// NSGA-II population below 4, with its own "campaign: " message.
TEST(CampaignResolve, RejectsBudgetsTheOptimizersCannotRun) {
  const auto expect_rejected = [](const campaign::CampaignSpec& spec) {
    try {
      campaign::run(spec);
      ADD_FAILURE() << "budget accepted";
    } catch (const std::invalid_argument& error) {
      EXPECT_EQ(std::string(error.what()).rfind("campaign: ", 0), 0u)
          << error.what();
    }
  };
  const campaign::CampaignSpec base = campaign::quick_spec();

  campaign::CampaignSpec no_heuristic_evaluations = base;
  no_heuristic_evaluations.budget.heuristic_evaluations = 0;
  expect_rejected(no_heuristic_evaluations);

  campaign::CampaignSpec single_ga_individual = base;
  single_ga_individual.budget.ga_population = 1;
  expect_rejected(single_ga_individual);

  campaign::CampaignSpec small_nsga2_population = base;
  small_nsga2_population.budget.nsga2_population = 3;
  expect_rejected(small_nsga2_population);
}

// A zero-vector corruption budget would report every wrong key silent and a
// zero-key budget an all-zero report; resolve() rejects both before any
// lock job runs.
TEST(CampaignResolve, RejectsZeroCorruptionBudgets) {
  const auto expect_rejected = [](const campaign::CampaignSpec& spec) {
    try {
      campaign::run(spec);
      ADD_FAILURE() << "corruption budget accepted";
    } catch (const std::invalid_argument& error) {
      EXPECT_EQ(std::string(error.what()).rfind("campaign: ", 0), 0u)
          << error.what();
    }
  };
  const campaign::CampaignSpec base = campaign::quick_spec();

  campaign::CampaignSpec no_keys = base;
  no_keys.corruption_keys = 0;
  expect_rejected(no_keys);

  campaign::CampaignSpec no_vectors = base;
  no_vectors.corruption_vectors = 0;
  expect_rejected(no_vectors);
}

// campaign::run gives every pool shard its own pipeline, all sharing the
// SiteContext and oracle simulator the first one built. Two such pipelines
// driven from two threads at once (decode into the workspace, corruption
// through the workspace's simulators and the shared oracle, the correct-key
// proof) must reproduce one pipeline run sequentially. The ThreadSanitizer
// lane runs this next to CampaignQuick.
TEST(CampaignSharedContext, TwoShardPipelinesRunAtOnce) {
  const netlist::Netlist original =
      netlist::gen::make_profile(netlist::gen::ProfileId::kC880);
  eval::EvalPipelineConfig config;
  config.cache = false;
  eval::EvalPipeline first(original, config);
  eval::EvalPipeline second(first, config);
  ASSERT_EQ(&first.context(), &second.context());
  ASSERT_EQ(&first.oracle(), &second.oracle());

  struct Outcome {
    std::vector<double> corruption;
    std::vector<bool> unlocks;
  };
  const auto drive = [&original](eval::EvalPipeline& pipeline,
                                 std::uint64_t seed) {
    Outcome out;
    util::Rng rng(seed);
    eval::EvalWorkspace& workspace = pipeline.workspace();
    for (std::uint64_t i = 0; i < 6; ++i) {
      const lock::Genotype genes = lock::random_genotype(
          pipeline.context(),
          {.mux_sites = 8, .rll_gates = 4, .antisat_width = 2}, rng);
      pipeline.decode_into(workspace, genes, i);
      const lock::LockedDesign& design = workspace.design;
      out.corruption.push_back(
          lock::measure_corruption(design, pipeline.oracle(),
                                   {workspace.locked_sim, workspace.sim,
                                    workspace.key_batch, workspace.key_errors},
                                   16, 128, seed + i)
              .mean_error_rate);
      out.unlocks.push_back(
          sat::check_unlocks(design.netlist, design.key, original));
    }
    return out;
  };

  eval::EvalPipeline reference(original, config);
  const Outcome expected[2] = {drive(reference, 1), drive(reference, 2)};
  Outcome got[2];
  eval::EvalPipeline* pipelines[2] = {&first, &second};
  util::ThreadPool pool(2);
  pool.parallel_for_sharded(2, [&](std::size_t, std::size_t i) {
    got[i] = drive(*pipelines[i], i + 1);
  });
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(got[i].corruption, expected[i].corruption) << "pipeline " << i;
    EXPECT_EQ(got[i].unlocks, std::vector<bool>(6, true)) << "pipeline " << i;
  }
}

}  // namespace
}  // namespace autolock
