// Tier-1 coverage for the campaign runner (src/campaign/):
//
//   - the --quick matrix passes every verification stage and its
//     deterministic JSON is byte-identical across runs and thread counts
//     (the contract CI's cmp gate relies on);
//   - a sub-matrix reproduces exactly the cells of a larger matrix for the
//     shared axes (the quick-vs-committed-full CI diff contract);
//   - axis_seed depends on axis NAMES (with separator, so ("ab","c") and
//     ("a","bc") differ) and not on enumeration order;
//   - to_json escapes every control character by its byte value;
//   - check_report_invariants accepts a sane report and names each
//     violated invariant;
//   - resolve-time validation rejects unknown circuit/attack/optimizer
//     names before any cell runs.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "campaign/campaign.hpp"

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
  // matrix has lock jobs (8), so some shards only ever run attack cells.
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

}  // namespace
}  // namespace autolock
