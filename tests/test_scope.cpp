#include "attacks/scope.hpp"

#include <gtest/gtest.h>

#include "eval/attack.hpp"
#include "locking/rll.hpp"
#include "netlist/generator.hpp"

namespace autolock::attack {
namespace {

using netlist::Netlist;

TEST(Scope, BreaksRllAlmostCompletely) {
  // The attack's raison d'être: XOR/XNOR key gates leak their bit through
  // synthesis cost.
  const Netlist original =
      netlist::gen::make_profile(netlist::gen::ProfileId::kC432, 3);
  const auto design = lock::rll_lock(original, 16, 3);
  const auto report = eval::scope_report(
      ScopeAttack().attack(design.netlist), design.key);
  EXPECT_GT(report.decided_fraction, 0.8);
  // A rare inverter-merge can flip an individual bit's area signal; the
  // attack still recovers the overwhelming majority.
  EXPECT_GT(report.precision, 0.8);
  EXPECT_GT(report.accuracy, 0.75);
}

TEST(Scope, BlindAgainstMuxLocking) {
  // Pinning a MUX select collapses the MUX either way — symmetric cost, so
  // most bits are undecidable and overall accuracy stays near chance.
  const Netlist original =
      netlist::gen::make_profile(netlist::gen::ProfileId::kC432, 5);
  const auto design = lock::dmux_lock(original, 16, 5);
  const auto report = eval::scope_report(
      ScopeAttack().attack(design.netlist), design.key);
  EXPECT_LT(report.decided_fraction, 0.5);
  EXPECT_LT(report.accuracy, 0.7);
}

TEST(Scope, AreasRecorded) {
  const Netlist original =
      netlist::gen::make_profile(netlist::gen::ProfileId::kC432, 7);
  const auto design = lock::rll_lock(original, 4, 7);
  const auto result = ScopeAttack().attack(design.netlist);
  ASSERT_EQ(result.areas.size(), 4u);
  for (const auto& [area0, area1] : result.areas) {
    EXPECT_GT(area0, 0u);
    EXPECT_GT(area1, 0u);
  }
}

TEST(Scope, EmptyKeyNoDecisions) {
  const Netlist original = netlist::gen::c17();
  const auto result = ScopeAttack().attack(original);
  EXPECT_TRUE(result.predicted_bits.empty());
  const auto report = eval::scope_report(result, {});
  EXPECT_EQ(report.key_bits, 0u);
  // SCOPE attacks the whole key, so even an empty one keeps the default
  // attacked_fraction of 1 (a link attack reports 0 there).
  EXPECT_EQ(report.attacked_fraction, 1.0);
  EXPECT_EQ(report.accuracy, 0.0);
  EXPECT_EQ(report.key_recovery, 0.0);
  EXPECT_FALSE(report.key_recovered);
}

TEST(Scope, ScoreArithmetic) {
  ScopeResult result;
  result.predicted_bits = {1, -1, 0, 1};
  const netlist::Key truth{true, false, false, false};
  const auto report = eval::scope_report(result, truth);
  // Decided: bits 0 (correct), 2 (correct), 3 (wrong) -> 2/3.
  EXPECT_NEAR(report.precision, 2.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(report.decided_fraction, 0.75);
  // Expected overall: (2 + 0.5) / 4.
  EXPECT_DOUBLE_EQ(report.accuracy, 2.5 / 4.0);
  EXPECT_DOUBLE_EQ(report.key_recovery, (2.0 / 3.0) * 0.75);
  EXPECT_FALSE(report.key_recovered);
}

}  // namespace
}  // namespace autolock::attack
