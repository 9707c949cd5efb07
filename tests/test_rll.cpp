#include "locking/rll.hpp"

#include <gtest/gtest.h>

#include "locking/verify.hpp"
#include "netlist/generator.hpp"
#include "netlist/simulator.hpp"
#include "support/simulation.hpp"

namespace autolock::lock {
namespace {

using netlist::GateType;
using netlist::Key;
using netlist::Netlist;
using netlist::Simulator;

TEST(Rll, ProducesRequestedKeyLength) {
  const Netlist original =
      netlist::gen::make_profile(netlist::gen::ProfileId::kC432, 3);
  const LockedDesign design = rll_lock(original, 16, 5);
  EXPECT_EQ(design.key.size(), 16u);
  EXPECT_EQ(design.netlist.key_inputs().size(), 16u);
  EXPECT_EQ(design.netlist.stats().gates, original.stats().gates + 16u);
}

TEST(Rll, CorrectKeyRestoresFunction) {
  const Netlist original =
      netlist::gen::make_profile(netlist::gen::ProfileId::kC432, 5);
  const LockedDesign design = rll_lock(original, 24, 7);
  EXPECT_TRUE(verify_unlocks(design, original, VerifyMode::kSimulation, 4096));
}

TEST(Rll, SatProvenOnSmallKey) {
  const Netlist original =
      netlist::gen::make_profile(netlist::gen::ProfileId::kC432, 7);
  const LockedDesign design = rll_lock(original, 8, 9);
  EXPECT_TRUE(verify_unlocks(design, original, VerifyMode::kSat));
}

TEST(Rll, KeyGateTypesFollowKeyBits) {
  // Key bit 0 -> XOR key gate, key bit 1 -> XNOR key gate — the structural
  // leakage that makes RLL learnable (and motivates D-MUX).
  const Netlist original =
      netlist::gen::make_profile(netlist::gen::ProfileId::kC432, 9);
  const LockedDesign design = rll_lock(original, 20, 11);
  for (std::size_t t = 0; t < design.key.size(); ++t) {
    const auto id = design.netlist.find("keyxor" + std::to_string(t));
    ASSERT_NE(id, netlist::kNoNode);
    const auto type = design.netlist.node(id).type;
    EXPECT_EQ(type, design.key[t] ? GateType::kXnor : GateType::kXor);
  }
}

TEST(Rll, MostWrongSingleBitsCorrupt) {
  // An XOR key gate with the wrong bit inverts a live wire. On real ISCAS
  // circuits virtually every wire is observable; our synthetic profiles
  // carry more logic redundancy, so a minority of locked wires can be
  // masked everywhere. Require a clear majority of bits to corrupt.
  const Netlist original =
      netlist::gen::make_profile(netlist::gen::ProfileId::kC432, 13);
  const LockedDesign design = rll_lock(original, 12, 13);
  const Simulator locked_sim(design.netlist);
  const Simulator original_sim(original);
  util::Rng rng(13);
  std::size_t corrupting = 0;
  for (std::size_t b = 0; b < design.key.size(); ++b) {
    Key flipped = design.key;
    flipped[b] = !flipped[b];
    const double err = test_support::output_error_rate(
        locked_sim, flipped, original_sim, Key{}, 4096, rng);
    if (err > 0.0) ++corrupting;
  }
  EXPECT_GE(corrupting, (2 * design.key.size()) / 3);
}

TEST(Rll, ThrowsWhenNotEnoughWires) {
  const Netlist c17 = netlist::gen::c17();
  EXPECT_THROW(rll_lock(c17, 1000, 1), std::runtime_error);
}

TEST(Rll, ThrowsOnZeroKeyBits) {
  EXPECT_THROW(rll_lock(netlist::gen::c17(), 0, 1), std::invalid_argument);
}

TEST(Rll, DeterministicInSeed) {
  const Netlist original =
      netlist::gen::make_profile(netlist::gen::ProfileId::kC432, 15);
  const LockedDesign a = rll_lock(original, 10, 21);
  const LockedDesign b = rll_lock(original, 10, 21);
  EXPECT_EQ(a.key, b.key);
}

TEST(Verify, MeasureCorruptionReportsSane) {
  const Netlist original =
      netlist::gen::make_profile(netlist::gen::ProfileId::kC432, 17);
  const LockedDesign design = rll_lock(original, 16, 23);
  const CorruptionReport report = measure_corruption(design, original, 16, 256);
  EXPECT_EQ(report.keys_sampled, 16u);
  EXPECT_GT(report.mean_error_rate, 0.0);
  EXPECT_LE(report.max_error_rate, 1.0);
  EXPECT_LE(report.min_error_rate, report.mean_error_rate);
  EXPECT_GE(report.max_error_rate, report.mean_error_rate);
  EXPECT_LT(report.silent_wrong_keys, 1.0);
}

TEST(Verify, VerifyDetectsWrongKey) {
  const Netlist original =
      netlist::gen::make_profile(netlist::gen::ProfileId::kC432, 19);
  LockedDesign design = rll_lock(original, 8, 25);
  // Sabotage every bit (a single flipped wire can be logically masked on
  // redundant synthetic circuits; all eight inverted at once cannot).
  for (std::size_t b = 0; b < design.key.size(); ++b) {
    design.key[b] = !design.key[b];
  }
  EXPECT_FALSE(verify_unlocks(design, original, VerifyMode::kSimulation, 4096));
  EXPECT_FALSE(verify_unlocks(design, original, VerifyMode::kSat));
}

TEST(Verify, EmptyKeyNoCorruption) {
  const Netlist original = netlist::gen::c17();
  const LockedDesign design{original, {}, {}, {}};
  const CorruptionReport report = measure_corruption(design, original);
  EXPECT_EQ(report.keys_sampled, 0u);
  EXPECT_EQ(report.mean_error_rate, 0.0);
}

}  // namespace
}  // namespace autolock::lock
