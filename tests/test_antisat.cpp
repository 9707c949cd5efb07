#include "locking/antisat.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "attacks/attack_graph.hpp"
#include "attacks/sat_attack.hpp"
#include "locking/verify.hpp"
#include "netlist/generator.hpp"
#include "sat/cnf.hpp"

namespace autolock::lock {
namespace {

using netlist::Key;
using netlist::Netlist;

TEST(AntiSat, KeyLayout) {
  const Netlist original =
      netlist::gen::make_profile(netlist::gen::ProfileId::kC432, 3);
  AntiSatOptions options;
  options.width = 4;
  const LockedDesign design = antisat_lock(original, options, 3);
  EXPECT_EQ(design.key.size(), 8u);  // 2 * width
  EXPECT_EQ(design.netlist.key_inputs().size(), 8u);
  // K1 == K2 by construction.
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(design.key[i], design.key[4 + i]);
  }
}

TEST(AntiSat, CorrectKeyPreservesFunction) {
  const Netlist original =
      netlist::gen::make_profile(netlist::gen::ProfileId::kC432, 5);
  AntiSatOptions options;
  options.width = 4;
  const LockedDesign design = antisat_lock(original, options, 5);
  EXPECT_TRUE(verify_unlocks(design, original, VerifyMode::kSat));
}

TEST(AntiSat, AnyEqualKeyHalvesUnlock) {
  // Anti-SAT property: every key with K1 == K2 unlocks (B == 0), even if
  // it differs from the inserted one.
  const Netlist original =
      netlist::gen::make_profile(netlist::gen::ProfileId::kC432, 7);
  AntiSatOptions options;
  options.width = 3;
  const LockedDesign design = antisat_lock(original, options, 7);
  Key other(design.key.size());
  for (std::size_t i = 0; i < 3; ++i) {
    other[i] = !design.key[i];  // different from inserted...
    other[3 + i] = other[i];    // ...but K1 == K2
  }
  EXPECT_TRUE(sat::check_equivalent(design.netlist, other, original, Key{}));
}

TEST(AntiSat, UnequalKeyCorrupts) {
  const Netlist original =
      netlist::gen::make_profile(netlist::gen::ProfileId::kC432, 9);
  AntiSatOptions options;
  options.width = 3;
  const LockedDesign design = antisat_lock(original, options, 9);
  Key wrong = design.key;
  wrong[0] = !wrong[0];  // K1 != K2 now
  EXPECT_FALSE(sat::check_equivalent(design.netlist, wrong, original, Key{}));
}

TEST(AntiSat, WidthValidation) {
  const Netlist original = netlist::gen::c17();
  AntiSatOptions options;
  options.width = 1;
  EXPECT_THROW(antisat_lock(original, options, 1), std::invalid_argument);
  options.width = 100;  // more than c17's 5 inputs
  EXPECT_THROW(antisat_lock(original, options, 1), std::invalid_argument);
}

TEST(AntiSat, SatAttackEffortGrowsWithWidth) {
  const Netlist original =
      netlist::gen::make_profile(netlist::gen::ProfileId::kC432, 11);
  const attack::SatAttack attacker;
  std::size_t previous_dips = 0;
  for (const std::size_t width : {3u, 5u}) {
    AntiSatOptions options;
    options.width = width;
    const LockedDesign design = antisat_lock(original, options, 11);
    const auto result = attacker.attack(design.netlist, original);
    ASSERT_TRUE(result.success) << "width " << width;
    EXPECT_GT(result.dip_iterations, previous_dips);
    previous_dips = result.dip_iterations;
  }
}

TEST(CompoundLock, KeyLayoutAndCorrectness) {
  const Netlist original =
      netlist::gen::make_profile(netlist::gen::ProfileId::kC432, 13);
  AntiSatOptions options;
  options.width = 3;
  const LockedDesign design = compound_lock(original, 8, options, 13);
  EXPECT_EQ(design.key.size(), 8u + 6u);
  EXPECT_EQ(design.netlist.key_inputs().size(), 14u);
  const auto mux_genes =
      std::count_if(design.genes.begin(), design.genes.end(),
                    [](const Gene& g) { return g.kind == GeneKind::kMux; });
  EXPECT_EQ(mux_genes, 8);  // MUX sites recorded
  EXPECT_TRUE(verify_unlocks(design, original, VerifyMode::kSat));
}

TEST(CompoundLock, StillAttackableByMuxLinkOnMuxBits) {
  // The attack surface for MuxLink is the MUX part only; the Anti-SAT key
  // bits have no MUX problems.
  const Netlist original =
      netlist::gen::make_profile(netlist::gen::ProfileId::kC432, 15);
  AntiSatOptions options;
  options.width = 3;
  const LockedDesign design = compound_lock(original, 8, options, 15);
  const attack::AttackGraph graph(design.netlist);
  EXPECT_EQ(graph.problems().size(), 8u);
  for (const auto& problem : graph.problems()) {
    EXPECT_LT(problem.key_bit_index, 8);
  }
}

}  // namespace
}  // namespace autolock::lock
