#include "attacks/sat_attack.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "locking/antisat.hpp"
#include "locking/mux_lock.hpp"
#include "locking/rll.hpp"
#include "netlist/generator.hpp"
#include "sat/cnf.hpp"

namespace autolock::attack {
namespace {

using netlist::Key;
using netlist::Netlist;

TEST(SatAttack, RecoversRllKeyOnC17) {
  const Netlist original = netlist::gen::c17();
  const auto design = lock::rll_lock(original, 3, 5);
  const SatAttack attacker;
  const auto result = attacker.attack(design.netlist, original);
  ASSERT_TRUE(result.success);
  // The recovered key need not equal the inserted key bit-for-bit (other
  // functionally-correct keys can exist), but it must unlock:
  EXPECT_TRUE(sat::check_equivalent(design.netlist, result.recovered_key,
                                    original, Key{}));
}

TEST(SatAttack, RecoversRllKeyOnC432Profile) {
  const Netlist original =
      netlist::gen::make_profile(netlist::gen::ProfileId::kC432, 3);
  const auto design = lock::rll_lock(original, 16, 7);
  const SatAttack attacker;
  const auto result = attacker.attack(design.netlist, original);
  ASSERT_TRUE(result.success);
  EXPECT_TRUE(sat::check_equivalent(design.netlist, result.recovered_key,
                                    original, Key{}));
  EXPECT_GE(result.dip_iterations, 1u);
}

TEST(SatAttack, RecoversMuxKey) {
  const Netlist original =
      netlist::gen::make_profile(netlist::gen::ProfileId::kC432, 5);
  const auto design = lock::dmux_lock(original, 12, 9);
  const SatAttack attacker;
  const auto result = attacker.attack(design.netlist, original);
  ASSERT_TRUE(result.success);
  EXPECT_TRUE(sat::check_equivalent(design.netlist, result.recovered_key,
                                    original, Key{}));
}

TEST(SatAttack, ZeroKeyBitsTrivialSuccess) {
  const Netlist original = netlist::gen::c17();
  const SatAttack attacker;
  const auto result = attacker.attack(original, original);
  EXPECT_TRUE(result.success);
  EXPECT_FALSE(result.infeasible);
  EXPECT_EQ(result.dip_iterations, 0u);
  EXPECT_TRUE(result.recovered_key.empty());
}

TEST(SatAttack, ZeroKeyBitsNonEquivalentReportsInfeasible) {
  // Regression: a keyless "locked" design used to be reported as a
  // successful attack without proof. AND against an OR oracle differs on
  // two of four inputs, so no (empty) key can unlock it.
  Netlist locked;
  const auto a = locked.add_input("a");
  const auto b = locked.add_input("b");
  locked.mark_output(locked.add_gate(netlist::GateType::kAnd, {a, b}, "g"),
                     "o");
  Netlist oracle;
  const auto oa = oracle.add_input("a");
  const auto ob = oracle.add_input("b");
  oracle.mark_output(oracle.add_gate(netlist::GateType::kOr, {oa, ob}, "g"),
                     "o");

  const auto result = SatAttack().attack(locked, oracle);
  EXPECT_FALSE(result.success);
  EXPECT_TRUE(result.infeasible);
  EXPECT_FALSE(result.budget_exhausted);
  EXPECT_EQ(result.dip_iterations, 0u);
}

TEST(SatAttack, InterfaceMismatchThrows) {
  const Netlist original = netlist::gen::c17();
  const Netlist other =
      netlist::gen::make_profile(netlist::gen::ProfileId::kC432, 1);
  const auto design = lock::dmux_lock(other, 4, 1);
  EXPECT_THROW(SatAttack().attack(design.netlist, original),
               std::invalid_argument);
}

TEST(SatAttack, IterationBudgetAborts) {
  const Netlist original =
      netlist::gen::make_profile(netlist::gen::ProfileId::kC880, 7);
  const auto design = lock::dmux_lock(original, 32, 11);
  SatAttackConfig config;
  config.max_iterations = 1;
  const auto result = SatAttack(config).attack(design.netlist, original);
  // With 32 key bits one DIP is almost surely insufficient; the attack must
  // abort and say so (if it legitimately finished in <=1 DIP, success=true
  // and budget_exhausted=false — accept either consistent outcome).
  EXPECT_NE(result.success, result.budget_exhausted);
  EXPECT_LE(result.dip_iterations, 1u);
}

TEST(SatAttack, ConflictBudgetReportsExhaustion) {
  const Netlist original =
      netlist::gen::make_profile(netlist::gen::ProfileId::kC1908, 9);
  const auto design = lock::dmux_lock(original, 48, 13);
  SatAttackConfig config;
  config.conflict_budget = 3;  // absurdly small
  const auto result = SatAttack(config).attack(design.netlist, original);
  if (!result.success) {
    EXPECT_TRUE(result.budget_exhausted);
  }
}

TEST(SatAttack, StatsPopulated) {
  const Netlist original =
      netlist::gen::make_profile(netlist::gen::ProfileId::kC432, 11);
  const auto design = lock::rll_lock(original, 8, 15);
  const auto result = SatAttack().attack(design.netlist, original);
  ASSERT_TRUE(result.success);
  EXPECT_GT(result.total_decisions, 0u);
  EXPECT_GE(result.seconds, 0.0);
}

// ---- trajectory determinism regression -------------------------------------
//
// The attack is deterministic end to end: same locked circuit, same oracle,
// same DIP sequence, same recovered key, every run. These two cases pin the
// full trajectory (DIP count, conflict count, exact key bits) so any future
// solver-core or encoding change that silently alters attack behaviour
// fails loudly here instead of shifting benchmark numbers. Baseline: the
// SAT-core-phase-2 incremental loop — one growing formula whose initial
// miter shares the key-independent remainder between copies, cone-template
// DIP constraints, lex-min key canonicalization (so the pinned key is the
// smallest consistent key, not an arbitrary model). The encoding walks the
// locked netlist in its topological order, so the DIP and conflict counts
// depend on it: one-shot locks carry the decode's merged order, seeded from
// the original's (level, id) order. The keys do not depend on it.

Key key_from_string(const char* bits) {
  Key key;
  for (const char* c = bits; *c != '\0'; ++c) key.push_back(*c == '1');
  return key;
}

TEST(SatAttack, DeterministicTrajectoryOnSeededRll) {
  const Netlist original =
      netlist::gen::make_profile(netlist::gen::ProfileId::kC432, 3);
  const auto design = lock::rll_lock(original, 16, 7);
  const auto result = SatAttack().attack(design.netlist, original);
  ASSERT_TRUE(result.success);
  EXPECT_EQ(result.dip_iterations, 3u);
  EXPECT_EQ(result.total_conflicts, 86u);
  EXPECT_EQ(result.recovered_key, key_from_string("0000000101100000"));
}

TEST(SatAttack, DeterministicTrajectoryOnSeededDmux) {
  const Netlist original =
      netlist::gen::make_profile(netlist::gen::ProfileId::kC880, 5);
  const auto design = lock::dmux_lock(original, 12, 9);
  const auto result = SatAttack().attack(design.netlist, original);
  ASSERT_TRUE(result.success);
  EXPECT_EQ(result.dip_iterations, 5u);
  EXPECT_EQ(result.total_conflicts, 92u);
  EXPECT_EQ(result.recovered_key, key_from_string("000011000011"));
}

TEST(SatAttack, ResultCarriesSolverCoreStats) {
  const Netlist original =
      netlist::gen::make_profile(netlist::gen::ProfileId::kC880, 5);
  const auto design = lock::dmux_lock(original, 12, 9);
  const auto result = SatAttack().attack(design.netlist, original);
  ASSERT_TRUE(result.success);
  EXPECT_GT(result.total_propagations, 0u);
  EXPECT_GT(result.peak_arena_bytes, 0u);
  EXPECT_GT(result.mean_lbd, 0.0);
}

// ---- SAT core phase 2 ------------------------------------------------------

TEST(SatAttack, KeyedOracleThrows) {
  // A locked netlist is not an oracle: simulating it would silently run
  // under the all-false key and feed the attack garbage responses.
  const Netlist original = netlist::gen::c17();
  const auto design = lock::rll_lock(original, 3, 5);
  EXPECT_THROW(SatAttack().attack(design.netlist, design.netlist),
               std::invalid_argument);
}

/// Locked circuit whose first output is key-INdependent (out1 = a & b) and
/// second is key-dependent (out2 = (a & b) ^ k), paired with an "oracle"
/// whose first output is inverted (¬(a & b)) — no key assignment can make
/// the locked circuit match it, on any input. Used to pin the
/// inconsistent-oracle detection.
struct InconsistentPair {
  Netlist locked;
  Netlist oracle;

  InconsistentPair() {
    const auto a = locked.add_input("a");
    const auto b = locked.add_input("b");
    const auto k = locked.add_input("k", /*is_key=*/true);
    const auto g = locked.add_gate(netlist::GateType::kAnd, {a, b}, "g");
    const auto x = locked.add_gate(netlist::GateType::kXor, {g, k}, "x");
    locked.mark_output(g, "o1");
    locked.mark_output(x, "o2");

    const auto oa = oracle.add_input("a");
    const auto ob = oracle.add_input("b");
    const auto og = oracle.add_gate(netlist::GateType::kAnd, {oa, ob}, "g");
    const auto on = oracle.add_gate(netlist::GateType::kNot, {og}, "n");
    oracle.mark_output(on, "o1");
    oracle.mark_output(og, "o2");
  }
};

TEST(SatAttack, InconsistentOracleReportsInfeasible) {
  // Regression for the old loop ignoring add_clause returns: an oracle
  // response no key can produce must stop the attack with `infeasible`,
  // not keep solving on a level-0-dead formula and report a random key.
  const InconsistentPair pair;
  const auto result = SatAttack().attack(pair.locked, pair.oracle);
  EXPECT_TRUE(result.infeasible);
  EXPECT_FALSE(result.success);
  EXPECT_FALSE(result.budget_exhausted);
  EXPECT_GE(result.dip_iterations, 1u);  // detected while constraining
}

/// The lexicographically smallest functionally-correct key (bit 0 most
/// significant), found by proving candidate keys one by one in order.
/// Test-only reference for the attack's canonicalization; K must be small.
Key brute_force_lex_min_key(const Netlist& locked, const Netlist& original) {
  const std::size_t key_bits = locked.key_inputs().size();
  Key key(key_bits);
  for (std::uint64_t value = 0; value < (std::uint64_t{1} << key_bits);
       ++value) {
    for (std::size_t b = 0; b < key_bits; ++b) {
      key[b] = ((value >> (key_bits - 1 - b)) & 1) != 0;
    }
    if (sat::check_equivalent(locked, key, original, Key{})) return key;
  }
  return {};  // no correct key: the lock is not a completion of `original`
}

TEST(SatAttack, RecoveredKeyIsBruteForceLexMin) {
  // With lex-min canonicalization the recovered key is a function of the
  // locked/oracle pair alone: it must be the first correct key in
  // lexicographic order, whatever DIP trajectory led there. Seeded c432
  // and c880 RLL and D-MUX locks, small enough to enumerate.
  struct Workload {
    netlist::gen::ProfileId profile;
    std::uint64_t seed;
    bool rll;
    std::size_t key_bits;
  };
  const Workload workloads[] = {
      {netlist::gen::ProfileId::kC432, 3, true, 8},
      {netlist::gen::ProfileId::kC432, 21, false, 8},
      {netlist::gen::ProfileId::kC880, 5, false, 8},
      {netlist::gen::ProfileId::kC880, 7, true, 8},
  };
  for (const auto& w : workloads) {
    const Netlist original = netlist::gen::make_profile(w.profile, w.seed);
    const auto design = w.rll
                            ? lock::rll_lock(original, w.key_bits, w.seed + 2)
                            : lock::dmux_lock(original, w.key_bits, w.seed + 2);
    const auto result = SatAttack().attack(design.netlist, original);
    ASSERT_TRUE(result.success) << "seed " << w.seed;
    EXPECT_EQ(result.recovered_key,
              brute_force_lex_min_key(design.netlist, original))
        << "recovered key is not the lex-min correct key (seed " << w.seed
        << ")";
  }
}

// ---- forced-bit merge -------------------------------------------------------
//
// On XOR-heavy c1355 the last miter solve (the proof that no DIP remains)
// outlasts the conflict allowance. The attack then fixes the key bits every
// consistent key shares and merges the two copies' cone gates whose key
// support is fixed. Those clauses follow from the DIP constraints, so the
// consistent keys, and with them the lex-min key, cannot move.

/// c1355-profile K=8 designs: D-MUX, RLL and a compound of 4 MUX bits and a
/// width-2 Anti-SAT block.
std::vector<lock::LockedDesign> c1355_k8_designs(const Netlist& original,
                                                 std::uint64_t seed) {
  lock::AntiSatOptions options;
  options.width = 2;
  std::vector<lock::LockedDesign> designs;
  designs.push_back(lock::dmux_lock(original, 8, seed + 2));
  designs.push_back(lock::rll_lock(original, 8, seed + 2));
  designs.push_back(lock::compound_lock(original, 4, options, seed + 2));
  return designs;
}

TEST(SatAttackForcedMerge, KeepsTheBruteForceLexMinKeyOnC1355) {
  for (const std::uint64_t seed : {1, 2}) {
    const Netlist original =
        netlist::gen::make_profile(netlist::gen::ProfileId::kC1355, seed);
    for (const auto& design : c1355_k8_designs(original, seed)) {
      ASSERT_EQ(design.key.size(), 8u);
      const auto result = SatAttack().attack(design.netlist, original);
      ASSERT_TRUE(result.success) << "seed " << seed;
      EXPECT_GE(result.escalated_searches, 1u) << "seed " << seed;
      EXPECT_GE(result.forced_key_bits, 1u) << "seed " << seed;
      EXPECT_GE(result.merged_node_pairs, 1u) << "seed " << seed;
      EXPECT_EQ(result.recovered_key,
                brute_force_lex_min_key(design.netlist, original))
          << "seed " << seed;
    }
  }
}

TEST(SatAttackForcedMerge, BudgetCoversProbesAndResumedSearch) {
  // A budget a little past the allowance: the search escalates, merges,
  // and runs out in the resumed search. No key may be claimed, every DIP
  // search (allowance, probes and resumed search together) stays inside
  // the budget, and a second run reports the same.
  constexpr std::uint64_t kBudget = kMiterConflictAllowance + 44;
  const Netlist original =
      netlist::gen::make_profile(netlist::gen::ProfileId::kC1355, 1);
  const auto design = c1355_k8_designs(original, 1)[1];  // RLL
  SatAttackConfig config;
  config.conflict_budget = kBudget;
  const auto result = SatAttack(config).attack(design.netlist, original);
  EXPECT_TRUE(result.budget_exhausted);
  EXPECT_FALSE(result.success);
  EXPECT_TRUE(result.recovered_key.empty());
  EXPECT_GE(result.escalated_searches, 1u);
  EXPECT_GE(result.merged_node_pairs, 1u);
  std::uint64_t found = 0;
  for (const auto& it : result.iterations) {
    EXPECT_LE(it.conflicts, kBudget);
    found += it.conflicts;
  }
  EXPECT_LE(result.total_conflicts - found, kBudget);  // the search that ran out

  const auto again = SatAttack(config).attack(design.netlist, original);
  EXPECT_TRUE(again.budget_exhausted);
  EXPECT_TRUE(again.recovered_key.empty());
  EXPECT_EQ(again.dip_iterations, result.dip_iterations);
  EXPECT_EQ(again.total_conflicts, result.total_conflicts);
  EXPECT_EQ(again.escalated_searches, result.escalated_searches);
  EXPECT_EQ(again.forced_key_bits, result.forced_key_bits);
  EXPECT_EQ(again.merged_node_pairs, result.merged_node_pairs);
}

TEST(SatAttack, PerIterationStatsTrackFormulaGrowth) {
  const Netlist original =
      netlist::gen::make_profile(netlist::gen::ProfileId::kC880, 5);
  const auto design = lock::dmux_lock(original, 12, 9);

  const auto result = SatAttack().attack(design.netlist, original);
  ASSERT_TRUE(result.success);
  ASSERT_EQ(result.iterations.size(), result.dip_iterations);

  // The whole point of the cone template: per-DIP growth proportional to
  // the key cone, not the circuit. Each DIP encodes at most one folded
  // cone per key copy.
  const sat::ConeTemplate cone(design.netlist);
  ASSERT_LT(cone.cone_size(), design.netlist.size());
  for (const auto& it : result.iterations) {
    EXPECT_LE(it.new_vars, 2 * cone.cone_size());
    EXPECT_GT(it.arena_bytes, 0u);
  }
}

class SatAttackSweep
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, std::size_t>> {
};

TEST_P(SatAttackSweep, AlwaysRecoversFunctionallyCorrectKey) {
  const auto [seed, key_bits] = GetParam();
  const Netlist original =
      netlist::gen::make_profile(netlist::gen::ProfileId::kC432, seed);
  const auto design = lock::dmux_lock(original, key_bits, seed + 100);
  const auto result = SatAttack().attack(design.netlist, original);
  ASSERT_TRUE(result.success) << "seed " << seed << " K " << key_bits;
}

INSTANTIATE_TEST_SUITE_P(Sweep, SatAttackSweep,
                         ::testing::Combine(::testing::Values(31, 32, 33),
                                            ::testing::Values(4, 8, 16)));

}  // namespace
}  // namespace autolock::attack
