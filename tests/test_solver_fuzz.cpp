// Adversarial randomized testing of the CDCL core.
//
// Thousands of seeded random CNFs (up to 14 variables) are cross-checked
// against an exhaustive bitmask brute force: the solver's SAT/UNSAT verdict
// must match, every kSat model must satisfy every clause, assumption
// solving must agree with adding the assumptions as unit clauses, and
// incremental reuse (solve / add clauses / solve again) must stay sound
// across learnt-DB reductions and arena garbage collections (forced via
// Solver::set_learnt_limit).
//
// All seeds are fixed so tier-1 stays deterministic. To debug a failure,
// note the reported iteration seed and reconstruct the CNF with
// make_random_cnf(seed) — see README.md "Debugging the solver with the
// fuzzer".
#include "sat/solver.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "sat/instances.hpp"
#include "util/rng.hpp"

namespace autolock::sat {
namespace {

constexpr int kMaxVars = 14;

/// Word-parallel brute force: for each clause, build the bitmask of
/// satisfying assignments over all 2^vars assignments (64 per word), AND
/// the clause masks together, and test for a surviving assignment.
class BruteForce {
 public:
  explicit BruteForce(int vars) : vars_(vars) {
    const std::size_t bits = std::size_t{1} << vars;
    words_ = bits <= 64 ? 1 : bits / 64;
    formula_.assign(words_, ~std::uint64_t{0});
    if (bits < 64) formula_[0] = (std::uint64_t{1} << bits) - 1;
  }

  void add_clause(const std::vector<Lit>& clause) {
    for (std::size_t w = 0; w < words_; ++w) {
      std::uint64_t mask = 0;
      for (const Lit lit : clause) {
        const std::uint64_t var_mask = var_word(lit_var(lit), w);
        mask |= lit_sign(lit) ? ~var_mask : var_mask;
      }
      formula_[w] &= mask;
    }
  }

  bool satisfiable() const {
    for (const std::uint64_t word : formula_) {
      if (word != 0) return true;
    }
    return false;
  }

 private:
  /// Bitmask (within word `w` of the assignment enumeration) of
  /// assignments where variable `v` is true. Assignment index bit v gives
  /// the variable's value; bits 0-5 select within a word, the rest select
  /// the word.
  static std::uint64_t var_word(Var v, std::size_t w) {
    static constexpr std::uint64_t kPatterns[6] = {
        0xAAAAAAAAAAAAAAAAULL, 0xCCCCCCCCCCCCCCCCULL, 0xF0F0F0F0F0F0F0F0ULL,
        0xFF00FF00FF00FF00ULL, 0xFFFF0000FFFF0000ULL, 0xFFFFFFFF00000000ULL};
    if (v < 6) return kPatterns[v];
    return ((w >> (v - 6)) & 1) != 0 ? ~std::uint64_t{0} : 0;
  }

  int vars_;
  std::size_t words_ = 0;
  std::vector<std::uint64_t> formula_;
};

struct RandomCnf {
  int vars = 0;
  std::vector<std::vector<Lit>> clauses;
};

/// Deterministic CNF from a seed: 3-14 vars, clause count spanning under-
/// and over-constrained regimes. Widths are mostly 2-4 (unit clauses would
/// collapse everything at level 0), with an occasional unit thrown in;
/// duplicate literals and complementary pairs are left in deliberately
/// (they exercise add_clause normalization).
RandomCnf make_random_cnf(std::uint64_t seed) {
  util::Rng rng(seed);
  RandomCnf cnf;
  cnf.vars = 3 + static_cast<int>(rng.next_below(kMaxVars - 2));
  // Every fourth instance is pure 3-SAT at the satisfiability threshold
  // (ratio ~4.3) — the regime that actually forces conflict-driven search
  // on these sizes. The rest mix widths and densities.
  const bool threshold = rng.next_below(4) == 0;
  const int clause_count =
      threshold ? static_cast<int>(cnf.vars * 4.3)
                : cnf.vars + static_cast<int>(rng.next_below(cnf.vars * 5));
  for (int c = 0; c < clause_count; ++c) {
    std::vector<Lit> clause;
    const int width = threshold ? 3
                      : rng.next_below(12) == 0
                          ? 1
                          : 2 + static_cast<int>(rng.next_below(3));
    for (int l = 0; l < width; ++l) {
      const Var v = static_cast<Var>(rng.next_below(cnf.vars));
      clause.push_back(make_lit(v, rng.next_bool()));
    }
    cnf.clauses.push_back(std::move(clause));
  }
  return cnf;
}

void check_model(const Solver& solver, const RandomCnf& cnf,
                 std::uint64_t seed) {
  for (const auto& clause : cnf.clauses) {
    bool satisfied = false;
    for (const Lit lit : clause) {
      if (solver.model_value_lit(lit)) {
        satisfied = true;
        break;
      }
    }
    ASSERT_TRUE(satisfied) << "model violates a clause (seed " << seed << ")";
  }
}

TEST(SolverFuzz, CrossCheckBruteForce) {
  constexpr int kIterations = 2400;
  int sat_count = 0;
  int unsat_count = 0;
  std::uint64_t conflict_total = 0;
  for (int iter = 0; iter < kIterations; ++iter) {
    const std::uint64_t seed = 0xF0220000u + iter;
    const RandomCnf cnf = make_random_cnf(seed);

    BruteForce brute(cnf.vars);
    for (const auto& clause : cnf.clauses) brute.add_clause(clause);

    Solver solver;
    // Every third instance runs with a tiny learnt-DB limit so reduce_db()
    // and the arena GC churn constantly under the fuzz load.
    if (iter % 3 == 0) solver.set_learnt_limit(2);
    for (int v = 0; v < cnf.vars; ++v) solver.new_var();
    for (const auto& clause : cnf.clauses) solver.add_clause(clause);
    const SolveResult result = solver.solve();

    ASSERT_NE(result, SolveResult::kUnknown);
    ASSERT_EQ(result == SolveResult::kSat, brute.satisfiable())
        << "verdict diverges from brute force (seed " << seed << ")";
    if (result == SolveResult::kSat) {
      ++sat_count;
      check_model(solver, cnf, seed);
    } else {
      ++unsat_count;
    }
    conflict_total += solver.stats().conflicts;
  }
  // The sweep must cover both outcomes and real search (not just unit
  // propagation), otherwise it is not testing what it claims to. GC and DB
  // reduction need longer clauses than 14-var instances learn and are
  // exercised by the dedicated tests below.
  EXPECT_GT(sat_count, 100);
  EXPECT_GT(unsat_count, 100);
  EXPECT_GT(conflict_total, 500u);
}

TEST(SolverFuzz, ReductionAndGcOnHardUnsat) {
  Solver solver;
  solver.set_learnt_limit(64);
  add_pigeonhole(solver, 7);
  EXPECT_EQ(solver.solve(), SolveResult::kUnsat);
  const auto& stats = solver.stats();
  EXPECT_GT(stats.db_reductions, 0u);
  EXPECT_GT(stats.deleted_clauses, 0u);
  EXPECT_GT(stats.gc_runs, 0u) << "arena GC never ran despite deletions";
  EXPECT_GT(stats.lbd_sum, 0u);
  EXPECT_GE(stats.peak_arena_bytes, stats.arena_bytes);
  // Live-learnt accounting: the allocator-backed count must equal the
  // stats delta (the pre-arena solver drifted here: deleted clauses kept
  // counting against the reduction limit).
  EXPECT_EQ(solver.num_learnts(),
            stats.learnt_clauses - stats.deleted_clauses);
}

TEST(SolverFuzz, AssumptionsAgreeWithUnitClauses) {
  constexpr int kIterations = 600;
  for (int iter = 0; iter < kIterations; ++iter) {
    const std::uint64_t seed = 0xA5500000u + iter;
    const RandomCnf cnf = make_random_cnf(seed);
    util::Rng rng(seed ^ 0x5EEDu);
    std::vector<Lit> assumptions;
    const int count = 1 + static_cast<int>(rng.next_below(5));
    for (int a = 0; a < count; ++a) {
      assumptions.push_back(make_lit(
          static_cast<Var>(rng.next_below(cnf.vars)), rng.next_bool()));
    }

    // Ground truth: formula plus assumptions as unit clauses.
    BruteForce brute(cnf.vars);
    for (const auto& clause : cnf.clauses) brute.add_clause(clause);
    for (const Lit lit : assumptions) brute.add_clause({lit});

    Solver assuming;
    for (int v = 0; v < cnf.vars; ++v) assuming.new_var();
    for (const auto& clause : cnf.clauses) assuming.add_clause(clause);
    const SolveResult via_assumptions = assuming.solve(assumptions);

    Solver with_units;
    for (int v = 0; v < cnf.vars; ++v) with_units.new_var();
    for (const auto& clause : cnf.clauses) with_units.add_clause(clause);
    for (const Lit lit : assumptions) with_units.add_clause(lit);
    const SolveResult via_units = with_units.solve();

    ASSERT_NE(via_assumptions, SolveResult::kUnknown);
    ASSERT_EQ(via_assumptions, via_units)
        << "assumption/unit divergence (seed " << seed << ")";
    ASSERT_EQ(via_assumptions == SolveResult::kSat, brute.satisfiable())
        << "verdict diverges from brute force (seed " << seed << ")";
    if (via_assumptions == SolveResult::kSat) {
      check_model(assuming, cnf, seed);
      for (const Lit lit : assumptions) {
        ASSERT_TRUE(assuming.model_value_lit(lit))
            << "model violates an assumption (seed " << seed << ")";
      }
    }
  }
}

// Incremental reuse across GC runs: one solver alternates between (a) a
// brute-force-checkable random CNF on its first `vars` variables, grown
// clause-by-clause between solves, and (b) a pigeonhole formula on disjoint
// variables introduced one pigeon per round. The pigeonhole part is
// provably satisfiable while pigeons <= holes and unsatisfiable once the
// (holes+1)-th pigeon lands, so the combined verdict stays predictable
// while its proof work churns the learnt DB and arena hard enough to run
// real reductions and garbage collections between the cross-checked solves.
TEST(SolverFuzz, IncrementalReuseAcrossGc) {
  constexpr int kOuter = 6;
  constexpr int kHoles = 6;
  std::uint64_t gc_total = 0;
  std::uint64_t reduce_total = 0;
  for (int iter = 0; iter < kOuter; ++iter) {
    const std::uint64_t base_seed = 0x1C000000u + iter * 1000;
    util::Rng rng(base_seed);
    const int vars = 8 + static_cast<int>(rng.next_below(kMaxVars - 7));

    Solver solver;
    solver.set_learnt_limit(8);  // force constant reductions + GCs
    for (int v = 0; v < vars; ++v) solver.new_var();
    std::vector<std::vector<Lit>> checked;  // clauses over the first `vars`
    bool checked_consistent = true;

    // Pigeonhole scaffolding on disjoint variables: at[p][h] fresh.
    std::vector<std::vector<Var>> at(kHoles + 1, std::vector<Var>(kHoles));
    for (auto& row : at) {
      for (Var& v : row) v = solver.new_var();
    }

    for (int pigeon = 0; pigeon <= kHoles; ++pigeon) {
      // Grow the checked part — a couple of width-3 clauses per round, so
      // it stays (almost always) satisfiable and the pigeonhole churn
      // below is what drives the solver, not a level-0 collapse here.
      const int batch = 1 + static_cast<int>(rng.next_below(2));
      for (int c = 0; c < batch; ++c) {
        std::vector<Lit> clause;
        for (int l = 0; l < 3; ++l) {
          clause.push_back(make_lit(static_cast<Var>(rng.next_below(vars)),
                                    rng.next_bool()));
        }
        checked.push_back(clause);
        if (!solver.add_clause(clause)) checked_consistent = false;
      }
      // Land the next pigeon: it must sit in some hole, and collide with
      // no earlier pigeon. Satisfiable until pigeon == kHoles.
      std::vector<Lit> somewhere;
      for (int h = 0; h < kHoles; ++h) {
        somewhere.push_back(make_lit(at[pigeon][h]));
        for (int prev = 0; prev < pigeon; ++prev) {
          solver.add_clause(make_lit(at[prev][h], true),
                            make_lit(at[pigeon][h], true));
        }
      }
      solver.add_clause(somewhere);

      BruteForce brute(vars);
      for (const auto& clause : checked) brute.add_clause(clause);
      const bool pigeons_fit = pigeon < kHoles;
      const bool expect_sat =
          checked_consistent && brute.satisfiable() && pigeons_fit;

      const SolveResult result = solver.solve();
      ASSERT_NE(result, SolveResult::kUnknown);
      ASSERT_EQ(result == SolveResult::kSat, expect_sat)
          << "incremental divergence (seed " << base_seed << " pigeon "
          << pigeon << ")";
      if (result == SolveResult::kSat) {
        for (const auto& clause : checked) {
          bool satisfied = false;
          for (const Lit lit : clause) {
            if (solver.model_value_lit(lit)) {
              satisfied = true;
              break;
            }
          }
          ASSERT_TRUE(satisfied) << "incremental model violates a clause "
                                 << "(seed " << base_seed << ")";
        }
        // Assumption solving must agree with brute force mid-churn too.
        const Lit assumption = make_lit(
            static_cast<Var>(rng.next_below(vars)), rng.next_bool());
        BruteForce assumed(vars);
        for (const auto& clause : checked) assumed.add_clause(clause);
        assumed.add_clause({assumption});
        const SolveResult assumed_result = solver.solve({assumption});
        ASSERT_EQ(assumed_result == SolveResult::kSat, assumed.satisfiable())
            << "assumption divergence after reuse (seed " << base_seed
            << " pigeon " << pigeon << ")";
      }
    }
    gc_total += solver.stats().gc_runs;
    reduce_total += solver.stats().db_reductions;
    // The accounting identity must survive any number of reductions/GCs.
    EXPECT_EQ(solver.num_learnts(), solver.stats().learnt_clauses -
                                        solver.stats().deleted_clauses);
  }
  EXPECT_GT(reduce_total, 0u) << "the incremental sweep never reduced";
  EXPECT_GT(gc_total, 0u) << "the incremental sweep never ran a GC";
}

}  // namespace
}  // namespace autolock::sat
