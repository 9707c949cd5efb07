#include "sat/solver.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "sat/instances.hpp"
#include "util/rng.hpp"

namespace autolock::sat {
namespace {

TEST(Solver, TrivialSat) {
  Solver solver;
  const Var x = solver.new_var();
  solver.add_clause(make_lit(x));
  EXPECT_EQ(solver.solve(), SolveResult::kSat);
  EXPECT_TRUE(solver.model_value(x));
}

TEST(Solver, TrivialUnsat) {
  Solver solver;
  const Var x = solver.new_var();
  EXPECT_TRUE(solver.add_clause(make_lit(x)));
  EXPECT_FALSE(solver.add_clause(make_lit(x, true)));
  EXPECT_EQ(solver.solve(), SolveResult::kUnsat);
}

TEST(Solver, EmptyClauseIsUnsat) {
  Solver solver;
  const Var x = solver.new_var();
  EXPECT_TRUE(solver.add_clause(make_lit(x)));
  EXPECT_FALSE(solver.add_clause(std::vector<Lit>{}));
  EXPECT_EQ(solver.solve(), SolveResult::kUnsat);
}

TEST(Solver, EmptyFormulaIsSat) {
  Solver solver;
  EXPECT_EQ(solver.solve(), SolveResult::kSat);
  solver.new_var();
  EXPECT_EQ(solver.solve(), SolveResult::kSat);
}

TEST(Solver, TautologyIgnored) {
  Solver solver;
  const Var x = solver.new_var();
  EXPECT_TRUE(solver.add_clause({make_lit(x), make_lit(x, true)}));
  EXPECT_EQ(solver.solve(), SolveResult::kSat);
}

TEST(Solver, DuplicateLiteralsHandled) {
  Solver solver;
  const Var x = solver.new_var();
  const Var y = solver.new_var();
  solver.add_clause({make_lit(x), make_lit(x), make_lit(y)});
  solver.add_clause(make_lit(y, true));
  EXPECT_EQ(solver.solve(), SolveResult::kSat);
  EXPECT_TRUE(solver.model_value(x));
}

TEST(Solver, UndeclaredVariableThrows) {
  Solver solver;
  EXPECT_THROW(solver.add_clause(make_lit(3)), std::invalid_argument);
}

TEST(Solver, ImplicationChainPropagates) {
  // x0 and (x_i -> x_{i+1}) for a long chain: all forced true.
  Solver solver;
  constexpr int kN = 50;
  std::vector<Var> vars;
  for (int i = 0; i < kN; ++i) vars.push_back(solver.new_var());
  solver.add_clause(make_lit(vars[0]));
  for (int i = 0; i + 1 < kN; ++i) {
    solver.add_clause(make_lit(vars[i], true), make_lit(vars[i + 1]));
  }
  EXPECT_EQ(solver.solve(), SolveResult::kSat);
  for (int i = 0; i < kN; ++i) EXPECT_TRUE(solver.model_value(vars[i]));
}

TEST(Solver, XorChainParity) {
  // Encode x1 xor x2 xor x3 = 1 via clauses; exactly odd assignments.
  Solver solver;
  const Var a = solver.new_var();
  const Var b = solver.new_var();
  const Var c = solver.new_var();
  // xor = 1 clauses: all assignments with even parity forbidden.
  solver.add_clause({make_lit(a), make_lit(b), make_lit(c)});
  solver.add_clause({make_lit(a), make_lit(b, true), make_lit(c, true)});
  solver.add_clause({make_lit(a, true), make_lit(b), make_lit(c, true)});
  solver.add_clause({make_lit(a, true), make_lit(b, true), make_lit(c)});
  EXPECT_EQ(solver.solve(), SolveResult::kSat);
  const int parity = solver.model_value(a) + solver.model_value(b) +
                     solver.model_value(c);
  EXPECT_EQ(parity % 2, 1);
}

// Pigeonhole instances come from sat/instances.hpp (shared with the fuzz
// tests and the solver-core benchmark).

TEST(Solver, PigeonholeUnsat) {
  for (int holes : {2, 3, 4, 5, 6}) {
    Solver solver;
    add_pigeonhole(solver, holes);
    EXPECT_EQ(solver.solve(), SolveResult::kUnsat) << "holes=" << holes;
  }
}

TEST(Solver, PigeonholeExactFitSat) {
  // n pigeons, n holes: satisfiable.
  Solver solver;
  constexpr int kN = 5;
  std::vector<std::vector<Var>> at(kN, std::vector<Var>(kN));
  for (int p = 0; p < kN; ++p) {
    for (int h = 0; h < kN; ++h) at[p][h] = solver.new_var();
  }
  for (int p = 0; p < kN; ++p) {
    std::vector<Lit> clause;
    for (int h = 0; h < kN; ++h) clause.push_back(make_lit(at[p][h]));
    solver.add_clause(clause);
  }
  for (int h = 0; h < kN; ++h) {
    for (int p1 = 0; p1 < kN; ++p1) {
      for (int p2 = p1 + 1; p2 < kN; ++p2) {
        solver.add_clause(make_lit(at[p1][h], true),
                          make_lit(at[p2][h], true));
      }
    }
  }
  EXPECT_EQ(solver.solve(), SolveResult::kSat);
  // Model must be a valid assignment: each pigeon somewhere, no collisions.
  for (int h = 0; h < kN; ++h) {
    int count = 0;
    for (int p = 0; p < kN; ++p) count += solver.model_value(at[p][h]);
    EXPECT_LE(count, 1);
  }
}

TEST(Solver, AssumptionsSatAndUnsat) {
  Solver solver;
  const Var x = solver.new_var();
  const Var y = solver.new_var();
  solver.add_clause(make_lit(x, true), make_lit(y));  // x -> y
  EXPECT_EQ(solver.solve({make_lit(x)}), SolveResult::kSat);
  EXPECT_TRUE(solver.model_value(y));
  solver.add_clause(make_lit(y, true));  // now y must be false
  EXPECT_EQ(solver.solve({make_lit(x)}), SolveResult::kUnsat);
  // Without the assumption the formula remains satisfiable (x=0).
  EXPECT_EQ(solver.solve(), SolveResult::kSat);
  EXPECT_FALSE(solver.model_value(x));
}

TEST(Solver, DuplicateAssumptionsOpenEmptyLevelsSafely) {
  // Regression: duplicate (already-implied) assumptions each open an empty
  // decision level, so the conflict level can exceed num_vars; the LBD
  // stamp array used to be sized by variable count only and overflowed.
  Solver solver;
  const Var a = solver.new_var();
  const Var c = solver.new_var();
  const Var d = solver.new_var();
  solver.add_clause(make_lit(a, true), make_lit(c, true), make_lit(d));
  solver.add_clause(make_lit(a, true), make_lit(c, true), make_lit(d, true));
  EXPECT_EQ(solver.solve({make_lit(a), make_lit(a), make_lit(a), make_lit(a),
                          make_lit(c)}),
            SolveResult::kUnsat);
  // Without the conflicting assumption pair the formula is satisfiable.
  EXPECT_EQ(solver.solve({make_lit(a), make_lit(a)}), SolveResult::kSat);
}

// The next three tests pin the audited assumption-handling invariant
// (solver.cpp, search loop): a conflict may backjump BELOW the assumption
// prefix — assumptions are re-extended on the way back up, never clamped.
// Learnt clauses are implied by the formula alone (assumption decisions
// carry no reason), so units learnt under assumptions are permanent
// level-0 facts and the solver must stay fully usable afterwards.

TEST(SolverAssumptions, UnitLearntUnderAssumptionsBecomesPermanentFact) {
  Solver solver;
  const Var a = solver.new_var();
  const Var x = solver.new_var();
  const Var y = solver.new_var();
  solver.add_clause(make_lit(x, true), make_lit(y));        // x -> y
  solver.add_clause(make_lit(x, true), make_lit(y, true));  // x -> ¬y
  // Assuming {a, x} forces the unit learnt {¬x}: the backjump target is
  // level 0, beneath BOTH assumption decisions.
  EXPECT_EQ(solver.solve({make_lit(a), make_lit(x)}), SolveResult::kUnsat);
  // The learnt unit is formula-implied, so x alone is now refuted...
  EXPECT_EQ(solver.solve({make_lit(x)}), SolveResult::kUnsat);
  // ...while the solver remains usable and the formula satisfiable.
  EXPECT_EQ(solver.solve({make_lit(a)}), SolveResult::kSat);
  EXPECT_TRUE(solver.model_value(a));
  EXPECT_FALSE(solver.model_value(x));
  EXPECT_EQ(solver.solve(), SolveResult::kSat);
}

TEST(SolverAssumptions, Level0ImpliedAssumptionOpensEmptyLevel) {
  Solver solver;
  const Var a = solver.new_var();
  const Var b = solver.new_var();
  const Var c = solver.new_var();
  solver.add_clause(make_lit(a));  // a is a level-0 fact before solving
  solver.add_clause(make_lit(b, true), make_lit(c));        // b -> c
  solver.add_clause(make_lit(b, true), make_lit(c, true));  // b -> ¬c
  // The already-implied assumption `a` opens an empty decision level; the
  // conflict under `b` must still resolve and report UNSAT cleanly.
  EXPECT_EQ(solver.solve({make_lit(a), make_lit(b)}), SolveResult::kUnsat);
  EXPECT_EQ(solver.solve({make_lit(a)}), SolveResult::kSat);
}

TEST(SolverAssumptions, Level0FalseAssumptionIsUnsatNotCorrupting) {
  Solver solver;
  const Var a = solver.new_var();
  const Var b = solver.new_var();
  solver.add_clause(make_lit(a, true));  // ¬a is a fact
  solver.add_clause(make_lit(b));
  EXPECT_EQ(solver.solve({make_lit(a)}), SolveResult::kUnsat);
  EXPECT_EQ(solver.solve({make_lit(a), make_lit(b)}), SolveResult::kUnsat);
  EXPECT_EQ(solver.solve(), SolveResult::kSat);
  EXPECT_TRUE(solver.model_value(b));
}

TEST(Solver, ContradictoryAssumptionsUnsat) {
  Solver solver;
  const Var x = solver.new_var();
  solver.new_var();
  EXPECT_EQ(solver.solve({make_lit(x), make_lit(x, true)}),
            SolveResult::kUnsat);
}

TEST(Solver, IncrementalSolveAfterModel) {
  Solver solver;
  const Var x = solver.new_var();
  const Var y = solver.new_var();
  solver.add_clause(make_lit(x), make_lit(y));
  EXPECT_EQ(solver.solve(), SolveResult::kSat);
  // Forbid the found model, solve again; repeat until UNSAT. There are
  // exactly 3 models.
  int models = 0;
  while (solver.solve() == SolveResult::kSat && models < 10) {
    ++models;
    solver.add_clause(make_lit(x, solver.model_value(x)),
                      make_lit(y, solver.model_value(y)));
  }
  EXPECT_EQ(models, 3);
}

TEST(Solver, ConflictBudgetReturnsUnknown) {
  Solver solver;
  add_pigeonhole(solver, 8);  // hard enough to exceed a tiny budget
  solver.set_conflict_budget(5);
  EXPECT_EQ(solver.solve(), SolveResult::kUnknown);
}

// ---- forced_literals: the backbone probe the SAT attack merges on ---------

TEST(ForcedLiterals, FindsExactlyTheBackbone) {
  // x is a unit, y -> z, and y | z: z holds in every model, y does not.
  Solver solver;
  const Var x = solver.new_var();
  const Var y = solver.new_var();
  const Var z = solver.new_var();
  const Var w = solver.new_var();  // unconstrained
  solver.add_clause(make_lit(x));
  solver.add_clause(make_lit(y, true), make_lit(z));
  solver.add_clause(make_lit(y), make_lit(z));
  solver.set_conflict_budget(17);
  const std::vector<Var> vars = {w, x, y, z};
  EXPECT_EQ(forced_literals(solver, vars, 0),
            (std::vector<Lit>{make_lit(x), make_lit(z)}));
  EXPECT_EQ(solver.conflict_budget(), 17u);  // restored
}

TEST(ForcedLiterals, UnsatFormulaForcesNothing) {
  Solver solver;
  add_pigeonhole(solver, 3);
  const std::vector<Var> vars = {0, 1};
  EXPECT_TRUE(forced_literals(solver, vars, 0).empty());
}

/// PHP(holes + 1, holes) guarded by `gate`: every clause gets ¬gate, so
/// gate is forced false, but proving it takes a pigeonhole refutation.
Var add_guarded_pigeonhole(Solver& solver, int holes) {
  const Var gate = solver.new_var();
  const int pigeons = holes + 1;
  std::vector<std::vector<Var>> at(pigeons, std::vector<Var>(holes));
  for (auto& row : at) {
    for (Var& v : row) v = solver.new_var();
  }
  for (int p = 0; p < pigeons; ++p) {
    std::vector<Lit> clause = {make_lit(gate, true)};
    for (int h = 0; h < holes; ++h) clause.push_back(make_lit(at[p][h]));
    solver.add_clause(clause);
  }
  for (int h = 0; h < holes; ++h) {
    for (int p1 = 0; p1 < pigeons; ++p1) {
      for (int p2 = p1 + 1; p2 < pigeons; ++p2) {
        solver.add_clause(make_lit(gate, true), make_lit(at[p1][h], true),
                          make_lit(at[p2][h], true));
      }
    }
  }
  return gate;
}

TEST(ForcedLiterals, ProbeThatRunsOutCountsAsNotForced) {
  // Unbudgeted, the guard is found forced. With 5 conflicts the witness
  // (guard false) is free but the probe (guard true) cannot finish its
  // refutation: the guard must then be reported open, and the probes
  // together must stop at the budget.
  {
    Solver solver;
    const Var gate = add_guarded_pigeonhole(solver, 6);
    const std::vector<Var> vars = {gate};
    EXPECT_EQ(forced_literals(solver, vars, 0),
              (std::vector<Lit>{make_lit(gate, true)}));
  }
  Solver solver;
  const Var gate = add_guarded_pigeonhole(solver, 6);
  const std::vector<Var> vars = {gate};
  EXPECT_TRUE(forced_literals(solver, vars, 5).empty());
  EXPECT_EQ(solver.stats().conflicts, 5u);
  EXPECT_EQ(solver.conflict_budget(), 0u);
}

TEST(Solver, StatsAccumulate) {
  Solver solver;
  add_pigeonhole(solver, 5);
  EXPECT_EQ(solver.solve(), SolveResult::kUnsat);
  EXPECT_GT(solver.stats().conflicts, 0u);
  EXPECT_GT(solver.stats().propagations, 0u);
}

TEST(Solver, LearntAccountingMatchesAllocator) {
  // Regression for the learnt-limit drift: reduce_db() used to compare
  // (learnt_clauses - deleted_clauses) from monotone global stats against a
  // limit that never shrank back after clauses were reclaimed. The live
  // count must now come from the allocator-backed learnt list and match the
  // stats delta exactly, before and after reductions/GCs.
  Solver solver;
  solver.set_learnt_limit(16);  // force several reductions on this instance
  add_pigeonhole(solver, 6);
  EXPECT_EQ(solver.num_learnts(), 0u);
  EXPECT_EQ(solver.solve(), SolveResult::kUnsat);
  const auto& stats = solver.stats();
  EXPECT_GT(stats.db_reductions, 0u);
  EXPECT_GT(stats.deleted_clauses, 0u);
  EXPECT_EQ(solver.num_learnts(), stats.learnt_clauses -
                                      stats.deleted_clauses);
  // GC ran, and the footprint gauge never exceeds the recorded peak (the
  // arena can legitimately grow back to a new peak after the last GC).
  EXPECT_GT(stats.gc_runs, 0u);
  EXPECT_LE(stats.arena_bytes, stats.peak_arena_bytes);
}

TEST(Solver, ArenaStatsTrackFootprint) {
  Solver solver;
  EXPECT_EQ(solver.stats().arena_bytes, 0u);
  const Var x = solver.new_var();
  const Var y = solver.new_var();
  solver.add_clause(make_lit(x), make_lit(y));
  EXPECT_GT(solver.stats().arena_bytes, 0u);
  EXPECT_GE(solver.stats().peak_arena_bytes, solver.stats().arena_bytes);
}

// ---- randomized cross-check against brute force ----------------------------

struct RandomCnfParams {
  int num_vars;
  int num_clauses;
  std::uint64_t seed;
};

class RandomCnfSweep : public ::testing::TestWithParam<RandomCnfParams> {};

TEST_P(RandomCnfSweep, AgreesWithBruteForce) {
  const auto params = GetParam();
  util::Rng rng(params.seed);
  std::vector<std::vector<Lit>> clauses;
  for (int c = 0; c < params.num_clauses; ++c) {
    std::vector<Lit> clause;
    const int width = 1 + static_cast<int>(rng.next_below(3));
    for (int l = 0; l < width; ++l) {
      const Var v = static_cast<Var>(rng.next_below(params.num_vars));
      clause.push_back(make_lit(v, rng.next_bool()));
    }
    clauses.push_back(clause);
  }

  // Brute force.
  bool brute_sat = false;
  for (std::uint32_t assignment = 0;
       assignment < (1u << params.num_vars) && !brute_sat; ++assignment) {
    bool all = true;
    for (const auto& clause : clauses) {
      bool any = false;
      for (Lit lit : clause) {
        const bool value = ((assignment >> lit_var(lit)) & 1u) != 0;
        if (value != lit_sign(lit)) {
          any = true;
          break;
        }
      }
      if (!any) {
        all = false;
        break;
      }
    }
    brute_sat = all;
  }

  Solver solver;
  for (int v = 0; v < params.num_vars; ++v) solver.new_var();
  bool consistent = true;
  for (const auto& clause : clauses) {
    consistent = solver.add_clause(clause) && consistent;
  }
  const SolveResult result = solver.solve();
  EXPECT_EQ(result == SolveResult::kSat, brute_sat);

  if (result == SolveResult::kSat) {
    // Verify the model actually satisfies the formula.
    for (const auto& clause : clauses) {
      bool any = false;
      for (Lit lit : clause) {
        if (solver.model_value_lit(lit)) {
          any = true;
          break;
        }
      }
      EXPECT_TRUE(any);
    }
  }
}

std::vector<RandomCnfParams> make_cnf_params() {
  std::vector<RandomCnfParams> params;
  std::uint64_t seed = 1000;
  for (int vars : {4, 6, 8, 10, 12}) {
    for (double ratio : {2.0, 4.26, 6.0}) {
      for (int rep = 0; rep < 4; ++rep) {
        params.push_back({vars, static_cast<int>(vars * ratio), seed++});
      }
    }
  }
  return params;
}

INSTANTIATE_TEST_SUITE_P(Random, RandomCnfSweep,
                         ::testing::ValuesIn(make_cnf_params()));

}  // namespace
}  // namespace autolock::sat
