// CDCL SAT solver (MiniSAT-lineage), built from scratch for this project.
//
// Features: two-watched-literal propagation with binary-clause
// specialization (the other literal rides in the watcher, so binary clauses
// propagate without touching clause memory), 1-UIP conflict analysis with
// clause learning and non-chronological backjumping, VSIDS branching with an
// indexed binary heap, phase saving, Luby restarts, glucose-style LBD
// (literal block distance) tracking with LBD+activity learnt-DB reduction,
// arena clause storage with compacting garbage collection
// (sat/clause_allocator.hpp), solving under assumptions, and a conflict
// budget for bounded ("best effort") queries. forced_literals probes which
// variables every model fixes, under such a budget.
//
// This is the engine underneath netlist equivalence checking (sat/cnf.hpp)
// and the oracle-guided SAT attack (attacks/sat_attack.hpp).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "sat/clause_allocator.hpp"

namespace autolock::sat {

enum class SolveResult { kSat, kUnsat, kUnknown };

class Solver {
 public:
  Solver();

  /// Creates a fresh variable, returned id is contiguous from 0.
  Var new_var();

  /// Pre-reserves per-variable bookkeeping for `count` total variables
  /// (optional; bulk encoders use it to avoid reallocation churn).
  void reserve_vars(std::size_t count);
  std::size_t num_vars() const noexcept { return assign_.size(); }

  /// Adds a clause. Returns false if the formula is already unsatisfiable
  /// at level 0 (conflicting unit, empty clause). Literals over undeclared
  /// variables are an error. Must be called before/between solves (not
  /// during). Duplicate literals are removed; tautologies are ignored.
  bool add_clause(std::vector<Lit> lits) {
    return add_clause_impl(lits.data(), lits.size());
  }
  /// Allocation-free path for callers that reuse a literal buffer.
  bool add_clause(std::span<const Lit> lits) {
    add_copy_.assign(lits.begin(), lits.end());
    return add_clause_impl(add_copy_.data(), add_copy_.size());
  }
  bool add_clause(Lit a) {
    Lit lits[1] = {a};
    return add_clause_impl(lits, 1);
  }
  bool add_clause(Lit a, Lit b) {
    Lit lits[2] = {a, b};
    return add_clause_impl(lits, 2);
  }
  bool add_clause(Lit a, Lit b, Lit c) {
    Lit lits[3] = {a, b, c};
    return add_clause_impl(lits, 3);
  }

  /// Solves under the given assumptions. kUnknown is returned only when the
  /// conflict budget (if set) is exhausted.
  SolveResult solve(const std::vector<Lit>& assumptions = {});

  /// Model access (valid after kSat). Unassigned (don't-care) vars read
  /// as false.
  bool model_value(Var var) const;
  bool model_value_lit(Lit lit) const {
    return model_value(lit_var(lit)) != lit_sign(lit);
  }

  /// Conflicts one solve() may spend before it returns kUnknown; 0
  /// disables the budget (default).
  void set_conflict_budget(std::uint64_t max_conflicts) noexcept {
    conflict_budget_ = max_conflicts;
  }
  std::uint64_t conflict_budget() const noexcept { return conflict_budget_; }

  /// Live-learnt-clause count that triggers the next reduce_db(). Mostly a
  /// test/bench knob: a tiny limit forces frequent DB reductions and arena
  /// GCs, exercising those paths on small formulas.
  void set_learnt_limit(std::uint64_t limit) noexcept { learnt_limit_ = limit; }

  /// Live learnt clauses currently attached (excludes deleted ones) —
  /// the allocator-backed count reduce_db() budgets against.
  std::size_t num_learnts() const noexcept { return learnts_.size(); }

  /// Live problem (non-learnt, non-unit) clauses. Together with num_vars()
  /// and stats().arena_bytes this is how the SAT attack surfaces per-DIP
  /// formula growth.
  std::size_t num_clauses() const noexcept { return clauses_.size(); }

  struct Stats {
    std::uint64_t conflicts = 0;
    std::uint64_t decisions = 0;
    std::uint64_t propagations = 0;
    std::uint64_t restarts = 0;
    std::uint64_t learnt_clauses = 0;
    std::uint64_t deleted_clauses = 0;
    std::uint64_t db_reductions = 0;  // reduce_db() invocations
    std::uint64_t gc_runs = 0;        // arena compactions
    std::uint64_t arena_bytes = 0;    // current arena footprint
    std::uint64_t peak_arena_bytes = 0;
    std::uint64_t lbd_sum = 0;  // summed over learnt clauses at learn time

    double mean_lbd() const noexcept {
      return learnt_clauses == 0
                 ? 0.0
                 : static_cast<double>(lbd_sum) /
                       static_cast<double>(learnt_clauses);
    }
  };
  const Stats& stats() const noexcept { return stats_; }

  bool okay() const noexcept { return ok_; }

 private:
  enum class LBool : std::uint8_t { kTrue, kFalse, kUndef };

  /// Watch-list entry. `blocker` is some other literal of the clause: if it
  /// is true the clause is satisfied and need not be touched. For binary
  /// clauses the blocker IS the other literal, so propagation never
  /// dereferences the arena. The binary flag rides in the top bit of the
  /// clause reference.
  struct Watcher {
    std::uint32_t data;  // cref | (binary << 31)
    Lit blocker;

    ClauseRef cref() const noexcept { return data & 0x7FFFFFFFu; }
    bool binary() const noexcept { return (data >> 31) != 0; }
  };
  static Watcher make_watcher(ClauseRef ref, Lit blocker,
                              bool binary) noexcept {
    return Watcher{ref | (binary ? 0x80000000u : 0u), blocker};
  }

  /// Branchless: with kTrue=0/kFalse=1, XOR-ing the sign flips truth while
  /// mapping kUndef (2) to 2 or 3 — callers only ever compare against
  /// kTrue/kFalse, so both encode "unassigned".
  LBool value_lit(Lit lit) const noexcept {
    return static_cast<LBool>(
        static_cast<std::uint8_t>(assign_[lit_var(lit)]) ^
        static_cast<std::uint8_t>(lit & 1));
  }

  bool add_clause_impl(Lit* lits, std::size_t n);
  void enqueue(Lit lit, ClauseRef reason);
  ClauseRef propagate();
  void analyze(ClauseRef conflict, std::vector<Lit>& out_learnt,
               int& out_btlevel);
  void backtrack(int level, bool update_heap = true);
  Lit pick_branch_lit();
  void bump_var(Var var);
  void decay_var_activity();
  void bump_clause(Clause clause);
  void decay_clause_activity();
  std::uint32_t compute_lbd(const std::vector<Lit>& lits);
  void reduce_db();
  void garbage_collect();
  void attach_clause(ClauseRef ref);
  void note_arena_size();
  void rebuild_heap();
  static std::uint64_t luby(std::uint64_t i);

  // Heap helpers (max-heap on activity_).
  void heap_insert(Var var);
  void heap_update(Var var);
  Var heap_pop();
  void heap_sift_up(std::size_t i);
  void heap_sift_down(std::size_t i);

  bool ok_ = true;
  ClauseAllocator arena_;
  std::vector<ClauseRef> clauses_;  // problem clauses
  std::vector<ClauseRef> learnts_;  // live learnt clauses
  std::vector<std::vector<Watcher>> watches_;  // indexed by literal
  /// Decision level + implying clause, packed so enqueue/analyze touch one
  /// cache line per variable instead of two.
  struct VarInfo {
    std::int32_t level;
    ClauseRef reason;
  };
  std::vector<LBool> assign_;
  std::vector<LBool> saved_phase_;
  std::vector<VarInfo> var_info_;
  std::vector<Lit> trail_;
  std::vector<std::size_t> trail_lim_;  // trail index per decision level
  std::size_t propagate_head_ = 0;

  std::vector<double> activity_;
  double var_inc_ = 1.0;
  float clause_inc_ = 1.0f;
  /// Heap entries cache the key so sift comparisons stay inside the heap
  /// array instead of random-accessing activity_. Kept in sync by
  /// heap_update() (bumps) and the rescale path.
  struct HeapEntry {
    double act;
    Var var;
  };
  std::vector<std::int32_t> heap_pos_;  // -1 if absent
  std::vector<HeapEntry> heap_;
  std::vector<Var> free_vars_;  // vars not (yet) fixed at level 0, ascending

  std::vector<Lit> add_scratch_;         // add_clause normalize buffer
  std::vector<Lit> add_copy_;            // span add_clause staging buffer
  std::vector<std::uint8_t> seen_;       // analyze scratch
  std::vector<Var> analyze_marked_;      // minimization scratch
  std::vector<std::uint32_t> lbd_mark_;  // level stamps, indexed by level
  std::uint32_t lbd_stamp_ = 0;

  std::uint64_t conflict_budget_ = 0;
  std::uint64_t learnt_limit_ = 4096;
  Stats stats_;
};

/// The literals over `vars` that hold in every model of the formula (its
/// backbone over `vars`), in `vars` order. One witness solve, then one
/// solve per open variable under the assumption that it takes the other
/// value: UNSAT means the witness value is forced, and a model clears every
/// later variable where it differs from the witness. All solves together
/// spend at most `conflict_budget` conflicts (0 = unlimited); a solve that
/// runs out ends the search and its variable counts as not forced. Returns
/// nothing when the formula has no model. The solver's own conflict budget
/// is restored before returning.
std::vector<Lit> forced_literals(Solver& solver, std::span<const Var> vars,
                                 std::uint64_t conflict_budget);

}  // namespace autolock::sat
