// Oracle-guided SAT attack (Subramanyan et al., HOST'15), from scratch on
// top of the in-repo CDCL solver.
//
// The attacker holds the locked netlist and black-box access to an unlocked
// chip (the oracle — here, simulation of the original netlist). The attack
// iteratively finds Distinguishing Input Patterns (DIPs): inputs on which
// two candidate keys disagree. Each DIP's oracle response prunes the key
// space by adding IO constraints; when no DIP remains, any key consistent
// with all recorded IO pairs is functionally correct.
//
// The loop is fully incremental: one growing formula holds the miter and
// every DIP's IO constraints, so learnt clauses and VSIDS state carry
// across iterations, and each DIP is encoded through sat::ConeTemplate,
// which simulates the key-independent logic to constants once per DIP and
// encodes only the key-dependent cone per copy. The recovered key is
// canonicalized (lexicographically smallest consistent key) so it is a
// function of the locked/oracle pair alone, not of the DIP trajectory.
//
// Each DIP search first runs under kMiterConflictAllowance conflicts. A
// search that uses it up finds the key bits every key consistent with the
// DIPs shares (sat::forced_literals), fixes them on both key copies, merges
// the two copies of every cone gate whose key support is fixed, and
// resumes. Those clauses follow from the DIP constraints, so the consistent
// keys, the lex-min key and `success` are what they would be without them;
// on XOR-heavy circuits the last search, the proof that no DIP remains,
// gets much cheaper.
//
// In this repo the SAT attack serves the multi-objective extension (the
// AutoLock research plan's "set of distinct attacks"): MUX locking is not
// SAT-resilient by design, so the interesting measurement is attack *effort*
// (DIP iterations, conflicts, time) rather than success.
#pragma once

#include <cstdint>
#include <vector>

#include "netlist/netlist.hpp"
#include "netlist/simulator.hpp"

namespace autolock::attack {

/// Conflicts a DIP search may spend before it fixes the forced key bits and
/// merges the two copies on them.
inline constexpr std::uint64_t kMiterConflictAllowance = 256;

struct SatAttackConfig {
  /// Abort after this many DIP iterations (0 = unlimited).
  std::size_t max_iterations = 0;
  /// Conflict budget (0 = unlimited) of each DIP search, its forced-bit
  /// probes included, and of each solve after the last DIP. When exhausted
  /// the attack reports failure with `budget_exhausted` set.
  std::uint64_t conflict_budget = 0;
};

/// Per-DIP-iteration formula growth, surfaced so benches and tests can see
/// the incremental path's footprint (at most two key cones per DIP; an
/// escalated search adds merge clauses but no variables).
struct DipIterationStats {
  std::uint64_t new_vars = 0;     // solver variables added by this DIP
  std::uint64_t new_clauses = 0;  // problem clauses added by this DIP
  std::uint64_t arena_bytes = 0;  // arena footprint after the iteration
  std::uint64_t conflicts = 0;    // conflicts spent finding this DIP,
                                  // the allowance attempt included
};

struct SatAttackResult {
  bool success = false;           // recovered key proven functionally correct
  bool budget_exhausted = false;
  /// The oracle's IO behaviour is inconsistent with the locked circuit:
  /// some response cannot be produced under ANY key (wrong oracle/locked
  /// pairing, or corrupted responses). Detected either by the cone
  /// template's key-independent output check or by the IO constraints
  /// going UNSAT at level 0 — the loop stops immediately instead of
  /// solving on a dead formula. A locked netlist with no key inputs is
  /// infeasible exactly when it is not equivalent to the oracle.
  bool infeasible = false;
  netlist::Key recovered_key;
  std::size_t dip_iterations = 0;
  std::uint64_t total_conflicts = 0;
  std::uint64_t total_decisions = 0;
  std::uint64_t total_propagations = 0;
  // Solver-core internals (sat/clause_allocator.hpp): arena compactions,
  // DB reductions, memory footprint, and mean learnt-clause LBD.
  std::uint64_t gc_runs = 0;
  std::uint64_t db_reductions = 0;
  std::uint64_t peak_arena_bytes = 0;
  double mean_lbd = 0.0;
  // The forced-bit merge: DIP searches that used up the allowance, key
  // bits found forced, and cone gates merged across the two copies.
  std::size_t escalated_searches = 0;
  std::size_t forced_key_bits = 0;
  std::size_t merged_node_pairs = 0;
  /// One entry per DIP iteration (empty when the key count is zero).
  std::vector<DipIterationStats> iterations;
  double seconds = 0.0;
};

class SatAttack {
 public:
  explicit SatAttack(SatAttackConfig config = {});

  /// Runs the attack. `oracle` is the original (unlocked) netlist; it is
  /// only ever *simulated* (black-box), never encoded into the solver.
  /// Throws std::invalid_argument if the interfaces mismatch or the
  /// oracle itself has key inputs (a locked netlist is not an oracle —
  /// simulating it would silently run under the all-false key and produce
  /// garbage responses).
  SatAttackResult attack(const netlist::Netlist& locked,
                         const netlist::Netlist& oracle) const;

 private:
  SatAttackConfig config_;
};

}  // namespace autolock::attack
