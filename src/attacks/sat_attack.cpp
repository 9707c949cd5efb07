#include "attacks/sat_attack.hpp"

#include <stdexcept>
#include <utility>

#include "sat/cnf.hpp"
#include "util/timer.hpp"

namespace autolock::attack {

using netlist::Key;
using netlist::Netlist;
using netlist::Simulator;
using sat::Encoding;
using sat::Lit;
using sat::make_lit;
using sat::SolveResult;
using sat::Var;

SatAttack::SatAttack(SatAttackConfig config) : config_(std::move(config)) {}

SatAttackResult SatAttack::attack(const Netlist& locked,
                                  const Netlist& oracle) const {
  util::Timer timer;
  SatAttackResult result;

  if (!oracle.key_inputs().empty()) {
    throw std::invalid_argument(
        "SatAttack: oracle has key inputs — a locked netlist is not an "
        "oracle (its simulation would run under an arbitrary key)");
  }
  if (locked.primary_inputs().size() != oracle.primary_inputs().size() ||
      locked.outputs().size() != oracle.outputs().size()) {
    throw std::invalid_argument("SatAttack: interface mismatch");
  }

  const auto key_nodes = locked.key_inputs();
  const std::size_t key_bits = key_nodes.size();
  if (key_bits == 0) {
    // Nothing to recover, but the pair must still be proven equivalent:
    // a keyless design that differs from the oracle is not a completion
    // of it under any key.
    result.success = sat::check_equivalent(locked, Key{}, oracle, Key{});
    result.infeasible = !result.success;
    result.seconds = timer.elapsed_seconds();
    return result;
  }

  const Simulator oracle_sim(oracle);

  sat::Solver solver;
  if (config_.conflict_budget != 0) {
    solver.set_conflict_budget(config_.conflict_budget);
  }

  // One growing formula for the whole attack: two copies of the locked
  // circuit sharing primary inputs with independent key sets K1/K2, the
  // miter over them, and (appended per iteration) every DIP's IO
  // constraints. The miter is attached by ASSUMPTION, never as a clause,
  // so the final "find a consistent key" solve and the canonicalization
  // solves reuse the same solver — learnt clauses and VSIDS state survive
  // across all of it.
  //
  // The second copy shares the key-independent remainder with the first
  // (it is identical in both), so the initial miter grows by one key cone
  // instead of one whole circuit — every DIP search then propagates a much
  // smaller formula.
  sat::ConeTemplate cone(locked);
  const Encoding enc1 = sat::encode_netlist(solver, locked);
  const Encoding enc2 = cone.encode_shared_copy(solver, enc1);
  const std::vector<Var>& pi_vars = enc1.primary_input_var;
  const std::vector<Var>& key1_vars = enc1.key_var;
  const std::vector<Var>& key2_vars = enc2.key_var;
  const Lit miter_lit = make_lit(sat::make_miter(solver, enc1, enc2), false);

  const std::size_t primary_count = pi_vars.size();

  auto record_stats = [&] {
    const sat::Solver::Stats& stats = solver.stats();
    result.total_conflicts = stats.conflicts;
    result.total_decisions = stats.decisions;
    result.total_propagations = stats.propagations;
    result.gc_runs = stats.gc_runs;
    result.db_reductions = stats.db_reductions;
    result.peak_arena_bytes = stats.peak_arena_bytes;
    result.mean_lbd = stats.mean_lbd();
  };
  auto finish = [&](SatAttackResult&& r) {
    record_stats();
    r.seconds = timer.elapsed_seconds();
    return std::move(r);
  };

  for (;;) {
    if (config_.max_iterations != 0 &&
        result.dip_iterations >= config_.max_iterations) {
      result.budget_exhausted = true;
      return finish(std::move(result));
    }
    const std::uint64_t vars_before = solver.num_vars();
    const std::uint64_t clauses_before = solver.num_clauses();
    const std::uint64_t conflicts_before = solver.stats().conflicts;

    const SolveResult res = solver.solve({miter_lit});
    if (res == SolveResult::kUnknown) {
      result.budget_exhausted = true;
      return finish(std::move(result));
    }
    if (res == SolveResult::kUnsat) break;  // no DIP remains

    // Extract the DIP and query the oracle.
    ++result.dip_iterations;
    std::vector<bool> dip(primary_count);
    for (std::size_t i = 0; i < primary_count; ++i) {
      dip[i] = solver.model_value(pi_vars[i]);
    }
    const std::vector<bool> response = oracle_sim.run_single(dip, Key{});

    // Append the IO constraint (both copies must map dip -> response).
    const bool consistent = cone.bind_dip(dip, response) &&
                            cone.encode_copy(solver, key1_vars) &&
                            cone.encode_copy(solver, key2_vars);
    result.iterations.push_back(
        {solver.num_vars() - vars_before,
         solver.num_clauses() - clauses_before, solver.stats().arena_bytes,
         solver.stats().conflicts - conflicts_before});
    if (!consistent) {
      // A response no key can produce, or IO constraints UNSAT at level
      // 0: the oracle is not a completion of this locked circuit. Stop
      // instead of looping on a dead solver.
      result.infeasible = true;
      return finish(std::move(result));
    }
  }

  // Any key consistent with all IO constraints is correct. Solve without
  // the miter assumption to obtain one.
  const SolveResult final_res = solver.solve({});
  if (final_res != SolveResult::kSat) {
    if (final_res == SolveResult::kUnknown) {
      result.budget_exhausted = true;
    } else {
      // UNSAT: no key satisfies the recorded IO pairs at all.
      result.infeasible = true;
    }
    return finish(std::move(result));
  }
  result.recovered_key.resize(key_bits);
  for (std::size_t b = 0; b < key_bits; ++b) {
    result.recovered_key[b] = solver.model_value(key1_vars[b]);
  }

  // Canonicalize: walk the key bits most-significant-first, greedily
  // forcing each to 0 when some consistent key allows it. Every query is
  // an assumption solve on the warm solver. A kUnknown (conflict budget)
  // aborts canonicalization but keeps the (valid) witness key.
  std::vector<Lit> prefix;
  prefix.reserve(key_bits);
  for (std::size_t b = 0; b < key_bits; ++b) {
    if (!result.recovered_key[b]) {
      // The current witness model already has this bit at 0.
      prefix.push_back(make_lit(key1_vars[b], true));
      continue;
    }
    prefix.push_back(make_lit(key1_vars[b], true));  // try 0
    const SolveResult bit_res = solver.solve(prefix);
    if (bit_res == SolveResult::kSat) {
      // Adopt the new witness: this bit drops to 0 and the undecided
      // suffix must be re-read from the new model.
      for (std::size_t j = b; j < key_bits; ++j) {
        result.recovered_key[j] = solver.model_value(key1_vars[j]);
      }
    } else if (bit_res == SolveResult::kUnsat) {
      prefix.back() = make_lit(key1_vars[b], false);  // forced to 1
    } else {
      prefix.pop_back();  // budget: keep the witness key as-is
      break;
    }
  }

  // Verify functional correctness of the recovered key with a fresh miter.
  result.success =
      sat::check_equivalent(locked, result.recovered_key, oracle, Key{});
  return finish(std::move(result));
}

}  // namespace autolock::attack
