#include "attacks/sat_attack.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <utility>

#include "sat/cnf.hpp"
#include "util/timer.hpp"

namespace autolock::attack {

using netlist::GateType;
using netlist::Key;
using netlist::Netlist;
using netlist::NodeId;
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

  // Key bits every key consistent with the DIPs so far shares, and the
  // cone nodes whose two copies are merged on them. Both only grow: each
  // DIP adds constraints, so a forced bit stays forced.
  const std::size_t words = cone.support_words();
  std::vector<std::uint64_t> forced(words, 0);
  std::vector<std::uint8_t> merged(locked.size(), 0);

  // Fixes the forced key bits on both copies and merges every cone gate
  // whose key support is forced, spending at most `max_conflicts`. K1 and
  // K2 obey the same DIP constraints, so a bit forced on K1 is forced on
  // K2, and a gate whose support is forced computes one function of the
  // inputs in both copies. Every clause added follows from the formula:
  // the models, and so the consistent keys, stay as they were.
  const auto fix_forced_bits = [&](std::uint64_t max_conflicts) {
    std::vector<Var> open_vars;
    std::vector<std::size_t> open_bits;
    for (std::size_t b = 0; b < key_bits; ++b) {
      if (((forced[b / 64] >> (b % 64)) & 1) != 0) continue;
      open_vars.push_back(key1_vars[b]);
      open_bits.push_back(b);
    }
    std::size_t j = 0;
    for (const Lit lit :
         sat::forced_literals(solver, open_vars, max_conflicts)) {
      while (open_vars[j] != sat::lit_var(lit)) ++j;
      const std::size_t b = open_bits[j];
      forced[b / 64] |= std::uint64_t{1} << (b % 64);
      solver.add_clause(lit);
      solver.add_clause(make_lit(key2_vars[b], sat::lit_sign(lit)));
      ++result.forced_key_bits;
    }
    for (NodeId v = 0; v < locked.size(); ++v) {
      if (merged[v] != 0 || locked.node(v).type == GateType::kInput) continue;
      const auto support = cone.key_support(v);
      bool in_cone = false;
      bool open = false;
      for (std::size_t w = 0; w < words; ++w) {
        in_cone = in_cone || support[w] != 0;
        open = open || (support[w] & ~forced[w]) != 0;
      }
      if (!in_cone || open) continue;
      const Lit a = make_lit(enc1.node_var[v]);
      const Lit b = make_lit(enc2.node_var[v]);
      solver.add_clause(sat::lit_neg(a), b);
      solver.add_clause(a, sat::lit_neg(b));
      merged[v] = 1;
      ++result.merged_node_pairs;
    }
  };

  // One DIP search: first under the allowance; a search that uses it up
  // fixes the forced bits, merges, and resumes. The three parts together
  // spend at most the conflict budget (no budget reads as the largest
  // count, which no search reaches).
  const std::uint64_t budget = config_.conflict_budget != 0
                                   ? config_.conflict_budget
                                   : std::numeric_limits<std::uint64_t>::max();
  const auto find_dip = [&] {
    const std::uint64_t start = solver.stats().conflicts;
    const auto left = [&] {
      return budget - (solver.stats().conflicts - start);
    };
    solver.set_conflict_budget(std::min(kMiterConflictAllowance, budget));
    const SolveResult res = solver.solve({miter_lit});
    if (res != SolveResult::kUnknown || left() == 0) return res;
    ++result.escalated_searches;
    fix_forced_bits(left());
    if (left() == 0) return SolveResult::kUnknown;
    solver.set_conflict_budget(left());
    return solver.solve({miter_lit});
  };

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

    const SolveResult res = find_dip();
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

  // The final solve and each canonicalization solve get the whole budget.
  solver.set_conflict_budget(config_.conflict_budget);

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

  // Prove the recovered key: the strashed checker merges it outright when
  // it is the correct key and needs one small SAT call otherwise.
  result.success =
      sat::check_equivalent(locked, result.recovered_key, oracle, Key{});
  return finish(std::move(result));
}

}  // namespace autolock::attack
