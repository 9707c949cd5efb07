// X4: SAT-attack effort across locking schemes, plus solver-core health.
//
// MUX locking (and AutoLock) defends against *learning* attacks, not the
// oracle-guided SAT attack — the expected shape is: the SAT attack succeeds
// everywhere, with effort (DIP iterations / conflicts / time) growing with
// key length, and MUX locking costing at least as much as RLL at equal K.
// The c432 Anti-SAT rows (X8) are the exception: there the DIP count grows
// roughly as 2^n with the block width n, and a compound D-MUX + Anti-SAT
// lock keeps that cost. On the XOR-heavy c1355 row the proof that no DIP
// remains is the costly solve; "forced bits" counts the key bits the attack
// fixed there before merging its two circuit copies on them.
//
// Two extra sections track the CDCL core itself across PRs:
//  - "solver core": seeded hard instances (random 3-SAT at the phase
//    transition, pigeonhole) that exercise LBD-based DB reduction and arena
//    garbage collection — props/s is the propagation-throughput headline,
//    gc_runs/peak-arena prove reclamation actually ran.
//  - "attack propagation throughput": repeated seeded attacks, aggregated,
//    so the per-attack wall-clock (dominated by propagation + encoding) is
//    measured above timer noise.
#include "bench/common.hpp"

#include "attacks/sat_attack.hpp"
#include "locking/antisat.hpp"
#include "locking/rll.hpp"
#include "sat/instances.hpp"
#include "sat/solver.hpp"

namespace {

using namespace autolock;
using sat::add_pigeonhole;
using sat::random_3sat;
using sat::Solver;

const char* result_name(sat::SolveResult result) {
  switch (result) {
    case sat::SolveResult::kSat: return "SAT";
    case sat::SolveResult::kUnsat: return "UNSAT";
    case sat::SolveResult::kUnknown: return "unknown";
  }
  return "?";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace autolock;
  const auto args = benchx::parse_args(argc, argv);

  // ---- attack effort by scheme (the original X4 table) --------------------
  struct Case {
    netlist::gen::ProfileId profile;
    std::size_t key_bits;
  };
  std::vector<Case> cases;
  if (args.quick) {
    cases = {{netlist::gen::ProfileId::kC432, 8}};
  } else {
    cases = {{netlist::gen::ProfileId::kC432, 8},
             {netlist::gen::ProfileId::kC432, 16},
             {netlist::gen::ProfileId::kC432, 32},
             {netlist::gen::ProfileId::kC880, 16},
             {netlist::gen::ProfileId::kC880, 32}};
  }

  util::Table table({"circuit", "K", "scheme", "success", "DIP iters",
                     "conflicts", "forced bits", "decisions", "props",
                     "Mprops/s", "arena KB", "mean LBD", "time (s)"});
  const attack::SatAttack attacker;
  const auto add_row = [&](const netlist::Netlist& original,
                           const std::string& scheme,
                           const lock::LockedDesign& design) {
    const auto result = attacker.attack(design.netlist, original);
    const double mprops =
        result.seconds > 0.0
            ? static_cast<double>(result.total_propagations) /
                  result.seconds / 1e6
            : 0.0;
    table.add_row({original.name(), std::to_string(design.key.size()),
                   scheme, result.success ? "yes" : "NO",
                   std::to_string(result.dip_iterations),
                   std::to_string(result.total_conflicts),
                   std::to_string(result.forced_key_bits),
                   std::to_string(result.total_decisions),
                   std::to_string(result.total_propagations),
                   util::fmt(mprops, 2),
                   std::to_string(result.peak_arena_bytes / 1024),
                   util::fmt(result.mean_lbd, 2),
                   util::fmt(result.seconds, 3)});
  };

  for (const auto& test_case : cases) {
    const auto original = netlist::gen::make_profile(test_case.profile, 1);
    add_row(original, "RLL", lock::rll_lock(original, test_case.key_bits, 7));
    add_row(original, "D-MUX",
            lock::dmux_lock(original, test_case.key_bits, 7));
    // AutoLock output (quick structural evolution — the SAT attack does
    // not care how sites were chosen, only about the key-space pruning).
    ga::GaConfig config;
    config.population = 8;
    config.generations = args.quick ? 1 : 3;
    config.seed = 7;
    eval::EvalPipelineConfig pipeline_config;
    pipeline_config.attacks = {"structural"};
    pipeline_config.seed = config.seed;
    eval::EvalPipeline pipeline(original, std::move(pipeline_config));
    const ga::GaResult result = ga::GeneticAlgorithm(original, config).run(
        {.mux_sites = test_case.key_bits}, pipeline);
    add_row(original, "AutoLock", pipeline.decode(result.best.genes));
  }

  // XOR-heavy c1355: the proof that no DIP remains outlasts the conflict
  // allowance, so the attack fixes the forced key bits and merges the two
  // copies on them ("forced bits" > 0).
  {
    const auto original =
        netlist::gen::make_profile(netlist::gen::ProfileId::kC1355, 1);
    add_row(original, "D-MUX", lock::dmux_lock(original, 8, 7));
  }

  // Anti-SAT widths on c432, a D-MUX reference of about the same key
  // length, and a compound lock.
  {
    const auto original =
        netlist::gen::make_profile(netlist::gen::ProfileId::kC432, 1);
    const std::vector<std::size_t> widths =
        args.quick ? std::vector<std::size_t>{3}
                   : std::vector<std::size_t>{3, 4, 5, 6, 7};
    lock::AntiSatOptions options;
    for (const std::size_t width : widths) {
      options.width = width;
      add_row(original, "Anti-SAT n=" + std::to_string(width),
              lock::antisat_lock(original, options, 7));
    }
    add_row(original, "D-MUX", lock::dmux_lock(original, 12, 7));
    options.width = args.quick ? 3 : 5;
    add_row(original,
            "D-MUX 8 + Anti-SAT n=" + std::to_string(options.width),
            lock::compound_lock(original, 8, options, 7));
  }
  benchx::emit(table, args, "X4 — oracle-guided SAT attack effort by scheme");

  // ---- solver core: hard seeded instances (DB reduction + GC) -------------
  struct Hard {
    std::string name;
    int vars;  // 0 = pigeonhole
    int holes;
    std::uint64_t seed;
  };
  std::vector<Hard> hard;
  if (args.quick) {
    hard = {{"3sat-120", 120, 0, 11}, {"php-6", 0, 6, 0}};
  } else {
    hard = {{"3sat-160", 160, 0, 13},
            {"3sat-200a", 200, 0, 21},
            {"3sat-200b", 200, 0, 22},
            {"php-8", 0, 8, 0}};
  }

  util::Table core({"instance", "result", "conflicts", "props", "Mprops/s",
                    "reduces", "GC runs", "peak arena KB", "mean LBD",
                    "time (s)"});
  for (const auto& inst : hard) {
    Solver solver;
    if (inst.vars > 0) {
      solver.reserve_vars(inst.vars);
      for (int v = 0; v < inst.vars; ++v) solver.new_var();
      for (auto& clause :
           random_3sat(inst.vars, static_cast<int>(inst.vars * 4.26),
                       inst.seed)) {
        solver.add_clause(std::move(clause));
      }
      // Hard instances learn tens of thousands of clauses; a lower first
      // reduction point keeps the DB lean and exercises reduction + GC
      // (quick instances conflict far less, so they get a lower limit).
      solver.set_learnt_limit(args.quick ? 128 : 2048);
    } else {
      add_pigeonhole(solver, inst.holes);
      solver.set_learnt_limit(args.quick ? 128 : 2048);
    }
    util::Timer timer;
    const auto result = solver.solve();
    const double seconds = timer.elapsed_seconds();
    const auto& stats = solver.stats();
    const double mprops =
        seconds > 0.0
            ? static_cast<double>(stats.propagations) / seconds / 1e6
            : 0.0;
    core.add_row({inst.name, result_name(result),
                  std::to_string(stats.conflicts),
                  std::to_string(stats.propagations), util::fmt(mprops, 2),
                  std::to_string(stats.db_reductions),
                  std::to_string(stats.gc_runs),
                  std::to_string(stats.peak_arena_bytes / 1024),
                  util::fmt(stats.mean_lbd(), 2), util::fmt(seconds, 3)});
  }
  benchx::emit(core, args,
               "solver core — hard instances (LBD reduction + arena GC)");

  // ---- attack propagation throughput (aggregated over repeats) ------------
  {
    const auto original =
        netlist::gen::make_profile(netlist::gen::ProfileId::kC880, 1);
    const auto rll = lock::rll_lock(original, 32, 7);
    const auto dmux = lock::dmux_lock(original, 32, 7);
    const int reps = args.quick ? 3 : 20;
    std::uint64_t props = 0;
    std::uint64_t conflicts = 0;
    util::Timer timer;
    for (int rep = 0; rep < reps; ++rep) {
      for (const auto* design : {&rll, &dmux}) {
        const auto result = attacker.attack(design->netlist, original);
        props += result.total_propagations;
        conflicts += result.total_conflicts;
      }
    }
    const double seconds = timer.elapsed_seconds();
    util::Table throughput({"workload", "attacks", "props", "conflicts",
                            "Mprops/s", "time (s)"});
    throughput.add_row(
        {"c880 K=32 RLL+D-MUX", std::to_string(2 * reps),
         std::to_string(props), std::to_string(conflicts),
         util::fmt(seconds > 0.0 ? props / seconds / 1e6 : 0.0, 2),
         util::fmt(seconds, 3)});
    benchx::emit(throughput, args,
                 "attack propagation throughput (seeded, aggregated)");
  }
  return 0;
}
