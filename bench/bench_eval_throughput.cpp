// End-to-end evaluation hot-path throughput: decode, single-design attack
// evaluation, and full GA generations per second on the workspace
// (allocation-free) evaluation path, plus corruption probes, MuxLink GNN
// attacks, compound-genotype decode and GA thread scaling. The attack mix
// is the seeded-GA workload the AutoLock loop runs per individual:
// structural link prediction + SCOPE.
//
// Run with --json to refresh BENCH_bench_eval_throughput.json; the JSON
// records the host's core count and build type next to the rows.
#include "bench/common.hpp"

#include <thread>

#include "attacks/attack_scratch.hpp"
#include "attacks/muxlink.hpp"
#include "core/ga.hpp"
#include "eval/workspace.hpp"
#include "locking/compound.hpp"
#include "locking/mux_lock.hpp"
#include "netlist/simulator.hpp"
#include "util/timer.hpp"

namespace {

using namespace autolock;
using benchx::BenchArgs;

struct Workload {
  netlist::gen::ProfileId profile;
  std::size_t key_bits;
};

struct Measurement {
  double rate = 0.0;
  double seconds = 0.0;
};

Measurement time_decodes(const netlist::Netlist& original,
                         const lock::SiteContext& context,
                         const lock::Genotype& genes, std::size_t iters) {
  eval::EvalWorkspace workspace;
  std::size_t guard = 0;
  util::Timer timer;
  for (std::size_t i = 0; i < iters; ++i) {
    util::Rng repair(0xDEC0DEULL + i);
    lock::apply_genotype_into(workspace.design, original, context, genes,
                              repair, workspace.reach);
    guard += workspace.design.netlist.size();
  }
  Measurement m;
  m.seconds = timer.elapsed_seconds();
  m.rate = static_cast<double>(iters) / m.seconds;
  if (guard == 0) std::abort();  // keep the loop observable
  return m;
}

eval::EvalPipelineConfig attack_mix_config(std::uint64_t seed) {
  eval::EvalPipelineConfig config;
  config.attacks = {"structural", "scope"};
  config.seed = seed;
  return config;
}

}  // namespace

int main(int argc, char** argv) {
  const BenchArgs args = benchx::parse_args(argc, argv);

  std::vector<Workload> workloads = {
      {netlist::gen::ProfileId::kC432, 16},
      {netlist::gen::ProfileId::kC880, 32},
  };
  if (args.quick) workloads.resize(1);

  util::Table decode_table({"circuit", "K", "mode", "decodes/s", "seconds"});
  util::Table eval_table({"circuit", "K", "mode", "evals/s", "seconds"});
  util::Table ga_table({"circuit", "K", "mode", "gens/s", "seconds", "evals"});
  util::Table corruption_table(
      {"circuit", "K", "mode", "probes/s", "seconds", "speedup"});
  util::Table gnn_table(
      {"circuit", "K", "mode", "attacks/s", "seconds", "last loss"});
  util::Table scaling_table(
      {"circuit", "K", "mode", "gens/s", "seconds", "speedup"});
  util::Table compound_table({"circuit", "K", "mode", "rate/s", "seconds"});
  // Context for the scaling section: on a 1-core host parallel_for_sharded
  // degenerates to the serial loop, so the section is skipped there and the
  // note column says so in the JSON.
  util::Table host_table({"metric", "mode", "note", "value"});
  {
    const unsigned cores = std::thread::hardware_concurrency();
    host_table.add_row(
        {"hardware_concurrency", "host",
         cores <= 1 ? "single core: thread-scaling section skipped"
                    : "multi core: thread scaling should exceed 1.0x",
         std::to_string(cores)});
  }

  for (const Workload& w : workloads) {
    const auto& info = netlist::gen::profile_info(w.profile);
    const auto original = netlist::gen::make_profile(w.profile, 1);
    const lock::SiteContext context(original);
    util::Rng genes_rng(0xDECD0ULL);
    const auto genes = lock::random_genotype(context, w.key_bits, genes_rng);

    // ---- decode throughput ------------------------------------------------
    const std::size_t decode_iters = args.quick ? 50 : 400;
    {
      const Measurement m =
          time_decodes(original, context, genes, decode_iters);
      decode_table.add_row({std::string(info.name), std::to_string(w.key_bits),
                            "workspace", util::fmt(m.rate, 1),
                            util::fmt(m.seconds, 3)});
    }

    // ---- single-evaluation throughput (structural + scope) ----------------
    {
      const std::size_t eval_iters = args.quick ? 3 : 10;
      eval::EvalPipelineConfig config = attack_mix_config(0);
      config.cache = false;
      eval::EvalPipeline pipeline(original, config);
      auto mutable_genes = genes;
      util::Timer timer;
      for (std::size_t i = 0; i < eval_iters; ++i) {
        (void)pipeline.evaluate(mutable_genes, i);
      }
      const double s = timer.elapsed_seconds();
      eval_table.add_row(
          {std::string(info.name), std::to_string(w.key_bits), "workspace",
           util::fmt(static_cast<double>(eval_iters) / s, 2),
           util::fmt(s, 3)});
    }

    // ---- GA generation throughput -----------------------------------------
    ga::GaConfig ga_config;
    ga_config.population = 12;
    ga_config.generations = args.quick ? 2 : 4;
    ga_config.seed = 42;
    {
      eval::EvalPipeline pipeline(original, attack_mix_config(ga_config.seed));
      ga::GeneticAlgorithm ga(original, ga_config);
      util::Timer timer;
      const auto result = ga.run({.mux_sites = w.key_bits}, pipeline);
      const double s = timer.elapsed_seconds();
      ga_table.add_row(
          {std::string(info.name), std::to_string(w.key_bits), "workspace",
           util::fmt(static_cast<double>(ga_config.generations) / s, 3),
           util::fmt(s, 3), std::to_string(result.evaluations)});
    }
    // ---- corruption probe throughput: single-key loop vs the estimator ---
    // Two probe shapes: the pipeline's (64 wrong keys sharing 4 random
    // vectors; keys in lanes, 1 four-column pass) and the campaign's
    // (16 keys x 128 vectors; vectors in lanes, 8 passes). single-key pays
    // one output_error_rate call per key (2 sweeps per 64-vector word);
    // multi-key pays the reference sweeps plus the estimator's passes.
    {
      const auto design = lock::dmux_lock(original, w.key_bits, 7);
      const netlist::Simulator dut(design.netlist);
      const netlist::Simulator reference(original);
      struct Shape {
        std::size_t keys, vectors, single_reps, multi_reps;
        const char* suffix;
      };
      const Shape shapes[] = {
          {64, 4, args.quick ? 10u : 50u, args.quick ? 100u : 2000u, ""},
          {16, 128, args.quick ? 20u : 500u, args.quick ? 100u : 2000u,
           " (16x128)"},
      };
      for (const Shape& shape : shapes) {
        const auto wrong_keys = benchx::random_wrong_keys(design, shape.keys);
        netlist::SimScratch scratch;
        double sink = 0.0;
        util::Timer single_timer;
        for (std::size_t r = 0; r < shape.single_reps; ++r) {
          util::Rng vec_rng(0x7EC ^ r);
          for (const auto& wrong : wrong_keys) {
            sink += netlist::Simulator::output_error_rate(
                dut, wrong, reference, netlist::Key{}, shape.vectors, vec_rng,
                scratch);
          }
        }
        const double single_s = single_timer.elapsed_seconds();
        if (sink < 0.0) std::abort();  // keep the loop observable
        const double single_rate =
            static_cast<double>(shape.single_reps * shape.keys *
                                shape.vectors) /
            single_s;
        const benchx::ProbeTiming multi = benchx::time_key_error_rates(
            dut, reference, wrong_keys, shape.vectors, shape.multi_reps);

        const std::string suffix = shape.suffix;
        corruption_table.add_row({std::string(info.name),
                                  std::to_string(w.key_bits),
                                  "single-key" + suffix,
                                  util::fmt(single_rate, 0),
                                  util::fmt(single_s, 3), "1.00x"});
        corruption_table.add_row(
            {std::string(info.name), std::to_string(w.key_bits),
             "multi-key" + suffix, util::fmt(multi.probes_per_s, 0),
             util::fmt(multi.seconds, 3),
             util::fmt(multi.probes_per_s / single_rate, 2) + "x"});
      }
    }

    // ---- GNN train+inference throughput (MuxLink) --------------------------
    {
      const auto design = lock::dmux_lock(original, w.key_bits, 7);
      attack::MuxLinkConfig mux_config;
      mux_config.epochs = 6;
      mux_config.max_train_links = 200;
      mux_config.subgraph.max_nodes = 48;
      const attack::MuxLinkAttack attacker(mux_config);
      attack::AttackScratch scratch;
      // Warm the scratch (graph, sample arena, GNN buffers).
      auto warm = attacker.attack(design.netlist, scratch);
      const std::size_t attack_reps = args.quick ? 1 : 4;
      util::Timer timer;
      for (std::size_t r = 0; r < attack_reps; ++r) {
        warm = attacker.attack(design.netlist, scratch);
      }
      const double s = timer.elapsed_seconds();
      gnn_table.add_row({std::string(info.name), std::to_string(w.key_bits),
                         "scratch",
                         util::fmt(static_cast<double>(attack_reps) / s, 3),
                         util::fmt(s, 3),
                         util::fmt(warm.last_epoch_loss, 4)});
    }

    // ---- compound genotype throughput (MUX + RLL + Anti-SAT genes) ---------
    // The scheme-polymorphic decode path: same workload shapes as the pure
    // MUX sections above, but each genotype carries RLL XOR/XNOR sites and
    // one Anti-SAT block alongside the MUX pairs, so the decode exercises
    // every gene arm plus the wider key layout (K column = decoded key
    // bits, not gene count). Rows: decode rate, then compound GA
    // generations/s through run(spec, pipeline).
    {
      lock::GenotypeSpec spec;
      spec.mux_sites = w.key_bits;
      spec.rll_gates = 4;
      spec.antisat_width = 4;
      util::Rng compound_rng(0xC0DEC0ULL);
      const auto compound_genes =
          lock::random_genotype(context, spec, compound_rng);
      const std::size_t compound_bits =
          lock::key_layout(compound_genes).size();
      const Measurement m =
          time_decodes(original, context, compound_genes, decode_iters);
      compound_table.add_row(
          {std::string(info.name), std::to_string(compound_bits),
           "decode workspace", util::fmt(m.rate, 1), util::fmt(m.seconds, 3)});
      eval::EvalPipeline pipeline(original, attack_mix_config(ga_config.seed));
      ga::GeneticAlgorithm ga(original, ga_config);
      util::Timer timer;
      const auto result = ga.run(spec, pipeline);
      const double s = timer.elapsed_seconds();
      (void)result;
      compound_table.add_row(
          {std::string(info.name), std::to_string(compound_bits),
           "ga workspace",
           util::fmt(static_cast<double>(ga_config.generations) / s, 3),
           util::fmt(s, 3)});
    }

    // ---- GA thread scaling (workspace mode, parallel_for_sharded) ----------
    // Only measured on multi-core hosts: with one core every thread count
    // produces the same serial rate, and committing those flat 1.0x rows
    // would read as "sharding adds nothing" in the tracked JSON. The host
    // table records the skip instead.
    if (std::thread::hardware_concurrency() > 1) {
      double single_thread_rate = 0.0;
      for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                        std::size_t{4}}) {
        eval::EvalPipelineConfig config = attack_mix_config(ga_config.seed);
        config.threads = threads;
        eval::EvalPipeline pipeline(original, config);
        ga::GeneticAlgorithm ga(original, ga_config);
        util::Timer timer;
        const auto result = ga.run({.mux_sites = w.key_bits}, pipeline);
        const double s = timer.elapsed_seconds();
        (void)result;
        const double gens_per_s =
            static_cast<double>(ga_config.generations) / s;
        if (threads == 1) single_thread_rate = gens_per_s;
        scaling_table.add_row(
            {std::string(info.name), std::to_string(w.key_bits),
             "threads=" + std::to_string(threads), util::fmt(gens_per_s, 3),
             util::fmt(s, 3),
             util::fmt(gens_per_s / single_thread_rate, 2) + "x"});
      }
    }
  }

  benchx::emit(decode_table, args, "decode throughput");
  benchx::emit(eval_table, args, "evaluation throughput (structural+scope)");
  benchx::emit(ga_table, args, "GA generation throughput");
  benchx::emit(corruption_table, args, "corruption probe throughput");
  benchx::emit(gnn_table, args, "gnn attack throughput (muxlink)");
  benchx::emit(compound_table, args, "compound genotype throughput");
  if (scaling_table.row_count() > 0) {
    benchx::emit(scaling_table, args, "GA thread scaling");
  }
  benchx::emit(host_table, args, "thread scaling host");
  return 0;
}
