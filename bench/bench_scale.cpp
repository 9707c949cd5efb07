// bench_scale — the million-gate scale proof for the decode/attack stack.
//
// Locks (K=64) and attacks synthetic 100k- and 1M-gate layered designs next
// to the c880 reference, reporting for each scale:
//
//   - streaming .bench I/O throughput (stream_save_file once;
//     stream_load_file as the median and interquartile range of repeated
//     parses after one untimed warm-up, and their median thread CPU time,
//     which a busy host inflates less than the wall time)
//   - one-time setup cost (SiteContext build) vs steady-state decode/s
//     through a reused EvalWorkspace, with the DecodeTopo incremental
//     reset counter surfaced so a silent fall-back to full O(N) resets
//     shows up in the committed baseline
//   - wrong-key corruption probes/s at the pipeline's and the campaign's
//     probe shapes (Simulator::key_error_rates)
//   - wall-clock to a full recovered-key guess from the structural link
//     predictor and from SCOPE (one baseline rewrite plus a key-cone delta
//     per hypothesis), and — on c880, where the oracle-guided loop is
//     feasible — wall-clock to the SAT attack's proven key. Each is the
//     median and interquartile range of repeated runs after one untimed
//     warm-up, attacking a design decoded into a reserved EvalWorkspace
//     through that workspace: the path campaign cells take, where the
//     attacker view is patched from the family's view
//   - peak RSS (VmHWM from /proc/self/status) after each scale's section
//   - the host: core count and build type, so a committed baseline says
//     where it was measured
//
// The acceptance metric from the scale PR: decode/s on synth100k within 5x
// of c880 decode/s at the same K ("c880 ratio" column — per-decode work is
// O(genotype), so the ratio stays flat instead of tracking the three orders
// of magnitude between the design sizes).
//
// --quick runs c880 + synth100k (the CI smoke shape); the full run adds
// synth1m. Run with --json to refresh BENCH_bench_scale.json.
#include "bench/common.hpp"

#include <algorithm>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <string>
#include <thread>
#include <tuple>

#include "attacks/attack_scratch.hpp"
#include "attacks/sat_attack.hpp"
#include "attacks/scope.hpp"
#include "attacks/structural.hpp"
#include "eval/attack.hpp"
#include "eval/workspace.hpp"
#include "locking/mux_lock.hpp"
#include "netlist/bench_stream.hpp"
#include "netlist/simulator.hpp"
#include "util/timer.hpp"

namespace {

using namespace autolock;
using benchx::BenchArgs;

constexpr std::size_t kKeyBits = 64;

struct DecodeStats {
  double rate = 0.0;
  double seconds = 0.0;
  std::size_t incremental = 0;  // incremental DecodeTopo resets in the loop
  std::size_t touched = 0;      // mean DecodeTopo::touched() per decode
  double ns_per_touched = 0.0;
};

/// Steady-state decode throughput through one reused workspace. The first
/// (untimed) decode pays the netlist copy + name warmup; every timed
/// iteration must take the warm path (append after undo) and the
/// incremental reset.
DecodeStats time_decodes(const netlist::Netlist& original,
                         const lock::SiteContext& context,
                         const lock::Genotype& genes,
                         std::size_t iters) {
  eval::EvalWorkspace workspace;
  workspace.reserve(original, genes.size());
  {
    util::Rng repair(0xDEC0DEULL);
    lock::apply_genotype_into(workspace.design, original, context, genes,
                              repair, workspace.reach);
  }
  const std::size_t resets_before = workspace.reach.topo.incremental_resets();
  std::size_t guard = 0;
  std::size_t touched = 0;
  util::Timer timer;
  for (std::size_t i = 0; i < iters; ++i) {
    util::Rng repair(0xDEC0DEULL + i);
    lock::apply_genotype_into(workspace.design, original, context, genes,
                              repair, workspace.reach);
    guard += workspace.design.netlist.size();
    touched += workspace.reach.topo.touched();
  }
  DecodeStats stats;
  stats.seconds = timer.elapsed_seconds();
  stats.rate = static_cast<double>(iters) / stats.seconds;
  stats.incremental =
      workspace.reach.topo.incremental_resets() - resets_before;
  stats.touched = touched / iters;
  stats.ns_per_touched = stats.seconds * 1e9 / static_cast<double>(touched);
  if (guard == 0) std::abort();  // keep the loop observable
  return stats;
}

/// Median and interquartile range of repeated timings.
struct Timing {
  double median = 0.0;
  double iqr = 0.0;
  std::size_t reps = 0;
};

/// Median and interquartile range of `seconds` (at least one sample).
Timing summarize(std::vector<double> seconds) {
  std::sort(seconds.begin(), seconds.end());
  const std::size_t last = seconds.size() - 1;
  return {seconds[last / 2], seconds[3 * last / 4] - seconds[last / 4],
          seconds.size()};
}

/// CPU time the calling thread has used so far, in seconds.
double thread_cpu_seconds() {
  timespec now{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &now);
  return static_cast<double>(now.tv_sec) +
         static_cast<double>(now.tv_nsec) * 1e-9;
}

/// Times `reps` calls of `run` after one untimed warm-up call.
template <typename Run>
Timing time_warm(std::size_t reps, Run&& run) {
  run();
  std::vector<double> seconds;
  for (std::size_t r = 0; r < reps; ++r) {
    util::Timer timer;
    run();
    seconds.push_back(timer.elapsed_seconds());
  }
  return summarize(std::move(seconds));
}

struct Tables {
  /// "seconds" is one sample, except on "stream parse" rows, where it is
  /// the median of "reps" warm parses with their IQR, and "CPU s" their
  /// median thread CPU time.
  util::Table io{{"circuit", "nodes", "phase", "seconds", "MB", "IQR s",
                  "reps", "CPU s"}};
  util::Table decode{{"circuit", "K", "mode", "decodes/s", "seconds",
                      "incr resets", "touched/dec", "ns/touched",
                      "c880 ratio"}};
  util::Table probe{{"circuit", "K", "mode", "probes/s", "seconds"}};
  util::Table attack{{"circuit", "K", "attack", "median s", "IQR s", "reps",
                      "key accuracy", "outcome"}};
  util::Table rss{{"circuit", "nodes", "metric", "MB"}};
  util::Table host{{"hardware_concurrency", "build_type"}};
};

/// An io-table row holding one timed sample.
std::vector<std::string> io_row(const std::string& name,
                                const std::string& nodes, const char* phase,
                                double seconds, double mb) {
  return {name, nodes, phase, util::fmt(seconds, 3), util::fmt(mb, 1), "-",
          "1", "-"};
}

/// `timed_reps` is the repetition count of every warm median (the parse
/// and the recovered-key rows).
void run_scale(const std::string& name, const netlist::Netlist& original,
               std::size_t decode_iters, std::size_t probe_reps,
               std::size_t timed_reps, bool run_sat, double& c880_ns_touched,
               Tables& t) {
  const std::string nodes = std::to_string(original.size());

  // ---- streaming I/O round trip -------------------------------------------
  // Written into the working directory (the build tree) and removed; every
  // reparse must reproduce the design's interface. Each reparsed design is
  // freed after its timer stops, so one is alive at a time.
  {
    const std::string path = name + "_bench_scale_tmp.bench";
    util::Timer write_timer;
    netlist::bench::stream_save_file(original, path);
    const double write_s = write_timer.elapsed_seconds();
    double mb = 0.0;
    {
      std::ifstream size_probe(path, std::ios::binary | std::ios::ate);
      mb = static_cast<double>(size_probe.tellg()) / 1e6;
    }
    std::vector<double> parse_seconds;
    std::vector<double> parse_cpu_seconds;
    for (std::size_t r = 0; r <= timed_reps; ++r) {  // r = 0: warm-up
      const double cpu_start = thread_cpu_seconds();
      util::Timer parse_timer;
      const auto reparsed = netlist::bench::stream_load_file(path);
      if (r > 0) {
        parse_seconds.push_back(parse_timer.elapsed_seconds());
        parse_cpu_seconds.push_back(thread_cpu_seconds() - cpu_start);
      }
      // The reparse adds one BUF alias per output port whose name differs
      // from its driver's node name, so compare interfaces, not node counts.
      if (reparsed.outputs().size() != original.outputs().size() ||
          reparsed.primary_inputs().size() !=
              original.primary_inputs().size() ||
          reparsed.size() < original.size()) {
        std::abort();
      }
    }
    std::remove(path.c_str());
    const Timing parse = summarize(std::move(parse_seconds));
    const Timing parse_cpu = summarize(std::move(parse_cpu_seconds));
    t.io.add_row(io_row(name, nodes, "stream write", write_s, mb));
    t.io.add_row({name, nodes, "stream parse", util::fmt(parse.median, 3),
                  util::fmt(mb, 1), util::fmt(parse.iqr, 3),
                  std::to_string(parse.reps), util::fmt(parse_cpu.median, 3)});
  }

  // ---- one-time site analysis + steady-state decode/s ---------------------
  util::Timer context_timer;
  const lock::SiteContext context(original);
  t.io.add_row(io_row(name, nodes, "site context",
                      context_timer.elapsed_seconds(), 0.0));

  util::Rng genes_rng(0xDECD0ULL);
  const auto genes = lock::random_genotype(context, kKeyBits, genes_rng);
  const DecodeStats decode = time_decodes(original, context, genes,
                                          decode_iters);
  // The scale acceptance metric: per-touched-gate decode cost vs c880 at
  // the same K (5x is the budget; O(genotype) decode keeps it near 1x).
  if (name == "c880") c880_ns_touched = decode.ns_per_touched;
  t.decode.add_row({name, std::to_string(kKeyBits), "workspace",
                    util::fmt(decode.rate, 1), util::fmt(decode.seconds, 3),
                    std::to_string(decode.incremental),
                    std::to_string(decode.touched),
                    util::fmt(decode.ns_per_touched, 1),
                    c880_ns_touched > 0.0
                        ? util::fmt(decode.ns_per_touched / c880_ns_touched, 2) + "x"
                        : "-"});

  // The attacked design: dmux_lock(original, kKeyBits, 7), decoded into a
  // workspace bound to the original, as a campaign lock job leaves it.
  eval::EvalWorkspace workspace;
  workspace.reserve(original, kKeyBits);
  {
    util::Rng rng(7);
    const auto dmux = lock::random_genotype(context, kKeyBits, rng);
    lock::apply_genotype_into(workspace.design, original, context, dmux, rng,
                              workspace.reach);
  }
  const lock::LockedDesign& design = workspace.design;

  // ---- corruption probes/s (Simulator::key_error_rates) -----------------
  // The pipeline's probe shape (64 wrong keys sharing 4 random vectors) and
  // the campaign's (16 keys x 128 vectors).
  {
    const netlist::Simulator dut(design.netlist);
    const netlist::Simulator reference(original);
    for (const auto& [keys, vectors, mode] :
         {std::tuple<std::size_t, std::size_t, const char*>{64, 4, "multi-key"},
          {16, 128, "multi-key (16x128)"}}) {
      const benchx::ProbeTiming timing = benchx::time_key_error_rates(
          dut, reference, benchx::random_wrong_keys(design, keys), vectors,
          probe_reps);
      t.probe.add_row({name, std::to_string(kKeyBits), mode,
                       util::fmt(timing.probes_per_s, 0),
                       util::fmt(timing.seconds, 3)});
    }
  }

  // ---- wall-clock to a recovered key --------------------------------------
  const auto add_attack_row = [&](const char* attack, const Timing& timing,
                                  double accuracy, const std::string& outcome) {
    t.attack.add_row({name, std::to_string(kKeyBits), attack,
                      util::fmt(timing.median, 3), util::fmt(timing.iqr, 3),
                      std::to_string(timing.reps), util::fmt(accuracy, 3),
                      outcome});
  };
  // Structural link predictor at every scale: time to a full key guess.
  {
    const attack::StructuralLinkPredictor predictor;
    eval::AttackReport report;
    const Timing timing = time_warm(timed_reps, [&] {
      report = eval::link_report(
          "structural", predictor.attack(design, workspace.attack), design.key);
    });
    add_attack_row("structural", timing, report.accuracy, "full guess");
  }
  // SCOPE: synthesis-area hypotheses, every bit guessed (undecided bits
  // count as coin flips in the accuracy).
  {
    const attack::ScopeAttack scope;
    eval::AttackReport report;
    const Timing timing = time_warm(timed_reps, [&] {
      report = eval::scope_report(scope.attack(design, workspace.attack),
                                  design.key);
    });
    add_attack_row("scope", timing, report.accuracy,
                   "decided " + util::fmt(report.decided_fraction, 2));
  }
  // Oracle-guided SAT attack on the reference circuit only: a proven key,
  // but the DIP loop's oracle sweeps are O(N) per iteration and the miter
  // doubles the circuit — infeasible at the synthetic scales.
  if (run_sat) {
    const attack::SatAttack sat;
    attack::SatAttackResult result;
    const Timing timing = time_warm(timed_reps, [&] {
      result = sat.attack(design.netlist, original);
    });
    add_attack_row("sat", timing, result.success ? 1.0 : 0.0,
                   result.success ? "proven key" : "failed");
  }

  t.rss.add_row({name, nodes, "peak RSS", util::fmt(benchx::peak_rss_mb(), 1)});
}

}  // namespace

int main(int argc, char** argv) {
  const BenchArgs args = benchx::parse_args(argc, argv);
  Tables t;
  double c880_ns_touched = 0.0;

  {
    util::Timer gen_timer;
    const auto c880 =
        netlist::gen::make_profile(netlist::gen::ProfileId::kC880, 1);
    t.io.add_row(io_row("c880", std::to_string(c880.size()), "generate",
                        gen_timer.elapsed_seconds(), 0.0));
    run_scale("c880", c880, args.quick ? 300 : 2000, args.quick ? 50 : 200,
              args.quick ? 5 : 11, /*run_sat=*/true, c880_ns_touched, t);
  }

  for (const auto& profile : netlist::gen::scale_profiles()) {
    if (args.quick && profile.name != "synth100k") continue;
    const std::string name(profile.name);
    util::Timer gen_timer;
    const auto original = netlist::gen::make_scale_profile(profile.name, 1);
    t.io.add_row(io_row(name, std::to_string(original.size()), "generate",
                        gen_timer.elapsed_seconds(), 0.0));
    const bool million = profile.gates >= 1'000'000;
    const std::size_t decode_iters =
        million ? 25 : (args.quick ? 40 : 200);
    const std::size_t probe_reps = million ? 4 : (args.quick ? 5 : 20);
    const std::size_t timed_reps = million || args.quick ? 5 : 11;
    run_scale(name, original, decode_iters, probe_reps, timed_reps,
              /*run_sat=*/false, c880_ns_touched, t);
  }

  benchx::emit(t.io, args, "design build + streaming I/O");
  benchx::emit(t.decode, args, "decode throughput at scale");
  benchx::emit(t.probe, args, "corruption probe throughput at scale");
  benchx::emit(t.attack, args, "time to recovered key");
  benchx::emit(t.rss, args, "peak memory");
  // AUTOLOCK_BUILD_TYPE is defined for every bench by CMakeLists.txt.
  t.host.add_row({std::to_string(std::thread::hardware_concurrency()),
                  AUTOLOCK_BUILD_TYPE});
  benchx::emit(t.host, args, "host");
  return 0;
}
