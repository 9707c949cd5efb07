// Example: a small command-line tool over the public API, working on real
// `.bench` files — the artifact a downstream user would actually run on
// their own netlists (ISCAS .bench files drop in unchanged).
//
// Commands:
//   lock_file_tool gen <profile> <out.bench> [seed]      write a benchmark circuit
//   lock_file_tool lock <in.bench> <out.bench> <K> [scheme] [seed]
//        scheme: dmux (default) | rll | antisat | compound | autolock
//        K >= 1; antisat = one Anti-SAT block of width K/2 (K even, >= 4)
//        compound = K D-MUX key bits plus one Anti-SAT block (key grows by
//        2 * width extra bits; layout documented in locking/compound.hpp)
//   lock_file_tool attack <locked.bench>                  run MuxLink (prints key guess)
//   lock_file_tool report <locked.bench> <original.bench> [attack...]
//        score any registered attack(s) against a reference key that the
//        SAT attack recovers from the pair and proves (at most 256 DIPs;
//        default: every attack in the registry)
//   lock_file_tool attacks                                list registered attacks
//   lock_file_tool stats <in.bench>                       print circuit statistics
//
// Exit status: 0 on success, 1 with usage on a missing argument or unknown
// command, 2 on a bad argument value (unknown scheme, non-numeric K or seed,
// K = 0, an odd or too small antisat K),
// when `report` cannot prove a reference key, or on any other error.
#include <charconv>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "attacks/muxlink.hpp"
#include "attacks/sat_attack.hpp"
#include "core/ga.hpp"
#include "eval/pipeline.hpp"
#include "eval/registry.hpp"
#include "eval/workspace.hpp"
#include "locking/antisat.hpp"
#include "locking/rll.hpp"
#include "locking/verify.hpp"
#include "netlist/bench_stream.hpp"
#include "netlist/generator.hpp"

namespace {

using namespace autolock;

void print_usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  lock_file_tool gen <profile> <out.bench> [seed]\n"
               "  lock_file_tool stats <in.bench>\n"
               "  lock_file_tool lock <in.bench> <out.bench> <K> "
               "[dmux|rll|antisat|compound|autolock] [seed]\n"
               "  lock_file_tool attack <locked.bench>\n"
               "  lock_file_tool report <locked.bench> <original.bench> "
               "[attack...]\n"
               "  lock_file_tool attacks\n");
}

/// A bad argument value: main prints the message plus usage and exits 2.
struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Parses the whole of `text` as an unsigned integer, or throws UsageError.
std::uint64_t parse_unsigned(const char* text, const char* what) {
  std::uint64_t value = 0;
  const char* end = text + std::strlen(text);
  const auto [ptr, ec] = std::from_chars(text, end, value);
  if (ec != std::errc() || ptr != end) {
    throw UsageError(std::string(what) + " must be an unsigned integer, got '" +
                     text + "'");
  }
  return value;
}

int cmd_gen(int argc, char** argv) {
  if (argc < 4) return 1;
  const auto profile = netlist::gen::profile_by_name(argv[2]);
  const std::uint64_t seed = argc > 4 ? parse_unsigned(argv[4], "seed") : 1;
  const auto circuit = netlist::gen::make_profile(profile, seed);
  netlist::bench::stream_save_file(circuit, argv[3]);
  std::printf("wrote %s (%zu gates)\n", argv[3], circuit.stats().gates);
  return 0;
}

int cmd_stats(int argc, char** argv) {
  if (argc < 3) return 1;
  const auto circuit = netlist::bench::stream_load_file(argv[2]);
  const auto stats = circuit.stats();
  std::printf("%s: %zu PIs, %zu key inputs, %zu POs, %zu gates, depth %zu\n",
              circuit.name().c_str(), stats.primary_inputs, stats.key_inputs,
              stats.outputs, stats.gates, stats.depth);
  return 0;
}

int cmd_lock(int argc, char** argv) {
  if (argc < 5) return 1;
  const auto key_bits = static_cast<std::size_t>(parse_unsigned(argv[4], "K"));
  if (key_bits == 0) throw UsageError("K must be at least 1");
  const std::string scheme = argc > 5 ? argv[5] : "dmux";
  const std::uint64_t seed = argc > 6 ? parse_unsigned(argv[6], "seed") : 1;
  const auto original = netlist::bench::stream_load_file(argv[2]);

  lock::LockedDesign design;
  if (scheme == "rll") {
    design = lock::rll_lock(original, key_bits, seed);
  } else if (scheme == "antisat") {
    if (key_bits % 2 != 0 || key_bits < 4) {
      throw UsageError("antisat needs an even K >= 4 (width K/2), got " +
                       std::to_string(key_bits));
    }
    design = lock::antisat_lock(original, {.width = key_bits / 2}, seed);
  } else if (scheme == "compound") {
    design = lock::compound_lock(original, key_bits, {}, seed);
  } else if (scheme == "autolock") {
    ga::GaConfig config;
    config.population = 10;
    config.generations = 5;
    config.seed = seed;
    eval::EvalPipelineConfig pipeline_config;
    pipeline_config.attacks = {"muxlink"};
    pipeline_config.attack_options.muxlink.epochs = 10;
    pipeline_config.attack_options.muxlink.max_train_links = 400;
    pipeline_config.threads = 0;  // one worker per hardware thread
    pipeline_config.seed = seed;
    eval::EvalPipeline pipeline(original, std::move(pipeline_config));
    const ga::GaResult result = ga::GeneticAlgorithm(original, config).run(
        {.mux_sites = key_bits}, pipeline);
    design = pipeline.decode(result.best.genes);
    design.netlist.set_name(original.name() + "_autolock");
  } else if (scheme == "dmux") {
    design = lock::dmux_lock(original, key_bits, seed);
  } else {
    throw UsageError("unknown scheme '" + scheme + "'");
  }

  if (!lock::verify_unlocks(design, original)) {
    std::fprintf(stderr, "internal error: locking failed verification\n");
    return 2;
  }
  netlist::bench::stream_save_file(design.netlist, argv[3]);
  std::printf("wrote %s  scheme=%s  K=%zu\nkey = ", argv[3], scheme.c_str(),
              design.key.size());
  for (const bool bit : design.key) std::printf("%d", bit ? 1 : 0);
  std::printf("\n");
  return 0;
}

int cmd_attack(int argc, char** argv) {
  if (argc < 3) return 1;
  const auto locked = netlist::bench::stream_load_file(argv[2]);
  if (locked.key_inputs().empty()) {
    std::printf("no key inputs found — nothing to attack\n");
    return 0;
  }
  attack::MuxLinkConfig config;
  config.epochs = 20;
  config.max_train_links = 800;
  const auto result = attack::MuxLinkAttack(config).attack(locked);
  if (result.predicted_bits.empty()) {
    std::printf("no MUX key-gates found (not a MUX-locked design)\n");
    return 0;
  }
  std::printf("predicted key = ");
  for (const int bit : result.predicted_bits) std::printf("%d", bit);
  std::printf("\nconfidence margins: ");
  for (const double margin : result.margins) std::printf("%.2f ", margin);
  std::printf("\n");
  return 0;
}

int cmd_attacks() {
  for (const auto& name : eval::AttackRegistry::instance().names()) {
    std::printf("%s\n", name.c_str());
  }
  return 0;
}

// Ground-truth scoring path: the locked design's key is re-derived from the
// original, so any registered attack can be swept from the command line by
// name.
int cmd_report(int argc, char** argv) {
  if (argc < 4) return 1;
  const auto locked = netlist::bench::stream_load_file(argv[2]);
  const auto original = netlist::bench::stream_load_file(argv[3]);
  const auto key_nodes = locked.key_inputs();
  if (key_nodes.empty()) {
    std::printf("no key inputs found — nothing to attack\n");
    return 0;
  }
  // The .bench file carries no ground-truth key, so recover one with the
  // SAT attack against the original: its success is a proof that the key
  // unlocks the design, and every report scores against that key.
  constexpr std::size_t kMaxDips = 256;
  attack::SatAttackConfig sat;
  sat.max_iterations = kMaxDips;
  const auto truth = attack::SatAttack(sat).attack(locked, original);
  if (truth.infeasible) {
    std::fprintf(stderr, "error: no key makes %s match %s\n", argv[2],
                 argv[3]);
    return 2;
  }
  if (!truth.success) {
    std::fprintf(stderr,
                 "error: the SAT attack proved no reference key within %zu "
                 "DIPs\n",
                 kMaxDips);
    return 2;
  }
  lock::LockedDesign design;
  design.netlist = locked;
  design.key = truth.recovered_key;

  eval::AttackOptions options;
  options.oracle = &original;
  std::vector<std::string> names;
  for (int i = 4; i < argc; ++i) names.emplace_back(argv[i]);
  if (names.empty()) names = eval::AttackRegistry::instance().names();

  std::printf("%-18s %9s %10s %9s %10s\n", "attack", "accuracy", "precision",
              "decided", "recovered");
  eval::EvalWorkspace workspace;
  for (const auto& name : names) {
    const auto report =
        eval::make_attack(name, options)->evaluate(design, workspace);
    std::printf("%-18s %8.1f%% %9.1f%% %8.1f%% %10s\n", name.c_str(),
                100.0 * report.accuracy, 100.0 * report.precision,
                100.0 * report.decided_fraction,
                report.key_recovered ? "yes" : "no");
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string command = argc > 1 ? argv[1] : "";
  int status = 1;
  try {
    if (command == "gen") status = cmd_gen(argc, argv);
    else if (command == "stats") status = cmd_stats(argc, argv);
    else if (command == "lock") status = cmd_lock(argc, argv);
    else if (command == "attack") status = cmd_attack(argc, argv);
    else if (command == "attacks") status = cmd_attacks();
    else if (command == "report") status = cmd_report(argc, argv);
  } catch (const UsageError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    print_usage();
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  if (status == 1) print_usage();
  return status;
}
