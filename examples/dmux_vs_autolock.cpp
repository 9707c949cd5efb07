// Example: the paper's core comparison — random D-MUX locking vs
// GA-evolved AutoLock locking, measured by MuxLink key-recovery accuracy.
//
// Runs several independent D-MUX lockings (what an untuned designer would
// ship) and one AutoLock evolution, then attacks everything with the same
// thorough MuxLink configuration and prints the comparison.
//
// Usage: dmux_vs_autolock [circuit] [key_bits] [generations] (see kUsage).
// An unknown circuit, or a key length or generation count that is not a
// whole number >= 1, prints the usage and exits 2 before anything runs; a
// key longer than the circuit has MUX-pair sites for exits 2 the same way.
#include <charconv>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string>

#include "attacks/muxlink.hpp"
#include "core/ga.hpp"
#include "eval/pipeline.hpp"
#include "locking/verify.hpp"
#include "netlist/generator.hpp"
#include "util/stats.hpp"

namespace {

constexpr const char* kUsage =
    "usage: dmux_vs_autolock [circuit] [key_bits] [generations]\n"
    "  circuit      generator profile name (default c432)\n"
    "  key_bits     whole number >= 1 (default 32)\n"
    "  generations  whole number >= 1 (default 5)\n";

/// Parses the whole of `text` as an unsigned integer >= 1 (no sign, no
/// suffix).
bool parse_positive(const char* text, std::size_t& out) {
  const char* end = text + std::strlen(text);
  const auto [ptr, ec] = std::from_chars(text, end, out);
  return ec == std::errc() && ptr == end && out >= 1;
}

/// Attacks three random D-MUX lockings and one GA-evolved locking of
/// `original` with the same thorough MuxLink and prints the comparison.
/// Throws std::runtime_error when `key_bits` does not fit the circuit.
void run(const autolock::netlist::Netlist& original, std::size_t key_bits,
         std::size_t generations) {
  using namespace autolock;

  attack::MuxLinkConfig eval_config;
  eval_config.epochs = 20;
  eval_config.max_train_links = 800;
  const attack::MuxLinkAttack evaluator(eval_config);

  std::printf("== random D-MUX baselines (%s, K=%zu) ==\n",
              original.name().c_str(), key_bits);
  util::OnlineStats baseline;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const auto design = lock::dmux_lock(original, key_bits, seed);
    const eval::AttackReport report = eval::link_report(
        "muxlink", evaluator.attack(design.netlist), design.key);
    baseline.add(report.accuracy);
    std::printf("  seed %llu: MuxLink accuracy %.1f%%  (precision %.1f%% on "
                "%.0f%% decided)\n",
                static_cast<unsigned long long>(seed), 100.0 * report.accuracy,
                100.0 * report.precision, 100.0 * report.decided_fraction);
  }
  std::printf("  mean: %.1f%%\n\n", 100.0 * baseline.mean());

  std::printf("== AutoLock (GNN fitness, %zu generations) ==\n", generations);
  ga::GaConfig config;
  config.population = 10;
  config.generations = generations;
  config.seed = 1;
  eval::EvalPipelineConfig pipeline_config;
  pipeline_config.attacks = {"muxlink"};
  pipeline_config.attack_options.muxlink.epochs = 10;
  pipeline_config.attack_options.muxlink.max_train_links = 400;
  pipeline_config.seed = config.seed;
  eval::EvalPipeline pipeline(original, std::move(pipeline_config));
  const ga::GaResult result = ga::GeneticAlgorithm(original, config).run(
      {.mux_sites = key_bits}, pipeline);
  const lock::LockedDesign locked = pipeline.decode(result.best.genes);

  const eval::AttackReport evolved = eval::link_report(
      "muxlink", evaluator.attack(locked.netlist), locked.key);
  std::printf("  evolved design: MuxLink accuracy %.1f%% (thorough re-eval)\n",
              100.0 * evolved.accuracy);
  std::printf("  drop vs D-MUX mean: %.1f pp\n",
              100.0 * (baseline.mean() - evolved.accuracy));
  std::printf("  functional: %s\n",
              lock::verify_unlocks(locked, original) ? "verified" : "BROKEN");

  std::printf("\nGA trace (fitness = 1 - fast-MuxLink accuracy):\n");
  for (const auto& generation : result.history) {
    std::printf("  gen %2zu: best %.3f  mean %.3f  best-acc %.1f%%\n",
                generation.generation, generation.best_fitness,
                generation.mean_fitness, 100.0 * generation.best_accuracy);
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace autolock;

  const auto usage_error = [](const std::string& message) {
    std::fprintf(stderr, "dmux_vs_autolock: %s\n%s", message.c_str(), kUsage);
    return 2;
  };
  if (argc > 4) return usage_error("too many arguments");
  const std::string circuit_name = argc > 1 ? argv[1] : "c432";
  std::size_t key_bits = 32;
  std::size_t generations = 5;
  if (argc > 2 && !parse_positive(argv[2], key_bits)) {
    return usage_error(std::string("bad key_bits '") + argv[2] + "'");
  }
  if (argc > 3 && !parse_positive(argv[3], generations)) {
    return usage_error(std::string("bad generations '") + argv[3] + "'");
  }
  netlist::gen::ProfileId profile{};
  try {
    profile = netlist::gen::profile_by_name(circuit_name);
  } catch (const std::invalid_argument& error) {
    return usage_error(error.what());
  }

  try {
    run(netlist::gen::make_profile(profile, 1), key_bits, generations);
  } catch (const std::runtime_error& error) {
    // e.g. a key longer than the circuit has MUX-pair sites for
    return usage_error(error.what());
  }
  return 0;
}
