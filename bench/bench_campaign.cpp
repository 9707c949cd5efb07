// The scenario-matrix campaign: scheme x attack x circuit x optimizer in one
// sweep, with every cell double-checked by the verification stage (SAT
// correct-key equivalence, key-layout round trip, report invariants,
// determinism re-run). This is the repo's whole-matrix regression gate:
//
//   bench_campaign               full matrix -> BENCH_bench_campaign.{json,md}
//   bench_campaign --spec NAME   named spec -> BENCH_bench_campaign_NAME.*
//   --threads N / --seed N       override the spec's thread count / seed
//   --help                       print usage and exit 0 (runs nothing)
//
// The named specs are the experiments that are campaign sweeps (kSpecs
// below): quick (the tier-1 c432 subset), scope (X9), muxlink (X6) and
// heuristics (X7). An unknown flag or spec name, a missing value or a value
// that is not a whole unsigned integer prints the usage and exits 2 before
// anything runs.
//
// Unlike the other benches, the report files are written directly from
// campaign::to_json / to_markdown (NOT through the benchx JSON sink): the
// campaign report is deterministic by construction — two seeded runs are
// byte-identical, and a quick cell equals the same cell of the committed
// full baseline — so CI diffs it hard instead of tracking deltas. The
// stdout summary line also reports the process's peak RSS (VmHWM), which
// stays out of the report files. Exit status is 0 only if every cell's
// verification passed.
#include "bench/common.hpp"

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <string_view>

#include "campaign/campaign.hpp"
#include "util/table.hpp"

namespace {

struct NamedSpec {
  std::string_view name;
  autolock::campaign::CampaignSpec (*make)();
};

constexpr NamedSpec kSpecs[] = {
    {"full", autolock::campaign::full_spec},
    {"quick", autolock::campaign::quick_spec},
    {"scope", autolock::campaign::scope_spec},
    {"muxlink", autolock::campaign::muxlink_spec},
    {"heuristics", autolock::campaign::heuristics_spec},
};

constexpr const char* kUsage =
    "usage: bench_campaign [--spec NAME] [--threads N] [--seed N] [--help]\n"
    "  --spec NAME  full (default): the committed matrix\n"
    "                 -> BENCH_bench_campaign.{json,md}\n"
    "               quick: c432 subset; scope: X9; muxlink: X6;\n"
    "               heuristics: X7 -> BENCH_bench_campaign_NAME.{json,md}\n"
    "  --threads N  worker threads (0 = hardware concurrency)\n"
    "  --seed N     campaign seed\n";

struct Options {
  const NamedSpec* spec = &kSpecs[0];
  bool help = false;
  std::optional<std::size_t> threads;
  std::optional<std::uint64_t> seed;
};

/// Parses the whole of `text` as an unsigned integer (no sign, no suffix).
template <typename T>
bool parse_unsigned(const char* text, T& out) {
  const char* end = text + std::strlen(text);
  const auto [ptr, ec] = std::from_chars(text, end, out);
  return ec == std::errc() && ptr == end;
}

/// One strict pass over argv; returns an error message, or nullopt.
std::optional<std::string> parse_options(int argc, char** argv,
                                         Options& options) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--help") {
      options.help = true;
    } else if (i + 1 == argc &&
               (flag == "--spec" || flag == "--threads" || flag == "--seed")) {
      return flag + " needs a value";
    } else if (flag == "--spec") {
      const std::string_view name = argv[++i];
      const auto found =
          std::find_if(std::begin(kSpecs), std::end(kSpecs),
                       [&](const NamedSpec& spec) { return spec.name == name; });
      if (found == std::end(kSpecs)) {
        return "unknown spec '" + std::string(name) + "'";
      }
      options.spec = found;
    } else if (flag == "--threads" || flag == "--seed") {
      const char* value = argv[++i];
      const bool ok = flag == "--threads"
                          ? parse_unsigned(value, options.threads.emplace())
                          : parse_unsigned(value, options.seed.emplace());
      if (!ok) {
        return flag + " expects an unsigned integer, got '" + value + "'";
      }
    } else {
      return "unknown argument '" + flag + "'";
    }
  }
  return std::nullopt;
}

bool write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return false;
  out << content;
  return static_cast<bool>(out);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace autolock;
  Options options;
  if (const auto error = parse_options(argc, argv, options)) {
    std::cerr << "bench_campaign: " << *error << "\n" << kUsage;
    return 2;
  }
  if (options.help) {
    std::cout << kUsage;
    return 0;
  }

  campaign::CampaignSpec spec = options.spec->make();
  if (options.threads) spec.threads = *options.threads;
  if (options.seed) spec.seed = *options.seed;

  std::cout << "running campaign '" << spec.name << "' (seed " << spec.seed
            << ", threads " << spec.threads << ")...\n";
  const campaign::CampaignResult result = campaign::run(spec);

  std::cout << "\n" << campaign::to_markdown(result);
  std::cout << "\ntotal " << util::fmt(result.total_seconds, 1) << "s over "
            << result.cells.size() << " cells ("
            << result.locks.size() << " lock jobs), peak RSS "
            << util::fmt(benchx::peak_rss_mb(), 1) << " MB\n";

  std::string stem = "BENCH_bench_campaign";
  if (options.spec->name != "full") {
    stem += "_" + std::string(options.spec->name);
  }
  if (!write_file(stem + ".json", campaign::to_json(result)) ||
      !write_file(stem + ".md", campaign::to_markdown(result))) {
    std::cerr << "failed to write " << stem << ".{json,md}\n";
    return 2;
  }
  std::cout << "wrote " << stem << ".json and " << stem << ".md\n";

  if (!result.all_passed()) {
    std::cerr << "verification FAILED in "
              << (result.cells.size() - result.cells_passed) << " cell(s)\n";
    return 1;
  }
  return 0;
}
