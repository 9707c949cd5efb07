// The scenario-matrix campaign: scheme x attack x circuit x optimizer in one
// sweep, with every cell double-checked by the verification stage (SAT
// correct-key equivalence, key-layout round trip, report invariants,
// determinism re-run). This is the repo's whole-matrix regression gate:
//
//   bench_campaign            full matrix -> BENCH_bench_campaign.{json,md}
//   bench_campaign --quick    c432 subset -> BENCH_bench_campaign_quick.*
//   --threads N / --seed N    override the spec's thread count / seed
//   --help                    print usage and exit 0 (runs nothing)
//
// An unknown flag, a missing value or a value that is not a whole unsigned
// integer prints the usage and exits 2 before anything runs.
//
// Unlike the other benches, the report files are written directly from
// campaign::to_json / to_markdown (NOT through the benchx JSON sink): the
// campaign report is deterministic by construction — two seeded runs are
// byte-identical, and a --quick cell equals the same cell of the committed
// full baseline — so CI diffs it hard instead of tracking deltas. Exit
// status is 0 only if every cell's verification passed.
#include <charconv>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>

#include "campaign/campaign.hpp"
#include "util/table.hpp"

namespace {

constexpr const char* kUsage =
    "usage: bench_campaign [--quick] [--threads N] [--seed N] [--help]\n"
    "  --quick      c432 subset -> BENCH_bench_campaign_quick.{json,md}\n"
    "               (default: full matrix -> BENCH_bench_campaign.{json,md})\n"
    "  --threads N  worker threads (0 = hardware concurrency)\n"
    "  --seed N     campaign seed\n";

struct Options {
  bool quick = false;
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
    } else if (flag == "--quick") {
      options.quick = true;
    } else if (flag == "--threads" || flag == "--seed") {
      if (i + 1 == argc) return flag + " needs a value";
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

  campaign::CampaignSpec spec =
      options.quick ? campaign::quick_spec() : campaign::full_spec();
  if (options.threads) spec.threads = *options.threads;
  if (options.seed) spec.seed = *options.seed;

  std::cout << "running campaign '" << spec.name << "' (seed " << spec.seed
            << ", threads " << spec.threads << ")...\n";
  const campaign::CampaignResult result = campaign::run(spec);

  std::cout << "\n" << campaign::to_markdown(result);
  std::cout << "\ntotal " << util::fmt(result.total_seconds, 1) << "s over "
            << result.cells.size() << " cells ("
            << result.locks.size() << " lock jobs)\n";

  const std::string stem =
      options.quick ? "BENCH_bench_campaign_quick" : "BENCH_bench_campaign";
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
