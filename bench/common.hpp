// Shared helpers for the experiment harness binaries.
//
// Every bench binary regenerates one experiment (the table in
// bench/README.md names each) and prints its rows as an aligned ASCII table
// (plus CSV when --csv is passed).
// Binaries honour a --quick flag that shrinks parameters for smoke runs;
// defaults are sized for a single-core machine. Any argument other than
// --quick, --csv and --json prints the usage and exits 2 before any work.
//
// With --json (or BENCH_JSON=1 in the environment), every emitted table is
// also collected into a machine-readable BENCH_<binary>.json file — the
// benchmark name, total wall time, the host (core count and build type),
// and all metric rows — so the perf trajectory can be tracked across PRs
// without scraping ASCII tables.
//
// Solver-core metrics in bench_sat_attack's JSON (per row, stringified):
// "props" (unit propagations), "Mprops/s" (propagation throughput),
// "arena KB" / "peak arena KB" (clause-arena footprint), "reduces" /
// "GC runs" (learnt-DB reductions and arena compactions), and "mean LBD"
// (average learnt-clause literal block distance). They come straight from
// sat::Solver::Stats via SatAttackResult.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "attacks/muxlink.hpp"
#include "core/ga.hpp"
#include "eval/pipeline.hpp"
#include "netlist/generator.hpp"
#include "netlist/simulator.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace autolock::benchx {

struct BenchArgs {
  bool quick = false;
  bool csv = false;
  bool json = false;
  std::string bench_name = "bench";  // basename of argv[0]
};

namespace detail {

/// Collects every emitted table and writes BENCH_<name>.json at exit.
struct JsonSink {
  bool enabled = false;
  std::string bench_name;
  util::Timer timer;  // wall time since the sink (process) started
  struct Section {
    std::string title;
    std::vector<std::string> columns;
    std::vector<std::vector<std::string>> rows;
  };
  std::vector<Section> sections;

  void record(const util::Table& table, const std::string& title) {
    Section section;
    section.title = title;
    section.columns = table.headers();
    for (std::size_t r = 0; r < table.row_count(); ++r) {
      section.rows.push_back(table.row(r));
    }
    sections.push_back(std::move(section));
  }

  void write() const {
    const std::string path = "BENCH_" + bench_name + ".json";
    std::ofstream out(path);
    if (!out) return;
    out << "{\n  \"bench\": \"" << util::json_escape(bench_name) << "\",\n"
        << "  \"seconds\": " << timer.elapsed_seconds() << ",\n"
        << "  \"hardware_concurrency\": "
        << std::thread::hardware_concurrency() << ",\n"
        // AUTOLOCK_BUILD_TYPE is defined for every bench by CMakeLists.txt.
        << "  \"build_type\": \"" << util::json_escape(AUTOLOCK_BUILD_TYPE)
        << "\",\n"
        << "  \"sections\": [\n";
    for (std::size_t s = 0; s < sections.size(); ++s) {
      const Section& section = sections[s];
      out << "    {\n      \"title\": \"" << util::json_escape(section.title)
          << "\",\n      \"columns\": [";
      for (std::size_t c = 0; c < section.columns.size(); ++c) {
        out << (c ? ", " : "") << '"' << util::json_escape(section.columns[c])
            << '"';
      }
      out << "],\n      \"rows\": [\n";
      for (std::size_t r = 0; r < section.rows.size(); ++r) {
        out << "        [";
        for (std::size_t c = 0; c < section.rows[r].size(); ++c) {
          out << (c ? ", " : "") << '"' << util::json_escape(section.rows[r][c])
              << '"';
        }
        out << ']' << (r + 1 < section.rows.size() ? "," : "") << '\n';
      }
      out << "      ]\n    }" << (s + 1 < sections.size() ? "," : "") << '\n';
    }
    out << "  ]\n}\n";
    std::cerr << "wrote " << path << '\n';
  }

  ~JsonSink() {
    if (enabled && !sections.empty()) write();
  }
};

inline JsonSink json_sink;

}  // namespace detail

inline BenchArgs parse_args(int argc, char** argv) {
  BenchArgs args;
  if (argc > 0 && argv[0] != nullptr) {
    std::string name = argv[0];
    const auto slash = name.find_last_of('/');
    if (slash != std::string::npos) name = name.substr(slash + 1);
    if (!name.empty()) args.bench_name = name;
  }
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      args.quick = true;
    } else if (std::strcmp(argv[i], "--csv") == 0) {
      args.csv = true;
    } else if (std::strcmp(argv[i], "--json") == 0) {
      args.json = true;
    } else {
      // A mistyped flag must not silently run the full-sized experiment.
      std::cerr << args.bench_name << ": unknown argument '" << argv[i]
                << "'\nusage: " << args.bench_name
                << " [--quick] [--csv] [--json]\n";
      std::exit(2);
    }
  }
  if (std::getenv("BENCH_JSON") != nullptr) args.json = true;
  detail::json_sink.enabled = args.json;
  detail::json_sink.bench_name = args.bench_name;
  return args;
}

inline void emit(const util::Table& table, const BenchArgs& args,
                 const std::string& title) {
  std::cout << "\n== " << title << " ==\n";
  table.print(std::cout);
  if (args.csv) {
    std::cout << "\n-- csv --\n";
    table.write_csv(std::cout);
  }
  if (args.json) detail::json_sink.record(table, title);
  std::cout.flush();
}

/// Peak resident set size in MB (VmHWM — the high-water mark, monotone over
/// the process lifetime). 0.0 when /proc is unavailable.
inline double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      double kb = 0.0;
      if (std::sscanf(line.c_str() + 6, "%lf", &kb) == 1) return kb / 1024.0;
      return 0.0;
    }
  }
  return 0.0;
}

/// MuxLink preset used inside GA fitness loops (cheap, single-core budget).
inline attack::MuxLinkConfig muxlink_fast() {
  attack::MuxLinkConfig config;
  config.epochs = 10;
  config.max_train_links = 400;
  config.subgraph.max_nodes = 48;
  return config;
}

/// `count` uniform random wrong keys for `design` (rejection sampling
/// against the correct key), the draw every corruption probe row shares.
inline std::vector<netlist::Key> random_wrong_keys(
    const lock::LockedDesign& design, std::size_t count) {
  util::Rng key_rng(0xBA7C4ULL);
  std::vector<netlist::Key> keys;
  netlist::Key wrong = design.key;
  for (std::size_t k = 0; k < count; ++k) {
    bool differs = false;
    while (!differs) {
      for (std::size_t b = 0; b < wrong.size(); ++b) {
        wrong[b] = key_rng.next_bool();
        differs = differs || (wrong[b] != design.key[b]);
      }
    }
    keys.push_back(wrong);
  }
  return keys;
}

struct ProbeTiming {
  double probes_per_s = 0.0;
  double seconds = 0.0;
};

/// Times `reps` corruption estimates of `keys` (at most 64) on `vectors`
/// fresh random vectors each — draw_reference_blocks plus key_error_rates,
/// the work one measure_corruption batch does.
inline ProbeTiming time_key_error_rates(const netlist::Simulator& dut,
                                        const netlist::Simulator& reference,
                                        const std::vector<netlist::Key>& keys,
                                        std::size_t vectors,
                                        std::size_t reps) {
  netlist::KeyBatch batch;
  batch.reset(keys.empty() ? 0 : keys.front().size());
  for (const auto& key : keys) batch.push(key);
  netlist::SimScratch scratch;
  std::vector<std::uint64_t> in_words, ref_words;
  std::vector<double> rates;
  double sink = 0.0;
  util::Timer timer;
  for (std::size_t r = 0; r < reps; ++r) {
    util::Rng vec_rng(0x7EC ^ r);
    netlist::Simulator::draw_reference_blocks(reference, netlist::Key{},
                                              vectors, vec_rng, scratch,
                                              in_words, ref_words);
    netlist::Simulator::key_error_rates(dut, batch, in_words, ref_words,
                                        vectors, scratch, rates);
    sink += rates[0];
  }
  const double seconds = timer.elapsed_seconds();
  if (sink < 0.0) std::abort();  // keep the loop observable
  return {static_cast<double>(reps * keys.size() * vectors) / seconds,
          seconds};
}

}  // namespace autolock::benchx
