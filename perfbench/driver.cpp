// perfbench_driver — the repository benchmark.
//
//   perfbench_driver --workload evolve-c880|campaign-c1355|scale-synth100k
//                    [--seed N] [--seconds S] [--trace 0|1]
//                    [--reference BENCH_bench_campaign.json]
//                    [--circuit c432] [--work-dir DIR] [--trace-out FILE]
//                    [--commit SHA]
//
// Workloads (closed loop: one client runs one instance after another, each
// instance on a 2-worker ThreadPool):
//   evolve-c880      GeneticAlgorithm::run on c880, 32 MUX key bits,
//                    population 16 x 10 generations, MuxLink fitness (the
//                    campaign's in-loop preset) + 0.2 corruption weight,
//                    fitness cache on. GNN, decode, corruption and the
//                    cache do the work; SAT, SCOPE and .bench I/O do none.
//   campaign-c1355   the c1355 row of campaign::full_spec(): 4 schemes x 4
//                    optimizers = 16 lock jobs, x 5 attacks = 80 verified
//                    cells. XOR-heavy c1355 puts most time into SAT.
//   scale-synth100k  the synth100k row of full_spec(): 8 lock jobs x
//                    {scope, structural} = 16 cells on a 100k-gate design.
//                    SCOPE fitness, decode at scale and simulation-based
//                    equivalence dominate; SAT and the GNN do none.
//
// Every workload writes its circuit as a .bench file when the workload is
// generated; set-up (setup_s) is stream_load_file + EvalPipeline
// construction + EvalWorkspace::reserve, repeated and reported as a median.
// The timed phase (wall_s) is one GeneticAlgorithm run or one
// campaign::run. --seed is the GA seed or the campaign seed; seed 1 is the
// seed the committed campaign baseline was made with, seed 2 is held out
// for gain claims.
//
// --trace 0 prints the end-to-end metrics. --trace 1 runs one untraced and
// one traced instance: the traced one drives the same public calls with a
// span around each (stages.hpp), must reproduce the untraced output
// exactly, prints the per-layer metrics and writes a Chrome trace-event
// file. The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// where attempted/failed count correctness checks (fail_frac = failed /
// attempted). Exit code 0 on a completed run, 1 on error, 2 on bad usage.
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "campaign/campaign.hpp"
#include "core/ga.hpp"
#include "eval/pipeline.hpp"
#include "eval/workspace.hpp"
#include "netlist/bench_stream.hpp"
#include "netlist/simulator.hpp"
#include "sat/cnf.hpp"
#include "stages.hpp"
#include "trace.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace perfbench {
namespace {

using namespace autolock;

/// Worker threads of every instance (the closed loop's one client drives a
/// 2-worker pool on a 4-core host).
constexpr std::size_t kThreads = 2;
/// Set-up samples come in bursts: one before the first instance and one
/// after each instance. A burst takes a group of samples on each CPU the
/// process may use, up to kGroupSetups samples or kGroupSeconds per group
/// (at least one). The host's cores are shared and one can run 1.5x slower
/// than the others for seconds at a time, so samples from whichever core
/// the driving thread sits on would make the median jump between runs.
constexpr std::size_t kGroupSetups = 25;
constexpr double kGroupSeconds = 0.15;
constexpr std::size_t kEvolveKeyBits = 32;

// ---- command line -----------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 30.0;
  bool trace = false;
  std::string reference;
  std::string circuit;  // overrides the workload's circuit (smoke variants)
  std::string work_dir = ".bench_build/perfbench-work";
  std::string trace_out;
  std::string commit = "unknown";
};

[[noreturn]] void usage(const std::string& message) {
  std::cerr << "perfbench_driver: " << message << "\n"
            << "usage: perfbench_driver --workload "
               "evolve-c880|campaign-c1355|scale-synth100k [--seed N] "
               "[--seconds S] [--trace 0|1] [--reference FILE] "
               "[--circuit NAME] [--work-dir DIR] [--trace-out FILE] "
               "[--commit SHA]\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      args.trace = value == "1";
    } else if (flag == "--reference") {
      args.reference = value;
    } else if (flag == "--circuit") {
      args.circuit = value;
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else if (flag == "--commit") {
      args.commit = value;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (args.workload != "evolve-c880" && args.workload != "campaign-c1355" &&
      args.workload != "scale-synth100k") {
    usage("unknown workload '" + args.workload + "'");
  }
  return args;
}

// ---- host -------------------------------------------------------------------

struct Host {
  long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  unsigned hardware_concurrency = std::thread::hardware_concurrency();
  std::string compiler = PERFBENCH_COMPILER;
  std::string build_type = PERFBENCH_BUILD_TYPE;
  std::string flags = PERFBENCH_CXX_FLAGS;
  bool sanitized = PERFBENCH_SANITIZED != 0;
  std::string commit;

  /// Empty when results are comparable with other optimized builds.
  std::string not_comparable_reason() const {
    if (sanitized) return "sanitizer build";
    if (build_type == "Debug" || flags.find("-O") == std::string::npos) {
      return "unoptimized build";
    }
    return {};
  }
};

std::string json_text(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string host_json(const Host& host) {
  std::ostringstream os;
  os << "{\"nproc\": " << host.nproc
     << ", \"hardware_concurrency\": " << host.hardware_concurrency
     << ", \"compiler\": " << json_text(host.compiler)
     << ", \"build_type\": " << json_text(host.build_type)
     << ", \"flags\": " << json_text(host.flags)
     << ", \"sanitized\": " << (host.sanitized ? "true" : "false")
     << ", \"commit\": " << json_text(host.commit)
     << ", \"comparable\": "
     << (host.not_comparable_reason().empty() ? "true" : "false") << "}";
  return os.str();
}

// ---- small helpers ----------------------------------------------------------

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// The CPUs the calling thread may run on.
std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
    }
  }
  return cpus;
}

/// Runs `fn` once with the calling thread pinned to each of `cpus`, then
/// restores the thread's affinity. Without affinity control it runs `fn`
/// once, unpinned.
template <typename Fn>
void on_each_cpu(const std::vector<int>& cpus, Fn&& fn) {
  cpu_set_t saved;
  if (cpus.empty() || sched_getaffinity(0, sizeof(saved), &saved) != 0) {
    fn();
    return;
  }
  for (const int cpu : cpus) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    if (sched_setaffinity(0, sizeof(one), &one) != 0) continue;
    fn();
  }
  sched_setaffinity(0, sizeof(saved), &saved);
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

/// Same interface and responses to 1024 random input vectors. (The .bench
/// reader adds a buffer per output, so gate counts differ.)
bool same_function(const netlist::Netlist& a, const netlist::Netlist& b) {
  if (a.primary_inputs().size() != b.primary_inputs().size() ||
      a.outputs().size() != b.outputs().size()) {
    return false;
  }
  const netlist::Simulator sim_a(a);
  const netlist::Simulator sim_b(b);
  util::Rng rng(0x5EEDULL);
  std::vector<std::uint64_t> words(a.primary_inputs().size());
  for (int round = 0; round < 16; ++round) {
    for (auto& word : words) word = rng();
    if (sim_a.run_word(words, {}) != sim_b.run_word(words, {})) return false;
  }
  return true;
}

/// Correctness checks; fail_frac = failed / attempted.
struct Checks {
  std::size_t attempted = 0;
  std::size_t failed = 0;

  void expect(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      std::cerr << "perfbench: check failed: " << what << "\n";
    }
  }
};

/// Metrics in emission order.
class Metrics {
 public:
  void add(std::string name, double value, std::string unit) {
    entries_.push_back({std::move(name), value, std::move(unit)});
  }

  void print_table(std::ostream& os) const {
    for (const auto& entry : entries_) {
      os << "  " << std::left << std::setw(32) << entry.name << " "
         << std::setprecision(6) << entry.value << " " << entry.unit << "\n";
    }
  }

  std::string json() const {
    std::ostringstream os;
    os << std::setprecision(17) << "{";
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      os << (i == 0 ? "" : ", ") << json_text(entries_[i].name)
         << ": {\"value\": " << entries_[i].value
         << ", \"unit\": " << json_text(entries_[i].unit) << "}";
    }
    return os.str() + "}";
  }

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

// ---- workloads ----------------------------------------------------------------

struct Workload {
  std::string name;
  std::string circuit;
  bool evolve = false;
  campaign::CampaignSpec spec;  // campaign workloads: one circuit row
};

Workload make_workload(const Args& args) {
  Workload w;
  w.name = args.workload;
  w.evolve = args.workload == "evolve-c880";
  std::string row = "c880";
  if (args.workload == "campaign-c1355") row = "c1355";
  if (args.workload == "scale-synth100k") row = "synth100k";
  w.circuit = args.circuit.empty() ? row : args.circuit;
  if (!w.evolve) {
    campaign::CampaignSpec full = campaign::full_spec();
    const auto it =
        std::find_if(full.circuits.begin(), full.circuits.end(),
                     [&](const campaign::CircuitAxis& c) { return c.name == row; });
    if (it == full.circuits.end()) throw std::logic_error("no row " + row);
    campaign::CircuitAxis axis = *it;
    axis.name = w.circuit;
    w.spec = full;
    w.spec.circuits = {axis};
    w.spec.seed = args.seed;
    w.spec.threads = kThreads;
  }
  return w;
}

/// The EvalPipeline configuration the timed phase uses on this workload's
/// circuit (campaign workloads: campaign::run's per-circuit pipeline).
eval::EvalPipelineConfig pipeline_config(const Workload& w, std::uint64_t seed,
                                         util::ThreadPool* pool) {
  eval::EvalPipelineConfig config;
  config.pool = pool;
  if (w.evolve) {
    config.attacks = {"muxlink"};
    config.attack_options.muxlink = campaign::full_spec().muxlink;
    config.corruption_weight = 0.2;
    config.cache = true;
    config.seed = seed;
  } else {
    config.attacks = w.spec.fitness_attacks;
    config.attack_options.muxlink = w.spec.muxlink;
    config.cache = false;
    config.seed = campaign::axis_seed(w.spec.seed, w.circuit, "", "pipeline");
  }
  return config;
}

std::size_t workspace_key_bits(const Workload& w) {
  if (w.evolve) return kEvolveKeyBits;
  std::size_t bits = 0;
  for (const auto& scheme : w.spec.schemes) {
    bits = std::max(bits, scheme.spec.key_bits());
  }
  return bits;
}

/// The state set-up builds: the design loaded from the workload's .bench
/// file, then an EvalPipeline and one reserved EvalWorkspace per worker on
/// the generated circuit. That is the state campaign::run builds per
/// circuit; the evolve workload's GA runs on this pipeline.
struct Setup {
  netlist::Netlist loaded;
  std::unique_ptr<eval::EvalPipeline> pipeline;
  std::vector<std::unique_ptr<eval::EvalWorkspace>> workspaces;
  double seconds = 0.0;
  double parse_seconds = 0.0;
};

std::unique_ptr<Setup> run_setup(const Workload& w, const std::string& path,
                                 const netlist::Netlist& circuit,
                                 std::uint64_t seed, util::ThreadPool* pool) {
  auto setup = std::make_unique<Setup>();
  util::Timer timer;
  setup->loaded = netlist::bench::stream_load_file(path);
  setup->parse_seconds = timer.elapsed_seconds();
  setup->pipeline = std::make_unique<eval::EvalPipeline>(
      circuit, pipeline_config(w, seed, pool));
  for (std::size_t s = 0; s < kThreads; ++s) {
    setup->workspaces.push_back(std::make_unique<eval::EvalWorkspace>());
    setup->workspaces.back()->reserve(circuit, workspace_key_bits(w));
  }
  setup->seconds = timer.elapsed_seconds();
  return setup;
}

ga::GaConfig evolve_ga_config(std::uint64_t seed) {
  ga::GaConfig config;
  config.population = 16;
  config.generations = 10;
  config.seed = seed;
  return config;
}

lock::GenotypeSpec evolve_genotype() {
  return lock::GenotypeSpec{.mux_sites = kEvolveKeyBits};
}

/// Best genotype and fitness, evaluation count and per-generation history,
/// exactly.
std::string ga_digest(const ga::GaResult& r) {
  std::ostringstream os;
  for (const lock::Gene& g : r.best.genes) {
    os << static_cast<int>(g.kind) << g.key_bit << g.splice_output << " "
       << g.width << " " << g.f_i << " " << g.f_j << " " << g.g_i << " "
       << g.g_j << " " << g.seed << ", ";
  }
  os << std::setprecision(17) << r.best.eval.fitness << " " << r.evaluations;
  for (const auto& h : r.history) {
    os << " | " << h.generation << " " << h.best_fitness << " "
       << h.mean_fitness << " " << h.worst_fitness << " " << h.best_accuracy
       << " " << h.cache_hits;
  }
  return os.str();
}

/// One timed phase's outputs.
struct Instance {
  double wall_s = 0.0;
  std::size_t evaluations = 0;
  std::size_t cells = 0;
  std::string digest;  // GA digest or campaign::to_json
  ga::GaResult ga;
  campaign::CampaignResult campaign;
};

Instance run_instance(const Workload& w, const netlist::Netlist& circuit,
                      Setup& setup, std::uint64_t seed) {
  Instance out;
  util::Timer timer;
  if (w.evolve) {
    ga::GeneticAlgorithm engine(circuit, evolve_ga_config(seed));
    out.ga = engine.run(evolve_genotype(), *setup.pipeline);
    out.wall_s = timer.elapsed_seconds();
    out.evaluations = out.ga.evaluations;
    out.cells = 1;  // the evolved lock
    out.digest = ga_digest(out.ga);
  } else {
    out.campaign = campaign::run(w.spec);
    out.wall_s = timer.elapsed_seconds();
    for (const auto& lock : out.campaign.locks) {
      out.evaluations += lock.optimizer_evaluations;
    }
    out.cells = out.campaign.cells.size();
    out.digest = campaign::to_json(out.campaign);
  }
  return out;
}

// ---- correctness ----------------------------------------------------------------

/// Row lines ("    {"circuit": ...}") of a campaign::to_json text, keyed by
/// their axis fields (everything before "key_bits").
std::map<std::string, std::string> report_rows(const std::string& json) {
  std::map<std::string, std::string> rows;
  std::istringstream in(json);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("    {\"circuit\": ", 0) != 0) continue;
    if (!line.empty() && line.back() == ',') line.pop_back();
    rows[line.substr(0, line.find(", \"key_bits\""))] = line;
  }
  return rows;
}

/// Every lock and cell row must equal its row in the reference report.
void check_reference(const Instance& instance, const std::string& reference,
                     Checks& checks) {
  std::ifstream in(reference);
  if (!in) throw std::runtime_error("cannot read reference " + reference);
  std::stringstream text;
  text << in.rdbuf();
  const auto expected = report_rows(text.str());
  for (const auto& [key, row] : report_rows(instance.digest)) {
    const auto it = expected.find(key);
    checks.expect(it != expected.end() && it->second == row,
                  "reference row differs: " + row);
  }
}

void check_instance(const Workload& w, const netlist::Netlist& circuit,
                    const Instance& instance, Setup& setup, Checks& checks) {
  if (w.evolve) {
    const lock::LockedDesign best = setup.pipeline->decode(instance.ga.best.genes);
    checks.expect(sat::check_unlocks(best.netlist, best.key, circuit),
                  "evolved lock's correct key is not proven equivalent");
    return;
  }
  for (const auto& cell : instance.campaign.cells) {
    checks.expect(cell.verification.passed(),
                  "cell " + cell.scheme + "/" + cell.optimizer + "/" +
                      cell.attack + ": " + cell.verification.failure);
  }
}

// ---- per-layer metrics ------------------------------------------------------------

struct TracedRun {
  std::vector<SpanRecord> spans;
  SpanRecord root;
  std::size_t evaluations = 0;
  std::size_t cache_hits = 0;
  std::size_t corruption_probes = 0;
  std::size_t corruption_sweeps = 0;
};

void add_layer_metrics(const TracedRun& run, double wall_untraced,
                       double parse_s, double bench_bytes, double write_s,
                       Metrics& m) {
  const auto& spans = run.spans;
  const auto seconds = [&](std::initializer_list<std::string_view> names) {
    return stats_for(spans, names).seconds;
  };
  m.add("netlist.parse_s", parse_s, "s");
  m.add("netlist.parse_mb_per_s", bench_bytes / 1e6 / parse_s, "MB/s");
  m.add("netlist.write_s", write_s, "s");
  m.add("netlist.sim_verify_s", seconds({"netlist.verify_unlocks"}), "s");

  const SpanStats decode = stats_for(spans, {"locking.decode", "locking.decode_into"});
  m.add("locking.decodes", static_cast<double>(decode.calls), "count");
  m.add("locking.decode_s", decode.seconds, "s");
  m.add("locking.decode_us_p50", decode.p50_seconds * 1e6, "us");
  m.add("locking.corruption_s", seconds({"locking.measure_corruption"}), "s");

  const SpanStats equiv = stats_for(spans, {"sat.check_unlocks"});
  m.add("sat.equiv_calls", static_cast<double>(equiv.calls), "count");
  m.add("sat.equiv_s", equiv.seconds, "s");
  m.add("sat.equiv_ms_p50", equiv.p50_seconds * 1e3, "ms");

  for (const std::string name :
       {"muxlink", "muxlink-ensemble", "structural", "scope", "sat"}) {
    const std::string first = "attack." + name;
    const std::string rerun = first + ".rerun";
    const SpanStats all = stats_for(spans, {first, rerun});
    const std::string prefix = "attacks." + name;
    m.add(prefix + ".calls", static_cast<double>(all.calls), "count");
    m.add(prefix + ".s", all.seconds, "s");
    m.add(prefix + ".ms_p50", stats_for(spans, {first}).p50_seconds * 1e3, "ms");
    m.add(prefix + ".rerun_s", seconds({rerun}), "s");
  }

  const double lookups = static_cast<double>(run.evaluations + run.cache_hits);
  m.add("eval.evaluations", static_cast<double>(run.evaluations), "count");
  m.add("eval.cache_hits", static_cast<double>(run.cache_hits), "count");
  m.add("eval.cache_hit_ratio",
        lookups > 0 ? static_cast<double>(run.cache_hits) / lookups : 0.0,
        "ratio");
  m.add("eval.corruption_s", seconds({"eval.corruption"}), "s");
  m.add("eval.corruption_probes", static_cast<double>(run.corruption_probes),
        "count");
  m.add("eval.corruption_sweeps", static_cast<double>(run.corruption_sweeps),
        "count");
  m.add("eval.probes_per_sweep",
        run.corruption_sweeps > 0
            ? static_cast<double>(run.corruption_probes) /
                  static_cast<double>(run.corruption_sweeps)
            : 0.0,
        "ratio");

  // Optimizer self time: the part of each optimizer span no child span
  // covers, less the re-decodes the driving thread ran there (their twin,
  // the pipeline's own decode, runs uncovered just before each scoring).
  double optimizer_uncovered = 0.0;
  for (const std::string name : {"ga", "nsga2", "hillclimb", "random"}) {
    const std::string span_name = "core." + name;
    m.add(span_name + ".s", seconds({span_name}), "s");
    for (const SpanRecord& span : spans) {
      if (span.name == span_name) {
        optimizer_uncovered += span.seconds() - covered_by_children(spans, span);
      }
    }
  }
  double driver_decodes = 0.0;
  for (const SpanRecord& span : spans) {
    if (span.name == "locking.decode_into" && span.thread == 0) {
      driver_decodes += span.seconds();
    }
  }
  m.add("core.self_s", std::max(0.0, optimizer_uncovered - driver_decodes), "s");

  const double wall = run.root.seconds();
  double staged = 0.0;
  std::vector<SpanRecord> inside;
  for (const SpanRecord& span : spans) {
    if (span.parent == run.root.id) staged += span.seconds();
    if (span.start_s >= run.root.start_s && span.end_s <= run.root.end_s &&
        span.id != run.root.id) {
      inside.push_back(span);
    }
  }
  m.add("campaign.lock_s", seconds({"campaign.lock_job"}), "s");
  m.add("campaign.verify_s", seconds({"campaign.verify"}), "s");
  m.add("campaign.cells_s", seconds({"campaign.cells"}), "s");
  m.add("campaign.stage_cover", staged / wall, "ratio");

  const double busy = leaf_busy_seconds(inside);
  const double capacity = static_cast<double>(kThreads) * wall;
  m.add("pool.busy_frac", busy / capacity, "ratio");
  m.add("pool.idle_s", std::max(0.0, capacity - busy), "s");
  m.add("trace.overhead_frac", wall / wall_untraced - 1.0, "ratio");
}

// ---- the run ----------------------------------------------------------------------

int run(const Args& args) {
  Host host;
  host.commit = args.commit;
  const Workload w = make_workload(args);
  std::filesystem::create_directories(args.work_dir);
  Checks checks;
  Metrics metrics;

  // Workload generation: the circuit, written once as a .bench file.
  const std::string bench_path = args.work_dir + "/" + w.circuit + ".bench";
  const netlist::Netlist generated = build_circuit(w.circuit);
  util::Timer write_timer;
  netlist::bench::stream_save_file(generated, bench_path);
  const double write_s = write_timer.elapsed_seconds();
  const double bench_bytes =
      static_cast<double>(std::filesystem::file_size(bench_path));

  util::ThreadPool pool(kThreads);
  std::vector<double> setup_samples;
  std::vector<double> parse_samples;
  const auto setup_once = [&] {
    auto setup = run_setup(w, bench_path, generated, args.seed, &pool);
    setup_samples.push_back(setup->seconds);
    parse_samples.push_back(setup->parse_seconds);
    return setup;
  };
  const bool check_rows = args.seed == 1 && !args.reference.empty();

  const std::vector<int> cpus = allowed_cpus();
  const auto setup_burst = [&] {
    on_each_cpu(cpus, [&] {
      util::Timer group;
      std::size_t samples = 0;
      do {
        setup_once();
      } while (++samples < kGroupSetups &&
               group.elapsed_seconds() < kGroupSeconds);
    });
  };

  const auto first_setup = setup_once();
  setup_burst();
  checks.expect(same_function(first_setup->loaded, generated),
                ".bench round trip changed the design");

  std::vector<Instance> instances;
  const auto run_checked = [&](Setup& setup) {
    Instance instance = run_instance(w, generated, setup, args.seed);
    if (instances.empty()) {
      check_instance(w, generated, instance, setup, checks);
      if (check_rows && !w.evolve) {
        check_reference(instance, args.reference, checks);
      }
    } else {
      checks.expect(instance.digest == instances.front().digest,
                    "repeated instance diverged");
    }
    instances.push_back(std::move(instance));
  };

  util::Timer budget;
  run_checked(*first_setup);
  // Read before any later instance: how many instances fit in the budget
  // varies from run to run, and each keeps another set-up alive.
  const double peak_rss_first_mb = peak_rss_mb();
  setup_burst();
  if (!args.trace) {
    // Closed loop: start another instance unless the budget would be
    // overrun by more than half an instance.
    while (budget.elapsed_seconds() + 0.5 * instances.back().wall_s <
           args.seconds) {
      run_checked(*setup_once());
      setup_burst();
    }
  }

  std::cout << "workload " << w.name << " (circuit " << w.circuit << ") seed "
            << args.seed << " trace " << (args.trace ? 1 : 0) << "\n"
            << "host " << host_json(host) << "\n";
  if (!host.not_comparable_reason().empty()) {
    std::cout << "NOT COMPARABLE: " << host.not_comparable_reason() << "\n";
  }

  if (!args.trace) {
    std::vector<double> walls, evals_rate, cells_rate;
    for (const Instance& instance : instances) {
      walls.push_back(instance.wall_s);
      evals_rate.push_back(static_cast<double>(instance.evaluations) /
                           instance.wall_s);
      cells_rate.push_back(static_cast<double>(instance.cells) /
                           instance.wall_s);
    }
    metrics.add("setup_s", median(setup_samples), "s");
    metrics.add("wall_s", median(walls), "s");
    metrics.add("evals_per_s", median(evals_rate), "1/s");
    metrics.add("cells_per_s", median(cells_rate), "1/s");
    metrics.add("peak_rss_mb", peak_rss_first_mb, "MB");
    std::sort(setup_samples.begin(), setup_samples.end());
    std::cout << "set-ups " << setup_samples.size() << " (quartiles "
              << setup_samples[setup_samples.size() / 4] << " "
              << setup_samples[setup_samples.size() / 2] << " "
              << setup_samples[setup_samples.size() * 3 / 4] << " s), instances "
              << instances.size() << ", wall_s";
    for (const double wall : walls) std::cout << " " << wall;
    std::cout << "\n";
  } else {
    Tracer tracer(static_cast<std::uint64_t>(getpid()));
    TracedRun traced;
    const Instance& untraced = instances.front();
    std::string traced_digest;
    if (w.evolve) {
      const eval::EvalPipelineConfig config =
          pipeline_config(w, args.seed, &pool);
      TracedScorer scorer(generated, config, tracer, kEvolveKeyBits);
      eval::EvalPipeline pipeline(generated, scorer.overriding(config));
      ga::GaResult result;
      {
        Span root(tracer, "run");
        Span span(tracer, "core.ga", /*fans_out=*/true);
        ga::GeneticAlgorithm engine(generated, evolve_ga_config(args.seed));
        result = engine.run(evolve_genotype(), pipeline);
      }
      traced_digest = ga_digest(result);
      {
        Span span(tracer, "sat.check_unlocks");
        const lock::LockedDesign best = pipeline.decode(result.best.genes);
        checks.expect(sat::check_unlocks(best.netlist, best.key, generated),
                      "traced evolved lock not proven equivalent");
      }
      traced.evaluations = pipeline.evaluations();
      traced.cache_hits = pipeline.cache_hits();
      traced.corruption_probes = scorer.corruption_probes();
      traced.corruption_sweeps = scorer.corruption_sweeps();
      checks.expect(scorer.decode_mismatches() == 0,
                    "re-decode differs from the pipeline's decode");

      // The GA result must not depend on the worker count.
      auto sequential = run_setup(w, bench_path, generated, args.seed, nullptr);
      checks.expect(run_instance(w, generated, *sequential, args.seed).digest ==
                        untraced.digest,
                    "GA result differs between 1 and 2 threads");
    } else {
      CampaignCounters counters;
      campaign::CampaignResult result;
      {
        Span root(tracer, "run");
        result = run_campaign_traced(w.spec, tracer, counters);
      }
      traced_digest = campaign::to_json(result);
      traced.evaluations = counters.evaluations;
      traced.cache_hits = counters.cache_hits;
      traced.corruption_probes = counters.corruption_probes;
      traced.corruption_sweeps = counters.corruption_sweeps;
      checks.expect(counters.decode_mismatches == 0,
                    "re-decode differs from the pipeline's decode");
    }
    checks.expect(traced_digest == untraced.digest,
                  "traced run output differs from the untraced run");
    traced.spans = tracer.spans();
    for (const SpanRecord& span : traced.spans) {
      if (span.name == "run") traced.root = span;
    }
    add_layer_metrics(traced, untraced.wall_s, median(parse_samples),
                      bench_bytes, write_s, metrics);

    const std::string trace_path =
        args.trace_out.empty()
            ? args.work_dir + "/trace_" + w.name + "_seed" +
                  std::to_string(args.seed) + ".json"
            : args.trace_out;
    const std::string metadata = "{\"workload\": " + json_text(w.name) +
                                 ", \"seed\": " + std::to_string(args.seed) +
                                 ", \"host\": " + host_json(host) + "}";
    if (!tracer.write_chrome_trace(trace_path, metadata)) {
      throw std::runtime_error("cannot write trace " + trace_path);
    }
    std::cout << "trace " << trace_path << " (" << traced.spans.size()
              << " spans)\n";
  }

  metrics.print_table(std::cout);
  std::cout << "  " << std::left << std::setw(32) << "fail_frac" << " "
            << static_cast<double>(checks.failed) /
                   static_cast<double>(checks.attempted)
            << " ratio (" << checks.failed << "/" << checks.attempted
            << " checks)\n";
  std::cout << "{\"correct\": " << (checks.failed == 0 ? "true" : "false")
            << ", \"attempted\": " << checks.attempted
            << ", \"failed\": " << checks.failed
            << ", \"metrics\": " << metrics.json() << "}" << std::endl;
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Args args = perfbench::parse_args(argc, argv);
  try {
    return perfbench::run(args);
  } catch (const std::exception& error) {
    std::cerr << "perfbench_driver: " << error.what() << "\n";
    return 1;
  }
}
