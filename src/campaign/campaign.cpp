// Campaign runner implementation. See campaign.hpp for the cell lifecycle
// and the determinism contract; the short version is that every stochastic
// stream below is seeded by axis_seed() over axis NAMES, so a cell's result
// is a pure function of (campaign seed, circuit, scheme, optimizer, attack)
// plus the shared budget/attack knobs — never of which other cells run,
// the thread count, or enumeration order.
#include "campaign/campaign.hpp"

#include <algorithm>
#include <functional>
#include <memory>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "core/ga.hpp"
#include "core/heuristics.hpp"
#include "core/nsga2.hpp"
#include "eval/pipeline.hpp"
#include "eval/registry.hpp"
#include "eval/workspace.hpp"
#include "locking/compound.hpp"
#include "locking/verify.hpp"
#include "netlist/generator.hpp"
#include "sat/cnf.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace autolock::campaign {

namespace {

const std::vector<std::string>& known_optimizers() {
  static const std::vector<std::string> names = {"ga", "nsga2", "hillclimb",
                                                 "random"};
  return names;
}

bool is_scale_profile(const std::string& name) {
  for (const auto& profile : netlist::gen::scale_profiles()) {
    if (profile.name == name) return true;
  }
  return false;
}

/// Builds a circuit by axis name. Profile circuits use the generator's
/// default seed so the campaign attacks exactly the netlists every other
/// bench and pinned test in the repo uses.
netlist::Netlist build_circuit(const std::string& name) {
  if (is_scale_profile(name)) {
    return netlist::gen::make_scale_profile(name);
  }
  return netlist::gen::make_profile(netlist::gen::profile_by_name(name));
}

void require(bool ok, const std::string& message) {
  if (!ok) throw std::invalid_argument("campaign: " + message);
}

void validate_names(const std::vector<std::string>& names,
                    const std::vector<std::string>& known,
                    const std::string& axis) {
  for (const auto& name : names) {
    require(std::find(known.begin(), known.end(), name) != known.end(),
            "unknown " + axis + " '" + name + "'");
  }
}

/// Fills defaulted axes and validates every axis name before any cell runs.
CampaignSpec resolve(CampaignSpec spec) {
  if (spec.schemes.empty()) spec.schemes = default_schemes();
  if (spec.attacks.empty()) {
    spec.attacks = eval::AttackRegistry::instance().names();
  }
  if (spec.circuits.empty()) spec.circuits.push_back({"c432", {}, {}});

  const auto registry_names = eval::AttackRegistry::instance().names();
  validate_names(spec.attacks, registry_names, "attack");
  require(!spec.optimizers.empty(), "no optimizers configured");
  validate_names(spec.optimizers, known_optimizers(), "optimizer");
  require(!spec.fitness_attacks.empty(), "no fitness attacks configured");
  validate_names(spec.fitness_attacks, registry_names, "fitness attack");

  for (const auto& scheme : spec.schemes) {
    require(!scheme.name.empty(), "scheme with empty name");
    require(scheme.spec.key_bits() > 0,
            "scheme '" + scheme.name + "' has zero key bits");
  }
  for (auto& circuit : spec.circuits) {
    if (!is_scale_profile(circuit.name)) {
      netlist::gen::profile_by_name(circuit.name);  // throws on unknown
    }
    validate_names(circuit.attacks, spec.attacks, "attack");
    validate_names(circuit.optimizers, spec.optimizers, "optimizer");
    if (circuit.attacks.empty()) circuit.attacks = spec.attacks;
    if (circuit.optimizers.empty()) circuit.optimizers = spec.optimizers;
  }
  return spec;
}

/// One evolved locking plus the decoded design its attack cells share.
struct LockJob {
  LockResult summary;
  lock::LockedDesign design;
};

/// The key-layout round trip: key_layout(genes) must enumerate the decoded
/// key exactly — gene-major, kind-tagged, bit offsets dense — and the
/// netlist's key-input count must agree. Returns the first violation.
std::string check_key_layout(const lock::Genotype& genes,
                             const lock::LockedDesign& design) {
  std::size_t expected = 0;
  for (const auto& gene : genes) expected += gene.key_bits();
  if (design.key.size() != expected) {
    return "decoded key length != sum of gene key_bits";
  }
  if (design.netlist.key_inputs().size() != expected) {
    return "netlist key-input count != sum of gene key_bits";
  }
  const auto layout = lock::key_layout(genes);
  if (layout.size() != expected) {
    return "key_layout size != sum of gene key_bits";
  }
  std::size_t t = 0;
  for (std::size_t g = 0; g < genes.size(); ++g) {
    for (std::size_t b = 0; b < genes[g].key_bits(); ++b, ++t) {
      const lock::KeyBitSlot& slot = layout[t];
      if (slot.gene != g || slot.kind != genes[g].kind ||
          slot.bit_in_gene != b) {
        return "key_layout slot does not round-trip to its owning gene";
      }
    }
  }
  return {};
}

LockJob run_lock_job(const CampaignSpec& spec, const CircuitAxis& circuit,
                     const SchemeAxis& scheme, const std::string& optimizer,
                     const netlist::Netlist& original,
                     eval::EvalPipeline& pipeline) {
  util::Timer timer;
  const std::uint64_t seed =
      axis_seed(spec.seed, circuit.name, scheme.name, optimizer);

  ga::Genotype best;
  double fitness = 0.0;
  std::size_t evaluations = 0;
  if (optimizer == "ga") {
    ga::GaConfig config;
    config.population = spec.budget.ga_population;
    config.generations = spec.budget.ga_generations;
    config.elites = std::min<std::size_t>(2, config.population);
    config.seed = seed;
    ga::GeneticAlgorithm engine(original, config);
    ga::GaResult r = engine.run(scheme.spec, pipeline);
    best = std::move(r.best.genes);
    fitness = r.best.eval.fitness;
    evaluations = r.evaluations;
  } else if (optimizer == "nsga2") {
    ga::Nsga2Config config;
    config.population = spec.budget.nsga2_population;
    config.generations = spec.budget.nsga2_generations;
    config.seed = seed;
    ga::Nsga2 engine(original, config);
    ga::Nsga2Result r = engine.run(scheme.spec, pipeline);
    // Scalarize the front deterministically: lexicographic-minimal
    // objective vector (ties keep the earliest member).
    const ga::MoIndividual* pick = &r.front.front();
    for (const auto& individual : r.front) {
      if (individual.objectives < pick->objectives) pick = &individual;
    }
    best = pick->genes;
    double sum = 0.0;
    for (double objective : pick->objectives) sum += objective;
    fitness = pick->objectives.empty()
                  ? 0.0
                  : 1.0 - sum / static_cast<double>(pick->objectives.size());
    evaluations = r.evaluations;
  } else if (optimizer == "hillclimb") {
    ga::HillClimbConfig config;
    config.evaluations = spec.budget.heuristic_evaluations;
    config.seed = seed;
    ga::HeuristicResult r = ga::hill_climb(pipeline, scheme.spec, config);
    best = std::move(r.best.genes);
    fitness = r.best.eval.fitness;
    evaluations = r.evaluations;
  } else {  // "random" — resolve() rejected everything else already
    ga::RandomSearchConfig config;
    config.evaluations = spec.budget.heuristic_evaluations;
    config.seed = seed;
    ga::HeuristicResult r = ga::random_search(pipeline, scheme.spec, config);
    best = std::move(r.best.genes);
    fitness = r.best.eval.fitness;
    evaluations = r.evaluations;
  }

  LockJob job;
  // Decode the winner in the shard's workspace and take the design over:
  // the job keeps it for its attack cells, and the workspace regrows its
  // own on the next decode, so no shard holds a second design copy.
  pipeline.decode_into(pipeline.workspace(), best);
  job.design = std::move(pipeline.workspace().design);

  LockResult& lock = job.summary;
  lock.circuit = circuit.name;
  lock.scheme = scheme.name;
  lock.optimizer = optimizer;
  lock.key_bits = job.design.key.size();
  lock.genes = job.design.genes.size();
  lock.original_gates = original.gate_count();
  lock.locked_gates = job.design.netlist.gate_count();
  lock.fitness = fitness;
  lock.optimizer_evaluations = evaluations;
  lock.lock_seconds = timer.elapsed_seconds();

  timer.reset();
  const lock::CorruptionReport corruption = lock::measure_corruption(
      job.design, original, spec.corruption_keys, spec.corruption_vectors,
      axis_seed(spec.seed, circuit.name, scheme.name, optimizer,
                "verify.corruption"));
  lock.corruption_mean = corruption.mean_error_rate;
  lock.corruption_min = corruption.min_error_rate;
  lock.silent_wrong_keys = corruption.silent_wrong_keys;

  lock.key_layout_ok = check_key_layout(job.design.genes, job.design).empty();
  if (spec.verify_equivalence) {
    lock.equivalence_checked = true;
    if (original.gate_count() <= spec.sat_equivalence_gate_limit) {
      lock.correct_key_equivalent =
          sat::check_unlocks(job.design.netlist, job.design.key, original);
    } else {
      // See CampaignSpec::sat_equivalence_gate_limit: seeded simulation
      // keeps the verdict deterministic in the axis seed.
      lock.correct_key_equivalent = lock::verify_unlocks(
          job.design, original, lock::VerifyMode::kSimulation, 2048,
          axis_seed(spec.seed, circuit.name, scheme.name, optimizer,
                    "verify.equivalence"));
    }
  }
  lock.verify_seconds = timer.elapsed_seconds();
  return job;
}

bool reports_equal(const eval::AttackReport& a, const eval::AttackReport& b) {
  // Exact comparison of everything except wall time: a re-run through the
  // same warm workspace must reproduce the attack bit for bit.
  return a.attack == b.attack && a.key_bits == b.key_bits &&
         a.accuracy == b.accuracy && a.precision == b.precision &&
         a.decided_fraction == b.decided_fraction &&
         a.attacked_fraction == b.attacked_fraction &&
         a.key_recovery == b.key_recovery && a.key_recovered == b.key_recovered;
}

CellResult run_cell(const CampaignSpec& spec, const CircuitAxis& circuit,
                    const LockJob& job, const std::string& attack_name,
                    const netlist::Netlist& original,
                    eval::EvalWorkspace& workspace) {
  util::Timer timer;
  eval::AttackOptions options;
  options.oracle = &original;
  options.muxlink = spec.muxlink;
  options.sat.max_iterations = spec.sat_max_iterations;
  options.seed = axis_seed(spec.seed, circuit.name, job.summary.scheme,
                           job.summary.optimizer, attack_name);

  const auto attack = eval::make_attack(attack_name, options);
  const eval::AttackReport report = attack->evaluate(job.design, workspace);

  CellResult cell;
  cell.circuit = circuit.name;
  cell.scheme = job.summary.scheme;
  cell.optimizer = job.summary.optimizer;
  cell.attack = attack_name;
  cell.key_bits = job.design.key.size();
  cell.accuracy = report.accuracy;
  cell.precision = report.precision;
  cell.attacked_fraction = report.attacked_fraction;
  cell.key_recovery = report.key_recovery;
  cell.key_recovered = report.key_recovered;
  cell.resilience = 1.0 - report.accuracy;

  CellVerification& verification = cell.verification;
  verification.equivalence_checked = job.summary.equivalence_checked;
  verification.correct_key_equivalent = job.summary.correct_key_equivalent;
  verification.key_layout_ok = job.summary.key_layout_ok;
  const std::string sanity =
      check_report_invariants(report, job.design.key.size());
  verification.report_sane = sanity.empty();
  if (spec.verify_determinism) {
    verification.determinism_checked = true;
    // Fresh adapter instance, same warm workspace: covers both
    // construction determinism and workspace state leakage.
    const auto rerun = eval::make_attack(attack_name, options);
    verification.deterministic =
        reports_equal(report, rerun->evaluate(job.design, workspace));
  }

  if (!verification.key_layout_ok) {
    verification.failure = "key layout round-trip failed";
  } else if (verification.equivalence_checked &&
             !verification.correct_key_equivalent) {
    verification.failure = "correct-key decode not equivalent to original";
  } else if (!verification.report_sane) {
    verification.failure = sanity;
  } else if (verification.determinism_checked && !verification.deterministic) {
    verification.failure = "attack re-run diverged";
  }
  cell.attack_seconds = timer.elapsed_seconds();
  return cell;
}

// ---- serialization ---------------------------------------------------------

void json_string(std::ostream& os, std::string_view text) {
  os << '"';
  for (char c : text) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      default: {
        const auto byte = static_cast<unsigned char>(c);
        if (byte < 0x20) {
          static constexpr char kHex[] = "0123456789abcdef";
          os << "\\u00" << kHex[byte >> 4] << kHex[byte & 0xF];
        } else {
          os << c;
        }
      }
    }
  }
  os << '"';
}

/// Fixed-precision double: deterministic across runs and platforms for the
/// value ranges the report holds (fractions, gate counts, fitness).
std::string num(double value) { return util::fmt(value, 4); }

void json_string_list(std::ostream& os, const std::vector<std::string>& list) {
  os << '[';
  for (std::size_t i = 0; i < list.size(); ++i) {
    if (i != 0) os << ", ";
    json_string(os, list[i]);
  }
  os << ']';
}

const char* json_bool(bool value) { return value ? "true" : "false"; }

}  // namespace

std::uint64_t axis_seed(std::uint64_t campaign_seed, std::string_view circuit,
                        std::string_view scheme, std::string_view optimizer,
                        std::string_view attack) {
  // FNV-1a over the axis names with a field separator (so ("ab", "c") and
  // ("a", "bc") hash apart), mixed with the campaign seed and finalized
  // through SplitMix64 so nearby campaign seeds still decorrelate.
  std::uint64_t hash = 14695981039346656037ULL;
  const auto mix = [&hash](std::string_view text) {
    for (unsigned char c : text) {
      hash ^= c;
      hash *= 1099511628211ULL;
    }
    hash ^= 0x1FU;
    hash *= 1099511628211ULL;
  };
  mix(circuit);
  mix(scheme);
  mix(optimizer);
  mix(attack);
  std::uint64_t state = hash ^ campaign_seed;
  return util::splitmix64(state);
}

std::vector<SchemeAxis> default_schemes(std::size_t mux_key_bits) {
  if (mux_key_bits < 8) {
    throw std::invalid_argument(
        "default_schemes: mux_key_bits must be >= 8 so every scheme gets a "
        "non-degenerate key");
  }
  std::vector<SchemeAxis> schemes;
  schemes.push_back(
      {"dmux", lock::GenotypeSpec{.mux_sites = mux_key_bits}});
  schemes.push_back({"rll", lock::GenotypeSpec{.rll_gates = mux_key_bits}});
  schemes.push_back(
      {"antisat", lock::GenotypeSpec{.antisat_width = mux_key_bits / 2}});
  // Anti-SAT blocks need width >= 2, so the compound scheme carries a few
  // more key bits than the pure schemes (e.g. 10 for mux_key_bits = 8).
  schemes.push_back({"compound",
                     lock::GenotypeSpec{
                         .mux_sites = mux_key_bits / 2,
                         .rll_gates = mux_key_bits / 4,
                         .antisat_width = std::max<std::size_t>(
                             2, mux_key_bits / 8)}});
  return schemes;
}

std::string check_report_invariants(const eval::AttackReport& report,
                                    std::size_t key_bits) {
  const auto in_unit = [](double value) {
    return value >= 0.0 && value <= 1.0;
  };
  if (report.attack.empty()) return "attack name empty";
  if (report.key_bits != key_bits) {
    return "report key_bits != design key bits";
  }
  if (!in_unit(report.accuracy)) return "accuracy outside [0, 1]";
  if (!in_unit(report.precision)) return "precision outside [0, 1]";
  if (!in_unit(report.decided_fraction)) {
    return "decided_fraction outside [0, 1]";
  }
  if (!in_unit(report.attacked_fraction)) {
    return "attacked_fraction outside [0, 1]";
  }
  if (!in_unit(report.key_recovery)) return "key_recovery outside [0, 1]";
  if (report.key_recovered && report.accuracy < 1.0) {
    return "key_recovered claimed with accuracy < 1";
  }
  if (report.seconds < 0.0) return "negative wall time";
  return {};
}

namespace {

/// The shared knobs quick and full runs must agree on: any divergence here
/// would break the quick-vs-committed-baseline CI diff, because a cell's
/// result is a function of these knobs plus the axis names.
CampaignSpec base_spec() {
  CampaignSpec spec;
  spec.schemes = default_schemes(8);
  // The fast in-loop MuxLink shape (the same knobs the pinned compound-GA
  // trajectory uses): the campaign compares scenarios at fixed budget, it
  // does not chase each attack's ceiling.
  spec.muxlink.epochs = 4;
  spec.muxlink.max_train_links = 120;
  spec.muxlink.subgraph.max_nodes = 32;
  return spec;
}

}  // namespace

CampaignSpec quick_spec() {
  CampaignSpec spec = base_spec();
  spec.name = "campaign-quick";
  spec.circuits = {{"c432", {}, {"ga", "random"}}};
  return spec;
}

CampaignSpec full_spec() {
  CampaignSpec spec = base_spec();
  spec.name = "campaign-full";
  spec.circuits = {
      {"c432", {}, {}},
      {"c880", {}, {}},
      {"c1355", {}, {}},
      // 100k gates: the GNN/SAT attacks and the population optimizers are
      // out of budget; the single-trajectory heuristics reuse the
      // pipeline's SiteContext and the two structural attacks stay cheap.
      {"synth100k", {"scope", "structural"}, {"hillclimb", "random"}},
  };
  return spec;
}

CampaignResult run(const CampaignSpec& spec_in) {
  util::Timer total;
  CampaignResult result;
  result.spec = resolve(spec_in);
  const CampaignSpec& spec = result.spec;

  std::unique_ptr<util::ThreadPool> pool;
  if (spec.threads != 1) {
    pool = std::make_unique<util::ThreadPool>(spec.threads);
  }
  const std::size_t shards = pool ? pool->size() : 1;
  // Runs fn(shard, i) for every i in [0, n) on the pool's shards, or on
  // shard 0 of the calling thread when there is no pool.
  const auto fan_out =
      [&pool](std::size_t n,
              const std::function<void(std::size_t, std::size_t)>& fn) {
        if (pool) {
          pool->parallel_for_sharded(n, fn);
        } else {
          for (std::size_t i = 0; i < n; ++i) fn(0, i);
        }
      };

  for (const CircuitAxis& circuit : spec.circuits) {
    const netlist::Netlist original = build_circuit(circuit.name);

    // Every lock job of the circuit runs on an identically configured
    // pipeline. The cache stays OFF: the heuristics' budget contract wants
    // one attack run per proposal, and a cache warmed by one lock job must
    // never change what a later job computes. With the cache off, a job is
    // state-free given its axis seed, so which shard's pipeline runs it
    // cannot change its result (and quick and full runs share cells).
    eval::EvalPipelineConfig pipeline_config;
    pipeline_config.attacks = spec.fitness_attacks;
    pipeline_config.attack_options.muxlink = spec.muxlink;
    pipeline_config.cache = false;
    pipeline_config.seed = axis_seed(spec.seed, circuit.name, "", "pipeline");

    // One pipeline per pool shard, built on the shard's first use. The
    // pipelines are pool-less: the lock jobs already fan out over the pool,
    // so the population batches inside a job run sequentially on their
    // shard's pipeline (a nested fan-out on the same pool would throw).
    std::vector<std::unique_ptr<eval::EvalPipeline>> pipelines(shards);
    const auto shard_pipeline = [&](std::size_t shard) -> eval::EvalPipeline& {
      if (!pipelines[shard]) {
        pipelines[shard] =
            std::make_unique<eval::EvalPipeline>(original, pipeline_config);
      }
      return *pipelines[shard];
    };

    // The lock jobs (scheme x optimizer) fan out across the pool; each
    // writes its preallocated slot, so the job order is enumeration order
    // no matter which shard runs which job.
    struct JobPlan {
      const SchemeAxis* scheme;
      const std::string* optimizer;
    };
    std::vector<JobPlan> job_plans;
    job_plans.reserve(spec.schemes.size() * circuit.optimizers.size());
    for (const SchemeAxis& scheme : spec.schemes) {
      for (const std::string& optimizer : circuit.optimizers) {
        job_plans.push_back({&scheme, &optimizer});
      }
    }
    std::vector<LockJob> jobs(job_plans.size());
    fan_out(jobs.size(), [&](std::size_t shard, std::size_t index) {
      jobs[index] = run_lock_job(spec, circuit, *job_plans[index].scheme,
                                 *job_plans[index].optimizer, original,
                                 shard_pipeline(shard));
    });

    // Then the circuit's attack cells fan out the same way, each running
    // through its shard pipeline's warm workspace.
    struct CellPlan {
      const LockJob* job;
      const std::string* attack;
    };
    std::vector<CellPlan> plans;
    plans.reserve(jobs.size() * circuit.attacks.size());
    for (const LockJob& job : jobs) {
      for (const std::string& attack : circuit.attacks) {
        plans.push_back({&job, &attack});
      }
    }
    std::vector<CellResult> cells(plans.size());
    fan_out(cells.size(), [&](std::size_t shard, std::size_t index) {
      cells[index] = run_cell(spec, circuit, *plans[index].job,
                              *plans[index].attack, original,
                              shard_pipeline(shard).workspace());
    });

    for (LockJob& job : jobs) result.locks.push_back(std::move(job.summary));
    for (CellResult& cell : cells) result.cells.push_back(std::move(cell));
  }

  result.cells_passed = 0;
  for (const CellResult& cell : result.cells) {
    if (cell.verification.passed()) ++result.cells_passed;
  }
  result.total_seconds = total.elapsed_seconds();
  return result;
}

std::string to_json(const CampaignResult& result, bool include_timings) {
  const CampaignSpec& spec = result.spec;
  std::ostringstream os;
  os << "{\n";
  os << "  \"campaign\": ";
  json_string(os, spec.name);
  os << ",\n  \"seed\": " << spec.seed;
  os << ",\n  \"schemes\": [";
  for (std::size_t i = 0; i < spec.schemes.size(); ++i) {
    const SchemeAxis& scheme = spec.schemes[i];
    os << (i == 0 ? "\n" : ",\n") << "    {\"name\": ";
    json_string(os, scheme.name);
    os << ", \"mux\": " << scheme.spec.mux_sites
       << ", \"rll\": " << scheme.spec.rll_gates
       << ", \"antisat_width\": " << scheme.spec.antisat_width
       << ", \"key_bits\": " << scheme.spec.key_bits() << "}";
  }
  os << "\n  ],\n  \"attacks\": ";
  json_string_list(os, spec.attacks);
  os << ",\n  \"optimizers\": ";
  json_string_list(os, spec.optimizers);
  os << ",\n  \"circuits\": [";
  for (std::size_t i = 0; i < spec.circuits.size(); ++i) {
    const CircuitAxis& circuit = spec.circuits[i];
    os << (i == 0 ? "\n" : ",\n") << "    {\"name\": ";
    json_string(os, circuit.name);
    os << ", \"attacks\": ";
    json_string_list(os, circuit.attacks);
    os << ", \"optimizers\": ";
    json_string_list(os, circuit.optimizers);
    os << "}";
  }
  os << "\n  ],\n  \"budget\": {\"ga_population\": " << spec.budget.ga_population
     << ", \"ga_generations\": " << spec.budget.ga_generations
     << ", \"nsga2_population\": " << spec.budget.nsga2_population
     << ", \"nsga2_generations\": " << spec.budget.nsga2_generations
     << ", \"heuristic_evaluations\": " << spec.budget.heuristic_evaluations
     << "}";
  os << ",\n  \"locks\": [";
  for (std::size_t i = 0; i < result.locks.size(); ++i) {
    const LockResult& lock = result.locks[i];
    os << (i == 0 ? "\n" : ",\n") << "    {\"circuit\": ";
    json_string(os, lock.circuit);
    os << ", \"scheme\": ";
    json_string(os, lock.scheme);
    os << ", \"optimizer\": ";
    json_string(os, lock.optimizer);
    os << ", \"key_bits\": " << lock.key_bits << ", \"genes\": " << lock.genes
       << ", \"original_gates\": " << lock.original_gates
       << ", \"locked_gates\": " << lock.locked_gates
       << ", \"fitness\": " << num(lock.fitness)
       << ", \"evaluations\": " << lock.optimizer_evaluations
       << ", \"corruption_mean\": " << num(lock.corruption_mean)
       << ", \"corruption_min\": " << num(lock.corruption_min)
       << ", \"silent_wrong_keys\": " << num(lock.silent_wrong_keys)
       << ", \"equivalence_checked\": " << json_bool(lock.equivalence_checked)
       << ", \"correct_key_equivalent\": "
       << json_bool(lock.correct_key_equivalent)
       << ", \"key_layout_ok\": " << json_bool(lock.key_layout_ok);
    if (include_timings) {
      os << ", \"lock_seconds\": " << num(lock.lock_seconds)
         << ", \"verify_seconds\": " << num(lock.verify_seconds);
    }
    os << "}";
  }
  os << "\n  ],\n  \"cells\": [";
  for (std::size_t i = 0; i < result.cells.size(); ++i) {
    const CellResult& cell = result.cells[i];
    os << (i == 0 ? "\n" : ",\n") << "    {\"circuit\": ";
    json_string(os, cell.circuit);
    os << ", \"scheme\": ";
    json_string(os, cell.scheme);
    os << ", \"optimizer\": ";
    json_string(os, cell.optimizer);
    os << ", \"attack\": ";
    json_string(os, cell.attack);
    os << ", \"key_bits\": " << cell.key_bits
       << ", \"accuracy\": " << num(cell.accuracy)
       << ", \"precision\": " << num(cell.precision)
       << ", \"attacked_fraction\": " << num(cell.attacked_fraction)
       << ", \"key_recovery\": " << num(cell.key_recovery)
       << ", \"key_recovered\": " << json_bool(cell.key_recovered)
       << ", \"resilience\": " << num(cell.resilience)
       << ", \"passed\": " << json_bool(cell.verification.passed())
       << ", \"failure\": ";
    json_string(os, cell.verification.failure);
    if (include_timings) {
      os << ", \"attack_seconds\": " << num(cell.attack_seconds);
    }
    os << "}";
  }
  os << "\n  ],\n  \"cells_total\": " << result.cells.size()
     << ",\n  \"cells_passed\": " << result.cells_passed
     << ",\n  \"all_passed\": " << json_bool(result.all_passed());
  if (include_timings) {
    os << ",\n  \"total_seconds\": " << num(result.total_seconds);
  }
  os << "\n}\n";
  return os.str();
}

std::string to_markdown(const CampaignResult& result) {
  const CampaignSpec& spec = result.spec;
  std::ostringstream os;
  os << "# Campaign `" << spec.name << "`\n\n";
  os << "- seed " << spec.seed << " · " << spec.schemes.size()
     << " schemes × " << spec.attacks.size() << " attacks × "
     << spec.circuits.size() << " circuits × " << spec.optimizers.size()
     << " optimizers\n";
  os << "- verification: " << result.cells_passed << "/"
     << result.cells.size() << " cells passed\n\n";
  os << "Cell values are resilience (1 − attack accuracy); higher is better "
        "for the defender. A trailing `!` marks a cell whose verification "
        "stage failed.\n";

  for (const CircuitAxis& circuit : spec.circuits) {
    os << "\n## " << circuit.name << "\n\n";
    os << "| lock (scheme · optimizer) |";
    for (const std::string& attack : circuit.attacks) os << " " << attack
                                                         << " |";
    os << " corruption |\n";
    os << "|---|";
    for (std::size_t i = 0; i < circuit.attacks.size(); ++i) os << "---|";
    os << "---|\n";
    for (const LockResult& lock : result.locks) {
      if (lock.circuit != circuit.name) continue;
      os << "| " << lock.scheme << " · " << lock.optimizer << " |";
      for (const std::string& attack : circuit.attacks) {
        const CellResult* found = nullptr;
        for (const CellResult& cell : result.cells) {
          if (cell.circuit == lock.circuit && cell.scheme == lock.scheme &&
              cell.optimizer == lock.optimizer && cell.attack == attack) {
            found = &cell;
            break;
          }
        }
        if (found == nullptr) {
          os << " — |";
        } else {
          os << " " << util::fmt(found->resilience, 3)
             << (found->verification.passed() ? "" : "!") << " |";
        }
      }
      os << " " << util::fmt(lock.corruption_mean, 3) << " |\n";
    }
  }

  bool any_failure = false;
  for (const CellResult& cell : result.cells) {
    if (cell.verification.passed()) continue;
    if (!any_failure) {
      os << "\n## Verification failures\n\n";
      any_failure = true;
    }
    os << "- " << cell.circuit << " / " << cell.scheme << " / "
       << cell.optimizer << " / " << cell.attack << ": "
       << cell.verification.failure << "\n";
  }
  return os.str();
}

}  // namespace autolock::campaign
