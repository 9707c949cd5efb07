#include "stages.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "core/heuristics.hpp"
#include "core/nsga2.hpp"
#include "eval/registry.hpp"
#include "locking/compound.hpp"
#include "locking/verify.hpp"
#include "netlist/generator.hpp"
#include "sat/cnf.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {

using namespace autolock;

// ---- TracedScorer -----------------------------------------------------------

TracedScorer::TracedScorer(const netlist::Netlist& original,
                           const eval::EvalPipelineConfig& config,
                           Tracer& tracer, std::size_t key_bits)
    : original_(&original),
      tracer_(&tracer),
      key_bits_(key_bits),
      reference_(original, config) {
  eval::AttackOptions options = config.attack_options;
  if (options.oracle == nullptr) options.oracle = &original;
  attacks_ = eval::make_attacks(config.attacks, options);
}

eval::EvalPipelineConfig TracedScorer::overriding(
    eval::EvalPipelineConfig config) {
  config.fitness_override = [this](const lock::LockedDesign& design) {
    return score(design);
  };
  config.objectives_override = [this](const lock::LockedDesign& design) {
    return objectives(design);
  };
  config.objectives_override_arity =
      attacks_.size() + (config.corruption_objective ? 1 : 0);
  return config;
}

std::size_t TracedScorer::decode_mismatches() const {
  const std::scoped_lock lock(mutex_);
  return mismatches_;
}

eval::EvalWorkspace& TracedScorer::thread_workspace() {
  const std::scoped_lock lock(mutex_);
  auto& slot = workspaces_[std::this_thread::get_id()];
  if (slot == nullptr) {
    slot = std::make_unique<eval::EvalWorkspace>();
    slot->reserve(*original_, key_bits_);
  }
  return *slot;
}

std::vector<eval::AttackReport> TracedScorer::run_attacks(
    const lock::LockedDesign& design, eval::EvalWorkspace& workspace) {
  {
    Span span(*tracer_, "locking.decode_into");
    reference_.decode_into(workspace, design.genes);
  }
  if (workspace.design.key != design.key ||
      workspace.design.netlist.size() != design.netlist.size()) {
    const std::scoped_lock lock(mutex_);
    ++mismatches_;
  }
  std::vector<eval::AttackReport> reports;
  reports.reserve(attacks_.size());
  for (const auto& attack : attacks_) {
    Span span(*tracer_, "attack." + attack->name());
    reports.push_back(attack->evaluate(design, workspace));
  }
  return reports;
}

// Mirrors EvalPipeline::score term for term (same summation order).
ga::Evaluation TracedScorer::score(const lock::LockedDesign& design) {
  Span span(*tracer_, "eval.score");
  eval::EvalWorkspace& workspace = thread_workspace();
  const auto reports = run_attacks(design, workspace);
  ga::Evaluation result;
  double accuracy = 0.0;
  double precision = 0.0;
  for (const auto& report : reports) {
    accuracy += report.accuracy;
    precision += report.precision;
  }
  accuracy /= static_cast<double>(reports.size());
  precision /= static_cast<double>(reports.size());
  result.attack_accuracy = accuracy;
  result.attack_precision = precision;
  result.fitness = 1.0 - accuracy;
  const double weight = reference_.config().corruption_weight;
  if (weight > 0.0) {
    Span corruption_span(*tracer_, "eval.corruption");
    result.corruption = reference_.corruption(design, &workspace);
    result.fitness += std::min(result.corruption, 0.5) / 0.5 * weight;
  }
  return result;
}

// Mirrors EvalPipeline::score_objectives.
std::vector<double> TracedScorer::objectives(
    const lock::LockedDesign& design) {
  Span span(*tracer_, "eval.score");
  eval::EvalWorkspace& workspace = thread_workspace();
  std::vector<double> result;
  for (const auto& report : run_attacks(design, workspace)) {
    result.push_back(report.accuracy);
  }
  if (reference_.config().corruption_objective) {
    Span corruption_span(*tracer_, "eval.corruption");
    result.push_back(
        1.0 - std::min(reference_.corruption(design, &workspace), 0.5) / 0.5);
  }
  return result;
}

// ---- traced campaign --------------------------------------------------------

netlist::Netlist build_circuit(const std::string& name) {
  for (const auto& profile : netlist::gen::scale_profiles()) {
    if (profile.name == name) return netlist::gen::make_scale_profile(name);
  }
  return netlist::gen::make_profile(netlist::gen::profile_by_name(name));
}

namespace {

/// campaign.cpp's axis resolution for an already valid spec.
campaign::CampaignSpec resolve(campaign::CampaignSpec spec) {
  if (spec.schemes.empty()) spec.schemes = campaign::default_schemes();
  if (spec.attacks.empty()) {
    spec.attacks = eval::AttackRegistry::instance().names();
  }
  if (spec.circuits.empty()) spec.circuits.push_back({"c432", {}, {}});
  for (auto& circuit : spec.circuits) {
    if (circuit.attacks.empty()) circuit.attacks = spec.attacks;
    if (circuit.optimizers.empty()) circuit.optimizers = spec.optimizers;
  }
  return spec;
}

std::uint64_t traced_axis_seed(Tracer& tracer, std::uint64_t seed,
                               const std::string& circuit,
                               const std::string& scheme,
                               const std::string& optimizer,
                               const std::string& attack = {}) {
  Span span(tracer, "campaign.axis_seed");
  return campaign::axis_seed(seed, circuit, scheme, optimizer, attack);
}

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

struct LockJob {
  campaign::LockResult summary;
  lock::LockedDesign design;
};

LockJob run_lock_job(const campaign::CampaignSpec& spec,
                     const campaign::CircuitAxis& circuit,
                     const campaign::SchemeAxis& scheme,
                     const std::string& optimizer,
                     const netlist::Netlist& original,
                     eval::EvalPipeline& pipeline, Tracer& tracer) {
  LockJob job;
  campaign::LockResult& lock = job.summary;
  {
    Span stage(tracer, "campaign.lock_job");
    const double start = tracer.now();
    const std::uint64_t seed = traced_axis_seed(tracer, spec.seed, circuit.name,
                                                scheme.name, optimizer);
    ga::Genotype best;
    double fitness = 0.0;
    std::size_t evaluations = 0;
    {
      Span span(tracer, "core." + optimizer, /*fans_out=*/true);
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
      } else {
        ga::RandomSearchConfig config;
        config.evaluations = spec.budget.heuristic_evaluations;
        config.seed = seed;
        ga::HeuristicResult r =
            ga::random_search(pipeline, scheme.spec, config);
        best = std::move(r.best.genes);
        fitness = r.best.eval.fitness;
        evaluations = r.evaluations;
      }
    }
    {
      Span span(tracer, "locking.decode");
      job.design = pipeline.decode(best);
    }
    lock.circuit = circuit.name;
    lock.scheme = scheme.name;
    lock.optimizer = optimizer;
    lock.key_bits = job.design.key.size();
    lock.genes = job.design.genes.size();
    lock.original_gates = original.gate_count();
    lock.locked_gates = job.design.netlist.gate_count();
    lock.fitness = fitness;
    lock.optimizer_evaluations = evaluations;
    lock.lock_seconds = tracer.now() - start;
  }

  Span stage(tracer, "campaign.verify");
  const double start = tracer.now();
  const std::uint64_t corruption_seed = traced_axis_seed(
      tracer, spec.seed, circuit.name, scheme.name, optimizer,
      "verify.corruption");
  lock::CorruptionReport corruption;
  {
    Span span(tracer, "locking.measure_corruption");
    corruption = lock::measure_corruption(job.design, original,
                                          spec.corruption_keys,
                                          spec.corruption_vectors,
                                          corruption_seed);
  }
  lock.corruption_mean = corruption.mean_error_rate;
  lock.corruption_min = corruption.min_error_rate;
  lock.silent_wrong_keys = corruption.silent_wrong_keys;
  lock.key_layout_ok = check_key_layout(job.design.genes, job.design).empty();
  if (spec.verify_equivalence) {
    lock.equivalence_checked = true;
    if (original.gate_count() <= spec.sat_equivalence_gate_limit) {
      Span span(tracer, "sat.check_unlocks");
      lock.correct_key_equivalent =
          sat::check_unlocks(job.design.netlist, job.design.key, original);
    } else {
      const std::uint64_t verify_seed = traced_axis_seed(
          tracer, spec.seed, circuit.name, scheme.name, optimizer,
          "verify.equivalence");
      Span span(tracer, "netlist.verify_unlocks");
      lock.correct_key_equivalent = lock::verify_unlocks(
          job.design, original, lock::VerifyMode::kSimulation, 2048,
          verify_seed);
    }
  }
  lock.verify_seconds = tracer.now() - start;
  return job;
}

bool reports_equal(const eval::AttackReport& a, const eval::AttackReport& b) {
  return a.attack == b.attack && a.key_bits == b.key_bits &&
         a.accuracy == b.accuracy && a.precision == b.precision &&
         a.decided_fraction == b.decided_fraction &&
         a.attacked_fraction == b.attacked_fraction &&
         a.key_recovery == b.key_recovery && a.key_recovered == b.key_recovered;
}

campaign::CellResult run_cell(const campaign::CampaignSpec& spec,
                              const campaign::CircuitAxis& circuit,
                              const LockJob& job,
                              const std::string& attack_name,
                              const netlist::Netlist& original,
                              eval::EvalWorkspace& workspace, Tracer& tracer) {
  Span cell_span(tracer, "campaign.cell");
  const double start = tracer.now();
  eval::AttackOptions options;
  options.oracle = &original;
  options.muxlink = spec.muxlink;
  options.sat.max_iterations = spec.sat_max_iterations;
  options.seed = traced_axis_seed(tracer, spec.seed, circuit.name,
                                  job.summary.scheme, job.summary.optimizer,
                                  attack_name);
  eval::AttackReport report;
  {
    const auto attack = eval::make_attack(attack_name, options);
    Span span(tracer, "attack." + attack_name);
    report = attack->evaluate(job.design, workspace);
  }

  campaign::CellResult cell;
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

  campaign::CellVerification& verification = cell.verification;
  verification.equivalence_checked = job.summary.equivalence_checked;
  verification.correct_key_equivalent = job.summary.correct_key_equivalent;
  verification.key_layout_ok = job.summary.key_layout_ok;
  const std::string sanity =
      campaign::check_report_invariants(report, job.design.key.size());
  verification.report_sane = sanity.empty();
  if (spec.verify_determinism) {
    verification.determinism_checked = true;
    const auto rerun = eval::make_attack(attack_name, options);
    Span span(tracer, "attack." + attack_name + ".rerun");
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
  cell.attack_seconds = tracer.now() - start;
  return cell;
}

}  // namespace

campaign::CampaignResult run_campaign_traced(
    const campaign::CampaignSpec& spec_in, Tracer& tracer,
    CampaignCounters& counters) {
  const double start = tracer.now();
  campaign::CampaignResult result;
  result.spec = resolve(spec_in);
  const campaign::CampaignSpec& spec = result.spec;

  std::unique_ptr<util::ThreadPool> pool;
  if (spec.threads != 1) {
    pool = std::make_unique<util::ThreadPool>(spec.threads);
  }
  const std::size_t shards = pool ? pool->size() : 1;
  std::size_t max_key_bits = 0;
  for (const auto& scheme : spec.schemes) {
    max_key_bits = std::max(max_key_bits, scheme.spec.key_bits());
  }

  for (const campaign::CircuitAxis& circuit : spec.circuits) {
    netlist::Netlist original;
    {
      Span span(tracer, "campaign.build_circuit");
      original = build_circuit(circuit.name);
    }
    eval::EvalPipelineConfig config;
    config.attacks = spec.fitness_attacks;
    config.attack_options.muxlink = spec.muxlink;
    config.cache = false;
    config.seed = campaign::axis_seed(spec.seed, circuit.name, "", "pipeline");
    config.pool = pool.get();
    std::unique_ptr<TracedScorer> scorer;
    {
      Span span(tracer, "trace.scorer");
      scorer = std::make_unique<TracedScorer>(original, config, tracer,
                                              max_key_bits);
    }
    std::unique_ptr<eval::EvalPipeline> pipeline;
    {
      Span span(tracer, "eval.pipeline");
      pipeline = std::make_unique<eval::EvalPipeline>(
          original, scorer->overriding(config));
    }
    std::vector<std::unique_ptr<eval::EvalWorkspace>> workspaces;
    {
      Span span(tracer, "eval.workspace_reserve");
      for (std::size_t s = 0; s < shards; ++s) {
        workspaces.push_back(std::make_unique<eval::EvalWorkspace>());
        workspaces.back()->reserve(original, max_key_bits);
      }
    }

    std::vector<LockJob> jobs;
    for (const campaign::SchemeAxis& scheme : spec.schemes) {
      for (const std::string& optimizer : circuit.optimizers) {
        jobs.push_back(run_lock_job(spec, circuit, scheme, optimizer, original,
                                    *pipeline, tracer));
      }
    }

    struct CellPlan {
      const LockJob* job;
      const std::string* attack;
    };
    std::vector<CellPlan> plans;
    for (const LockJob& job : jobs) {
      for (const std::string& attack : circuit.attacks) {
        plans.push_back({&job, &attack});
      }
    }
    std::vector<campaign::CellResult> cells(plans.size());
    {
      Span span(tracer, "campaign.cells", /*fans_out=*/true);
      const auto run_one = [&](std::size_t shard, std::size_t index) {
        cells[index] = run_cell(spec, circuit, *plans[index].job,
                                *plans[index].attack, original,
                                *workspaces[shard], tracer);
      };
      if (pool) {
        pool->parallel_for_sharded(plans.size(), run_one);
      } else {
        for (std::size_t i = 0; i < plans.size(); ++i) run_one(0, i);
      }
    }

    counters.evaluations += pipeline->evaluations();
    counters.cache_hits += pipeline->cache_hits();
    counters.corruption_probes += scorer->corruption_probes();
    counters.corruption_sweeps += scorer->corruption_sweeps();
    counters.decode_mismatches += scorer->decode_mismatches();
    for (LockJob& job : jobs) result.locks.push_back(std::move(job.summary));
    for (campaign::CellResult& cell : cells) {
      result.cells.push_back(std::move(cell));
    }
  }

  for (const campaign::CellResult& cell : result.cells) {
    if (cell.verification.passed()) ++result.cells_passed;
  }
  result.total_seconds = tracer.now() - start;
  return result;
}

}  // namespace perfbench
