#include "eval/pipeline.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "eval/registry.hpp"
#include "eval/workspace.hpp"

namespace autolock::eval {

using lock::LockedDesign;

namespace {

/// Salt XORed into every decode-time repair RNG seed.
constexpr std::uint64_t kRepairSalt = 0xDEC0DEULL;

}  // namespace

EvalPipeline::EvalPipeline(const netlist::Netlist& original,
                           EvalPipelineConfig config)
    : original_(&original),
      context_(std::make_shared<const lock::SiteContext>(original)),
      // One oracle simulator serves every corruption measurement; the
      // netlist's cached topological order makes this cheap even when
      // unused.
      oracle_sim_(std::make_shared<const netlist::Simulator>(original)),
      config_(std::move(config)) {
  init_attacks();
}

EvalPipeline::EvalPipeline(const EvalPipeline& sibling,
                           EvalPipelineConfig config)
    : original_(sibling.original_),
      context_(sibling.context_),
      oracle_sim_(sibling.oracle_sim_),
      config_(std::move(config)) {
  init_attacks();
}

void EvalPipeline::init_attacks() {
  const bool has_override =
      static_cast<bool>(config_.fitness_override) ||
      static_cast<bool>(config_.objectives_override);
  if (has_override) return;
  if (config_.attacks.empty()) {
    throw std::invalid_argument("EvalPipeline: no attacks configured");
  }
  if (config_.attack_options.oracle == nullptr) {
    config_.attack_options.oracle = original_;
  }
  attacks_ = make_attacks(config_.attacks, config_.attack_options);
}

EvalPipeline::~EvalPipeline() = default;

std::size_t EvalPipeline::num_objectives() const noexcept {
  if (config_.objectives_override) return config_.objectives_override_arity;
  return attacks_.size() + (config_.corruption_objective ? 1 : 0);
}

LockedDesign EvalPipeline::decode(const ga::Genotype& genes,
                                  std::uint64_t repair_seed) const {
  util::Rng repair_rng(config_.seed ^ repair_seed ^ kRepairSalt);
  return lock::apply_genotype(*original_, *context_, genes, repair_rng);
}

void EvalPipeline::decode_into(EvalWorkspace& workspace,
                               const ga::Genotype& genes,
                               std::uint64_t repair_seed) const {
  util::Rng repair_rng(config_.seed ^ repair_seed ^ kRepairSalt);
  lock::apply_genotype_into(workspace.design, *original_, *context_, genes,
                            repair_rng, workspace.reach);
}

void EvalPipeline::ensure_workspaces(std::size_t count) {
  while (workspaces_.size() < count) {
    auto workspace = std::make_unique<EvalWorkspace>();
    workspace->reserve(*original_, /*key_bits=*/64);
    workspaces_.push_back(std::move(workspace));
  }
}

const EvalPipeline::OracleBlocks& EvalPipeline::oracle_blocks(
    std::size_t netlist_size, std::size_t vectors, util::Rng vec_rng) const {
  const std::uint64_t key =
      (static_cast<std::uint64_t>(netlist_size) << 24) ^ vectors;
  std::lock_guard<std::mutex> guard(oracle_mutex_);
  auto it = oracle_blocks_.find(key);
  if (it == oracle_blocks_.end()) {
    OracleBlocks blocks;
    netlist::SimScratch scratch;  // one-time fill, local scratch is fine
    netlist::Simulator::draw_reference_blocks(*oracle_sim_, netlist::Key{},
                                              vectors, vec_rng, scratch,
                                              blocks.in_words, blocks.ref_words);
    corruption_sweeps_.fetch_add((vectors + 63) / 64,
                                 std::memory_order_relaxed);
    it = oracle_blocks_.emplace(key, std::move(blocks)).first;
  }
  return it->second;
}

double EvalPipeline::corruption(const LockedDesign& design,
                                EvalWorkspace* workspace) const {
  if (workspace == nullptr) {
    EvalWorkspace local;
    return corruption(design, &local);
  }
  // Mix the configured seed into the probe streams: two same-size designs
  // under different pipeline seeds must not share vectors or wrong keys
  // (and the same seed must reproduce exactly).
  util::Rng rng(0xC0441ULL ^ (config_.seed * 0x9E3779B97F4A7C15ULL) ^
                design.netlist.size());
  // Draw-order contract: the key stream and the vector stream are forked
  // independently (keys first), so neither the key count nor rejection
  // redraws can shift the vector draws. The vector stream is then
  // a pure function of (seed, netlist size) — which is what lets every
  // same-size design in a batch share one cached oracle response.
  util::Rng key_rng = rng.fork();
  util::Rng vec_rng = rng.fork();
  // One wrong key per bit lane of the batch; a keyless design has one.
  const std::size_t want_keys = design.key.empty() ? 1 : 64;
  const std::size_t vectors =
      std::max<std::size_t>(1, config_.corruption_vectors / want_keys);

  netlist::KeyBatch& batch = workspace->key_batch;
  batch.reset(design.key.size());
  // Lane 0: all bits flipped — the historical single-key adversarial proxy.
  netlist::Key& wrong = workspace->wrong_key;
  wrong = design.key;
  for (std::size_t b = 0; b < wrong.size(); ++b) wrong[b] = !wrong[b];
  batch.push(wrong);
  // Remaining lanes: uniform random wrong keys, one rng() word per 64 key
  // bits per key (rejection vs the correct key; duplicates between lanes
  // are fine — it is sampling with replacement).
  for (std::size_t k = 1; k < want_keys; ++k) {
    bool differs = false;
    while (!differs) {
      std::uint64_t bits = 0;
      for (std::size_t b = 0; b < wrong.size(); ++b) {
        if (b % 64 == 0) bits = key_rng();
        const bool value = (bits >> (b % 64)) & 1ULL;
        wrong[b] = value;
        differs = differs || (value != design.key[b]);
      }
    }
    batch.push(wrong);
  }

  std::vector<double>& errors = workspace->key_errors;
  // Rebind the workspace's simulator slot to the design under test: the
  // order/input captures and the per-word value buffers are all reused,
  // and the oracle reference blocks come from the shared cache.
  workspace->locked_sim.rebind(design.netlist);
  const OracleBlocks& blocks =
      oracle_blocks(design.netlist.size(), vectors, vec_rng);
  const std::size_t passes = netlist::Simulator::key_error_rates(
      workspace->locked_sim, batch, blocks.in_words, blocks.ref_words, vectors,
      workspace->sim, errors);
  corruption_probes_.fetch_add(batch.size() * vectors,
                               std::memory_order_relaxed);
  corruption_sweeps_.fetch_add(passes, std::memory_order_relaxed);

  double sum = 0.0;
  for (const double err : errors) sum += err;
  return sum / static_cast<double>(errors.size());
}

ga::Evaluation EvalPipeline::score(const LockedDesign& design,
                                   EvalWorkspace* workspace) const {
  if (config_.fitness_override) return config_.fitness_override(design);
  if (attacks_.empty()) {
    throw std::logic_error(
        "EvalPipeline: scalar fitness requested but neither attacks nor a "
        "fitness_override are configured");
  }
  if (workspace == nullptr) {
    EvalWorkspace local;
    return score(design, &local);
  }
  ga::Evaluation eval;
  double accuracy = 0.0;
  double precision = 0.0;
  for (const auto& attack : attacks_) {
    const AttackReport report = attack->evaluate(design, *workspace);
    accuracy += report.accuracy;
    precision += report.precision;
  }
  accuracy /= static_cast<double>(attacks_.size());
  precision /= static_cast<double>(attacks_.size());
  eval.attack_accuracy = accuracy;
  eval.attack_precision = precision;
  eval.fitness = 1.0 - accuracy;
  if (config_.corruption_weight > 0.0) {
    eval.corruption = corruption(design, workspace);
    // Saturate at 0.5 (ideal corruption); scale into [0, weight].
    eval.fitness += std::min(eval.corruption, 0.5) / 0.5 *
                    config_.corruption_weight;
  }
  return eval;
}

std::vector<double> EvalPipeline::score_objectives(
    const LockedDesign& design, EvalWorkspace* workspace) const {
  if (config_.objectives_override) {
    auto objectives = config_.objectives_override(design);
    check_objective_arity(objectives);
    return objectives;
  }
  if (attacks_.empty()) {
    throw std::logic_error(
        "EvalPipeline: objectives requested but neither attacks nor an "
        "objectives_override are configured");
  }
  if (workspace == nullptr) {
    EvalWorkspace local;
    return score_objectives(design, &local);
  }
  std::vector<double> objectives;
  objectives.reserve(num_objectives());
  for (const auto& attack : attacks_) {
    objectives.push_back(attack->evaluate(design, *workspace).accuracy);
  }
  if (config_.corruption_objective) {
    objectives.push_back(1.0 - std::min(corruption(design, workspace), 0.5) /
                                   0.5);
  }
  return objectives;
}

void EvalPipeline::check_objective_arity(
    const std::vector<double>& objectives) const {
  if (config_.objectives_override && config_.objectives_override_arity != 0 &&
      objectives.size() != config_.objectives_override_arity) {
    throw std::runtime_error("EvalPipeline: objective count mismatch");
  }
}

ga::Evaluation EvalPipeline::evaluate(ga::Genotype& genes,
                                      std::uint64_t repair_seed) {
  if (config_.cache) {
    ga::Evaluation hit;
    if (scalar_cache_.lookup(genes, hit)) {
      cache_hits_.fetch_add(1, std::memory_order_relaxed);
      return hit;
    }
  }
  ga::Genotype pre_repair;
  if (config_.cache) pre_repair = genes;
  EvalWorkspace& workspace = this->workspace();
  decode_into(workspace, genes, repair_seed);
  genes = workspace.design.genes;  // write repaired genes back
  const ga::Evaluation eval = score(workspace.design, &workspace);
  evaluations_.fetch_add(1, std::memory_order_relaxed);
  if (config_.cache) {
    // Store under the pre-repair genes too: a later duplicate of the
    // original genotype looks up with those, and would otherwise re-decode
    // (with a different repair stream) forever.
    scalar_cache_.store(pre_repair, eval);
    if (genes != pre_repair) scalar_cache_.store(genes, eval);
  }
  return eval;
}

EvalWorkspace& EvalPipeline::workspace() {
  ensure_workspaces(1);
  return *workspaces_.front();
}

util::ThreadPool* EvalPipeline::worker_pool() {
  if (config_.pool != nullptr) return config_.pool;
  if (owned_pool_ != nullptr) return owned_pool_.get();
  if (config_.threads == 1) return nullptr;
  owned_pool_ = std::make_unique<util::ThreadPool>(config_.threads);
  return owned_pool_.get();
}

std::uint64_t EvalPipeline::batch_repair_seed(std::size_t generation,
                                              std::size_t index) {
  return (static_cast<std::uint64_t>(generation) << 32) ^
         (index * 0x9E3779B9ULL);
}

template <typename Individual, typename Value, typename NeedsEval,
          typename ResultOf, typename Compute>
EvalPipeline::BatchStats EvalPipeline::evaluate_batch(
    std::vector<Individual>& population, std::size_t generation,
    FitnessCache<Value>& cache, NeedsEval needs_eval, ResultOf result_of,
    Compute compute) {
  BatchStats stats;
  const std::size_t probes_before =
      corruption_probes_.load(std::memory_order_relaxed);
  const std::size_t sweeps_before =
      corruption_sweeps_.load(std::memory_order_relaxed);
  std::vector<std::size_t> pending;
  for (std::size_t i = 0; i < population.size(); ++i) {
    if (!needs_eval(population[i])) continue;
    if (config_.cache) {
      Value hit;
      if (cache.lookup(population[i].genes, hit)) {
        result_of(population[i]) = std::move(hit);
        ++stats.cache_hits;
        continue;
      }
    }
    pending.push_back(i);
  }
  // Pre-repair genes are retained so the post-batch cache stores can key
  // results under them as well (see evaluate()).
  std::vector<ga::Genotype> pre_repair;
  if (config_.cache) {
    pre_repair.reserve(pending.size());
    for (const std::size_t i : pending) pre_repair.push_back(population[i].genes);
  }
  const auto eval_one = [&](std::size_t shard, std::size_t idx) {
    const std::size_t i = pending[idx];
    EvalWorkspace& workspace = *workspaces_[shard];
    decode_into(workspace, population[i].genes,
                batch_repair_seed(generation, i));
    population[i].genes = workspace.design.genes;
    result_of(population[i]) = compute(workspace.design, &workspace);
    evaluations_.fetch_add(1, std::memory_order_relaxed);
  };
  util::ThreadPool* pool = worker_pool();
  if (pool != nullptr && pending.size() > 1) {
    ensure_workspaces(std::min(pending.size(), pool->size()));
    pool->parallel_for_sharded(pending.size(), eval_one);
  } else {
    ensure_workspaces(1);
    for (std::size_t idx = 0; idx < pending.size(); ++idx) eval_one(0, idx);
  }
  // Cache stores run sequentially in index order after the batch: the
  // end-state is deterministic (the last duplicate wins) regardless of
  // thread count or completion order.
  if (config_.cache) {
    for (std::size_t k = 0; k < pending.size(); ++k) {
      const std::size_t i = pending[k];
      cache.store(pre_repair[k], result_of(population[i]));
      if (population[i].genes != pre_repair[k]) {
        cache.store(population[i].genes, result_of(population[i]));
      }
    }
  }
  stats.evaluated = pending.size();
  stats.corruption_probes =
      corruption_probes_.load(std::memory_order_relaxed) - probes_before;
  stats.corruption_sweeps =
      corruption_sweeps_.load(std::memory_order_relaxed) - sweeps_before;
  cache_hits_.fetch_add(stats.cache_hits, std::memory_order_relaxed);
  return stats;
}

EvalPipeline::BatchStats EvalPipeline::evaluate_population(
    std::vector<ga::Individual>& population, std::size_t generation) {
  return evaluate_batch(
      population, generation, scalar_cache_,
      [](const ga::Individual&) { return true; },
      [](ga::Individual& ind) -> ga::Evaluation& { return ind.eval; },
      [this](const LockedDesign& design, EvalWorkspace* workspace) {
        return score(design, workspace);
      });
}

EvalPipeline::BatchStats EvalPipeline::evaluate_population(
    std::vector<ga::MoIndividual>& population, std::size_t generation) {
  return evaluate_batch(
      population, generation, objective_cache_,
      // Survivor carry-over: only individuals without objectives re-run.
      [](const ga::MoIndividual& ind) { return ind.objectives.empty(); },
      [](ga::MoIndividual& ind) -> std::vector<double>& {
        return ind.objectives;
      },
      [this](const LockedDesign& design, EvalWorkspace* workspace) {
        return score_objectives(design, workspace);
      });
}

void EvalPipeline::clear_cache() {
  scalar_cache_.clear();
  objective_cache_.clear();
}

}  // namespace autolock::eval
