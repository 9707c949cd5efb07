// EvalPipeline — the shared decode -> attack -> score evaluation layer.
//
// Every optimizer in core/ (GA, NSGA-II, the black-box heuristics)
// evaluates genotypes the same way: decode the genotype into a locked
// netlist (repairing stale genes), run one or more attacks against it, and
// fold the attack reports into a fitness (scalar) or objective vector
// (multi-objective). This class owns that plumbing exactly once:
//
//   - attacks are constructed by name through AttackRegistry, so the attack
//     mix is a configuration detail, not code;
//   - a collision-safe FitnessCache (full-genotype keys) skips re-evaluating
//     elites and duplicate offspring;
//   - population batches fan out over a util::ThreadPool (owned, borrowed,
//     or none);
//   - one shared oracle Simulator serves every corruption measurement
//     instead of being rebuilt per individual (oracle-guided attacks get
//     the original netlist and build their own); a sibling pipeline
//     (campaign::run builds one per pool shard) shares it and the
//     SiteContext with the pipeline it was built from.
//
// Custom fitness callbacks (tests, synthetic objectives) plug in through
// fitness_override / objectives_override and ride the same cache and
// fan-out machinery. The optimizers themselves only search: they sample
// genotypes from context() and hand every one to this class, and callers
// decode a returned genotype with decode().
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/ga.hpp"
#include "core/nsga2.hpp"
#include "eval/attack.hpp"
#include "eval/fitness_cache.hpp"
#include "locking/mux_lock.hpp"
#include "locking/sites.hpp"
#include "netlist/netlist.hpp"
#include "netlist/simulator.hpp"
#include "util/thread_pool.hpp"

namespace autolock::eval {

/// Custom scalar fitness: receives the decoded locked design (genes already
/// repaired and consistent with the genotype). Must be thread-safe — it is
/// invoked concurrently for different individuals.
using FitnessFn = std::function<ga::Evaluation(const lock::LockedDesign&)>;
/// Custom objective vector: one value per objective, all minimized. Must be
/// thread-safe.
using MultiFitnessFn =
    std::function<std::vector<double>(const lock::LockedDesign&)>;

struct EvalPipelineConfig {
  /// Registry names of the attacks to run per evaluation. The scalar
  /// fitness is 1 - mean(accuracy); the objective vector has one entry
  /// (accuracy, minimized) per attack. Ignored when an override is set.
  std::vector<std::string> attacks = {"structural"};
  /// Forwarded to every attack factory. `oracle` is filled with the
  /// pipeline's original netlist automatically when left null.
  AttackOptions attack_options;

  /// Weight of the wrong-key corruption term added to the scalar fitness
  /// (0 = attack accuracy only, the paper's behaviour).
  double corruption_weight = 0.0;
  /// Total (wrong key, vector) probe budget per corruption estimate: the
  /// budget is spread over 64 wrong keys (one per bit lane of a KeyBatch),
  /// each probed on max(1, corruption_vectors / 64) shared random vectors
  /// via Simulator::key_error_rates.
  std::size_t corruption_vectors = 256;
  /// Append `1 - min(corruption, 0.5) / 0.5` as an extra minimized
  /// objective (multi-objective runs only).
  bool corruption_objective = false;

  /// Worker threads for population batches: 0 = hardware concurrency,
  /// 1 = sequential. Ignored when `pool` is set.
  std::size_t threads = 1;
  /// Borrowed external pool (not owned; must outlive the pipeline).
  util::ThreadPool* pool = nullptr;

  /// Disable to force one attack run per evaluate call (single-trajectory
  /// heuristics count proposals, not unique genotypes).
  bool cache = true;

  /// Base seed for decode-time gene repair (XORed with the per-genotype
  /// repair seed and a fixed salt); optimizers pass their own seed so runs
  /// stay reproducible.
  std::uint64_t seed = 0;

  /// Custom scalar fitness; replaces the attack list.
  FitnessFn fitness_override;
  /// Custom objective vector; replaces the attack list.
  MultiFitnessFn objectives_override;
  /// Declared arity of objectives_override (0 = unchecked).
  std::size_t objectives_override_arity = 0;
};

class EvalWorkspace;

class EvalPipeline {
 public:
  /// `original` must outlive the pipeline.
  explicit EvalPipeline(const netlist::Netlist& original,
                        EvalPipelineConfig config = {});
  /// A pipeline over `sibling`'s original that shares its SiteContext and
  /// oracle simulator instead of building its own. Both are read-only once
  /// built (all scratch lives in workspaces), so pipelines on different
  /// threads may share them; attacks, workspaces, caches and the pool stay
  /// per pipeline.
  EvalPipeline(const EvalPipeline& sibling, EvalPipelineConfig config);
  ~EvalPipeline();

  EvalPipeline(const EvalPipeline&) = delete;
  EvalPipeline& operator=(const EvalPipeline&) = delete;

  const netlist::Netlist& original() const noexcept { return *original_; }
  const lock::SiteContext& context() const noexcept { return *context_; }
  /// The simulator bound to the original that corruption measurements
  /// compare against.
  const netlist::Simulator& oracle() const noexcept { return *oracle_sim_; }
  const EvalPipelineConfig& config() const noexcept { return config_; }
  /// Objective count of the multi-objective path.
  std::size_t num_objectives() const noexcept;

  /// Decodes a genotype (with deterministic gene repair) into a locked
  /// netlist, exactly as the batch evaluators do internally.
  lock::LockedDesign decode(const ga::Genotype& genes,
                            std::uint64_t repair_seed = 0) const;

  /// Buffer-reusing decode into `workspace.design` — the same design
  /// decode() returns, without the per-call netlist and visited-set
  /// allocations.
  void decode_into(EvalWorkspace& workspace, const ga::Genotype& genes,
                   std::uint64_t repair_seed = 0) const;

  // ---- scoring an already-decoded design (no cache) ----------------------

  /// Scalar fitness of a design: 1 - mean accuracy (+ corruption term).
  /// The attacks and the corruption measurement run through `workspace`'s
  /// scratch state, or through a call-local EvalWorkspace when it is null
  /// (identical results either way).
  ga::Evaluation score(const lock::LockedDesign& design,
                       EvalWorkspace* workspace = nullptr) const;
  /// Objective vector of a design: per-attack accuracy (+ corruption).
  std::vector<double> score_objectives(
      const lock::LockedDesign& design,
      EvalWorkspace* workspace = nullptr) const;
  /// Mean wrong-key output corruption against the shared oracle simulator,
  /// over 64 wrong keys (lane 0 = all bits flipped, the historical
  /// single-key proxy; the rest uniform random) probed on shared random
  /// vectors through Simulator::key_error_rates. The key and vector streams
  /// mix the configured seed and are forked independently (keys first), so
  /// distinct pipeline seeds probe distinct sets, equal seeds reproduce
  /// exactly, and the key draws never shift the vector draws.
  double corruption(const lock::LockedDesign& design,
                    EvalWorkspace* workspace = nullptr) const;

  // ---- cached genotype evaluation ----------------------------------------

  /// Decode + score one genotype; repaired genes are written back. Cache
  /// lookups use the pre-repair genes; results are stored under BOTH the
  /// pre-repair and the repaired genes, so a later duplicate of the
  /// original (unrepaired) genotype still hits. Not safe for concurrent
  /// callers — parallelism belongs inside evaluate_population, which fans
  /// one batch out over the pool.
  ga::Evaluation evaluate(ga::Genotype& genes, std::uint64_t repair_seed = 0);

  /// The workspace evaluate() decodes and scores through (also shard 0 of
  /// the batch path). Between evaluations callers may run their own attacks
  /// through it (attack results never depend on workspace state) or move
  /// its decoded design out (the next decode rebuilds it); never while this
  /// pipeline is evaluating.
  EvalWorkspace& workspace();

  struct BatchStats {
    std::size_t cache_hits = 0;
    std::size_t evaluated = 0;  // attack/fitness invocations (cache misses)
    /// (wrong key, vector) corruption probes sampled during this batch.
    std::size_t corruption_probes = 0;
    /// Passes over a netlist those probes cost: the estimator's four-column
    /// passes over each design plus uncached oracle reference sweeps.
    std::size_t corruption_sweeps = 0;
  };

  /// Evaluates a GA population in parallel (thread pool permitting).
  /// Individuals hitting the cache keep their genes; misses are decoded
  /// (genes repaired in place) and scored.
  ///
  /// Concurrency contract: one batch fans out over the worker pool
  /// internally, but distinct batches on the SAME pipeline must be
  /// serialized by the caller — the per-shard workspaces (and the
  /// workspace pool growth in ensure_workspaces) are not guarded against
  /// two simultaneous batches. Every optimizer in core/ calls this from
  /// its single driver thread. Callers that run whole optimizer jobs in
  /// parallel give each pool shard its own pool-less pipeline instead (as
  /// campaign::run does): the batches then run sequentially on the shard,
  /// and no fan-out nests inside another on the same pool.
  BatchStats evaluate_population(std::vector<ga::Individual>& population,
                                 std::size_t generation);

  /// Multi-objective batch: only individuals with empty `objectives` are
  /// (re)evaluated, mirroring NSGA-II's carry-over of survivors.
  BatchStats evaluate_population(std::vector<ga::MoIndividual>& population,
                                 std::size_t generation);

  /// Total attack/fitness invocations since construction (cache misses).
  std::size_t evaluations() const noexcept { return evaluations_.load(); }
  /// Total cache hits since construction.
  std::size_t cache_hits() const noexcept { return cache_hits_.load(); }
  /// Total (wrong key, vector) corruption probes since construction.
  std::size_t corruption_probes() const noexcept {
    return corruption_probes_.load();
  }
  /// Total passes over a netlist those probes cost (estimator passes plus
  /// oracle reference sweeps, which are cached per netlist size, so a
  /// population batch pays them once).
  std::size_t corruption_sweeps() const noexcept {
    return corruption_sweeps_.load();
  }
  void clear_cache();

 private:
  util::ThreadPool* worker_pool();
  static std::uint64_t batch_repair_seed(std::size_t generation,
                                         std::size_t index);
  void check_objective_arity(const std::vector<double>& objectives) const;
  /// Grows the per-shard workspace pool to at least `count` entries. Must
  /// not race with a running batch (callers invoke it before fan-out).
  void ensure_workspaces(std::size_t count);

  /// Shared batch protocol behind both evaluate_population overloads:
  /// cache scan -> (sharded) decode + compute for the misses ->
  /// deterministic sequential cache stores under pre-repair and repaired
  /// keys. `needs_eval(ind)` filters carried-over survivors, `result_of
  /// (ind)` yields the slot the cached/computed Value lands in, and
  /// `compute(design, workspace*)` scores one decoded design.
  template <typename Individual, typename Value, typename NeedsEval,
            typename ResultOf, typename Compute>
  BatchStats evaluate_batch(std::vector<Individual>& population,
                            std::size_t generation, FitnessCache<Value>& cache,
                            NeedsEval needs_eval, ResultOf result_of,
                            Compute compute);

  /// Cached oracle response blocks for one corruption vector stream. The
  /// stream is a pure function of (config seed, netlist size), so every
  /// same-size design in a population batch shares one entry — the oracle
  /// reference sweeps are paid once per batch, not once per individual.
  struct OracleBlocks {
    std::vector<std::uint64_t> in_words;
    std::vector<std::uint64_t> ref_words;
  };
  /// Returns (filling on first use) the oracle blocks for `vectors` vectors
  /// drawn from `vec_rng`'s stream. Thread-safe; entries are immutable once
  /// filled, so the returned reference stays valid across the map's growth.
  const OracleBlocks& oracle_blocks(std::size_t netlist_size,
                                    std::size_t vectors,
                                    util::Rng vec_rng) const;

  /// Builds the attacks (the constructors' shared part).
  void init_attacks();

  const netlist::Netlist* original_;
  std::shared_ptr<const lock::SiteContext> context_;
  std::shared_ptr<const netlist::Simulator> oracle_sim_;
  EvalPipelineConfig config_;
  std::vector<std::unique_ptr<Attack>> attacks_;
  std::unique_ptr<util::ThreadPool> owned_pool_;
  std::vector<std::unique_ptr<EvalWorkspace>> workspaces_;
  FitnessCache<ga::Evaluation> scalar_cache_;
  FitnessCache<std::vector<double>> objective_cache_;
  std::atomic<std::size_t> evaluations_{0};
  std::atomic<std::size_t> cache_hits_{0};
  mutable std::atomic<std::size_t> corruption_probes_{0};
  mutable std::atomic<std::size_t> corruption_sweeps_{0};
  mutable std::mutex oracle_mutex_;
  mutable std::unordered_map<std::uint64_t, OracleBlocks> oracle_blocks_;
};

}  // namespace autolock::eval
