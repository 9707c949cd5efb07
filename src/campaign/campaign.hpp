// Scenario-matrix campaign runner + differential correctness harness.
//
// The repo's binaries historically exercised one (scheme, attack, circuit)
// combination per hand-written main(). A campaign declares the whole matrix
//
//     scheme (dmux / rll / antisat / compound)
//   x attack (every AttackRegistry entry)
//   x circuit (ISCAS profiles, synth100k)
//   x optimizer (ga / nsga2 / hillclimb / random)
//
// and runs it as one sweep. Per circuit the runner gives each ThreadPool
// shard one pool-less EvalPipeline (SiteContext, oracle simulator, warm
// EvalWorkspace). The lock jobs (circuit x scheme x optimizer) fan out on
// the pool, each evolving a genotype on its shard's pipeline with the
// population batches run sequentially; then the circuit's attack cells fan
// out the same way, each through its shard pipeline's workspace. Every
// cell runs lock -> decode -> attack -> verify:
//
//   - correct-key equivalence: a proof that the decoded design
//     under its correct key matches the original (sat::check_unlocks);
//   - key-layout round trip: key_layout(genes) covers exactly the decoded
//     key, slot kinds match the owning genes, and the netlist's key-input
//     count agrees;
//   - attack-report sanity: every fractional field in [0, 1], key_bits
//     matching the design, key_recovered only with perfect accuracy;
//   - determinism: the attack re-run through the same workspace must
//     reproduce the report field-for-field.
//
// so the matrix is simultaneously the scenario report and a differential
// test suite over the decode/eval fast paths.
//
// Determinism contract: every stochastic stream a cell consumes is derived
// by FNV-1a hashing of the AXIS NAMES (circuit, scheme, optimizer, attack)
// mixed with the campaign seed — never from enumeration order. Two seeded
// runs produce byte-identical to_json(result) output (pinned by
// tests/test_campaign.cpp), independent of the thread count, and a --quick
// subset reproduces exactly the cells a full matrix produces for the same
// axes — which is what lets CI hard-diff a quick run against the committed
// full BENCH_bench_campaign.json instead of eyeballing noisy deltas. Wall
// times are deliberately OUTSIDE the deterministic report (to_json only
// includes them on request; the pinned files never do).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "attacks/muxlink.hpp"
#include "eval/attack.hpp"
#include "locking/gene.hpp"

namespace autolock::campaign {

/// One scheme column of the matrix: a name and the genotype shape its lock
/// jobs evolve (see locking/gene.hpp — mux/rll/antisat counts).
struct SchemeAxis {
  std::string name;
  lock::GenotypeSpec spec;
};

/// One circuit row of the matrix. Empty `attacks` / `optimizers` inherit the
/// campaign-level axes; non-empty lists restrict them (e.g. synth100k runs
/// only the attacks that are tractable at 100k gates).
struct CircuitAxis {
  std::string name;  // ProfileId name ("c432") or scale profile ("synth100k")
  std::vector<std::string> attacks;
  std::vector<std::string> optimizers;
};

/// Search budgets for the optimizer axis. Campaign cells compare scenarios,
/// not convergence curves, so the defaults are deliberately small.
struct OptimizerBudget {
  std::size_t ga_population = 6;
  std::size_t ga_generations = 2;
  std::size_t nsga2_population = 8;
  std::size_t nsga2_generations = 2;
  /// Evaluation budget for hillclimb / random search.
  std::size_t heuristic_evaluations = 8;
};

struct CampaignSpec {
  std::string name = "campaign";
  std::vector<CircuitAxis> circuits;
  std::vector<SchemeAxis> schemes;
  /// Attacks each evolved lock is swept with (default: every registry name).
  std::vector<std::string> attacks;
  /// Optimizer axis; recognized names: "ga", "nsga2", "hillclimb", "random".
  std::vector<std::string> optimizers = {"ga", "nsga2", "hillclimb", "random"};
  /// Evolution-time fitness attack mix (cheap; the full sweep above is what
  /// the report scores).
  std::vector<std::string> fitness_attacks = {"structural", "scope"};
  OptimizerBudget budget;

  std::uint64_t seed = 1;
  /// Worker threads the lock jobs and then the attack cells of each
  /// circuit fan out over: 0 = hardware concurrency, 1 = sequential. The
  /// report is identical either way.
  std::size_t threads = 1;

  // ---- verification stage -------------------------------------------------
  /// Proof of correct-key equivalence per lock job (sat::check_unlocks).
  bool verify_equivalence = true;
  /// Above this original-gate count the equivalence check falls back from
  /// the proof to seeded random-vector simulation (lock::verify_unlocks).
  /// The strashed checker merges every correct-key output without a SAT
  /// call, so the default proves every row up to synth1m; the fallback
  /// stays only until the traced replay that reads this field is gone.
  /// Both verdicts are deterministic, so the report stays byte-stable.
  std::size_t sat_equivalence_gate_limit = 2000000;
  /// Re-run every attack and require a field-identical report.
  bool verify_determinism = true;
  /// Wrong keys / shared vectors for the corruption measurement per lock.
  std::size_t corruption_keys = 16;
  std::size_t corruption_vectors = 128;

  // ---- attack knobs -------------------------------------------------------
  /// MuxLink preset for the sweep (campaign default is the fast in-loop
  /// shape; raise for a thorough overnight matrix).
  attack::MuxLinkConfig muxlink;
  /// DIP-iteration cap for the "sat" sweep cells (0 = unlimited).
  std::size_t sat_max_iterations = 256;
};

/// The verification stage's verdict for one cell. `failure` holds the first
/// violated invariant (empty = cell passed); the booleans record which
/// stages ran and what they concluded.
struct CellVerification {
  bool equivalence_checked = false;
  bool correct_key_equivalent = false;
  bool key_layout_ok = false;
  bool report_sane = false;
  bool determinism_checked = false;
  bool deterministic = false;
  std::string failure;

  bool passed() const noexcept { return failure.empty(); }
};

/// One lock job: the evolved locking of (circuit, scheme, optimizer),
/// shared by that job's attack cells.
struct LockResult {
  std::string circuit;
  std::string scheme;
  std::string optimizer;
  std::size_t key_bits = 0;
  std::size_t genes = 0;
  std::size_t original_gates = 0;
  std::size_t locked_gates = 0;
  /// Optimizer's scalar fitness of the winning genotype (1 - mean
  /// fitness-attack accuracy; NSGA-II reports 1 - mean objective).
  double fitness = 0.0;
  std::size_t optimizer_evaluations = 0;
  /// Wrong-key corruption vs the original (lock::measure_corruption).
  double corruption_mean = 0.0;
  double corruption_min = 0.0;
  double silent_wrong_keys = 0.0;
  /// SAT correct-key equivalence verdict (also folded into each cell).
  bool equivalence_checked = false;
  bool correct_key_equivalent = false;
  bool key_layout_ok = false;
  // Wall times; never part of the deterministic report.
  double lock_seconds = 0.0;
  double verify_seconds = 0.0;
};

/// One matrix cell: attack `attack` against lock job (circuit, scheme,
/// optimizer).
struct CellResult {
  std::string circuit;
  std::string scheme;
  std::string optimizer;
  std::string attack;
  std::size_t key_bits = 0;
  double accuracy = 0.0;
  double precision = 0.0;
  double attacked_fraction = 0.0;
  double key_recovery = 0.0;
  bool key_recovered = false;
  /// The paper's headline per-cell metric: 1 - attack accuracy.
  double resilience = 0.0;
  CellVerification verification;
  // Wall time; never part of the deterministic report.
  double attack_seconds = 0.0;
};

struct CampaignResult {
  CampaignSpec spec;  // axes resolved (attacks defaulted from the registry)
  std::vector<LockResult> locks;  // circuit-major, then scheme, optimizer
  std::vector<CellResult> cells;  // lock order, then attack order
  std::size_t cells_passed = 0;
  double total_seconds = 0.0;

  bool all_passed() const noexcept { return cells_passed == cells.size(); }
};

/// The four built-in scheme columns: dmux (MUX pairs only), rll (XOR/XNOR
/// gates only), antisat (one block, 2*width bits), compound (a mix).
/// `mux_key_bits` sizes the MUX-backed schemes; the others are sized to
/// comparable key lengths.
std::vector<SchemeAxis> default_schemes(std::size_t mux_key_bits = 8);

/// The tier-1 subset: c432 x 4 schemes x all attacks x {ga, random}.
/// Small enough for ctest; byte-deterministic (two runs compare equal).
CampaignSpec quick_spec();

/// The full committed matrix: c432 / c880 / c1355 with every attack and
/// optimizer, plus synth100k restricted to the attacks and optimizers that
/// are tractable at 100k gates. Source of BENCH_bench_campaign.json.
CampaignSpec full_spec();

/// Runs the campaign. Throws std::invalid_argument on unknown axis names
/// (circuit, attack, optimizer) before any cell runs.
CampaignResult run(const CampaignSpec& spec);

/// Deterministic JSON serialization (fixed field order, fixed-precision
/// doubles). `include_timings` appends the wall-time section — excluded
/// from the pinned reports because it can never be byte-stable.
std::string to_json(const CampaignResult& result, bool include_timings = false);

/// Markdown summary: one resilience table per circuit (rows = scheme x
/// optimizer, columns = attacks) plus a verification summary line.
std::string to_markdown(const CampaignResult& result);

/// The attack-report sanity invariants the verification stage enforces,
/// exposed for direct unit testing: returns the first violated invariant as
/// text, or an empty string when the report is sane for a `key_bits`-bit
/// design.
std::string check_report_invariants(const eval::AttackReport& report,
                                    std::size_t key_bits);

/// The per-cell seed derivation (FNV-1a over axis names mixed with the
/// campaign seed): exposed so tests can pin that streams depend on names,
/// not on enumeration order.
std::uint64_t axis_seed(std::uint64_t campaign_seed,
                        std::string_view circuit, std::string_view scheme,
                        std::string_view optimizer,
                        std::string_view attack = {});

}  // namespace autolock::campaign
