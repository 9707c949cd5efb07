// Locking verification and corruption metrics.
//
// Every locked design produced in this repo is expected to satisfy:
//   correct key  -> locked netlist ≡ original   (functional preservation)
//   wrong keys   -> observable output corruption (security requirement)
//
// Both checks cost what the lock changed rather than what the circuit is.
// The proof (sat::check_unlocks) hashes only the decode's difference to the
// original. The corruption measurement sweeps the steps no key input
// reaches once per input block and re-evaluates only the key-dependent
// ones per wrong key (Simulator::key_error_rates), through simulators the
// caller can keep across designs.
#pragma once

#include <cstdint>
#include <vector>

#include "locking/mux_lock.hpp"
#include "netlist/netlist.hpp"
#include "netlist/simulator.hpp"
#include "util/rng.hpp"

namespace autolock::lock {

enum class VerifyMode {
  kSimulation,  // random-vector screening (fast, probabilistic)
  kSat,         // strashed SAT miter proof (sat::check_unlocks)
};

/// True iff the locked netlist under its correct key matches the original.
/// The default is a proof (sat::check_unlocks, which proves a decoded
/// design from its decode delta); `vectors` and `seed` apply to kSimulation
/// only, which throws std::invalid_argument on zero vectors.
bool verify_unlocks(const LockedDesign& design,
                    const netlist::Netlist& original,
                    VerifyMode mode = VerifyMode::kSat,
                    std::size_t vectors = 2048, std::uint64_t seed = 7);

struct CorruptionReport {
  /// Mean output-bit error rate over sampled wrong keys (0.5 = maximally
  /// corrupting, 0 = wrong keys do nothing — a broken locking).
  double mean_error_rate = 0.0;
  double min_error_rate = 0.0;
  double max_error_rate = 0.0;
  /// Fraction of sampled wrong keys producing *no* observable corruption.
  double silent_wrong_keys = 0.0;
  std::size_t keys_sampled = 0;
};

/// Samples `key_trials` uniformly random wrong keys and measures output
/// corruption vs the original on `vectors` random input vectors. Keys are
/// probed in batches of up to 64 that share one vector set, through
/// Simulator::key_error_rates; the key and vector RNG streams are forked
/// from `seed` independently, so the key count never shifts the vector
/// draws. Throws std::invalid_argument when wrong keys are to be probed on
/// zero vectors; a keyless design or zero `key_trials` returns the empty
/// report (keys_sampled == 0).
CorruptionReport measure_corruption(const LockedDesign& design,
                                    const netlist::Netlist& original,
                                    std::size_t key_trials = 32,
                                    std::size_t vectors = 512,
                                    std::uint64_t seed = 11);

/// The working state measure_corruption runs through; a worker keeps one
/// of each across designs (eval::EvalWorkspace does).
struct CorruptionState {
  /// Rebound to the design under test (a no-op when it already is).
  netlist::Simulator& locked_sim;
  netlist::SimScratch& scratch;
  netlist::KeyBatch& batch;
  std::vector<double>& errors;
};

/// measure_corruption against `original_sim`, a simulator bound to the
/// original, through `state`: the same report as the form above, which
/// builds both simulators and the state per call.
CorruptionReport measure_corruption(const LockedDesign& design,
                                    const netlist::Simulator& original_sim,
                                    const CorruptionState& state,
                                    std::size_t key_trials,
                                    std::size_t vectors, std::uint64_t seed);

}  // namespace autolock::lock
