#include "locking/verify.hpp"

#include <stdexcept>

#include "netlist/simulator.hpp"
#include "sat/cnf.hpp"

namespace autolock::lock {

using netlist::Key;
using netlist::Simulator;

bool verify_unlocks(const LockedDesign& design,
                    const netlist::Netlist& original, VerifyMode mode,
                    std::size_t vectors, std::uint64_t seed) {
  if (mode == VerifyMode::kSat) {
    return sat::check_unlocks(design.netlist, design.key, original);
  }
  util::Rng rng(seed);
  const Simulator locked_sim(design.netlist);
  const Simulator original_sim(original);
  return Simulator::equivalent_on_random_vectors(locked_sim, design.key,
                                                 original_sim, Key{}, vectors,
                                                 rng);
}

CorruptionReport measure_corruption(const LockedDesign& design,
                                    const netlist::Netlist& original,
                                    std::size_t key_trials,
                                    std::size_t vectors, std::uint64_t seed) {
  const Simulator original_sim(original);
  Simulator locked_sim;
  netlist::SimScratch scratch;
  netlist::KeyBatch batch;
  std::vector<double> errors;
  return measure_corruption(design, original_sim,
                            {locked_sim, scratch, batch, errors}, key_trials,
                            vectors, seed);
}

CorruptionReport measure_corruption(const LockedDesign& design,
                                    const Simulator& original_sim,
                                    const CorruptionState& state,
                                    std::size_t key_trials,
                                    std::size_t vectors, std::uint64_t seed) {
  util::Rng rng(seed);
  // Draw-order contract: the key stream and the vector stream are forked
  // independently (keys first), so rejection redraws while sampling wrong
  // keys never shift the vector draws — and a ragged (< 64 key) final batch
  // consumes exactly the same vector stream as a full one.
  util::Rng key_rng = rng.fork();
  util::Rng vec_rng = rng.fork();

  CorruptionReport report;
  if (design.key.empty() || key_trials == 0) return report;
  if (vectors == 0) {
    // Zero vectors would count every wrong key as silent: refuse instead.
    throw std::invalid_argument(
        "measure_corruption: wrong keys to probe but zero vectors");
  }
  const netlist::Netlist& original = original_sim.netlist();
  if (design.netlist.primary_inputs().size() !=
          original.primary_inputs().size() ||
      design.netlist.outputs().size() != original.outputs().size()) {
    throw std::invalid_argument("measure_corruption: interface mismatch");
  }
  state.locked_sim.rebind(design.netlist);

  netlist::KeyBatch& batch = state.batch;
  std::vector<std::uint64_t> in_words, ref_words;
  Key wrong = design.key;
  double sum = 0.0;
  bool first = true;
  std::size_t remaining = key_trials;
  while (remaining > 0) {
    // Up to 64 wrong keys share one batch of `vectors` random vectors.
    const std::size_t take = remaining < 64 ? remaining : 64;
    batch.reset(design.key.size());
    for (std::size_t t = 0; t < take; ++t) {
      // Draw a uniformly random key != the correct key (flip >= 1 bit).
      bool differs = false;
      while (!differs) {
        for (std::size_t b = 0; b < wrong.size(); ++b) {
          wrong[b] = key_rng.next_bool();
          differs = differs || (wrong[b] != design.key[b]);
        }
      }
      batch.push(wrong);
    }
    Simulator::draw_reference_blocks(original_sim, Key{}, vectors, vec_rng,
                                     state.scratch, in_words, ref_words);
    Simulator::key_error_rates(state.locked_sim, batch, in_words, ref_words,
                               vectors, state.scratch, state.errors);
    for (const double err : state.errors) {
      sum += err;
      if (first) {
        report.min_error_rate = report.max_error_rate = err;
        first = false;
      } else {
        report.min_error_rate = std::min(report.min_error_rate, err);
        report.max_error_rate = std::max(report.max_error_rate, err);
      }
      if (err == 0.0) report.silent_wrong_keys += 1.0;
    }
    remaining -= take;
  }
  report.keys_sampled = key_trials;
  report.mean_error_rate = sum / static_cast<double>(key_trials);
  report.silent_wrong_keys /= static_cast<double>(key_trials);
  return report;
}

}  // namespace autolock::lock
