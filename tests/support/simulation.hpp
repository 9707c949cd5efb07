// Reference simulation oracles for the tests: a per-key output error rate
// and exhaustive equivalence, both built on Simulator::run_word_into. The
// library's estimator (Simulator::key_error_rates) and screens are pinned
// against them.
#pragma once

#include <cstddef>

#include "netlist/simulator.hpp"
#include "util/rng.hpp"

namespace autolock::test_support {

/// Draws `vectors` random input vectors and returns the fraction of
/// (vector, output) pairs on which `dut` under `dut_key` differs from
/// `reference` under `reference_key`. Exactly `vectors` lanes count: the
/// final word is masked when `vectors` is not a multiple of 64 (the rng
/// still draws one word per primary input per 64-vector block, the stream
/// Simulator::draw_reference_blocks consumes). Both netlists must have
/// identical primary-input and output counts (std::invalid_argument
/// otherwise).
double output_error_rate(const netlist::Simulator& dut,
                         const netlist::Key& dut_key,
                         const netlist::Simulator& reference,
                         const netlist::Key& reference_key,
                         std::size_t vectors, util::Rng& rng);

/// The same, with every working buffer taken from `scratch`.
double output_error_rate(const netlist::Simulator& dut,
                         const netlist::Key& dut_key,
                         const netlist::Simulator& reference,
                         const netlist::Key& reference_key,
                         std::size_t vectors, util::Rng& rng,
                         netlist::SimScratch& scratch);

/// Equivalence over all input vectors: false on an interface mismatch;
/// throws std::invalid_argument above 24 primary inputs (2^24 vectors).
bool equivalent_exhaustive(const netlist::Simulator& a,
                           const netlist::Key& a_key,
                           const netlist::Simulator& b,
                           const netlist::Key& b_key);

}  // namespace autolock::test_support
