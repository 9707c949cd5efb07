#include "support/simulation.hpp"

#include <bit>
#include <cstdint>
#include <stdexcept>

namespace autolock::test_support {

using netlist::Key;
using netlist::SimScratch;
using netlist::Simulator;

namespace {

std::size_t primary_input_count(const Simulator& sim) {
  return sim.netlist().primary_inputs().size();
}

std::size_t output_count(const Simulator& sim) {
  return sim.netlist().outputs().size();
}

}  // namespace

double output_error_rate(const Simulator& dut, const Key& dut_key,
                         const Simulator& reference, const Key& reference_key,
                         std::size_t vectors, util::Rng& rng) {
  SimScratch scratch;
  return output_error_rate(dut, dut_key, reference, reference_key, vectors,
                           rng, scratch);
}

double output_error_rate(const Simulator& dut, const Key& dut_key,
                         const Simulator& reference, const Key& reference_key,
                         std::size_t vectors, util::Rng& rng,
                         SimScratch& scratch) {
  if (primary_input_count(dut) != primary_input_count(reference) ||
      output_count(dut) != output_count(reference)) {
    throw std::invalid_argument("output_error_rate: interface mismatch");
  }
  if (vectors == 0) return 0.0;
  const std::size_t words = (vectors + 63) / 64;
  std::size_t diff_bits = 0;
  std::vector<std::uint64_t>& in = scratch.in;
  in.resize(primary_input_count(dut));
  for (std::size_t w = 0; w < words; ++w) {
    for (auto& word : in) word = rng();
    dut.run_word_into(in, dut_key, scratch, scratch.out_a);
    reference.run_word_into(in, reference_key, scratch, scratch.out_b);
    // Only the first `vectors` lanes count.
    const std::size_t remaining = vectors - w * 64;
    const std::uint64_t valid =
        remaining >= 64 ? ~0ULL : ((1ULL << remaining) - 1ULL);
    for (std::size_t o = 0; o < scratch.out_a.size(); ++o) {
      diff_bits += static_cast<std::size_t>(
          std::popcount((scratch.out_a[o] ^ scratch.out_b[o]) & valid));
    }
  }
  const double total = static_cast<double>(vectors) *
                       static_cast<double>(output_count(dut));
  return static_cast<double>(diff_bits) / total;
}

bool equivalent_exhaustive(const Simulator& a, const Key& a_key,
                           const Simulator& b, const Key& b_key) {
  const std::size_t n = primary_input_count(a);
  if (n != primary_input_count(b) || output_count(a) != output_count(b)) {
    return false;
  }
  if (n > 24) {
    throw std::invalid_argument("equivalent_exhaustive: too many inputs");
  }
  const std::uint64_t total = 1ULL << n;
  SimScratch scratch;
  scratch.in.resize(n);
  for (std::uint64_t base = 0; base < total; base += 64) {
    // Vector (base + i) occupies bit i of the word.
    for (std::size_t bit = 0; bit < n; ++bit) {
      std::uint64_t word = 0;
      for (std::uint64_t i = 0; i < 64 && base + i < total; ++i) {
        if (((base + i) >> bit) & 1ULL) word |= (1ULL << i);
      }
      scratch.in[bit] = word;
    }
    const std::uint64_t valid =
        (total - base >= 64) ? ~0ULL : ((1ULL << (total - base)) - 1);
    a.run_word_into(scratch.in, a_key, scratch, scratch.out_a);
    b.run_word_into(scratch.in, b_key, scratch, scratch.out_b);
    for (std::size_t o = 0; o < scratch.out_a.size(); ++o) {
      if (((scratch.out_a[o] ^ scratch.out_b[o]) & valid) != 0) return false;
    }
  }
  return true;
}

}  // namespace autolock::test_support
