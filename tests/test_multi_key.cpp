// Simulator::key_error_rates is a pure performance path: every rate it
// reports must be bit-identical to the single-key (lanes = input patterns)
// machinery probing the same keys on the same vectors, in both of its
// orientations (keys in lanes, vectors in lanes) and at the tie between
// them. These tests pin that equivalence — full and ragged key batches,
// column counts that are not a multiple of four, the shared draw-order
// contract, and the exact tail accounting when `vectors` is not a multiple
// of 64 — plus measure_corruption's budget guards and pinned reports.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <stdexcept>
#include <string>
#include <vector>

#include "locking/antisat.hpp"
#include "locking/mux_lock.hpp"
#include "locking/verify.hpp"
#include "netlist/generator.hpp"
#include "netlist/simulator.hpp"
#include "support/simulation.hpp"
#include "util/rng.hpp"

namespace autolock {
namespace {

using netlist::Key;
using netlist::KeyBatch;
using netlist::Netlist;
using netlist::Simulator;
using netlist::SimScratch;

Key random_key(std::size_t bits, util::Rng& rng) {
  Key key(bits);
  for (std::size_t b = 0; b < bits; ++b) key[b] = rng.next_bool();
  return key;
}

KeyBatch batch_of(const std::vector<Key>& keys, std::size_t key_bits) {
  KeyBatch batch;
  batch.reset(key_bits);
  for (const Key& key : keys) batch.push(key);
  return batch;
}

// ---- key_error_rates vs a scalar recount of single-vector runs ------------

// One vector (keys in lanes for every batch above one key): each key's rate
// must be its mismatching-output count from run_single over the output
// count, for full and ragged batches.
void expect_rates_match_single_vector_runs(std::size_t batch_size) {
  const Netlist original =
      netlist::gen::make_profile(netlist::gen::ProfileId::kC432, 11);
  const auto design = lock::dmux_lock(original, 16, 5);
  const Simulator locked(design.netlist);
  const Simulator reference(original);
  util::Rng rng(0x9876 + batch_size);

  std::vector<Key> keys;
  for (std::size_t k = 0; k < batch_size; ++k) {
    keys.push_back(random_key(design.key.size(), rng));
  }
  const KeyBatch batch = batch_of(keys, design.key.size());
  ASSERT_EQ(batch.size(), batch_size);

  SimScratch scratch;
  std::vector<std::uint64_t> in_words, ref_words;
  std::vector<double> rates;
  util::Rng vec_rng(0x4321 + batch_size);
  Simulator::draw_reference_blocks(reference, Key{}, 1, vec_rng, scratch,
                                   in_words, ref_words);
  EXPECT_EQ(Simulator::key_error_rates(locked, batch, in_words, ref_words, 1,
                                       scratch, rates),
            1u);

  std::vector<bool> vector_bits(in_words.size());
  for (std::size_t i = 0; i < in_words.size(); ++i) {
    vector_bits[i] = (in_words[i] & 1ULL) != 0;
  }
  const std::vector<bool> ref_out = reference.run_single(vector_bits, Key{});
  ASSERT_EQ(rates.size(), batch_size);
  for (std::size_t k = 0; k < batch_size; ++k) {
    const std::vector<bool> out = locked.run_single(vector_bits, keys[k]);
    std::size_t mismatches = 0;
    for (std::size_t o = 0; o < out.size(); ++o) {
      if (out[o] != ref_out[o]) ++mismatches;
    }
    EXPECT_EQ(rates[k], static_cast<double>(mismatches) /
                            static_cast<double>(out.size()))
        << "key lane " << k << " of " << batch_size;
  }
}

TEST(KeyErrorRates, FullBatchMatchesSingleVectorRuns) {
  expect_rates_match_single_vector_runs(64);
}

TEST(KeyErrorRates, RaggedBatchesMatchSingleVectorRuns) {
  expect_rates_match_single_vector_runs(1);
  expect_rates_match_single_vector_runs(7);
  expect_rates_match_single_vector_runs(63);
}

TEST(KeyBatch, GuardsWidthAndCapacity) {
  KeyBatch batch;
  batch.reset(4);
  EXPECT_EQ(batch.lane_mask(), 0ULL);
  batch.push(Key{true, false, true, false});
  EXPECT_EQ(batch.lane_mask(), 1ULL);
  EXPECT_THROW(batch.push(Key{true}), std::invalid_argument);
  for (int k = 1; k < 64; ++k) batch.push(Key{false, true, false, true});
  EXPECT_TRUE(batch.full());
  EXPECT_EQ(batch.lane_mask(), ~0ULL);
  EXPECT_THROW(batch.push(Key{true, true, true, true}), std::invalid_argument);
}

// ---- key_error_rates vs per-key output_error_rate --------------------------

// Both share the draw-order contract (one rng() word per primary input per
// 64-vector block), so seeding identical Rngs must make a per-key
// output_error_rate loop reproduce every key's rate exactly. Returns the
// estimator's pass count.
std::size_t expect_error_rates_match(const Simulator& locked,
                                     const Simulator& reference,
                                     std::size_t batch_size,
                                     std::size_t vectors) {
  const std::size_t key_bits = locked.netlist().key_inputs().size();
  util::Rng key_rng(0x5151 + batch_size + vectors);

  std::vector<Key> keys;
  for (std::size_t k = 0; k < batch_size; ++k) {
    keys.push_back(random_key(key_bits, key_rng));
  }
  const KeyBatch batch = batch_of(keys, key_bits);

  const std::uint64_t vec_seed = 0xFEED + vectors;
  SimScratch scratch;
  std::vector<std::uint64_t> in_words, ref_words;
  std::vector<double> rates;
  util::Rng vec_rng(vec_seed);
  Simulator::draw_reference_blocks(reference, Key{}, vectors, vec_rng, scratch,
                                   in_words, ref_words);
  const std::size_t passes = Simulator::key_error_rates(
      locked, batch, in_words, ref_words, vectors, scratch, rates);
  EXPECT_EQ(rates.size(), batch_size);

  for (std::size_t k = 0; k < rates.size(); ++k) {
    util::Rng per_key_rng(vec_seed);  // same stream as the reference draw
    const double single = test_support::output_error_rate(
        locked, keys[k], reference, Key{}, vectors, per_key_rng, scratch);
    EXPECT_EQ(rates[k], single) << "key " << k << " of " << batch_size
                                << " on " << vectors << " vectors";
  }
  return passes;
}

// The c432 D-MUX design (K=16) most shapes below run on.
std::size_t expect_error_rates_match(std::size_t batch_size,
                                     std::size_t vectors) {
  const Netlist original =
      netlist::gen::make_profile(netlist::gen::ProfileId::kC432, 23);
  const auto design = lock::dmux_lock(original, 16, 7);
  return expect_error_rates_match(Simulator(design.netlist),
                                  Simulator(original), batch_size, vectors);
}

// The estimator takes whichever orientation needs fewer columns:
// keys in lanes needs `vectors`, vectors in lanes keys * ceil(vectors/64),
// evaluated four columns per pass.
TEST(KeyErrorRates, OrientationFollowsTheShape) {
  // Pipeline shape, keys in lanes: 4 columns, one pass.
  EXPECT_EQ(expect_error_rates_match(64, 4), 1u);
  // Campaign shape, vectors in lanes: 16 * 2 = 32 columns.
  EXPECT_EQ(expect_error_rates_match(16, 128), 8u);
  // Keys in lanes, ragged: 63 and 100 columns.
  EXPECT_EQ(expect_error_rates_match(64, 63), 16u);
  EXPECT_EQ(expect_error_rates_match(64, 100), 25u);
  // Vectors in lanes, ragged: 3 * 4 = 12 columns beat 200.
  EXPECT_EQ(expect_error_rates_match(3, 200), 3u);
  // Ties: both orientations need the same columns.
  EXPECT_EQ(expect_error_rates_match(64, 64), 16u);
  EXPECT_EQ(expect_error_rates_match(2, 2), 1u);
  EXPECT_EQ(expect_error_rates_match(1, 1), 1u);
}

TEST(KeyErrorRates, MatchesPerKeyOutputErrorRateOnEveryShape) {
  for (const std::size_t keys : {1, 3, 16, 17, 64}) {
    for (const std::size_t vectors : {1, 4, 63, 64, 100, 128, 200}) {
      const std::size_t blocks = (vectors + 63) / 64;
      const std::size_t columns = std::min(vectors, keys * blocks);
      EXPECT_EQ(expect_error_rates_match(keys, vectors), (columns + 3) / 4)
          << keys << " keys x " << vectors << " vectors";
    }
  }
}

TEST(KeyErrorRates, GuardsWidthAndBlockSizes) {
  const Netlist original =
      netlist::gen::make_profile(netlist::gen::ProfileId::kC432, 23);
  const auto design = lock::dmux_lock(original, 16, 7);
  const Simulator locked(design.netlist);
  const Simulator reference(original);
  SimScratch scratch;
  std::vector<std::uint64_t> in_words, ref_words;
  std::vector<double> rates;
  util::Rng vec_rng(3);
  Simulator::draw_reference_blocks(reference, Key{}, 100, vec_rng, scratch,
                                   in_words, ref_words);

  KeyBatch narrow;
  narrow.reset(design.key.size() - 1);
  narrow.push(Key(design.key.size() - 1, true));
  EXPECT_THROW(Simulator::key_error_rates(locked, narrow, in_words, ref_words,
                                          100, scratch, rates),
               std::invalid_argument);

  const KeyBatch batch = batch_of({Key(design.key.size(), true)},
                                  design.key.size());
  // 100 vectors need two blocks; claiming 200 (four blocks) must throw.
  EXPECT_THROW(Simulator::key_error_rates(locked, batch, in_words, ref_words,
                                          200, scratch, rates),
               std::invalid_argument);
  EXPECT_EQ(Simulator::key_error_rates(locked, batch, {}, {}, 0, scratch,
                                       rates),
            0u);
  EXPECT_EQ(rates, std::vector<double>{0.0});
}

// Key-count independence: the vector stream is a pure function of the seed,
// so a 5-key batch (vectors in lanes) and a 64-key batch (keys in lanes)
// sharing its first 5 keys must report identical rates for those keys.
TEST(KeyErrorRates, RatesIndependentOfBatchSize) {
  const Netlist original =
      netlist::gen::make_profile(netlist::gen::ProfileId::kC432, 31);
  const auto design = lock::dmux_lock(original, 16, 9);
  const Simulator locked(design.netlist);
  const Simulator reference(original);
  util::Rng key_rng(0xABC);

  std::vector<Key> keys;
  for (std::size_t k = 0; k < 64; ++k) {
    keys.push_back(random_key(design.key.size(), key_rng));
  }
  const KeyBatch small = batch_of(
      std::vector<Key>(keys.begin(), keys.begin() + 5), design.key.size());
  const KeyBatch large = batch_of(keys, design.key.size());

  SimScratch scratch;
  std::vector<std::uint64_t> in_words, ref_words;
  std::vector<double> rates_small, rates_large;
  util::Rng vec_rng(0x77);
  Simulator::draw_reference_blocks(reference, Key{}, 96, vec_rng, scratch,
                                   in_words, ref_words);
  EXPECT_EQ(Simulator::key_error_rates(locked, small, in_words, ref_words, 96,
                                       scratch, rates_small),
            3u);  // 5 keys x 2 blocks = 10 columns
  EXPECT_EQ(Simulator::key_error_rates(locked, large, in_words, ref_words, 96,
                                       scratch, rates_large),
            24u);  // 96 vector columns
  ASSERT_EQ(rates_small.size(), 5u);
  ASSERT_EQ(rates_large.size(), 64u);
  for (std::size_t k = 0; k < 5; ++k) EXPECT_EQ(rates_small[k], rates_large[k]);
}

// ---- the split sweep --------------------------------------------------------

// Vectors in lanes, key_error_rates sweeps the key-independent steps once
// per input block and only the key-dependent ones per pass. Every shape
// must still equal the per-key loop: the campaign's (16 keys x 128
// vectors, one block per pass), passes straddling two blocks (3 x 200),
// and keys in lanes (64 x 4), which sweeps everything.
void expect_split_sweep_matches(const Simulator& locked,
                                const Simulator& reference) {
  expect_error_rates_match(locked, reference, 16, 128);
  expect_error_rates_match(locked, reference, 3, 200);
  expect_error_rates_match(locked, reference, 5, 96);
  expect_error_rates_match(locked, reference, 64, 4);
}

/// A keyed circuit in which a key input reaches every gate: each gate
/// reads at least one key input or earlier gate.
Netlist all_key_dependent_circuit(std::uint64_t seed) {
  util::Rng rng(seed);
  Netlist n("all_keyed");
  std::vector<netlist::NodeId> free_inputs;
  std::vector<netlist::NodeId> keyed;
  for (int i = 0; i < 12; ++i) {
    free_inputs.push_back(n.add_input("x" + std::to_string(i)));
  }
  for (int k = 0; k < 6; ++k) {
    keyed.push_back(n.add_input("keyinput" + std::to_string(k), true));
  }
  const netlist::GateType types[] = {
      netlist::GateType::kAnd, netlist::GateType::kNand,
      netlist::GateType::kOr,  netlist::GateType::kNor,
      netlist::GateType::kXor, netlist::GateType::kXnor,
      netlist::GateType::kMux, netlist::GateType::kNot};
  for (int g = 0; g < 300; ++g) {
    const netlist::GateType type = types[rng.next_below(std::size(types))];
    const netlist::Arity arity = netlist::gate_arity(type);
    const std::size_t count =
        arity.max != 0 ? arity.max : 2 + rng.next_below(3);
    std::vector<netlist::NodeId> fanins{keyed[rng.next_below(keyed.size())]};
    while (fanins.size() < count) {
      fanins.push_back(rng.next_bool()
                           ? keyed[rng.next_below(keyed.size())]
                           : free_inputs[rng.next_below(free_inputs.size())]);
    }
    keyed.push_back(n.add_gate(type, std::move(fanins)));
  }
  for (int o = 0; o < 8; ++o) n.mark_output(keyed[keyed.size() - 1 - o]);
  return n;
}

/// The keyless twin of all_key_dependent_circuit(seed) under `key`: the
/// same circuit with the key inputs replaced by constants.
Netlist unkeyed_twin(const Netlist& keyed, const Key& key) {
  Netlist n("twin");
  std::vector<netlist::NodeId> map(keyed.size());
  std::size_t k = 0;
  for (netlist::NodeId v = 0; v < keyed.size(); ++v) {
    const auto& node = keyed.node(v);
    if (node.type == netlist::GateType::kInput) {
      map[v] = node.is_key_input ? n.add_const(key[k++])
                                 : n.add_input(keyed.name(v));
      continue;
    }
    std::vector<netlist::NodeId> fanins;
    for (const netlist::NodeId f : node.fanins) fanins.push_back(map[f]);
    map[v] = n.add_gate(node.type, std::move(fanins));
  }
  for (const auto& port : keyed.outputs()) n.mark_output(map[port.driver]);
  return n;
}

TEST(KeyErrorRates, SplitSweepMatchesOnAFewKeyDependentGates) {
  // An output-spliced Anti-SAT block: its 2n XORs, g1, g2n, b and the mix
  // are all the key reaches.
  const Netlist original =
      netlist::gen::make_profile(netlist::gen::ProfileId::kC432, 23);
  const auto design = lock::antisat_lock(original, {.width = 8}, 3);
  const Simulator locked(design.netlist);
  EXPECT_EQ(locked.key_dependent_steps(), 2u * 8u + 4u);
  expect_split_sweep_matches(locked, Simulator(original));
}

TEST(KeyErrorRates, SplitSweepMatchesWhenEveryGateIsKeyDependent) {
  const Netlist keyed = all_key_dependent_circuit(17);
  const Simulator locked(keyed);
  EXPECT_EQ(locked.key_dependent_steps(), keyed.gate_count());
  const Netlist reference = unkeyed_twin(keyed, Key(6, true));
  expect_split_sweep_matches(locked, Simulator(reference));
}

TEST(KeyErrorRates, SplitSweepMatchesAfterRebindToAnotherDesign) {
  // One simulator slot bound to three designs in turn, as a workspace
  // rebinds it per decoded design, and back to the first.
  const Netlist original =
      netlist::gen::make_profile(netlist::gen::ProfileId::kC432, 23);
  const auto antisat = lock::antisat_lock(original, {.width = 8}, 3);
  const auto dmux = lock::dmux_lock(original, 16, 7);
  const Netlist keyed = all_key_dependent_circuit(29);
  const Netlist twin = unkeyed_twin(keyed, Key(6, false));
  const Simulator reference(original);
  Simulator slot;
  for (const Netlist* design :
       {&antisat.netlist, &keyed, &dmux.netlist, &antisat.netlist}) {
    slot.rebind(*design);
    EXPECT_EQ(slot.key_dependent_steps(),
              Simulator(*design).key_dependent_steps());
    expect_split_sweep_matches(
        slot, design == &keyed ? Simulator(twin) : reference);
  }
}

// ---- tail accounting -------------------------------------------------------

// output_error_rate must count exactly `vectors` lanes: the final partial
// word is masked, and the denominator is vectors * outputs. Verified
// against a scalar per-vector recount of the same masked lanes.
TEST(OutputErrorRate, CountsExactlyTheRequestedVectors) {
  const Netlist original =
      netlist::gen::make_profile(netlist::gen::ProfileId::kC432, 41);
  const auto design = lock::dmux_lock(original, 12, 3);
  const Simulator locked(design.netlist);
  const Simulator reference(original);
  const Key wrong(design.key.size(), false);

  for (const std::size_t vectors :
       {std::size_t{1}, std::size_t{63}, std::size_t{64}, std::size_t{100},
        std::size_t{128}, std::size_t{200}}) {
    SimScratch scratch;
    util::Rng rng(0xD00D);
    const double rate = test_support::output_error_rate(
        locked, wrong, reference, Key{}, vectors, rng, scratch);

    // Recount: replay the identical draw stream (one word per input per
    // block) and compare per masked lane via single-vector runs.
    util::Rng replay(0xD00D);
    const std::size_t inputs = original.primary_inputs().size();
    const std::size_t blocks = (vectors + 63) / 64;
    std::size_t mismatches = 0;
    for (std::size_t b = 0; b < blocks; ++b) {
      std::vector<std::uint64_t> words(inputs);
      for (std::size_t i = 0; i < inputs; ++i) words[i] = replay();
      const std::size_t valid =
          vectors - b * 64 >= 64 ? 64 : vectors - b * 64;
      for (std::size_t v = 0; v < valid; ++v) {
        std::vector<bool> bits(inputs);
        for (std::size_t i = 0; i < inputs; ++i) {
          bits[i] = ((words[i] >> v) & 1ULL) != 0;
        }
        const auto dut_out = locked.run_single(bits, wrong);
        const auto ref_out = reference.run_single(bits, Key{});
        for (std::size_t o = 0; o < ref_out.size(); ++o) {
          if (dut_out[o] != ref_out[o]) ++mismatches;
        }
      }
    }
    const double expected =
        static_cast<double>(mismatches) /
        (static_cast<double>(vectors) *
         static_cast<double>(original.outputs().size()));
    EXPECT_EQ(rate, expected) << vectors << " vectors";
  }
}

// ---- measure_corruption ----------------------------------------------------

TEST(MeasureCorruption, BatchedReportIsDeterministicAndSane) {
  const Netlist original =
      netlist::gen::make_profile(netlist::gen::ProfileId::kC432, 51);
  const auto design = lock::dmux_lock(original, 16, 13);

  const auto a = lock::measure_corruption(design, original, 100, 96, 17);
  const auto b = lock::measure_corruption(design, original, 100, 96, 17);
  EXPECT_EQ(a.mean_error_rate, b.mean_error_rate);
  EXPECT_EQ(a.min_error_rate, b.min_error_rate);
  EXPECT_EQ(a.max_error_rate, b.max_error_rate);
  EXPECT_EQ(a.silent_wrong_keys, b.silent_wrong_keys);
  EXPECT_EQ(a.keys_sampled, 100u);
  EXPECT_GT(a.mean_error_rate, 0.0);
  EXPECT_LE(a.max_error_rate, 1.0);
  EXPECT_GE(a.min_error_rate, 0.0);
  EXPECT_LE(a.min_error_rate, a.mean_error_rate);
  EXPECT_LE(a.mean_error_rate, a.max_error_rate);
}

// A zero budget must not report a silent wrong answer: wrong keys probed on
// zero vectors would all count as silent. Zero key trials and keyless
// designs return the empty report.
TEST(MeasureCorruption, ZeroVectorsThrow) {
  const Netlist original =
      netlist::gen::make_profile(netlist::gen::ProfileId::kC432, 51);
  const auto design = lock::dmux_lock(original, 16, 13);
  EXPECT_THROW(lock::measure_corruption(design, original, 16, 0, 5),
               std::invalid_argument);

  const auto no_keys = lock::measure_corruption(design, original, 0, 0, 5);
  EXPECT_EQ(no_keys.keys_sampled, 0u);
  EXPECT_EQ(no_keys.silent_wrong_keys, 0.0);

  lock::LockedDesign keyless;
  keyless.netlist = original;
  const auto unlocked = lock::measure_corruption(keyless, original, 16, 0, 5);
  EXPECT_EQ(unlocked.keys_sampled, 0u);
  EXPECT_EQ(unlocked.silent_wrong_keys, 0.0);
}

// A screen over zero vectors tests nothing, so it must not report a pass.
TEST(VerifyUnlocks, ZeroVectorScreenThrows) {
  const Netlist original =
      netlist::gen::make_profile(netlist::gen::ProfileId::kC432, 51);
  const auto design = lock::dmux_lock(original, 16, 13);
  EXPECT_THROW(lock::verify_unlocks(design, original,
                                    lock::VerifyMode::kSimulation, 0),
               std::invalid_argument);
  util::Rng rng(1);
  EXPECT_THROW(Simulator::equivalent_on_random_vectors(
                   Simulator(design.netlist), design.key, Simulator(original),
                   Key{}, 0, rng),
               std::invalid_argument);
  EXPECT_TRUE(lock::verify_unlocks(design, original,
                                   lock::VerifyMode::kSimulation, 1));
}

// Pinned reports (c432 D-MUX K=16): the campaign's shape (16 keys x 128
// vectors) and a multi-batch shape (100 keys x 96 vectors). Any change to
// the estimator's orientation or sweep must reproduce them bit for bit.
TEST(MeasureCorruption, PinnedReportsC432) {
  const Netlist original =
      netlist::gen::make_profile(netlist::gen::ProfileId::kC432, 51);
  const auto design = lock::dmux_lock(original, 16, 13);

  const auto wide = lock::measure_corruption(design, original, 100, 96, 17);
  EXPECT_EQ(wide.keys_sampled, 100u);
  EXPECT_EQ(wide.min_error_rate, 0.0);
  EXPECT_EQ(wide.mean_error_rate, 0.10973958333333336);
  EXPECT_EQ(wide.max_error_rate, 0.20182291666666666);
  EXPECT_EQ(wide.silent_wrong_keys, 0.02);

  const auto campaign = lock::measure_corruption(design, original, 16, 128, 5);
  EXPECT_EQ(campaign.keys_sampled, 16u);
  EXPECT_EQ(campaign.min_error_rate, 0.001953125);
  EXPECT_EQ(campaign.mean_error_rate, 0.10308837890625);
  EXPECT_EQ(campaign.max_error_rate, 0.177734375);
  EXPECT_EQ(campaign.silent_wrong_keys, 0.0);
}

}  // namespace
}  // namespace autolock
