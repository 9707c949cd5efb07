#include "attacks/structural.hpp"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "attacks/attack_scratch.hpp"
#include "attacks/muxlink.hpp"
#include "eval/attack.hpp"
#include "locking/antisat.hpp"
#include "locking/mux_lock.hpp"
#include "locking/rll.hpp"
#include "netlist/generator.hpp"
#include "util/rng.hpp"

namespace autolock::attack {
namespace {

using netlist::Netlist;

TEST(Structural, ProducesDecisionForEveryBit) {
  const Netlist original =
      netlist::gen::make_profile(netlist::gen::ProfileId::kC432, 3);
  const auto design = lock::dmux_lock(original, 12, 3);
  const StructuralLinkPredictor attacker;
  const auto result = attacker.attack(design.netlist);
  ASSERT_EQ(result.predicted_bits.size(), 12u);
  for (std::size_t b = 0; b < 12; ++b) {
    EXPECT_TRUE(result.predicted_bits[b] == 0 || result.predicted_bits[b] == 1);
  }
}

TEST(Structural, EmptyOnRll) {
  const Netlist original =
      netlist::gen::make_profile(netlist::gen::ProfileId::kC432, 5);
  const auto design = lock::rll_lock(original, 8, 5);
  const StructuralLinkPredictor attacker;
  EXPECT_TRUE(attacker.attack(design.netlist).predicted_bits.empty());
}

TEST(Structural, CoinFlipScoreOnAntiSatKeyBits) {
  const Netlist original =
      netlist::gen::make_profile(netlist::gen::ProfileId::kC432, 5);
  const auto design = lock::antisat_lock(original, {}, 5);
  const StructuralLinkPredictor attacker;
  const auto report = eval::link_report(
      "structural", attacker.attack(design.netlist), design.key);
  // Anti-SAT key gates carry no MUX hypotheses: the attack must not score
  // on them (the old forced-0 default credited every zero key bit).
  EXPECT_DOUBLE_EQ(report.accuracy, 0.5);
  EXPECT_DOUBLE_EQ(report.attacked_fraction, 0.0);
  EXPECT_DOUBLE_EQ(report.decided_fraction, 0.0);
}

TEST(Structural, MarksCompoundMuxBitsAttacked) {
  const Netlist original =
      netlist::gen::make_profile(netlist::gen::ProfileId::kC880, 5);
  const auto design = lock::compound_lock(original, 8, {}, 5);
  const StructuralLinkPredictor attacker;
  const auto result = attacker.attack(design.netlist);
  ASSERT_EQ(result.bit_attacked.size(), 8u);  // the 8 MUX bits, no anti-SAT
  for (std::size_t b = 0; b < 8; ++b) EXPECT_EQ(result.bit_attacked[b], 1);
  const auto report = eval::link_report("structural", result, design.key);
  EXPECT_DOUBLE_EQ(report.attacked_fraction,
                   8.0 / static_cast<double>(design.key.size()));
}

TEST(Structural, Deterministic) {
  const Netlist original =
      netlist::gen::make_profile(netlist::gen::ProfileId::kC432, 7);
  const auto design = lock::dmux_lock(original, 10, 7);
  const StructuralLinkPredictor attacker;
  EXPECT_EQ(attacker.attack(design.netlist).predicted_bits,
            attacker.attack(design.netlist).predicted_bits);
}

TEST(Structural, TrainingLossDecreases) {
  const Netlist original =
      netlist::gen::make_profile(netlist::gen::ProfileId::kC880, 9);
  const auto design = lock::dmux_lock(original, 16, 9);
  const StructuralLinkPredictor attacker;
  const auto result = attacker.attack(design.netlist);
  EXPECT_LT(result.last_epoch_loss, result.first_epoch_loss);
  EXPECT_GT(result.train_samples, 0u);
}

// The default predictor on c880 D-MUX K = 32, pinned bit for bit: sample
// count, losses, forced decisions and margins. The training-link sampler
// and the key-bit decision loop are shared with MuxLink, so a change here
// means the structural attack's numerics or RNG draw order moved.
TEST(Structural, PinnedDefaultConfigC880) {
  const Netlist original =
      netlist::gen::make_profile(netlist::gen::ProfileId::kC880, 1);
  const auto design = lock::dmux_lock(original, 32, 1);
  const auto result = StructuralLinkPredictor().attack(design.netlist);
  EXPECT_EQ(result.train_samples, 1520u);
  EXPECT_EQ(result.first_epoch_loss, 0.33373004917179933);
  EXPECT_EQ(result.last_epoch_loss, 0.23608433410700069);
  std::string bits;
  for (const int bit : result.predicted_bits) {
    bits += static_cast<char>('0' + bit);
  }
  EXPECT_EQ(bits, "10000110100101000010101011111001");
  const std::vector<double> margins = {
      0.026526526644347681, 0.49531939668241476,  0.46708416044762879,
      0.11598064371814425,  0.41291155966436355,  0.45703389839779918,
      0.076428856877885365, 0.09859414071038386,  0.0078770679446398262,
      0.36297245056657451,  0.0011784315020330616, 0.034428825767241288,
      0.04521788792156789,  0.46283524022772649,  0.03515489661711331,
      0.012824101821672276, 0.0087207247336224467, 0.44284462535171243,
      0.012704368024454031, 0.3405782038463982,   0.017750791494453008,
      0.42139575576766281,  0.0069061676894204664, 0.027290560305925974,
      0.45327717186518779,  0.41646264333670202,  0.41231543930622705,
      0.47205710123186823,  0.1218655247270487,   0.49162679632857642,
      0.1074485537872556,   0.01755536173409758};
  ASSERT_EQ(result.margins.size(), margins.size());
  for (std::size_t b = 0; b < margins.size(); ++b) {
    EXPECT_EQ(result.margins[b], margins[b]) << "bit " << b;
  }
}

TEST(Structural, MuchFasterThanGnnInSpirit) {
  // Not a benchmark — just asserts it completes on a mid-size circuit
  // quickly enough to be usable inside a GA loop (smoke bound).
  const Netlist original =
      netlist::gen::make_profile(netlist::gen::ProfileId::kC1908, 11);
  const auto design = lock::dmux_lock(original, 32, 11);
  const StructuralLinkPredictor attacker;
  const auto report = eval::link_report(
      "structural", attacker.attack(design.netlist), design.key);
  EXPECT_EQ(report.key_bits, 32u);
}

TEST(Structural, AboveChanceOnAverage) {
  // Per-candidate pair features carry a weak (but real) signal: the two
  // MUX candidates are nearly symmetric by construction, so individual
  // decisions hover near chance and only the average over many lockings
  // is reliably above it. (The GNN attack is the strong one; this is the
  // cheap surrogate.) Fixed circuits + varied lock seeds, 8 runs.
  double total = 0.0;
  int runs = 0;
  for (const auto profile :
       {netlist::gen::ProfileId::kC432, netlist::gen::ProfileId::kC880}) {
    const Netlist original = netlist::gen::make_profile(profile, 1);
    for (std::uint64_t lock_seed : {201, 202, 203, 204}) {
      const auto design = lock::dmux_lock(original, 24, lock_seed);
      total += eval::link_report("structural",
                                 StructuralLinkPredictor().attack(design.netlist),
                                 design.key)
                   .accuracy;
      ++runs;
    }
  }
  EXPECT_GT(total / runs, 0.5);
}

// ---- sample_training_links: the positives' draw ----------------------------

using LinkPairs = std::vector<std::pair<netlist::NodeId, netlist::NodeId>>;

LinkPairs pairs_of(const std::vector<CandidateLink>& links) {
  LinkPairs pairs;
  for (const CandidateLink& link : links) pairs.emplace_back(link.u, link.v);
  return pairs;
}

/// The draw sample_training_links must make: Rng::shuffle over a copy of
/// every known link, cut to the cap.
LinkPairs reference_positives(const AttackGraph& graph, std::size_t cap,
                              util::Rng& rng) {
  std::vector<CandidateLink> links = graph.known_links();
  if (links.size() > cap) {
    rng.shuffle(links);
    links.resize(cap);
  }
  return pairs_of(links);
}

TEST(SampleTrainingLinks, PositivesMatchShuffleBelowAtAndAboveTheCap) {
  const Netlist original =
      netlist::gen::make_profile(netlist::gen::ProfileId::kC432, 5);
  const auto design = lock::dmux_lock(original, 16, 5);
  AttackScratch scratch;
  scratch.graph.build(design.netlist);
  const std::size_t links = scratch.graph.known_links().size();
  ASSERT_GT(links, 100u);
  for (const std::size_t cap : {links + 1, links, links - 1, links / 3,
                                std::size_t{1}, std::size_t{0}}) {
    util::Rng rng(cap), expected_rng(cap);
    ASSERT_TRUE(sample_training_links(cap, rng, scratch)) << "cap " << cap;
    EXPECT_EQ(pairs_of(scratch.positives),
              reference_positives(scratch.graph, cap, expected_rng))
        << "cap " << cap;
    EXPECT_EQ(scratch.negatives.size(), scratch.positives.size());
  }
}

TEST(SampleTrainingLinks, RngStateAfterTheDrawMatchesShuffle) {
  // Three present nodes: the function returns after the positives' draw,
  // so the generator's next outputs show the state it left. Three links
  // (a->b, a->c, b->c) take every cap from above the count to zero.
  Netlist n("tiny");
  const auto a = n.add_input("a");
  const auto b = n.add_gate(netlist::GateType::kNot, {a}, "b");
  const auto c = n.add_gate(netlist::GateType::kAnd, {a, b}, "c");
  n.mark_output(c, "o");
  AttackScratch scratch;
  scratch.graph.build(n);
  ASSERT_EQ(scratch.graph.known_links().size(), 3u);
  for (std::size_t cap = 0; cap <= 4; ++cap) {
    for (std::uint64_t seed = 0; seed < 8; ++seed) {
      util::Rng rng(seed), expected_rng(seed);
      EXPECT_FALSE(sample_training_links(cap, rng, scratch));
      EXPECT_EQ(pairs_of(scratch.positives),
                reference_positives(scratch.graph, cap, expected_rng))
          << "cap " << cap << " seed " << seed;
      for (int draw = 0; draw < 4; ++draw) EXPECT_EQ(rng(), expected_rng());
    }
  }
}

}  // namespace
}  // namespace autolock::attack
