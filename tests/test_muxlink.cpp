#include "attacks/muxlink.hpp"

#include <gtest/gtest.h>

#include <string>

#include "locking/rll.hpp"
#include "netlist/generator.hpp"

namespace autolock::attack {
namespace {

using netlist::Key;
using netlist::Netlist;

MuxLinkConfig fast_config() {
  MuxLinkConfig config;
  config.epochs = 8;
  config.max_train_links = 300;
  return config;
}

TEST(MuxLinkScore, ComputedCorrectly) {
  MuxLinkResult result;
  result.predicted_bits = {1, 0, 1, 1};
  result.thresholded_bits = {1, -1, 0, 1};
  const Key truth{true, true, false, true};
  const auto score = MuxLinkAttack::score(result, truth);
  // Forced: bits 0 (1==1), 2 (1!=0 wrong), 1 (0 != 1 wrong), 3 (1==1):
  EXPECT_DOUBLE_EQ(score.accuracy, 0.5);
  // Thresholded: decided {0:1 correct, 2:0 correct, 3:1 correct} = 3 decided,
  // 3 correct.
  EXPECT_DOUBLE_EQ(score.decided_fraction, 0.75);
  EXPECT_DOUBLE_EQ(score.precision, 1.0);
  EXPECT_EQ(score.key_bits, 4u);
}

TEST(MuxLinkScore, EmptyKey) {
  const auto score = MuxLinkAttack::score(MuxLinkResult{}, Key{});
  EXPECT_EQ(score.key_bits, 0u);
  EXPECT_EQ(score.accuracy, 0.0);
}

TEST(MuxLinkScore, MissingPredictionsCountAsCoinFlip) {
  MuxLinkResult result;  // empty predictions: the attack never saw these bits
  const Key truth{false, false};
  const auto score = MuxLinkAttack::score(result, truth);
  // The old behavior credited the forced-0 default, scoring 1.0 here purely
  // because the key happened to be all zeros. Unexamined bits are coin flips.
  EXPECT_DOUBLE_EQ(score.accuracy, 0.5);
  EXPECT_DOUBLE_EQ(score.decided_fraction, 0.0);
  EXPECT_DOUBLE_EQ(score.attacked_fraction, 0.0);
}

TEST(MuxLinkScore, UnattackedBitsInMaskCountAsCoinFlip) {
  // Mixed genotype shape: bits 0 and 3 have MUX hypotheses, bits 1-2 belong
  // to a non-MUX key gate sandwiched between them.
  MuxLinkResult result;
  result.predicted_bits = {1, 0, 0, 0};
  result.thresholded_bits = {1, -1, -1, 0};
  result.bit_attacked = {1, 0, 0, 1};
  const Key truth{true, false, false, false};
  const auto score = MuxLinkAttack::score(result, truth);
  // Attacked: bit 0 correct, bit 3 correct -> 2.0; unattacked: 2 * 0.5.
  EXPECT_DOUBLE_EQ(score.accuracy, 0.75);
  EXPECT_DOUBLE_EQ(score.attacked_fraction, 0.5);
  EXPECT_DOUBLE_EQ(score.decided_fraction, 0.5);
  EXPECT_DOUBLE_EQ(score.precision, 1.0);
}

TEST(MuxLink, NoProblemsOnRllLockedDesign) {
  const Netlist original =
      netlist::gen::make_profile(netlist::gen::ProfileId::kC432, 3);
  const auto design = lock::rll_lock(original, 8, 3);
  const MuxLinkAttack attacker(fast_config());
  const auto result = attacker.attack(design.netlist);
  EXPECT_TRUE(result.predicted_bits.empty());
  // No MUX key gates -> no hypotheses -> every bit scores as a coin flip
  // instead of a free forced-0 guess.
  const auto score = MuxLinkAttack::score(result, design.key);
  EXPECT_DOUBLE_EQ(score.accuracy, 0.5);
  EXPECT_DOUBLE_EQ(score.decided_fraction, 0.0);
  EXPECT_DOUBLE_EQ(score.attacked_fraction, 0.0);
}

TEST(MuxLink, ProducesDecisionForEveryBit) {
  const Netlist original =
      netlist::gen::make_profile(netlist::gen::ProfileId::kC432, 5);
  const auto design = lock::dmux_lock(original, 12, 5);
  const MuxLinkAttack attacker(fast_config());
  const auto result = attacker.attack(design.netlist);
  ASSERT_EQ(result.predicted_bits.size(), 12u);
  ASSERT_EQ(result.margins.size(), 12u);
  for (std::size_t b = 0; b < 12; ++b) {
    EXPECT_TRUE(result.predicted_bits[b] == 0 || result.predicted_bits[b] == 1);
    EXPECT_GE(result.margins[b], 0.0);
    EXPECT_LE(result.margins[b], 1.0);
  }
  EXPECT_GT(result.train_samples, 0u);
}

TEST(MuxLink, TrainingLossDecreases) {
  const Netlist original =
      netlist::gen::make_profile(netlist::gen::ProfileId::kC432, 7);
  const auto design = lock::dmux_lock(original, 8, 7);
  MuxLinkConfig config = fast_config();
  config.epochs = 15;
  const MuxLinkAttack attacker(config);
  const auto result = attacker.attack(design.netlist);
  EXPECT_LT(result.last_epoch_loss, result.first_epoch_loss);
}

// Pinned training-loss regression: the masked GNN kernels and the
// scratch-reusing forward/backward promise bit-identical training to the
// naive per-sample path, so these exact values must never drift. A change
// here means the numerics changed, not just the speed.
TEST(MuxLink, PinnedTrainingLossTrajectory) {
  const Netlist original =
      netlist::gen::make_profile(netlist::gen::ProfileId::kC432, 7);
  const auto design = lock::dmux_lock(original, 8, 7);
  MuxLinkConfig config;
  config.epochs = 6;
  config.max_train_links = 200;
  config.subgraph.max_nodes = 40;
  const MuxLinkAttack attacker(config);
  const auto result = attacker.attack(design.netlist);
  EXPECT_EQ(result.train_samples, 400u);
  EXPECT_DOUBLE_EQ(result.first_epoch_loss, 0.69104071804088052);
  EXPECT_DOUBLE_EQ(result.last_epoch_loss, 0.63005767891817088);
}

// The campaign's in-loop MuxLink preset on c880 D-MUX K = 32, pinned bit for
// bit: the masked GNN kernels must reproduce the dense kernels' margins,
// decisions and losses exactly, for one model and for the ensemble of three
// (which draws one shuffle per member). These values were recorded with the
// dense GEMM kernels the masked ones replaced.
struct PinnedRun {
  std::size_t ensemble;
  double first_loss, last_loss;
  const char* bits;
  std::vector<double> margins;
};

void expect_pinned(const PinnedRun& pin) {
  const Netlist original =
      netlist::gen::make_profile(netlist::gen::ProfileId::kC880, 1);
  const auto design = lock::dmux_lock(original, 32, 1);
  MuxLinkConfig config;
  config.epochs = 4;
  config.max_train_links = 120;
  config.subgraph.max_nodes = 32;
  config.ensemble = pin.ensemble;
  const auto result = MuxLinkAttack(config).attack(design.netlist);
  EXPECT_EQ(result.train_samples, 240u);
  EXPECT_EQ(result.first_epoch_loss, pin.first_loss);
  EXPECT_EQ(result.last_epoch_loss, pin.last_loss);
  std::string bits;
  for (const int bit : result.predicted_bits) {
    bits += static_cast<char>('0' + bit);
  }
  EXPECT_EQ(bits, pin.bits);
  ASSERT_EQ(result.margins.size(), pin.margins.size());
  for (std::size_t b = 0; b < pin.margins.size(); ++b) {
    EXPECT_EQ(result.margins[b], pin.margins[b]) << "bit " << b;
  }
}

TEST(MuxLink, PinnedInLoopPresetC880SingleModel) {
  const std::vector<double> margins = {
      0.053900338890887578, 0.13911669373619973, 0.038786248204719098,
      0.026549062204205942, 0.043415675385703567, 0.063888546902291843,
      0.0031872278549183175, 0.025190056413836925, 0.0013834703437877738,
      0.066344493350077971, 0.054370090059878251, 0.052150893008870547,
      0.0025058358224539501, 0.00011122387342615836, 0.00063559196674822793,
      0.045292039427392683, 0.061292148428686355, 0.062115010920895108,
      0.034797020487552233, 0.0021407064346602445, 0.012829023577055232,
      0.051800941286449687, 0.13019658007787493, 0.061549308694431371,
      0.049251509555924666, 0.032284528521521472, 0.14089647941583622,
      0.073967549173482361, 0.025198889622468135, 0.060938870656270905,
      0.015459735776353178, 0.054529651096174581};
  expect_pinned({1, 0.69619708918121637, 0.65369600095307789,
                 "10111100101111100111000000111010", margins});
}

TEST(MuxLink, PinnedInLoopPresetC880Ensemble3) {
  const std::vector<double> margins = {
      0.0081898833608108346, 0.13201022133300611, 0.02547232435700264,
      0.015819047987206902, 0.015050786837211561, 0.03968461108303567,
      0.00012749023267127901, 0.022550322759478547, 0.0015138647154495644,
      0.048870478509019488, 0.02137671963074006, 0.011594290212523672,
      0.0075410524875759166, 0.011681182604901474, 0.033410477873876576,
      0.017059029252371627, 0.035897387784771806, 0.049000209044813947,
      0.032620500064862556, 0.0081459821468923277, 0.0047403724950519366,
      0.018678213589526038, 0.10849360153544185, 0.042449285522632052,
      0.034834443996374476, 0.036196183273200955, 0.11798212332363273,
      0.044738961002256494, 0.033309823448111175, 0.030428315563735042,
      0.013882414478984528, 0.039447994565388944};
  expect_pinned({3, 0.6986098787449988, 0.66805837089253695,
                 "10111100101100000110000000111010", margins});
}

TEST(MuxLink, DeterministicForSameSeed) {
  const Netlist original =
      netlist::gen::make_profile(netlist::gen::ProfileId::kC432, 9);
  const auto design = lock::dmux_lock(original, 8, 9);
  const MuxLinkAttack attacker(fast_config());
  const auto a = attacker.attack(design.netlist);
  const auto b = attacker.attack(design.netlist);
  EXPECT_EQ(a.predicted_bits, b.predicted_bits);
}

TEST(MuxLink, ThresholdControlsDecidedFraction) {
  const Netlist original =
      netlist::gen::make_profile(netlist::gen::ProfileId::kC432, 11);
  const auto design = lock::dmux_lock(original, 16, 11);
  MuxLinkConfig lenient = fast_config();
  lenient.decision_threshold = 0.0;
  MuxLinkConfig strict = fast_config();
  strict.decision_threshold = 0.9;
  const auto score_lenient = MuxLinkAttack(lenient).run(design);
  const auto score_strict = MuxLinkAttack(strict).run(design);
  EXPECT_GE(score_lenient.decided_fraction, score_strict.decided_fraction);
  EXPECT_DOUBLE_EQ(score_lenient.decided_fraction, 1.0);
}

TEST(MuxLink, BeatsRandomGuessingOnAverage) {
  // Statistical sanity: across several circuits/seeds the attack on plain
  // D-MUX should recover clearly more than 50% of key bits on average.
  // (Per-instance results vary; we assert the mean over 6 runs.)
  double total_accuracy = 0.0;
  int runs = 0;
  for (std::uint64_t seed : {101, 102, 103}) {
    const Netlist original =
        netlist::gen::make_profile(netlist::gen::ProfileId::kC432, seed);
    for (std::uint64_t lock_seed : {1, 2}) {
      const auto design = lock::dmux_lock(original, 16, lock_seed);
      MuxLinkConfig config = fast_config();
      config.epochs = 12;
      const auto score = MuxLinkAttack(config).run(design);
      total_accuracy += score.accuracy;
      ++runs;
    }
  }
  EXPECT_GT(total_accuracy / runs, 0.52);
}

}  // namespace
}  // namespace autolock::attack
