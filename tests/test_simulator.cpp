#include "netlist/simulator.hpp"

#include <gtest/gtest.h>

#include "netlist/bench_io.hpp"
#include "netlist/generator.hpp"
#include "support/simulation.hpp"

namespace autolock::netlist {
namespace {

TEST(Simulator, C17TruthSpotChecks) {
  const Netlist c17 = gen::c17();
  const Simulator sim(c17);
  // c17: out22 = NAND(NAND(1,3), NAND(2, NAND(3,6)))
  //      out23 = NAND(NAND(2, NAND(3,6)), NAND(NAND(3,6), 7))
  // All-zero inputs: NAND(0,0)=1 chain.
  auto out = sim.run_single({false, false, false, false, false}, {});
  // n10 = NAND(0,0)=1; n11 = NAND(0,0)=1; n16 = NAND(0,1)=1; n19 = NAND(1,0)=1
  // out22 = NAND(1,1)=0 ; out23 = NAND(1,1)=0
  EXPECT_FALSE(out[0]);
  EXPECT_FALSE(out[1]);
  // Inputs 1,3 high: n10 = NAND(1,1)=0 -> out22 = NAND(0, x)=1.
  out = sim.run_single({true, false, true, false, false}, {});
  EXPECT_TRUE(out[0]);
}

TEST(Simulator, WordMatchesSingleBit) {
  const Netlist circuit = gen::make_profile(gen::ProfileId::kC432, 3);
  const Simulator sim(circuit);
  util::Rng rng(99);
  const std::size_t pi = circuit.primary_inputs().size();

  std::vector<std::uint64_t> words(pi);
  for (auto& word : words) word = rng();
  const auto word_out = sim.run_word(words, {});

  for (int vec = 0; vec < 8; ++vec) {
    std::vector<bool> bits(pi);
    for (std::size_t i = 0; i < pi; ++i) bits[i] = (words[i] >> vec) & 1ULL;
    const auto single = sim.run_single(bits, {});
    for (std::size_t o = 0; o < single.size(); ++o) {
      EXPECT_EQ(single[o], ((word_out[o] >> vec) & 1ULL) != 0)
          << "vector " << vec << " output " << o;
    }
  }
}

TEST(Simulator, InputCountMismatchThrows) {
  const Netlist c17 = gen::c17();
  const Simulator sim(c17);
  EXPECT_THROW(sim.run_word({0, 0}, {}), std::invalid_argument);
  EXPECT_THROW(sim.run_word({0, 0, 0, 0, 0}, {true}), std::invalid_argument);
}

TEST(Simulator, KeyInputsBroadcast) {
  Netlist n;
  const auto a = n.add_input("a");
  const auto k = n.add_input("keyinput0", true);
  const auto g = n.add_gate(GateType::kXor, {a, k}, "g");
  n.mark_output(g);
  const Simulator sim(n);
  // key = 0 -> identity; key = 1 -> inversion.
  EXPECT_EQ(sim.run_word({0xAAULL}, {false})[0], 0xAAULL);
  EXPECT_EQ(sim.run_word({0xAAULL}, {true})[0], ~0xAAULL);
}

TEST(Simulator, ExhaustiveEquivalenceDetectsDifference) {
  // XOR(a,b) vs OR(a,b): differ on (1,1).
  Netlist x;
  {
    const auto a = x.add_input("a");
    const auto b = x.add_input("b");
    x.mark_output(x.add_gate(GateType::kXor, {a, b}, "g"));
  }
  Netlist o;
  {
    const auto a = o.add_input("a");
    const auto b = o.add_input("b");
    o.mark_output(o.add_gate(GateType::kOr, {a, b}, "g"));
  }
  const Simulator sx(x), so(o);
  EXPECT_FALSE(test_support::equivalent_exhaustive(sx, {}, so, {}));
  EXPECT_TRUE(test_support::equivalent_exhaustive(sx, {}, sx, {}));
}

TEST(Simulator, ExhaustiveMatchesDeMorgan) {
  // NAND(a,b) == OR(NOT a, NOT b).
  Netlist lhs;
  {
    const auto a = lhs.add_input("a");
    const auto b = lhs.add_input("b");
    lhs.mark_output(lhs.add_gate(GateType::kNand, {a, b}, "g"));
  }
  Netlist rhs;
  {
    const auto a = rhs.add_input("a");
    const auto b = rhs.add_input("b");
    const auto na = rhs.add_gate(GateType::kNot, {a}, "na");
    const auto nb = rhs.add_gate(GateType::kNot, {b}, "nb");
    rhs.mark_output(rhs.add_gate(GateType::kOr, {na, nb}, "g"));
  }
  EXPECT_TRUE(test_support::equivalent_exhaustive(Simulator(lhs), {},
                                                  Simulator(rhs), {}));
}

TEST(Simulator, ErrorRateZeroForIdenticalCircuits) {
  const Netlist circuit = gen::make_profile(gen::ProfileId::kC432, 5);
  const Simulator sim(circuit);
  util::Rng rng(1);
  EXPECT_EQ(test_support::output_error_rate(sim, {}, sim, {}, 512, rng), 0.0);
}

TEST(Simulator, ErrorRateHalfForInvertedOutput) {
  Netlist a;
  {
    const auto x = a.add_input("x");
    a.mark_output(a.add_gate(GateType::kBuf, {x}, "g"));
  }
  Netlist b;
  {
    const auto x = b.add_input("x");
    b.mark_output(b.add_gate(GateType::kNot, {x}, "g"));
  }
  util::Rng rng(2);
  // Inverted output differs on every vector: error rate 1.0.
  EXPECT_DOUBLE_EQ(test_support::output_error_rate(Simulator(a), {},
                                                   Simulator(b), {}, 256, rng),
                   1.0);
}

TEST(Simulator, RandomEquivalenceInterfaceMismatchIsFalse) {
  const Netlist c17 = gen::c17();
  Netlist tiny;
  tiny.mark_output(tiny.add_input("a"));
  util::Rng rng(3);
  EXPECT_FALSE(Simulator::equivalent_on_random_vectors(
      Simulator(c17), {}, Simulator(tiny), {}, 64, rng));
}

// The sweep inlines the gate kernels and folds every fanin straight from the
// value array: each gate type at each legal arity up to 30 fanins must
// match eval_gate_words.
TEST(Simulator, InlinedGateKernelsMatchEvalGateWords) {
  constexpr std::size_t kMaxArity = 30;
  util::Rng rng(0x6A7E);
  for (std::size_t t = 1; t < kGateTypeCount; ++t) {  // every non-input type
    const auto type = static_cast<GateType>(t);
    const Arity arity = gate_arity(type);
    for (std::size_t n = arity.min; n <= kMaxArity; ++n) {
      if (arity.max != 0 && n > arity.max) break;
      Netlist circuit;
      std::vector<NodeId> inputs;
      for (std::size_t i = 0; i < kMaxArity; ++i) {
        inputs.push_back(circuit.add_input("x" + std::to_string(i)));
      }
      const std::vector<NodeId> fanins(inputs.begin(), inputs.begin() + n);
      const NodeId gate =
          is_source(type) ? circuit.add_const(type == GateType::kConst1, "g")
                          : circuit.add_gate(type, fanins, "g");
      circuit.mark_output(gate);
      const Simulator sim(circuit);
      // All-random words saturate a wide AND or OR, so also probe each
      // fanin alone against an all-ones and an all-zeros background.
      std::vector<std::vector<std::uint64_t>> cases;
      cases.emplace_back(kMaxArity);
      for (auto& word : cases.back()) word = rng();
      for (const std::uint64_t background : {~0ULL, 0ULL}) {
        for (std::size_t probe = 0; probe < n; ++probe) {
          cases.emplace_back(kMaxArity, background);
          cases.back()[probe] = rng();
        }
      }
      for (const auto& words : cases) {
        const auto out = sim.run_word(words, {});
        ASSERT_EQ(out.size(), 1u);
        EXPECT_EQ(out[0], eval_gate_words(type, words.data(), n))
            << gate_type_name(type) << " with " << n << " fanins";
      }
    }
  }
}

class SimulatorProfileSweep
    : public ::testing::TestWithParam<gen::ProfileId> {};

TEST_P(SimulatorProfileSweep, SelfEquivalenceOnRandomVectors) {
  const Netlist circuit = gen::make_profile(GetParam(), 11);
  const Simulator sim(circuit);
  util::Rng rng(11);
  EXPECT_TRUE(
      Simulator::equivalent_on_random_vectors(sim, {}, sim, {}, 128, rng));
}

INSTANTIATE_TEST_SUITE_P(Profiles, SimulatorProfileSweep,
                         ::testing::Values(gen::ProfileId::kC17,
                                           gen::ProfileId::kC432,
                                           gen::ProfileId::kC880,
                                           gen::ProfileId::kC1355));

}  // namespace
}  // namespace autolock::netlist
