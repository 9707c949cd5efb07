#include "netlist/bench_io.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "locking/antisat.hpp"
#include "locking/mux_lock.hpp"
#include "locking/verify.hpp"
#include "netlist/generator.hpp"
#include "netlist/simulator.hpp"
#include "support/simulation.hpp"
#include "util/rng.hpp"

namespace autolock::netlist::bench {
namespace {

TEST(BenchParse, C17Structure) {
  const Netlist c17 = gen::c17();
  EXPECT_EQ(c17.primary_inputs().size(), 5u);
  EXPECT_EQ(c17.outputs().size(), 2u);
  EXPECT_EQ(c17.stats().gates, 6u);
  EXPECT_EQ(c17.depth(), 3u);
  for (NodeId v = 0; v < c17.size(); ++v) {
    const auto type = c17.node(v).type;
    EXPECT_TRUE(type == GateType::kInput || type == GateType::kNand);
  }
}

TEST(BenchParse, CommentsAndBlankLines) {
  const Netlist n = parse(R"(
# full line comment
INPUT(a)   # trailing comment

OUTPUT(y)
y = NOT(a)  # another
)");
  EXPECT_EQ(n.inputs().size(), 1u);
  EXPECT_EQ(n.outputs().size(), 1u);
}

TEST(BenchParse, UseBeforeDefinition) {
  const Netlist n = parse(R"(
INPUT(a)
OUTPUT(y)
y = AND(mid, a)
mid = NOT(a)
)");
  EXPECT_NO_THROW(n.validate());
  EXPECT_EQ(n.node(n.find("y")).type, GateType::kAnd);
}

TEST(BenchParse, KeyInputConvention) {
  const Netlist n = parse(R"(
INPUT(a)
INPUT(keyinput0)
INPUT(keyinput12)
INPUT(keyinputx)
OUTPUT(y)
y = XOR(a, keyinput0)
)");
  EXPECT_EQ(n.key_inputs().size(), 2u);
  EXPECT_EQ(n.primary_inputs().size(), 2u);  // a and the malformed keyinputx
}

TEST(BenchParse, KeyNameHelpers) {
  EXPECT_TRUE(is_key_input_name("keyinput0"));
  EXPECT_TRUE(is_key_input_name("keyinput42"));
  EXPECT_FALSE(is_key_input_name("keyinput"));
  EXPECT_FALSE(is_key_input_name("keyinput4x"));
  EXPECT_FALSE(is_key_input_name("Keyinput4"));
  EXPECT_EQ(key_bit_index("keyinput42"), 42);
  EXPECT_EQ(key_bit_index("other"), -1);
}

TEST(BenchParse, KeyIndexOverflowRejected) {
  // These digit runs overflow int (the old parser accumulated them with
  // silent wraparound, corrupting the bit index).
  EXPECT_EQ(key_bit_index("keyinput99999999999"), -1);
  EXPECT_EQ(key_bit_index("keyinput4294967296"), -1);
  EXPECT_FALSE(is_key_input_name("keyinput99999999999"));
  // Indices beyond kMaxKeyBitIndex are rejected even when they fit an int.
  EXPECT_EQ(key_bit_index("keyinput1000001"), -1);
  EXPECT_EQ(key_bit_index("keyinput1000000"), kMaxKeyBitIndex);
}

TEST(BenchParse, MuxAndConst) {
  const Netlist n = parse(R"(
INPUT(s)
INPUT(a)
INPUT(b)
OUTPUT(y)
OUTPUT(z)
y = MUX(s, a, b)
z = CONST1
)");
  EXPECT_EQ(n.node(n.find("y")).type, GateType::kMux);
  EXPECT_EQ(n.node(n.find("z")).type, GateType::kConst1);
}

TEST(BenchParse, BareAliasBecomesBuf) {
  const Netlist n = parse(R"(
INPUT(a)
OUTPUT(y)
y = a
)");
  EXPECT_EQ(n.node(n.find("y")).type, GateType::kBuf);
}

TEST(BenchParse, ErrorUnknownGate) {
  EXPECT_THROW(parse("INPUT(a)\ny = FROB(a)\nOUTPUT(y)\n"),
               std::runtime_error);
}

TEST(BenchParse, ErrorUndefinedOperand) {
  EXPECT_THROW(parse("INPUT(a)\nOUTPUT(y)\ny = AND(a, ghost)\n"),
               std::runtime_error);
}

TEST(BenchParse, ErrorUndefinedOutput) {
  EXPECT_THROW(parse("INPUT(a)\nOUTPUT(ghost)\n"), std::runtime_error);
}

TEST(BenchParse, ErrorDuplicateDefinition) {
  EXPECT_THROW(parse("INPUT(a)\nx = NOT(a)\nx = BUF(a)\nOUTPUT(x)\n"),
               std::runtime_error);
  EXPECT_THROW(parse("INPUT(a)\nINPUT(a)\nOUTPUT(a)\n"), std::runtime_error);
}

TEST(BenchParse, ErrorCombinationalCycle) {
  EXPECT_THROW(parse(R"(
INPUT(a)
OUTPUT(y)
y = AND(a, z)
z = NOT(y)
)"),
               std::runtime_error);
}

TEST(BenchParse, ErrorMalformedDirective) {
  EXPECT_THROW(parse("WIBBLE(a)\n"), std::runtime_error);
  EXPECT_THROW(parse("INPUT a\n"), std::runtime_error);
  EXPECT_THROW(parse("x = AND(a\n"), std::runtime_error);
}

// Returns the parse-error message for `text`, or "" if parsing succeeded.
std::string parse_error(std::string_view text) {
  try {
    (void)parse(text);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

TEST(BenchParse, ErrorEqualsInsideDirective) {
  // "INPUT(a=b)" used to slip through as a BUF alias named "INPUT(a".
  const std::string what = parse_error("INPUT(x)\nINPUT(a=b)\nOUTPUT(x)\n");
  EXPECT_NE(what.find("line 2"), std::string::npos) << what;
  EXPECT_NE(what.find("'='"), std::string::npos) << what;
}

TEST(BenchParse, ErrorEmptyOperand) {
  // Empty slots used to be dropped silently, shifting MUX fanin order.
  const std::string what =
      parse_error("INPUT(s)\nINPUT(a)\nOUTPUT(y)\ny = MUX(s, a, )\n");
  EXPECT_NE(what.find("line 4"), std::string::npos) << what;
  EXPECT_NE(what.find("empty operand"), std::string::npos) << what;
  EXPECT_THROW(parse("INPUT(a)\nOUTPUT(y)\ny = AND(a,,a)\n"),
               std::runtime_error);
}

TEST(BenchParse, ErrorTrailingGarbage) {
  EXPECT_THROW(parse("INPUT(a) junk\nOUTPUT(a)\n"), std::runtime_error);
  EXPECT_THROW(parse("INPUT(a)\nOUTPUT(y)\ny = NOT(a) junk\n"),
               std::runtime_error);
  EXPECT_THROW(parse("INPUT(a)\nOUTPUT(y)\ny = a)\n"), std::runtime_error);
}

TEST(BenchParse, ErrorKeyIndexOutOfRangeHasLineNumber) {
  const std::string what = parse_error(
      "INPUT(a)\nINPUT(keyinput99999999999)\nOUTPUT(a)\n");
  EXPECT_NE(what.find("line 2"), std::string::npos) << what;
  EXPECT_NE(what.find("key input index"), std::string::npos) << what;
}

TEST(BenchParse, ErrorDuplicateInputHasLineNumber) {
  const std::string what = parse_error("INPUT(a)\nINPUT(a)\nOUTPUT(a)\n");
  EXPECT_NE(what.find("line 2"), std::string::npos) << what;
}

TEST(BenchRoundTrip, C17PreservesStructureAndFunction) {
  const Netlist original = gen::c17();
  const Netlist reparsed = parse(write(original), "c17rt");
  EXPECT_EQ(reparsed.primary_inputs().size(),
            original.primary_inputs().size());
  EXPECT_EQ(reparsed.outputs().size(), original.outputs().size());
  EXPECT_EQ(reparsed.stats().gates, original.stats().gates);
  const Simulator sim_a(original);
  const Simulator sim_b(reparsed);
  EXPECT_TRUE(test_support::equivalent_exhaustive(sim_a, {}, sim_b, {}));
}

class BenchRoundTripSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BenchRoundTripSweep, RandomCircuitsSurviveRoundTrip) {
  gen::RandomCircuitConfig config;
  config.primary_inputs = 12;
  config.outputs = 5;
  config.gates = 60;
  const Netlist original = gen::make_random(config, GetParam());
  const Netlist reparsed = parse(write(original), "rt");
  EXPECT_NO_THROW(reparsed.validate());
  EXPECT_EQ(reparsed.outputs().size(), original.outputs().size());
  const Simulator sim_a(original);
  const Simulator sim_b(reparsed);
  util::Rng rng(GetParam() * 3 + 1);
  EXPECT_TRUE(Simulator::equivalent_on_random_vectors(sim_a, {}, sim_b, {},
                                                      512, rng));
}

INSTANTIATE_TEST_SUITE_P(Seeds, BenchRoundTripSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(BenchWrite, AliasedOutputGetsBufLine) {
  Netlist n;
  const auto a = n.add_input("a");
  const auto g = n.add_gate(GateType::kNot, {a}, "g");
  n.mark_output(g, "different_name");
  const std::string text = write(n);
  EXPECT_NE(text.find("different_name = BUF(g)"), std::string::npos);
  const Netlist reparsed = parse(text);
  EXPECT_EQ(reparsed.outputs().size(), 1u);
  EXPECT_EQ(reparsed.output_name(0), "different_name");
}

TEST(BenchWrite, DisplacedDriverHoldingPortNameIsRenamed) {
  // Output-splice shape: the port keeps its name, a new gate drives it, and
  // the old driver (named after the port, as every parsed circuit names its
  // output gates) stays behind as a fanin. The writer must not define 'y'
  // twice — once as the old gate, once as the port's BUF alias.
  Netlist n;
  const auto a = n.add_input("a");
  const auto y = n.add_gate(GateType::kNot, {a}, "y");
  n.mark_output(y, "y");
  const auto mix = n.add_gate(GateType::kXor, {y, a}, "mix");
  n.set_output_driver(0, mix);
  const std::string text = write(n);
  const Netlist reparsed = parse(text, "renamed");  // threw before the fix
  EXPECT_EQ(reparsed.outputs().size(), 1u);
  const Simulator sim_a(n);
  const Simulator sim_b(reparsed);
  EXPECT_TRUE(test_support::equivalent_exhaustive(sim_a, {}, sim_b, {}));
}

TEST(BenchRoundTrip, AntiSatOutputSpliceSurvivesReparse) {
  // End-to-end shape of the writer collision: parse a circuit (drivers take
  // the port names), splice an anti-SAT block into an output, write, and
  // reparse. The reloaded netlist must still unlock with the same key.
  const Netlist original =
      parse(write(gen::make_profile(gen::ProfileId::kC432, 3)), "c432rt");
  const auto design = lock::antisat_lock(original, {}, 3);
  const Netlist loaded = parse(write(design.netlist), "locked");
  EXPECT_NO_THROW(loaded.validate());
  EXPECT_EQ(loaded.key_inputs().size(), design.key.size());
  lock::LockedDesign reloaded;
  reloaded.netlist = loaded;
  reloaded.key = design.key;
  EXPECT_TRUE(lock::verify_unlocks(reloaded, original));
}

TEST(BenchRoundTrip, ReparsedLockedDesignIsInLevelThenIdOrder) {
  const auto design =
      lock::dmux_lock(gen::make_profile(gen::ProfileId::kC432, 5), 16, 5);
  const Netlist loaded = parse(write(design.netlist), "locked");
  std::vector<std::uint32_t> level;
  node_levels_into(loaded, level);
  std::vector<NodeId> expected(loaded.size());
  for (NodeId v = 0; v < loaded.size(); ++v) expected[v] = v;
  std::sort(expected.begin(), expected.end(), [&](NodeId x, NodeId y) {
    return level[x] != level[y] ? level[x] < level[y] : x < y;
  });
  EXPECT_EQ(loaded.topological_order(), expected);
}

}  // namespace
}  // namespace autolock::netlist::bench
