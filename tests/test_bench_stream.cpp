#include "netlist/bench_stream.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "locking/antisat.hpp"
#include "locking/mux_lock.hpp"
#include "locking/rll.hpp"
#include "netlist/bench_io.hpp"
#include "netlist/generator.hpp"
#include "netlist/simulator.hpp"
#include "util/rng.hpp"

namespace autolock::netlist::bench {
namespace {

/// The streaming contract: every chunking of the same bytes produces the
/// same netlist — node for node, with identical NameIds.
void expect_identical(const Netlist& a, const Netlist& b) {
  ASSERT_EQ(a.size(), b.size());
  for (NodeId v = 0; v < a.size(); ++v) {
    const Node& na = a.node(v);
    const Node& nb = b.node(v);
    EXPECT_EQ(na.type, nb.type) << "node " << v;
    EXPECT_EQ(na.name, nb.name) << "node " << v;
    EXPECT_EQ(na.fanins, nb.fanins) << "node " << v;
    EXPECT_EQ(a.name(v), b.name(v)) << "node " << v;
  }
  EXPECT_EQ(a.inputs(), b.inputs());
  EXPECT_EQ(a.primary_inputs(), b.primary_inputs());
  EXPECT_EQ(a.key_inputs(), b.key_inputs());
  ASSERT_EQ(a.outputs().size(), b.outputs().size());
  for (std::size_t i = 0; i < a.outputs().size(); ++i) {
    EXPECT_EQ(a.outputs()[i].driver, b.outputs()[i].driver);
    EXPECT_EQ(a.outputs()[i].name, b.outputs()[i].name);
  }
}

Netlist stream_parse_text(const std::string& text,
                          std::size_t chunk_bytes = kStreamChunkBytes) {
  std::istringstream in(text);
  return stream_parse(in, "bench", chunk_bytes);
}

TEST(BenchStream, ChunkBoundariesDoNotChangeTheResult) {
  const std::string text = write(gen::c17());
  const Netlist reference = stream_parse_text(text);
  for (const std::size_t chunk : {std::size_t{1}, std::size_t{7},
                                  std::size_t{64}, kStreamChunkBytes}) {
    expect_identical(reference, stream_parse_text(text, chunk));
  }
}

TEST(BenchStream, UseBeforeDefinitionAndCommentsMatch) {
  const std::string text = R"(
# header comment
INPUT(a)   # trailing comment
INPUT(keyinput0)

OUTPUT(y)
y = AND(mid, keyinput0)
mid = NOT(a)
c0 = CONST0
alias = mid
OUTPUT(alias)
)";
  const Netlist reference = stream_parse_text(text);
  EXPECT_EQ(reference.key_inputs().size(), 1u);
  EXPECT_EQ(reference.outputs().size(), 2u);
  for (const std::size_t chunk : {std::size_t{1}, std::size_t{13}}) {
    expect_identical(reference, stream_parse_text(text, chunk));
  }
}

TEST(BenchStream, RandomCircuitsMatchAcrossChunkSizes) {
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    gen::RandomCircuitConfig config;
    config.primary_inputs = 12;
    config.outputs = 5;
    config.gates = 80;
    const std::string text = write(gen::make_random(config, seed));
    const Netlist reference = stream_parse_text(text);
    expect_identical(reference, stream_parse_text(text, 17));
  }
}

TEST(BenchStream, LayeredCircuitRoundTrips) {
  gen::LayeredCircuitConfig config;
  config.primary_inputs = 24;
  config.outputs = 10;
  config.gates = 500;
  config.layers = 12;
  const Netlist original = gen::make_layered(config, 5);
  const std::string text = write(original);
  const Netlist reference = stream_parse_text(text);
  expect_identical(reference, stream_parse_text(text, 31));
  // The reparse is functionally the original circuit.
  const Simulator sim_a(original);
  const Simulator sim_b(reference);
  util::Rng rng(99);
  EXPECT_TRUE(
      Simulator::equivalent_on_random_vectors(sim_a, {}, sim_b, {}, 64, rng));
}

TEST(BenchStream, FileRoundTripPreservesEverything) {
  const Netlist original = gen::c17();
  const std::string path = "test_bench_stream_tmp.bench";
  stream_save_file(original, path);
  const Netlist reparsed = stream_load_file(path);
  std::remove(path.c_str());
  EXPECT_EQ(reparsed.name(), "test_bench_stream_tmp");
  std::istringstream in(write(original));
  expect_identical(stream_parse(in, "test_bench_stream_tmp"), reparsed);
}

TEST(BenchStream, MissingFileThrows) {
  EXPECT_THROW(stream_load_file("/nonexistent/nope.bench"),
               std::runtime_error);
}

TEST(BenchStream, ReadErrorIsNotEndOfFile) {
  // Opening a directory succeeds; the first read fails (EISDIR). That must
  // surface as an error, not as an empty netlist.
  EXPECT_THROW(stream_load_file(AUTOLOCK_TEST_DATA_DIR), std::runtime_error);
}

std::string stream_parse_error(const std::string& text,
                               std::size_t chunk_bytes = kStreamChunkBytes) {
  try {
    (void)stream_parse_text(text, chunk_bytes);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

/// The exact diagnostic at the default chunk size and at pathological ones,
/// and through the bench_io::parse string wrapper.
void expect_parse_error(const std::string& text, const std::string& expected) {
  EXPECT_EQ(stream_parse_error(text), expected);
  EXPECT_EQ(stream_parse_error(text, 1), expected);
  EXPECT_EQ(stream_parse_error(text, 3), expected);
  try {
    (void)parse(text);
    ADD_FAILURE() << "parse() accepted malformed input";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()), expected);
  }
}

TEST(BenchStream, MalformedFixturesProducePinnedErrors) {
  const std::string dir = AUTOLOCK_TEST_DATA_DIR;
  const struct {
    const char* file;
    const char* message;
  } cases[] = {
      {"/malformed_unbalanced.bench",
       "bench parse error at line 5: unbalanced parentheses"},
      {"/malformed_eq_in_directive.bench",
       "bench parse error at line 3: unexpected '=' after '('"},
      {"/malformed_empty_operand.bench",
       "bench parse error at line 5: empty operand"},
      {"/malformed_key_index.bench",
       "bench parse error at line 3: key input index out of range in "
       "'keyinput99999999999'"},
  };
  for (const auto& test_case : cases) {
    SCOPED_TRACE(test_case.file);
    std::ifstream in(dir + test_case.file);
    ASSERT_TRUE(in);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    expect_parse_error(buffer.str(), test_case.message);
    try {
      (void)stream_load_file(dir + test_case.file);
      ADD_FAILURE() << "parsed without error";
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()), test_case.message);
    }
  }
}

TEST(BenchStream, SyntheticErrorCasesProducePinnedErrors) {
  const struct {
    const char* text;
    const char* message;
  } cases[] = {
      {"INPUT(a)\nOUTPUT(y)\ny = AND(a,,a)\n",
       "bench parse error at line 3: empty operand"},
      {"INPUT(a)\nOUTPUT(y)\ny = FROB(a)\n",
       "bench parse error at line 3: unknown gate type 'FROB'"},
      {"INPUT(a)\nINPUT(a)\nOUTPUT(a)\n",
       "bench parse error at line 2: duplicate input 'a'"},
      {"INPUT(a)\nOUTPUT(y)\ny = AND(a, ghost)\n",
       "bench parse error at line 3: undefined operand 'ghost'"},
      {"INPUT(a)\nOUTPUT(y)\ny = BUF(z)\nz = BUF(y)\n",
       "bench parse error at line 4: combinational cycle through 'y'"},
      {"INPUT(a)\nOUTPUT(ghost)\na2 = BUF(a)\n",
       "bench parse error at line 2: undefined output 'ghost'"},
      {"INPUT(a)\nWIDGET(a)\n",
       "bench parse error at line 2: unknown directive 'WIDGET'"},
      {"INPUT(a)\ny = AND(a\nOUTPUT(y)\n",
       "bench parse error at line 2: unbalanced parentheses"},
      {"INPUT(keyinput99999999999)\nOUTPUT(keyinput99999999999)\n",
       "bench parse error at line 1: key input index out of range in "
       "'keyinput99999999999'"},
      {"INPUT(a)\nOUTPUT(y)\ny = AND(a, a)\ny = NOT(a)\n",
       "bench parse error at line 4: duplicate definition of 'y'"},
      {"INPUT(a)\nOUTPUT(y)\ny = NOT(a)\nOUTPUT(y)\n",
       "bench parse error at line 4: duplicate output 'y'"},
  };
  for (const auto& test_case : cases) {
    SCOPED_TRACE(test_case.text);
    expect_parse_error(test_case.text, test_case.message);
  }
}

// ---- round-trip fuzz -------------------------------------------------------
//
// Writer/reader round trip over randomly shaped layered netlists: for every
// config draw, re-reading the written bytes at pathological chunk sizes must
// reproduce the default-chunk parse node for node and NameId for NameId,
// and that parse must be functionally identical to the generated circuit.

void expect_round_trip(const Netlist& original, const netlist::Key& key = {}) {
  std::ostringstream out;
  stream_write(original, out);
  const std::string text = out.str();

  const Netlist reference = stream_parse_text(text);
  expect_identical(reference, stream_parse_text(text, 1));
  expect_identical(reference, stream_parse_text(text, 29));

  const Simulator sim_a(original);
  const Simulator sim_b(reference);
  util::Rng rng(0xF0F0ULL ^ original.size());
  EXPECT_TRUE(Simulator::equivalent_on_random_vectors(sim_a, key, sim_b, key,
                                                      64, rng));
}

TEST(BenchStreamFuzz, RandomLayeredNetlistsRoundTrip) {
  util::Rng shape_rng(0xBE7CF00DULL);
  for (int trial = 0; trial < 25; ++trial) {
    gen::LayeredCircuitConfig config;
    config.primary_inputs = 4 + shape_rng.next_below(24);
    config.outputs = 2 + shape_rng.next_below(12);
    config.layers = 3 + shape_rng.next_below(10);
    config.gates = config.outputs + config.layers +
                   shape_rng.next_below(400);
    config.long_edge_bias = shape_rng.next_double() * 0.4;
    const Netlist original = gen::make_layered(config, 1000 + trial);
    SCOPED_TRACE("trial " + std::to_string(trial));
    expect_round_trip(original);
  }
}

TEST(BenchStreamFuzz, DisplacedDriverOutputSplicesRoundTrip) {
  // Anti-SAT locking with splice_at_output redirects an output port away
  // from its original driver (the displaced-driver splice the writer had to
  // learn about): the written file must keep the port on the new driver and
  // keep the displaced original driver's cone alive.
  util::Rng shape_rng(0x5711CEULL);
  for (int trial = 0; trial < 8; ++trial) {
    gen::LayeredCircuitConfig config;
    config.primary_inputs = 8 + shape_rng.next_below(12);
    config.outputs = 3 + shape_rng.next_below(6);
    config.layers = 4 + shape_rng.next_below(6);
    config.gates = config.outputs + config.layers + 40 +
                   shape_rng.next_below(150);
    const Netlist original = gen::make_layered(config, 7000 + trial);

    lock::AntiSatOptions options;
    options.width = 2 + trial % 3;
    options.splice_at_output = true;
    const lock::LockedDesign design =
        lock::antisat_lock(original, options, 31 + trial);
    SCOPED_TRACE("trial " + std::to_string(trial));
    expect_round_trip(design.netlist, design.key);

    // The reparsed locked netlist still unlocks the original function.
    const Netlist reparsed = parse(write(design.netlist));
    const Simulator locked_sim(reparsed);
    const Simulator original_sim(original);
    util::Rng rng(0xACE + trial);
    EXPECT_TRUE(Simulator::equivalent_on_random_vectors(
        locked_sim, design.key, original_sim, {}, 128, rng));
  }
}

TEST(BenchStreamFuzz, RllAndMuxLockedNetlistsRoundTrip) {
  // RLL splices a key gate into an internal wire (displacing that wire's
  // driver edge), D-MUX rewires two gate fanins through fresh MUX nodes;
  // both shapes must survive the writer/reader round trip too.
  gen::LayeredCircuitConfig config;
  config.primary_inputs = 16;
  config.outputs = 8;
  config.layers = 8;
  config.gates = 200;
  const Netlist original = gen::make_layered(config, 424242);
  for (int trial = 0; trial < 4; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    const auto rll = lock::rll_lock(original, 5, 100 + trial);
    expect_round_trip(rll.netlist, rll.key);
    const auto dmux = lock::dmux_lock(original, 5, 200 + trial);
    expect_round_trip(dmux.netlist, dmux.key);
  }
}

TEST(BenchStream, LongLinesSpanManyChunks) {
  // One gate whose operand list is far longer than the chunk size.
  std::string text = "OUTPUT(y)\n";
  std::string operands;
  for (int i = 0; i < 200; ++i) {
    text += "INPUT(verylonginputname" + std::to_string(i) + ")\n";
    if (i) operands += ", ";
    operands += "verylonginputname" + std::to_string(i);
  }
  text += "y = AND(" + operands + ")\n";
  const Netlist reference = stream_parse_text(text);
  expect_identical(reference, stream_parse_text(text, 16));
}

// ---- pinned parse results ----------------------------------------------------
//
// A digest of everything a parse decides: node types, key flags, fanins,
// NameIds and their texts, output ports and the cached topological order.
// The constants were taken from the reader before its name index and
// topological-order priming were rewritten; any change to what a parse
// produces moves them.

class Digest {
 public:
  void add(std::uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      hash_ ^= (value >> (8 * byte)) & 0xFF;
      hash_ *= 1099511628211ULL;
    }
  }
  void add(std::string_view text) {
    add(text.size());
    for (const char ch : text) {
      hash_ ^= static_cast<unsigned char>(ch);
      hash_ *= 1099511628211ULL;
    }
  }
  std::uint64_t value() const noexcept { return hash_; }

 private:
  std::uint64_t hash_ = 1469598103934665603ULL;
};

std::uint64_t parse_digest(const Netlist& netlist) {
  Digest d;
  d.add(netlist.size());
  for (NodeId v = 0; v < netlist.size(); ++v) {
    const Node& node = netlist.node(v);
    d.add(static_cast<std::uint64_t>(node.type));
    d.add(node.is_key_input ? 1 : 0);
    d.add(node.name);
    d.add(netlist.name(v));
    d.add(node.fanins.size());
    for (const NodeId fanin : node.fanins) d.add(fanin);
  }
  d.add(netlist.inputs().size());
  for (const NodeId id : netlist.inputs()) d.add(id);
  d.add(netlist.outputs().size());
  for (std::size_t i = 0; i < netlist.outputs().size(); ++i) {
    d.add(netlist.outputs()[i].name);
    d.add(netlist.output_name(i));
    d.add(netlist.outputs()[i].driver);
  }
  d.add(netlist.names()->size());
  for (const NodeId id : netlist.topological_order()) d.add(id);
  return d.value();
}

TEST(BenchStreamPin, ParsedNetlistDigestsArePinned) {
  gen::LayeredCircuitConfig layered;
  layered.primary_inputs = 96;
  layered.outputs = 48;
  layered.gates = 20'000;
  layered.layers = 60;
  std::ostringstream layered_text;
  stream_write(gen::make_layered(layered, 17), layered_text);

  // Forward references, a bare alias, constants and an input that is also
  // an output port.
  const std::string hand = R"(INPUT(b)
INPUT(a)
INPUT(keyinput1)
INPUT(keyinput0)
OUTPUT(y)
OUTPUT(a)
OUTPUT(alias)
OUTPUT(z)
y = XOR(late, keyinput0)
alias = late
z = MUX(keyinput1, one, late)
late = NAND(mid, b, zero)
mid = OR(a, b)
zero = CONST0
one = CONST1
)";

  const struct {
    const char* name;
    std::string text;
    std::uint64_t digest;
  } cases[] = {
      {"c880", write(gen::make_profile(gen::ProfileId::kC880, 1)),
       0x1ba988f04bb433c9ULL},
      {"c1355", write(gen::make_profile(gen::ProfileId::kC1355, 1)),
       0xfa27145c1ede0deaULL},
      {"layered20k", layered_text.str(), 0x08405ecdf8bc4cbbULL},
      {"hand", hand, 0xed28d0b008bc61efULL},
  };
  for (const auto& test_case : cases) {
    SCOPED_TRACE(test_case.name);
    EXPECT_EQ(parse_digest(stream_parse_text(test_case.text)),
              test_case.digest);
  }
}

}  // namespace
}  // namespace autolock::netlist::bench
