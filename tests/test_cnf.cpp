#include "sat/cnf.hpp"

#include <gtest/gtest.h>

#include <iterator>
#include <sstream>
#include <string>
#include <tuple>

#include "attacks/sat_attack.hpp"
#include "campaign/campaign.hpp"
#include "locking/compound.hpp"
#include "locking/sites.hpp"
#include "netlist/bench_stream.hpp"
#include "netlist/generator.hpp"
#include "netlist/simulator.hpp"
#include "util/rng.hpp"

namespace autolock::sat {
namespace {

using netlist::GateType;
using netlist::Netlist;
using netlist::NodeId;
using netlist::Simulator;

/// Exhaustively checks that the CNF encoding of a single-gate circuit agrees
/// with the simulator on every input assignment (by solving with pinned
/// inputs and reading the output variable).
void check_gate_encoding(GateType type, std::size_t arity) {
  Netlist n;
  std::vector<NodeId> ins;
  for (std::size_t i = 0; i < arity; ++i) {
    ins.push_back(n.add_input("i" + std::to_string(i)));
  }
  const NodeId g = n.add_gate(type, ins, "g");
  n.mark_output(g);
  const Simulator sim(n);

  for (std::uint32_t mask = 0; mask < (1u << arity); ++mask) {
    Solver solver;
    const Encoding enc = encode_netlist(solver, n);
    std::vector<bool> bits(arity);
    for (std::size_t i = 0; i < arity; ++i) {
      bits[i] = ((mask >> i) & 1u) != 0;
      solver.add_clause(make_lit(enc.primary_input_var[i], !bits[i]));
    }
    ASSERT_EQ(solver.solve(), SolveResult::kSat);
    const bool expected = sim.run_single(bits, {})[0];
    EXPECT_EQ(solver.model_value(enc.output_var[0]), expected)
        << gate_type_name(type) << " mask=" << mask;
  }
}

TEST(CnfEncoding, AllGateTypesExhaustive) {
  check_gate_encoding(GateType::kBuf, 1);
  check_gate_encoding(GateType::kNot, 1);
  for (const auto type : {GateType::kAnd, GateType::kNand, GateType::kOr,
                          GateType::kNor, GateType::kXor, GateType::kXnor}) {
    check_gate_encoding(type, 2);
    check_gate_encoding(type, 3);  // n-ary paths (XOR chains, wide AND)
  }
  check_gate_encoding(GateType::kMux, 3);
}

TEST(CnfEncoding, Constants) {
  Netlist n;
  n.add_input("dummy");
  const auto zero = n.add_const(false, "z");
  const auto one = n.add_const(true, "o");
  const auto g = n.add_gate(GateType::kOr, {zero, one}, "g");
  n.mark_output(zero, "y0");
  n.mark_output(one, "y1");
  n.mark_output(g, "y2");
  Solver solver;
  const Encoding enc = encode_netlist(solver, n);
  ASSERT_EQ(solver.solve(), SolveResult::kSat);
  EXPECT_FALSE(solver.model_value(enc.output_var[0]));
  EXPECT_TRUE(solver.model_value(enc.output_var[1]));
  EXPECT_TRUE(solver.model_value(enc.output_var[2]));
}

TEST(CnfEncoding, SharedInputsReuseVariables) {
  const Netlist c17 = netlist::gen::c17();
  Solver solver;
  const Encoding a = encode_netlist(solver, c17);
  const Encoding b = encode_netlist(solver, c17, a.primary_input_var);
  EXPECT_EQ(a.primary_input_var, b.primary_input_var);
  // Identical circuits on shared inputs: miter must be UNSAT.
  const Var miter = make_miter(solver, a, b);
  EXPECT_EQ(solver.solve({make_lit(miter)}), SolveResult::kUnsat);
}

TEST(CnfEncoding, SharedInputSizeMismatchThrows) {
  const Netlist c17 = netlist::gen::c17();
  Solver solver;
  std::vector<Var> wrong{solver.new_var()};
  EXPECT_THROW(encode_netlist(solver, c17, wrong), std::invalid_argument);
}

TEST(Miter, DetectsSingleGateDifference) {
  Netlist a;
  {
    const auto x = a.add_input("x");
    const auto y = a.add_input("y");
    a.mark_output(a.add_gate(GateType::kAnd, {x, y}, "g"));
  }
  Netlist b;
  {
    const auto x = b.add_input("x");
    const auto y = b.add_input("y");
    b.mark_output(b.add_gate(GateType::kNand, {x, y}, "g"));
  }
  Solver solver;
  const Encoding ea = encode_netlist(solver, a);
  const Encoding eb = encode_netlist(solver, b, ea.primary_input_var);
  const Var miter = make_miter(solver, ea, eb);
  EXPECT_EQ(solver.solve({make_lit(miter)}), SolveResult::kSat);
}

TEST(CheckEquivalent, DeMorganPair) {
  Netlist lhs;
  {
    const auto x = lhs.add_input("x");
    const auto y = lhs.add_input("y");
    lhs.mark_output(lhs.add_gate(GateType::kNand, {x, y}, "g"));
  }
  Netlist rhs;
  {
    const auto x = rhs.add_input("x");
    const auto y = rhs.add_input("y");
    const auto nx = rhs.add_gate(GateType::kNot, {x}, "nx");
    const auto ny = rhs.add_gate(GateType::kNot, {y}, "ny");
    rhs.mark_output(rhs.add_gate(GateType::kOr, {nx, ny}, "g"));
  }
  EXPECT_TRUE(check_equivalent(lhs, {}, rhs, {}));
}

TEST(CheckEquivalent, InterfaceMismatchIsFalse) {
  const Netlist c17 = netlist::gen::c17();
  Netlist tiny;
  tiny.mark_output(tiny.add_input("a"));
  EXPECT_FALSE(check_equivalent(c17, {}, tiny, {}));
}

TEST(CheckEquivalent, KeyedCircuitUnderCorrectAndWrongKey) {
  // locked: y = XOR(x, k). With k=0 it equals BUF(x); with k=1 it doesn't.
  Netlist locked;
  {
    const auto x = locked.add_input("x");
    const auto k = locked.add_input("keyinput0", true);
    locked.mark_output(locked.add_gate(GateType::kXor, {x, k}, "g"));
  }
  Netlist plain;
  {
    const auto x = plain.add_input("x");
    plain.mark_output(plain.add_gate(GateType::kBuf, {x}, "g"));
  }
  EquivalenceStats stats;
  EXPECT_TRUE(check_equivalent(locked, {false}, plain, {}, &stats));
  EXPECT_EQ(stats.residual_outputs, 0u);  // the key XOR hashed to a wire
  EXPECT_FALSE(check_equivalent(locked, {true}, plain, {}, &stats));
  EXPECT_EQ(stats.residual_outputs, 1u);
  EXPECT_TRUE(check_unlocks(locked, {false}, plain));
}

TEST(CheckEquivalent, KeyLengthMismatchThrows) {
  Netlist locked;
  {
    const auto x = locked.add_input("x");
    const auto k = locked.add_input("keyinput0", true);
    locked.mark_output(locked.add_gate(GateType::kXor, {x, k}, "g"));
  }
  EXPECT_THROW(check_equivalent(locked, {true, false}, locked, {true}),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Strashed checker: one hand-built case per normalization rule. Each pair is
// equivalent, and the rule under test is what merges it without SAT.

/// Two netlists over the same inputs, built side by side.
struct Pair {
  Netlist a;
  Netlist b;
  std::vector<NodeId> in_a;
  std::vector<NodeId> in_b;

  explicit Pair(std::size_t inputs) {
    for (std::size_t i = 0; i < inputs; ++i) {
      in_a.push_back(a.add_input("x" + std::to_string(i)));
      in_b.push_back(b.add_input("x" + std::to_string(i)));
    }
  }
};

void expect_merged(const Netlist& a, const Netlist& b) {
  EquivalenceStats stats;
  EXPECT_TRUE(check_equivalent(a, {}, b, {}, &stats));
  EXPECT_EQ(stats.residual_outputs, 0u);
  EXPECT_EQ(stats.sat_calls, 0u);
}

TEST(StrashRules, AndWithComplementFoldsToFalse) {
  Pair p(2);
  const NodeId nx = p.a.add_gate(GateType::kNot, {p.in_a[0]});
  p.a.mark_output(
      p.a.add_gate(GateType::kAnd, {p.in_a[0], p.in_a[1], nx}));
  // OR(x, ¬x) is the dual: ¬AND(¬x, x) = 1.
  const NodeId nx2 = p.a.add_gate(GateType::kNot, {p.in_a[0]});
  p.a.mark_output(p.a.add_gate(GateType::kOr, {nx2, p.in_a[0]}));
  p.b.mark_output(p.b.add_const(false));
  p.b.mark_output(p.b.add_const(true));
  expect_merged(p.a, p.b);
}

TEST(StrashRules, AndSortsAndDeduplicatesFanins) {
  Pair p(3);
  p.a.mark_output(p.a.add_gate(
      GateType::kAnd, {p.in_a[2], p.in_a[0], p.in_a[2], p.in_a[1]}));
  p.b.mark_output(
      p.b.add_gate(GateType::kAnd, {p.in_b[0], p.in_b[1], p.in_b[2]}));
  expect_merged(p.a, p.b);
}

TEST(StrashRules, XorPairsCancelAndComplementsMoveIntoPhase) {
  Pair p(3);
  // x0 ⊕ x1 ⊕ x0 == x1.
  p.a.mark_output(
      p.a.add_gate(GateType::kXor, {p.in_a[0], p.in_a[1], p.in_a[0]}));
  p.b.mark_output(p.b.add_gate(GateType::kBuf, {p.in_b[1]}));
  // ¬x0 ⊕ x2 == XNOR(x2, x0).
  const NodeId nx0 = p.a.add_gate(GateType::kNot, {p.in_a[0]});
  p.a.mark_output(p.a.add_gate(GateType::kXor, {nx0, p.in_a[2]}));
  p.b.mark_output(p.b.add_gate(GateType::kXnor, {p.in_b[2], p.in_b[0]}));
  // x0 ⊕ x0 ⊕ x0 ⊕ x0 == 0 and XNOR(x1, x1) == 1.
  p.a.mark_output(p.a.add_gate(
      GateType::kXor, {p.in_a[0], p.in_a[0], p.in_a[0], p.in_a[0]}));
  p.a.mark_output(p.a.add_gate(GateType::kXnor, {p.in_a[1], p.in_a[1]}));
  p.b.mark_output(p.b.add_const(false));
  p.b.mark_output(p.b.add_const(true));
  expect_merged(p.a, p.b);
}

TEST(StrashRules, MuxComplementedSelectSwapsData) {
  Pair p(3);
  const NodeId ns = p.a.add_gate(GateType::kNot, {p.in_a[0]});
  p.a.mark_output(
      p.a.add_gate(GateType::kMux, {ns, p.in_a[1], p.in_a[2]}));
  p.b.mark_output(
      p.b.add_gate(GateType::kMux, {p.in_b[0], p.in_b[2], p.in_b[1]}));
  // MUX(s, ¬d0, ¬d1) == ¬MUX(s, d0, d1): the data phase is normalized.
  const NodeId n1 = p.a.add_gate(GateType::kNot, {p.in_a[1]});
  const NodeId n2 = p.a.add_gate(GateType::kNot, {p.in_a[2]});
  p.a.mark_output(p.a.add_gate(GateType::kMux, {p.in_a[0], n1, n2}));
  p.b.mark_output(p.b.add_gate(
      GateType::kNot, {p.b.add_gate(GateType::kMux,
                                    {p.in_b[0], p.in_b[1], p.in_b[2]})}));
  expect_merged(p.a, p.b);
}

TEST(StrashRules, MuxWithConstantDataBecomesAnd) {
  Pair p(2);
  const NodeId s = p.in_a[0];
  const NodeId d = p.in_a[1];
  const NodeId zero = p.a.add_const(false);
  const NodeId one = p.a.add_const(true);
  p.a.mark_output(p.a.add_gate(GateType::kMux, {s, zero, d}));  // s ∧ d
  p.a.mark_output(p.a.add_gate(GateType::kMux, {s, one, d}));   // ¬s ∨ d
  p.a.mark_output(p.a.add_gate(GateType::kMux, {s, d, zero}));  // ¬s ∧ d
  p.a.mark_output(p.a.add_gate(GateType::kMux, {s, d, one}));   // s ∨ d
  p.a.mark_output(p.a.add_gate(GateType::kMux, {zero, d, s}));  // d
  p.a.mark_output(p.a.add_gate(GateType::kMux, {one, d, s}));   // s
  const NodeId bs = p.in_b[0];
  const NodeId bd = p.in_b[1];
  const NodeId nbs = p.b.add_gate(GateType::kNot, {bs});
  p.b.mark_output(p.b.add_gate(GateType::kAnd, {bd, bs}));
  p.b.mark_output(p.b.add_gate(GateType::kOr, {nbs, bd}));
  p.b.mark_output(p.b.add_gate(GateType::kNor, {bs, p.b.add_gate(
                                                        GateType::kNot,
                                                        {bd})}));
  p.b.mark_output(p.b.add_gate(GateType::kNand, {nbs, p.b.add_gate(
                                                         GateType::kNot,
                                                         {bd})}));
  p.b.mark_output(p.b.add_gate(GateType::kBuf, {bd}));
  p.b.mark_output(p.b.add_gate(GateType::kBuf, {bs}));
  expect_merged(p.a, p.b);
}

TEST(StrashRules, MuxWithEqualDataFolds) {
  Pair p(2);
  p.a.mark_output(
      p.a.add_gate(GateType::kMux, {p.in_a[0], p.in_a[1], p.in_a[1]}));
  p.b.mark_output(p.b.add_gate(GateType::kBuf, {p.in_b[1]}));
  expect_merged(p.a, p.b);
}

TEST(StrashRules, NandNorXnorPhases) {
  Pair p(2);
  const NodeId x = p.in_a[0];
  const NodeId y = p.in_a[1];
  p.a.mark_output(p.a.add_gate(GateType::kNand, {x, y}));
  p.a.mark_output(p.a.add_gate(GateType::kNor, {x, y}));
  p.a.mark_output(p.a.add_gate(GateType::kXnor, {x, y}));
  p.a.mark_output(p.a.add_gate(GateType::kOr, {x, y}));
  const NodeId bx = p.in_b[0];
  const NodeId by = p.in_b[1];
  const NodeId nbx = p.b.add_gate(GateType::kNot, {bx});
  const NodeId nby = p.b.add_gate(GateType::kNot, {by});
  p.b.mark_output(p.b.add_gate(GateType::kNot, {p.b.add_gate(
                                                     GateType::kAnd,
                                                     {by, bx})}));
  p.b.mark_output(p.b.add_gate(GateType::kAnd, {nbx, nby}));
  p.b.mark_output(p.b.add_gate(GateType::kNot, {p.b.add_gate(
                                                     GateType::kXor,
                                                     {by, bx})}));
  p.b.mark_output(p.b.add_gate(GateType::kNand, {nby, nbx}));
  expect_merged(p.a, p.b);

  // A wrong phase is a residual output that simulation refutes at once.
  Pair q(2);
  q.a.mark_output(q.a.add_gate(GateType::kAnd, {q.in_a[0], q.in_a[1]}));
  q.b.mark_output(q.b.add_gate(GateType::kNand, {q.in_b[0], q.in_b[1]}));
  EquivalenceStats stats;
  EXPECT_FALSE(check_equivalent(q.a, {}, q.b, {}, &stats));
  EXPECT_EQ(stats.residual_outputs, 1u);
  EXPECT_EQ(stats.sat_calls, 0u);
}

TEST(StrashChecker, EveryDefaultSchemeCorrectKeyMergesWithoutSat) {
  for (const auto id :
       {netlist::gen::ProfileId::kC432, netlist::gen::ProfileId::kC880,
        netlist::gen::ProfileId::kC1355}) {
    const Netlist original = netlist::gen::make_profile(id, 1);
    const lock::SiteContext context(original);
    for (const auto& scheme : campaign::default_schemes()) {
      for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        SCOPED_TRACE(original.name() + " " + scheme.name + " seed " +
                     std::to_string(seed));
        util::Rng rng(seed);
        util::Rng draw = rng.fork();
        const lock::Genotype genes =
            lock::random_genotype(context, scheme.spec, draw);
        util::Rng repair = rng.fork();
        const lock::LockedDesign design =
            lock::apply_genotype(original, context, genes, repair);
        EquivalenceStats stats;
        EXPECT_TRUE(check_equivalent(design.netlist, design.key, original, {},
                                     &stats));
        EXPECT_EQ(stats.residual_outputs, 0u);
        EXPECT_EQ(stats.sat_calls, 0u);
      }
    }
  }
}

TEST(StrashChecker, SatAttackKeyOtherThanCorrectIsProvedThroughResidual) {
  // On this c1355 D-MUX lock the attack's lex-min key differs from the
  // correct one: hashing leaves outputs unmerged, and the residual miter
  // proves them.
  const Netlist original =
      netlist::gen::make_profile(netlist::gen::ProfileId::kC1355, 1);
  const lock::SiteContext context(original);
  util::Rng rng(1);
  util::Rng draw = rng.fork();
  const lock::Genotype genes =
      lock::random_genotype(context, {.mux_sites = 8}, draw);
  util::Rng repair = rng.fork();
  const lock::LockedDesign design =
      lock::apply_genotype(original, context, genes, repair);

  const attack::SatAttackResult result =
      attack::SatAttack().attack(design.netlist, original);
  ASSERT_TRUE(result.success);
  ASSERT_NE(result.recovered_key, design.key);
  EquivalenceStats stats;
  EXPECT_TRUE(check_equivalent(design.netlist, result.recovered_key, original,
                               {}, &stats));
  EXPECT_GT(stats.residual_outputs, 0u);
  EXPECT_EQ(stats.sat_calls, 1u);
}

/// A random keyed circuit over every gate type. Fanins are drawn with
/// replacement and NOTs are common, so duplicate and complementary fanins,
/// XOR pairs and constant keys on MUX selects all occur.
Netlist random_keyed_circuit(std::size_t inputs, std::size_t keys,
                             std::size_t gates, util::Rng& rng) {
  Netlist n;
  std::vector<NodeId> pool;
  for (std::size_t i = 0; i < inputs; ++i) {
    pool.push_back(n.add_input("x" + std::to_string(i)));
  }
  for (std::size_t k = 0; k < keys; ++k) {
    pool.push_back(n.add_input("keyinput" + std::to_string(k), true));
  }
  pool.push_back(n.add_const(rng.next_bool()));
  const GateType types[] = {GateType::kBuf,  GateType::kNot, GateType::kNot,
                            GateType::kAnd,  GateType::kNand, GateType::kOr,
                            GateType::kNor,  GateType::kXor, GateType::kXnor,
                            GateType::kMux,  GateType::kMux};
  for (std::size_t g = 0; g < gates; ++g) {
    const GateType type = types[rng.next_below(std::size(types))];
    const netlist::Arity arity = netlist::gate_arity(type);
    const std::size_t count =
        arity.max != 0 ? arity.max : 2 + rng.next_below(3);
    std::vector<NodeId> fanins;
    for (std::size_t f = 0; f < count; ++f) {
      // Prefer recent nodes so the circuit is deep and reconvergent.
      const std::size_t window = std::min<std::size_t>(pool.size(), 12);
      fanins.push_back(rng.next_bool(0.7)
                           ? pool[pool.size() - 1 - rng.next_below(window)]
                           : pool[rng.next_below(pool.size())]);
    }
    pool.push_back(n.add_gate(type, std::move(fanins)));
  }
  for (std::size_t o = 0; o < 4; ++o) {
    n.mark_output(pool[pool.size() - 1 - o]);
  }
  return n;
}

netlist::Key random_key(std::size_t bits, util::Rng& rng) {
  netlist::Key key(bits);
  for (std::size_t i = 0; i < bits; ++i) key[i] = rng.next_bool();
  return key;
}

TEST(StrashChecker, AgreesWithExhaustiveSimulationOnRandomKeyedCircuits) {
  // Two independent circuits over the same interface, one circuit against
  // itself under two keys, and one against a copy that differs on a single
  // vector: every verdict must match exhaustive simulation. Counters make sure both the simulation witness and the
  // residual SAT call decide some of the cases.
  util::Rng rng(0x57A5);
  std::size_t sat_equal = 0;
  std::size_t sat_different = 0;
  std::size_t simulation_different = 0;
  for (int trial = 0; trial < 300; ++trial) {
    const std::size_t inputs = 2 + rng.next_below(11);  // 2..12
    const std::size_t keys = 1 + rng.next_below(4);
    const Netlist a = random_keyed_circuit(inputs, keys, 30, rng);
    const Netlist b = random_keyed_circuit(inputs, keys, 30, rng);
    // `rare` differs from `a` on the all-ones input vector only.
    const Netlist rare = [&a] {
      Netlist copy = a;
      const NodeId all_ones =
          copy.add_gate(GateType::kAnd, a.primary_inputs());
      copy.set_output_driver(0, copy.add_gate(GateType::kXor,
                                              {a.outputs()[0].driver,
                                               all_ones}));
      return copy;
    }();
    const netlist::Key ka = random_key(keys, rng);
    const netlist::Key kb = random_key(keys, rng);
    for (const auto& [lhs, lhs_key, rhs, rhs_key] :
         {std::tuple{&a, ka, &a, kb}, std::tuple{&a, ka, &b, kb},
          std::tuple{&a, ka, &a, ka}, std::tuple{&a, ka, &rare, ka}}) {
      EquivalenceStats stats;
      const bool strashed =
          check_equivalent(*lhs, lhs_key, *rhs, rhs_key, &stats);
      const bool exhaustive = Simulator::equivalent_exhaustive(
          Simulator(*lhs), lhs_key, Simulator(*rhs), rhs_key);
      ASSERT_EQ(strashed, exhaustive) << "trial " << trial;
      if (stats.sat_calls == 1) {
        ++(strashed ? sat_equal : sat_different);
      } else if (!strashed) {
        ++simulation_different;
      }
    }
  }
  EXPECT_GT(sat_equal, 0u);
  EXPECT_GT(sat_different, 0u);
  EXPECT_GT(simulation_different, 0u);
}

TEST(StrashChecker, AgreesWithExhaustiveSimulationOnLockedRandomCircuits) {
  // Correct keys of every default scheme merge; random wrong keys get the
  // exhaustive-simulation verdict.
  netlist::gen::RandomCircuitConfig config;
  config.primary_inputs = 12;
  config.outputs = 6;
  config.gates = 120;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const Netlist original = netlist::gen::make_random(config, seed);
    const lock::SiteContext context(original);
    const Simulator original_sim(original);
    for (const auto& scheme : campaign::default_schemes()) {
      SCOPED_TRACE(scheme.name + " seed " + std::to_string(seed));
      util::Rng rng(seed);
      util::Rng draw = rng.fork();
      const lock::Genotype genes =
          lock::random_genotype(context, scheme.spec, draw);
      util::Rng repair = rng.fork();
      const lock::LockedDesign design =
          lock::apply_genotype(original, context, genes, repair);
      EquivalenceStats stats;
      EXPECT_TRUE(
          check_equivalent(design.netlist, design.key, original, {}, &stats));
      EXPECT_EQ(stats.residual_outputs, 0u);
      const Simulator locked_sim(design.netlist);
      for (int trial = 0; trial < 8; ++trial) {
        const netlist::Key key = random_key(design.key.size(), rng);
        EXPECT_EQ(check_equivalent(design.netlist, key, original, {}),
                  Simulator::equivalent_exhaustive(locked_sim, key,
                                                   original_sim, {}));
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Delta proof: check_unlocks proves a decoded design from its difference to
// the original and must reach check_equivalent's verdict on every key.

Netlist delta_circuit(const std::string& name) {
  if (name != "random5k") {
    return netlist::gen::make_profile(netlist::gen::profile_by_name(name), 1);
  }
  netlist::gen::RandomCircuitConfig config;
  config.name = name;
  config.primary_inputs = 40;
  config.outputs = 24;
  config.gates = 5000;
  config.target_depth = 30;
  return netlist::gen::make_random(config, 5);
}

/// test_scheme_fuzz's adversarial wrong key: every MUX select and RLL
/// polarity flipped, and the first K1 bit of each Anti-SAT block.
netlist::Key adversarial_key(const lock::LockedDesign& design) {
  netlist::Key wrong = design.key;
  const auto layout = lock::key_layout(design.genes);
  for (std::size_t t = 0; t < layout.size(); ++t) {
    if (layout[t].kind != lock::GeneKind::kAntiSat ||
        layout[t].bit_in_gene == 0) {
      wrong[t] = !wrong[t];
    }
  }
  return wrong;
}

/// The correct key takes the delta path; a random and the adversarial
/// wrong key get the full check's verdict.
void expect_delta_verdicts(const lock::LockedDesign& design,
                           const Netlist& original, util::Rng& rng) {
  EquivalenceStats stats;
  EXPECT_TRUE(check_unlocks(design.netlist, design.key, original, &stats));
  EXPECT_TRUE(stats.delta_proof);
  EXPECT_EQ(stats.sat_calls, 0u);
  for (const netlist::Key& key :
       {adversarial_key(design), random_key(design.key.size(), rng)}) {
    EXPECT_EQ(check_unlocks(design.netlist, key, original),
              check_equivalent(design.netlist, key, original, {}));
  }
}

class DeltaProof : public ::testing::TestWithParam<const char*> {};

TEST_P(DeltaProof, AgreesWithTheFullCheckOnEverySchemeAndSplice) {
  const Netlist original = delta_circuit(GetParam());
  const lock::SiteContext context(original);
  util::Rng rng(0xDE17A);
  for (const std::size_t k : {8, 16, 32}) {
    std::vector<campaign::SchemeAxis> schemes = campaign::default_schemes(k);
    // Compound locks whose Anti-SAT block splices an internal wire, which
    // may run into or out of one of the same lock's key MUXes.
    for (int variant = 0; variant < 4; ++variant) {
      schemes.push_back(
          {"compound-internal-" + std::to_string(variant),
           lock::GenotypeSpec{.mux_sites = k / 2,
                              .rll_gates = k / 4,
                              .antisat_width = std::max<std::size_t>(2, k / 8),
                              .antisat_splice_output = false}});
    }
    for (const auto& scheme : schemes) {
      SCOPED_TRACE(std::string(GetParam()) + " K=" + std::to_string(k) + " " +
                   scheme.name);
      util::Rng draw = rng.fork();
      const lock::Genotype genes =
          lock::random_genotype(context, scheme.spec, draw);
      util::Rng repair = rng.fork();
      const lock::LockedDesign design =
          lock::apply_genotype(original, context, genes, repair);
      expect_delta_verdicts(design, original, rng);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Circuits, DeltaProof,
                         ::testing::Values("c432", "c880", "c1355",
                                           "random5k"));

TEST(DeltaProofSplices, CoverWiresIntoAndOutOfKeyMuxes) {
  // Internal Anti-SAT splices draw any wire that precedes the block, so on
  // c432 some run into a key MUX (the sink is key logic) and some out of
  // one (the displaced driver is). Both must take the delta path.
  const Netlist original = delta_circuit("c432");
  const lock::SiteContext context(original);
  const lock::GenotypeSpec spec{.mux_sites = 16,
                                .antisat_width = 3,
                                .antisat_splice_output = false};
  util::Rng rng(0x5B11CE);
  std::size_t into_mux = 0;
  std::size_t out_of_mux = 0;
  for (int trial = 0; trial < 200 && (into_mux < 3 || out_of_mux < 3);
       ++trial) {
    util::Rng draw = rng.fork();
    const lock::Genotype genes = lock::random_genotype(context, spec, draw);
    util::Rng repair = rng.fork();
    const lock::LockedDesign design =
        lock::apply_genotype(original, context, genes, repair);
    const lock::AppliedGene& block = design.applied.back();
    ASSERT_EQ(block.kind, lock::GeneKind::kAntiSat);
    const bool into = block.sink >= original.size();
    const bool out_of = block.driver >= original.size();
    if (!into && !out_of) continue;
    into_mux += into ? 1 : 0;
    out_of_mux += out_of ? 1 : 0;
    SCOPED_TRACE("trial " + std::to_string(trial));
    expect_delta_verdicts(design, original, rng);
  }
  EXPECT_GE(into_mux, 3u);
  EXPECT_GE(out_of_mux, 3u);
}

TEST(DeltaProofFallback, EditsOutsideTheDecodeGetTheFullVerdict) {
  const Netlist original = delta_circuit("c880");
  const lock::SiteContext context(original);
  util::Rng rng(0xFA11);
  util::Rng draw = rng.fork();
  const lock::Genotype genes =
      lock::random_genotype(context, {.mux_sites = 8, .rll_gates = 4}, draw);
  util::Rng repair = rng.fork();
  const lock::LockedDesign design =
      lock::apply_genotype(original, context, genes, repair);
  const NodeId input = original.primary_inputs().front();

  // An original gate rewired after decode, where no decode record says so:
  // the compare finds it, and the full check refutes the design.
  std::size_t refuted = 0;
  for (NodeId g = 0; g < original.size() && refuted < 3; ++g) {
    const auto& node = design.netlist.node(g);
    if (node.type == GateType::kInput || node.fanins.size() < 2 ||
        node.fanins[0] == input) {
      continue;
    }
    Netlist edited = design.netlist;
    edited.replace_fanin(g, node.fanins[0], input);
    const bool full = check_equivalent(edited, design.key, original, {});
    EquivalenceStats stats;
    EXPECT_EQ(check_unlocks(edited, design.key, original, &stats), full);
    EXPECT_FALSE(stats.delta_proof) << "gate " << g;
    refuted += full ? 0 : 1;
  }
  EXPECT_EQ(refuted, 3u);

  // An output port moved to another original node.
  Netlist moved = design.netlist;
  const NodeId other = original.outputs()[1].driver;
  ASSERT_NE(other, moved.outputs()[0].driver);
  moved.set_output_driver(0, other);
  EquivalenceStats stats;
  EXPECT_EQ(check_unlocks(moved, design.key, original, &stats),
            check_equivalent(moved, design.key, original, {}));
  EXPECT_FALSE(stats.delta_proof);
  EXPECT_FALSE(check_unlocks(moved, design.key, original));

  // A .bench round trip renumbers the nodes: no ids line up, and the full
  // check still proves it.
  std::ostringstream text;
  netlist::bench::stream_write(design.netlist, text);
  std::istringstream in(text.str());
  const Netlist reparsed = netlist::bench::stream_parse(in);
  EXPECT_TRUE(check_unlocks(reparsed, design.key, original, &stats));
  EXPECT_FALSE(stats.delta_proof);
}

class CnfRandomEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CnfRandomEquivalence, SimulatorAgreesWithSatOnRandomCircuits) {
  // Random circuit equals itself; and differs from a mutated copy
  // (detected by SAT, confirmed by simulation).
  netlist::gen::RandomCircuitConfig config;
  config.primary_inputs = 8;
  config.outputs = 3;
  config.gates = 40;
  const Netlist original = netlist::gen::make_random(config, GetParam());
  EXPECT_TRUE(check_equivalent(original, {}, original, {}));

  // Mutate: flip one gate's type (AND <-> OR or NOT <-> BUF).
  Netlist mutated = original;
  bool flipped = false;
  for (NodeId v = 0; v < mutated.size() && !flipped; ++v) {
    auto type = mutated.node(v).type;
    GateType target = type;
    if (type == GateType::kAnd) target = GateType::kNand;
    else if (type == GateType::kNand) target = GateType::kAnd;
    else if (type == GateType::kOr) target = GateType::kNor;
    else continue;
    // Rebuild with the flipped type (Netlist is immutable in type; rebuild).
    // Share the name table so the NameIds below stay meaningful.
    Netlist rebuilt(mutated.name(), mutated.names());
    std::vector<NodeId> remap(mutated.size());
    for (NodeId w = 0; w < mutated.size(); ++w) {
      const auto& node = mutated.node(w);
      if (node.type == GateType::kInput) {
        remap[w] = rebuilt.add_input(node.name, node.is_key_input);
        continue;
      }
      std::vector<NodeId> fanins;
      for (NodeId f : node.fanins) fanins.push_back(remap[f]);
      remap[w] = rebuilt.add_gate(w == v ? target : node.type,
                                  std::move(fanins), node.name);
    }
    for (const auto& port : mutated.outputs()) {
      rebuilt.mark_output(remap[port.driver], port.name);
    }
    mutated = std::move(rebuilt);
    flipped = true;
  }
  ASSERT_TRUE(flipped);
  // Cross-check: SAT equivalence must agree exactly with exhaustive
  // simulation (8 primary inputs -> 256 vectors, cheap).
  const bool sat_equivalent = check_equivalent(original, {}, mutated, {});
  const bool sim_equivalent = Simulator::equivalent_exhaustive(
      Simulator(original), {}, Simulator(mutated), {});
  EXPECT_EQ(sat_equivalent, sim_equivalent);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CnfRandomEquivalence,
                         ::testing::Values(21, 22, 23, 24, 25, 26));

}  // namespace
}  // namespace autolock::sat
