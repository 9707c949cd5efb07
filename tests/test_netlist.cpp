#include "netlist/netlist.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "netlist/generator.hpp"

namespace autolock::netlist {
namespace {

Netlist small_example() {
  // a, b, c inputs; g1 = AND(a,b); g2 = NOT(c); g3 = OR(g1,g2); out g3.
  Netlist n("small");
  const auto a = n.add_input("a");
  const auto b = n.add_input("b");
  const auto c = n.add_input("c");
  const auto g1 = n.add_gate(GateType::kAnd, {a, b}, "g1");
  const auto g2 = n.add_gate(GateType::kNot, {c}, "g2");
  const auto g3 = n.add_gate(GateType::kOr, {g1, g2}, "g3");
  n.mark_output(g3, "y");
  return n;
}

TEST(Netlist, BasicConstruction) {
  const Netlist n = small_example();
  EXPECT_EQ(n.size(), 6u);
  EXPECT_EQ(n.inputs().size(), 3u);
  EXPECT_EQ(n.outputs().size(), 1u);
  EXPECT_EQ(n.output_name(0), "y");
  EXPECT_NO_THROW(n.validate());
}

TEST(Netlist, DuplicateNameRejected) {
  Netlist n;
  n.add_input("a");
  EXPECT_THROW(n.add_input("a"), std::invalid_argument);
  const auto a = n.find("a");
  EXPECT_THROW(n.add_gate(GateType::kNot, {a}, "a"), std::invalid_argument);
}

TEST(Netlist, EmptyInputNameRejected) {
  Netlist n;
  EXPECT_THROW(n.add_input(""), std::invalid_argument);
}

TEST(Netlist, GateArityEnforced) {
  Netlist n;
  const auto a = n.add_input("a");
  EXPECT_THROW(n.add_gate(GateType::kNot, {a, a}, "x"), std::invalid_argument);
  EXPECT_THROW(n.add_gate(GateType::kAnd, {a}, "x"), std::invalid_argument);
  EXPECT_THROW(n.add_gate(GateType::kMux, {a, a}, "x"), std::invalid_argument);
}

TEST(Netlist, FaninMustExist) {
  Netlist n;
  const auto a = n.add_input("a");
  EXPECT_THROW(n.add_gate(GateType::kNot, {static_cast<NodeId>(99)}, "x"),
               std::invalid_argument);
  EXPECT_NO_THROW(n.add_gate(GateType::kNot, {a}, "x"));
}

TEST(Netlist, AddGateRejectsSourceTypes) {
  Netlist n;
  EXPECT_THROW(n.add_gate(GateType::kInput, {}, "x"), std::invalid_argument);
  EXPECT_THROW(n.add_gate(GateType::kConst0, {}, "x"), std::invalid_argument);
}

TEST(Netlist, AutoNamesAreUnique) {
  Netlist n;
  const auto a = n.add_input("a");
  const auto g1 = n.add_gate(GateType::kNot, {a});
  const auto g2 = n.add_gate(GateType::kNot, {a});
  EXPECT_NE(n.node(g1).name, n.node(g2).name);
}

TEST(Netlist, KeyInputsSeparatedFromPrimary) {
  Netlist n;
  n.add_input("x");
  n.add_input("keyinput0", true);
  n.add_input("y");
  n.add_input("keyinput1", true);
  EXPECT_EQ(n.primary_inputs().size(), 2u);
  EXPECT_EQ(n.key_inputs().size(), 2u);
  EXPECT_EQ(n.inputs().size(), 4u);
  EXPECT_TRUE(n.node(n.key_inputs()[0]).is_key_input);
}

TEST(Netlist, FindByName) {
  const Netlist n = small_example();
  EXPECT_NE(n.find("g2"), kNoNode);
  EXPECT_EQ(n.find("missing"), kNoNode);
  EXPECT_EQ(n.node(n.find("g2")).type, GateType::kNot);
}

TEST(Netlist, TopologicalOrderRespectsDependencies) {
  const Netlist n = small_example();
  const auto order = n.topological_order();
  EXPECT_EQ(order.size(), n.size());
  std::vector<std::size_t> position(n.size());
  for (std::size_t i = 0; i < order.size(); ++i) position[order[i]] = i;
  for (NodeId v = 0; v < n.size(); ++v) {
    for (NodeId fanin : n.node(v).fanins) {
      EXPECT_LT(position[fanin], position[v]);
    }
  }
}

// The cached order must be exactly the nodes sorted by (longest-path level,
// id), whatever order the gates were created or rewired in.
void expect_level_then_id_order(const Netlist& n) {
  std::vector<std::size_t> level;
  node_levels_into(n, level);
  std::vector<NodeId> expected(n.size());
  for (NodeId v = 0; v < n.size(); ++v) expected[v] = v;
  std::sort(expected.begin(), expected.end(), [&](NodeId x, NodeId y) {
    return level[x] != level[y] ? level[x] < level[y] : x < y;
  });
  EXPECT_EQ(n.topological_order(), expected);
}

TEST(Netlist, TopologicalOrderIsByLevelThenId) {
  Netlist n("rewired");
  const auto a = n.add_input("a");
  const auto b = n.add_input("b");
  const auto g1 = n.add_gate(GateType::kAnd, {a, b}, "g1");
  const auto g2 = n.add_gate(GateType::kNot, {a}, "g2");
  const auto g3 = n.add_gate(GateType::kNot, {g2}, "g3");
  const auto g4 = n.add_gate(GateType::kOr, {g3, b}, "g4");
  const auto c = n.add_input("c");
  n.mark_output(g1, "y");
  n.mark_output(g4, "z");
  EXPECT_EQ(n.topological_order(),
            (std::vector<NodeId>{a, b, c, g1, g2, g3, g4}));
  // Rewire g1 to read the later, deeper g4: g1 moves to the last level.
  ASSERT_EQ(n.replace_fanin(g1, b, g4), 1u);
  ASSERT_TRUE(n.is_acyclic());
  EXPECT_EQ(n.topological_order(),
            (std::vector<NodeId>{a, b, c, g2, g3, g4, g1}));
  expect_level_then_id_order(n);
  n.validate();

  expect_level_then_id_order(gen::make_profile(gen::ProfileId::kC880, 3));
}

TEST(Netlist, CycleDetection) {
  Netlist n;
  const auto a = n.add_input("a");
  const auto g1 = n.add_gate(GateType::kNot, {a}, "g1");
  const auto g2 = n.add_gate(GateType::kNot, {g1}, "g2");
  EXPECT_TRUE(n.is_acyclic());
  // Manufacture a cycle through replace_fanin.
  n.replace_fanin(g1, a, g2);
  EXPECT_FALSE(n.is_acyclic());
  EXPECT_THROW(n.topological_order(), std::runtime_error);
  EXPECT_THROW(n.validate(), std::runtime_error);
}

TEST(Netlist, ValidateProvesAPrimedOrder) {
  // Debug builds reject the bad order in prime_topological_order, release
  // builds in validate(): either way the pair throws.
  Netlist n = small_example();
  std::vector<NodeId> reversed = n.topological_order();
  std::reverse(reversed.begin(), reversed.end());
  EXPECT_ANY_THROW({
    n.prime_topological_order(reversed);
    n.validate();
  });

  // A valid primed order passes, and stays the cached order.
  Netlist m = small_example();
  std::vector<NodeId> order = m.topological_order();
  std::swap(order[0], order[1]);  // two sources: still topological
  const std::vector<NodeId> primed = order;
  m.prime_topological_order(order);
  EXPECT_NO_THROW(m.validate());
  EXPECT_EQ(m.topological_order(), primed);
}

TEST(CsrFanouts, AscendingSinksWithDuplicates) {
  Netlist n = small_example();
  const auto a = n.find("a");
  const auto g1 = n.find("g1");
  const auto g3 = n.find("g3");
  // A later gate reading `a` twice: both edges are listed, after g1.
  const auto g4 = n.add_gate(GateType::kAnd, {a, a}, "g4");
  CsrFanouts fanouts;
  fanouts.build(n);
  ASSERT_EQ(fanouts.node_count(), n.size());
  const auto outs_a = fanouts.fanouts(a);
  EXPECT_EQ(std::vector<NodeId>(outs_a.begin(), outs_a.end()),
            (std::vector<NodeId>{g1, g4, g4}));
  const auto outs_g1 = fanouts.fanouts(g1);
  EXPECT_EQ(std::vector<NodeId>(outs_g1.begin(), outs_g1.end()),
            (std::vector<NodeId>{g3}));
  EXPECT_TRUE(fanouts.fanouts(g3).empty());
  EXPECT_TRUE(fanouts.fanouts(g4).empty());
}

TEST(Netlist, ReplaceFanin) {
  Netlist n;
  const auto a = n.add_input("a");
  const auto b = n.add_input("b");
  const auto g = n.add_gate(GateType::kAnd, {a, a}, "g");
  EXPECT_EQ(n.replace_fanin(g, a, b), 2u);
  EXPECT_EQ(n.node(g).fanins[0], b);
  EXPECT_EQ(n.node(g).fanins[1], b);
  EXPECT_EQ(n.replace_fanin(g, a, b), 0u);
}

TEST(Netlist, AppendFaninOnlyForNaryGates) {
  Netlist n;
  const auto a = n.add_input("a");
  const auto b = n.add_input("b");
  const auto g = n.add_gate(GateType::kAnd, {a, b}, "g");
  const auto inv = n.add_gate(GateType::kNot, {a}, "inv");
  n.append_fanin(g, inv);
  EXPECT_EQ(n.node(g).fanins.size(), 3u);
  EXPECT_THROW(n.append_fanin(inv, b), std::invalid_argument);
}

TEST(Netlist, TruncateDropsTailNodesAndTheirNames) {
  Netlist n = small_example();  // 6 nodes, output y driven by g3 (id 5)
  const auto key = n.add_input("k", /*is_key=*/true);
  const auto x = n.add_gate(GateType::kXor, {key, n.find("g3")}, "x");
  EXPECT_THROW(n.truncate(n.size() + 1), std::invalid_argument);

  n.set_output_driver(0, x);
  EXPECT_THROW(n.truncate(6), std::invalid_argument) << "y drives x";
  EXPECT_EQ(n.size(), 8u) << "a rejected truncate removes nothing";

  n.set_output_driver(0, n.find("g3"));
  const auto version = n.structural_version();
  n.truncate(6);
  EXPECT_NE(n.structural_version(), version);
  EXPECT_EQ(n.size(), 6u);
  EXPECT_EQ(n.inputs().size(), 3u);
  EXPECT_TRUE(n.key_inputs().empty());
  EXPECT_EQ(n.find("k"), kNoNode);
  EXPECT_EQ(n.find("x"), kNoNode);
  EXPECT_NO_THROW(n.validate());

  // The removed names can be added again, at the same ids.
  EXPECT_EQ(n.add_input("k", /*is_key=*/true), key);
  EXPECT_EQ(n.add_gate(GateType::kXnor, {key, n.find("g1")}, "x"), x);
  EXPECT_EQ(n.find("x"), x);
  EXPECT_NO_THROW(n.validate());

  n.truncate(n.size());  // a no-op
  EXPECT_EQ(n.size(), 8u);
}

TEST(Netlist, NamesInternedAfterReserveAreChecked) {
  // reserve_nodes notes which symbols the table has issued; a symbol
  // interned after that (as a decode's key names are) must still pass the
  // same checks as one issued before.
  Netlist n = small_example();
  n.reserve_nodes(4, 2);
  const NameId late = n.names()->intern("late");
  const auto a = n.add_input(late);
  EXPECT_EQ(n.find("late"), a);

  const NameId empty = n.names()->intern("");
  EXPECT_THROW(n.add_input(empty), std::invalid_argument);
  EXPECT_THROW(n.add_gate(GateType::kNot, {a}, empty), std::invalid_argument)
      << "refused again once the empty symbol is below the noted mark";

  const auto unissued = static_cast<NameId>(n.names()->size());
  EXPECT_THROW(n.add_gate(GateType::kNot, {a}, unissued), std::out_of_range);
  EXPECT_EQ(n.size(), 7u) << "a refused name adds no node";
}

TEST(Netlist, DepthAndStats) {
  const Netlist n = small_example();
  EXPECT_EQ(n.depth(), 2u);
  const auto stats = n.stats();
  EXPECT_EQ(stats.primary_inputs, 3u);
  EXPECT_EQ(stats.key_inputs, 0u);
  EXPECT_EQ(stats.outputs, 1u);
  EXPECT_EQ(stats.gates, 3u);
  EXPECT_EQ(stats.depth, 2u);
}

TEST(Netlist, OutputPortDuplicateNameRejected) {
  Netlist n;
  const auto a = n.add_input("a");
  const auto g = n.add_gate(GateType::kNot, {a}, "g");
  n.mark_output(g, "y");
  EXPECT_THROW(n.mark_output(a, "y"), std::invalid_argument);
}

TEST(Netlist, NodeCanDriveMultipleOutputs) {
  Netlist n;
  const auto a = n.add_input("a");
  const auto g = n.add_gate(GateType::kNot, {a}, "g");
  n.mark_output(g, "y1");
  n.mark_output(g, "y2");
  EXPECT_EQ(n.outputs().size(), 2u);
}

TEST(Netlist, SetOutputDriver) {
  Netlist n;
  const auto a = n.add_input("a");
  const auto g1 = n.add_gate(GateType::kNot, {a}, "g1");
  const auto g2 = n.add_gate(GateType::kBuf, {a}, "g2");
  n.mark_output(g1, "y");
  n.set_output_driver(0, g2);
  EXPECT_EQ(n.outputs()[0].driver, g2);
  EXPECT_THROW(n.set_output_driver(5, g2), std::invalid_argument);
}

TEST(Netlist, LiveMaskMarksConeOnly) {
  Netlist n;
  const auto a = n.add_input("a");
  const auto b = n.add_input("b");
  const auto used = n.add_gate(GateType::kNot, {a}, "used");
  const auto dead = n.add_gate(GateType::kNot, {b}, "dead");
  n.mark_output(used, "y");
  const auto live = n.live_mask();
  EXPECT_TRUE(live[a]);
  EXPECT_TRUE(live[used]);
  EXPECT_FALSE(live[dead]);
  EXPECT_FALSE(live[b]);
}

TEST(Netlist, CompactedDropsDeadGatesKeepsInputs) {
  Netlist n;
  const auto a = n.add_input("a");
  const auto b = n.add_input("b");
  const auto used = n.add_gate(GateType::kNot, {a}, "used");
  n.add_gate(GateType::kNot, {b}, "dead");
  n.mark_output(used, "y");
  const Netlist compact = n.compacted();
  EXPECT_EQ(compact.inputs().size(), 2u);   // inputs always kept
  EXPECT_EQ(compact.size(), 3u);            // a, b, used
  EXPECT_NE(compact.find("used"), kNoNode);
  EXPECT_EQ(compact.find("dead"), kNoNode);
  EXPECT_NO_THROW(compact.validate());
  EXPECT_EQ(compact.output_name(0), "y");
}

TEST(Netlist, ConstNodes) {
  Netlist n;
  const auto zero = n.add_const(false, "zero");
  const auto one = n.add_const(true, "one");
  EXPECT_EQ(n.node(zero).type, GateType::kConst0);
  EXPECT_EQ(n.node(one).type, GateType::kConst1);
  const auto g = n.add_gate(GateType::kOr, {zero, one}, "g");
  n.mark_output(g);
  EXPECT_NO_THROW(n.validate());
}

}  // namespace
}  // namespace autolock::netlist
