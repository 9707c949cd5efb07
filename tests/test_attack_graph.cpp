#include "attacks/attack_graph.hpp"

#include <gtest/gtest.h>

#include "locking/mux_lock.hpp"
#include "locking/rll.hpp"
#include "netlist/generator.hpp"
#include "support/gnn.hpp"

namespace autolock::attack {
namespace {

using netlist::GateType;
using netlist::Netlist;
using netlist::NodeId;

TEST(AttackGraph, KeyMuxAndKeyInputsRemoved) {
  const Netlist original =
      netlist::gen::make_profile(netlist::gen::ProfileId::kC432, 3);
  const lock::LockedDesign design = lock::dmux_lock(original, 12, 3);
  const AttackGraph graph(design.netlist);
  for (const NodeId key_input : design.netlist.key_inputs()) {
    EXPECT_FALSE(graph.in_graph(key_input));
  }
  for (const auto& rec : design.applied) {
    EXPECT_FALSE(graph.in_graph(rec.first_node + 1));  // M1
    EXPECT_FALSE(graph.in_graph(rec.first_node + 2));  // M2
  }
  // All original-circuit gates remain.
  for (NodeId v = 0; v < original.size(); ++v) {
    EXPECT_TRUE(graph.in_graph(v));
  }
}

TEST(AttackGraph, OneProblemPerKeyBit) {
  const Netlist original =
      netlist::gen::make_profile(netlist::gen::ProfileId::kC432, 5);
  const lock::LockedDesign design = lock::dmux_lock(original, 16, 5);
  const AttackGraph graph(design.netlist);
  EXPECT_EQ(graph.key_bits(), 16u);
  int previous = -1;
  for (const auto& problem : graph.problems()) {
    EXPECT_GT(problem.key_bit_index, previous);  // sorted, unique
    previous = problem.key_bit_index;
    EXPECT_FALSE(problem.if_zero.empty());
    EXPECT_EQ(problem.if_zero.size(), problem.if_one.size());
  }
}

TEST(AttackGraph, CandidatesMatchGroundTruth) {
  // The if_zero/if_one candidate links must agree with the decode
  // convention: key bit == site.key_bit restores f_i -> g_i and f_j -> g_j.
  const Netlist original =
      netlist::gen::make_profile(netlist::gen::ProfileId::kC432, 7);
  const lock::LockedDesign design = lock::dmux_lock(original, 10, 7);
  const AttackGraph graph(design.netlist);
  ASSERT_EQ(graph.problems().size(), design.genes.size());
  for (const auto& problem : graph.problems()) {
    const auto& site = design.genes[problem.key_bit_index];
    const bool truth = design.key[problem.key_bit_index];
    // The candidates asserted by the TRUE key value must contain the
    // original edges (f_i, g_i) and (f_j, g_j).
    const auto& true_links = truth ? problem.if_one : problem.if_zero;
    bool found_i = false, found_j = false;
    for (const auto& link : true_links) {
      if (link.u == site.f_i && link.v == site.g_i) found_i = true;
      if (link.u == site.f_j && link.v == site.g_j) found_j = true;
    }
    EXPECT_TRUE(found_i) << "bit " << problem.key_bit_index;
    EXPECT_TRUE(found_j) << "bit " << problem.key_bit_index;
  }
}

TEST(AttackGraph, KnownLinksExcludeKeyStructures) {
  const Netlist original =
      netlist::gen::make_profile(netlist::gen::ProfileId::kC432, 9);
  const lock::LockedDesign design = lock::dmux_lock(original, 8, 9);
  const AttackGraph graph(design.netlist);
  for (const auto& link : graph.known_links()) {
    EXPECT_TRUE(graph.in_graph(link.u));
    EXPECT_TRUE(graph.in_graph(link.v));
  }
}

TEST(AttackGraph, AdjacencySymmetricAndPresentOnly) {
  const Netlist original =
      netlist::gen::make_profile(netlist::gen::ProfileId::kC880, 11);
  const lock::LockedDesign design = lock::dmux_lock(original, 20, 11);
  const AttackGraph graph(design.netlist);
  const auto adjacency = test_support::adjacency_lists(graph);
  for (NodeId v = 0; v < design.netlist.size(); ++v) {
    if (!graph.in_graph(v)) {
      EXPECT_TRUE(adjacency[v].empty());
      continue;
    }
    for (NodeId w : adjacency[v]) {
      EXPECT_TRUE(graph.in_graph(w));
      EXPECT_TRUE(
          std::binary_search(adjacency[w].begin(), adjacency[w].end(), v));
    }
  }
}

TEST(AttackGraph, RllHasNoMuxProblems) {
  // RLL inserts XOR/XNOR key gates — MuxLink's decision space is empty.
  const Netlist original =
      netlist::gen::make_profile(netlist::gen::ProfileId::kC432, 13);
  const lock::LockedDesign design = lock::rll_lock(original, 8, 13);
  const AttackGraph graph(design.netlist);
  EXPECT_TRUE(graph.problems().empty());
}

TEST(AttackGraph, UnlockedCircuitHasNoProblems) {
  const Netlist original = netlist::gen::c17();
  const AttackGraph graph(original);
  EXPECT_TRUE(graph.problems().empty());
  EXPECT_FALSE(graph.known_links().empty());
}

TEST(AttackGraph, PlainMuxGateIsNotAKeyMux) {
  // A MUX whose select is a regular primary input must stay in the graph.
  Netlist n;
  const auto s = n.add_input("s");
  const auto a = n.add_input("a");
  const auto b = n.add_input("b");
  const auto m = n.add_gate(GateType::kMux, {s, a, b}, "m");
  n.mark_output(m);
  const AttackGraph graph(n);
  EXPECT_TRUE(graph.in_graph(m));
  EXPECT_TRUE(graph.problems().empty());
}

}  // namespace
}  // namespace autolock::attack
