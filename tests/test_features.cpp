#include "attacks/features.hpp"

#include <gtest/gtest.h>

#include "locking/mux_lock.hpp"
#include "netlist/generator.hpp"
#include "support/gnn.hpp"

namespace autolock::attack {
namespace {

using netlist::GateType;
using netlist::Netlist;

std::vector<std::uint32_t> labels_of(
    const std::vector<std::vector<std::uint32_t>>& adjacency) {
  SubgraphScratch scratch;
  return drnl_labels(LocalAdjacency::from_lists(adjacency), scratch);
}

TEST(Drnl, EndpointsAlwaysLabelOne) {
  // Path graph 0-2-1 (endpoints joined through node 2).
  std::vector<std::vector<std::uint32_t>> adjacency{{2}, {2}, {0, 1}};
  const auto labels = labels_of(adjacency);
  EXPECT_EQ(labels[0], 1u);
  EXPECT_EQ(labels[1], 1u);
  // Node 2: du=1, dv=1, d=2 -> 1 + 1 + 1*(1+0-1) = 2.
  EXPECT_EQ(labels[2], 2u);
}

TEST(Drnl, UnreachableNodesGetZero) {
  // Node 2 connects only to 0; node 3 isolated.
  std::vector<std::vector<std::uint32_t>> adjacency{{2}, {}, {0}, {}};
  const auto labels = labels_of(adjacency);
  EXPECT_EQ(labels[2], 0u);  // unreachable from endpoint 1
  EXPECT_EQ(labels[3], 0u);
}

TEST(Drnl, AsymmetricDistances) {
  // 0 - 2 - 3 - 1 chain: node 2 has du=1, dv=2 (d=3):
  // label = 1 + 1 + 1*(1+1-1) = 3. Node 3 symmetric: 3.
  std::vector<std::vector<std::uint32_t>> adjacency{
      {2}, {3}, {0, 3}, {2, 1}};
  const auto labels = labels_of(adjacency);
  EXPECT_EQ(labels[2], 3u);
  EXPECT_EQ(labels[3], 3u);
}

TEST(Drnl, CapApplied) {
  // Long chain: distant nodes clamp at kDrnlCap.
  constexpr std::size_t kChain = 30;
  std::vector<std::vector<std::uint32_t>> adjacency(kChain);
  // 0 - 2 - 3 - ... - (kChain-1) - 1
  adjacency[0] = {2};
  adjacency[2] = {0, 3};
  for (std::size_t i = 3; i + 1 < kChain; ++i) {
    adjacency[i] = {static_cast<std::uint32_t>(i - 1),
                    static_cast<std::uint32_t>(i + 1)};
  }
  adjacency[kChain - 1] = {static_cast<std::uint32_t>(kChain - 2), 1};
  adjacency[1] = {static_cast<std::uint32_t>(kChain - 1)};
  const auto labels = labels_of(adjacency);
  std::uint32_t max_label = 0;
  for (auto label : labels) max_label = std::max(max_label, label);
  EXPECT_EQ(max_label, kDrnlCap);
}

TEST(Subgraph, EndpointsOccupySlots01) {
  const Netlist original =
      netlist::gen::make_profile(netlist::gen::ProfileId::kC432, 3);
  const lock::LockedDesign design = lock::dmux_lock(original, 8, 3);
  const AttackGraph graph(design.netlist);
  const auto& link = graph.known_links().front();
  const Subgraph sub =
      test_support::extract_subgraph(graph, link.u, link.v, {});
  ASSERT_GE(sub.node_count, 2u);
  // Endpoints carry DRNL label 1 -> feature index 1 set.
  const std::vector<double> features = test_support::dense_features(sub);
  EXPECT_EQ(features[0 * kFeatureDim + 1], 1.0);
  EXPECT_EQ(features[1 * kFeatureDim + 1], 1.0);
}

TEST(Subgraph, TargetEdgeExcluded) {
  const Netlist original =
      netlist::gen::make_profile(netlist::gen::ProfileId::kC432, 5);
  const lock::LockedDesign design = lock::dmux_lock(original, 8, 5);
  const AttackGraph graph(design.netlist);
  // Pick an existing link; the subgraph must not contain the 0-1 edge.
  const auto& link = graph.known_links()[3];
  const Subgraph sub =
      test_support::extract_subgraph(graph, link.u, link.v, {});
  for (std::uint32_t neighbor : sub.adjacency.neighbors(0)) {
    EXPECT_NE(neighbor, 1u);
  }
  for (std::uint32_t neighbor : sub.adjacency.neighbors(1)) {
    EXPECT_NE(neighbor, 0u);
  }
}

TEST(Subgraph, MaxNodesRespected) {
  const Netlist original =
      netlist::gen::make_profile(netlist::gen::ProfileId::kC880, 7);
  const lock::LockedDesign design = lock::dmux_lock(original, 8, 7);
  const AttackGraph graph(design.netlist);
  SubgraphConfig config;
  config.hops = 4;
  config.max_nodes = 20;
  const auto& link = graph.known_links().front();
  const Subgraph sub =
      test_support::extract_subgraph(graph, link.u, link.v, config);
  EXPECT_LE(sub.node_count, 20u);
}

TEST(Subgraph, FeatureRowsWellFormed) {
  const Netlist original =
      netlist::gen::make_profile(netlist::gen::ProfileId::kC432, 9);
  const lock::LockedDesign design = lock::dmux_lock(original, 8, 9);
  const AttackGraph graph(design.netlist);
  const auto& link = graph.known_links().front();
  const Subgraph sub =
      test_support::extract_subgraph(graph, link.u, link.v, {});
  const std::vector<double> features = test_support::dense_features(sub);
  ASSERT_EQ(features.size(), sub.node_count * kFeatureDim);
  for (std::size_t i = 0; i < sub.node_count; ++i) {
    const double* row = &features[i * kFeatureDim];
    // Exactly one DRNL one-hot and one gate-type one-hot set.
    double drnl_sum = 0.0, type_sum = 0.0;
    for (std::size_t k = 0; k <= kDrnlCap; ++k) drnl_sum += row[k];
    for (std::size_t k = 0; k < netlist::kGateTypeCount; ++k) {
      type_sum += row[kDrnlCap + 1 + k];
    }
    EXPECT_EQ(drnl_sum, 1.0);
    EXPECT_EQ(type_sum, 1.0);
    EXPECT_GE(row[kFeatureDim - 1], 0.0);  // degree feature
  }
}

TEST(Subgraph, LocalAdjacencySymmetric) {
  const Netlist original =
      netlist::gen::make_profile(netlist::gen::ProfileId::kC432, 11);
  const lock::LockedDesign design = lock::dmux_lock(original, 8, 11);
  const AttackGraph graph(design.netlist);
  const auto& link = graph.known_links()[1];
  const Subgraph sub =
      test_support::extract_subgraph(graph, link.u, link.v, {});
  for (std::size_t x = 0; x < sub.node_count; ++x) {
    for (std::uint32_t y : sub.adjacency.neighbors(x)) {
      const auto back = sub.adjacency.neighbors(y);
      EXPECT_NE(std::find(back.begin(), back.end(),
                          static_cast<std::uint32_t>(x)),
                back.end());
    }
  }
}

TEST(Subgraph, SelfLinkDegenerate) {
  const Netlist original = netlist::gen::c17();
  const AttackGraph graph(original);
  const Subgraph sub = test_support::extract_subgraph(graph, 0, 0, {});
  EXPECT_EQ(sub.node_count >= 1, true);
}

}  // namespace
}  // namespace autolock::attack
