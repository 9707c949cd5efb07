// Allocating views of the attacker graph and the GNN for the tests: the
// adjacency as lists, a subgraph's features unpacked, and one-shot
// extraction, prediction and training that build their own scratch. Each
// gives the same result as the scratch form the library runs.
#pragma once

#include <cstddef>
#include <vector>

#include "attacks/attack_graph.hpp"
#include "attacks/features.hpp"
#include "attacks/gnn.hpp"

namespace autolock::test_support {

/// The graph's adjacency as one list per node: list v is neighbors(v).
std::vector<std::vector<netlist::NodeId>> adjacency_lists(
    const attack::AttackGraph& graph);

/// The feature matrix unpacked, row-major node_count x kFeatureDim.
std::vector<double> dense_features(const attack::Subgraph& sub);

/// attack::extract_subgraph_into on a fresh scratch and output.
attack::Subgraph extract_subgraph(const attack::AttackGraph& graph,
                                  netlist::NodeId u, netlist::NodeId v,
                                  const attack::SubgraphConfig& config);

/// Gnn::predict on a fresh scratch.
double predict(const attack::Gnn& model, const attack::Subgraph& sample);

/// Gnn::train_epoch on a fresh scratch.
double train_epoch(attack::Gnn& model,
                   const std::vector<attack::Subgraph>& samples,
                   const std::vector<std::size_t>& order);

}  // namespace autolock::test_support
