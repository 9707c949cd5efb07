#include "support/gnn.hpp"

#include <bit>
#include <cstdint>

namespace autolock::test_support {

using attack::kFeatureDim;
using netlist::NodeId;

std::vector<std::vector<NodeId>> adjacency_lists(
    const attack::AttackGraph& graph) {
  std::vector<std::vector<NodeId>> lists(graph.locked().size());
  for (NodeId v = 0; v < lists.size(); ++v) {
    const auto row = graph.neighbors(v);
    lists[v].assign(row.begin(), row.end());
  }
  return lists;
}

std::vector<double> dense_features(const attack::Subgraph& sub) {
  std::vector<double> dense(sub.node_count * kFeatureDim, 0.0);
  const double* value = sub.features.values.data();
  for (std::size_t i = 0; i < sub.node_count; ++i) {
    for (std::uint64_t bits = sub.features.mask[i]; bits != 0;
         bits &= bits - 1) {
      dense[i * kFeatureDim + std::countr_zero(bits)] = *value++;
    }
  }
  return dense;
}

attack::Subgraph extract_subgraph(const attack::AttackGraph& graph, NodeId u,
                                  NodeId v,
                                  const attack::SubgraphConfig& config) {
  attack::SubgraphScratch scratch;
  attack::Subgraph sub;
  attack::extract_subgraph_into(graph, u, v, config, scratch, sub);
  return sub;
}

double predict(const attack::Gnn& model, const attack::Subgraph& sample) {
  attack::GnnScratch scratch;
  return model.predict(sample, scratch);
}

double train_epoch(attack::Gnn& model,
                   const std::vector<attack::Subgraph>& samples,
                   const std::vector<std::size_t>& order) {
  attack::GnnScratch scratch;
  return model.train_epoch(samples, order, scratch);
}

}  // namespace autolock::test_support
