#include "attacks/structural.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "attacks/attack_scratch.hpp"
#include "util/rng.hpp"

namespace autolock::attack {

using netlist::NodeId;

namespace {

constexpr double kLearningRate = 0.1;
constexpr double kL2 = 1e-4;
constexpr double kDecisionThreshold = 0.05;

std::array<double, StructuralLinkPredictor::kPairFeatureDim> pair_features(
    const AttackGraph& graph, const std::vector<std::uint32_t>& levels,
    NodeId u, NodeId v) {
  const auto nu = graph.neighbors(u);
  const auto nv = graph.neighbors(v);

  double common = 0.0;
  double adamic_adar = 0.0;
  {
    auto iu = nu.begin();
    auto iv = nv.begin();
    while (iu != nu.end() && iv != nv.end()) {
      if (*iu < *iv) {
        ++iu;
      } else if (*iv < *iu) {
        ++iv;
      } else {
        common += 1.0;
        const double degree = static_cast<double>(graph.degree(*iu));
        if (degree > 1.0) adamic_adar += 1.0 / std::log(degree);
        ++iu;
        ++iv;
      }
    }
  }
  const double union_size =
      static_cast<double>(nu.size() + nv.size()) - common;
  const double jaccard = union_size > 0.0 ? common / union_size : 0.0;

  // Gate-type compatibility: does v already have a fanin with u's type?
  const auto& locked = graph.locked();
  const auto u_type = locked.node(u).type;
  double type_match = 0.0;
  for (NodeId fanin : locked.node(v).fanins) {
    if (!graph.in_graph(fanin)) continue;
    if (locked.node(fanin).type == u_type) {
      type_match = 1.0;
      break;
    }
  }

  // Logic-level relationship: a real wire runs from a lower-level driver to
  // a higher-level sink, usually adjacent levels. This is the strongest
  // direction-aware cue available without learning on subgraphs.
  const double dlevel = static_cast<double>(levels[v]) -
                        static_cast<double>(levels[u]);
  const double dlevel_clamped = std::clamp(dlevel, -8.0, 8.0) / 8.0;
  const double plausible_level = (dlevel >= 1.0 && dlevel <= 3.0) ? 1.0 : 0.0;

  return {
      common,
      jaccard,
      adamic_adar,
      std::log1p(static_cast<double>(nu.size())),
      std::log1p(static_cast<double>(nv.size())),
      std::log1p(static_cast<double>(nu.size()) *
                 static_cast<double>(nv.size())),
      type_match,
      dlevel_clamped,
      plausible_level,
      1.0,  // bias
  };
}

double predict_prob(
    const std::array<double, StructuralLinkPredictor::kPairFeatureDim>& x,
    const std::array<double, StructuralLinkPredictor::kPairFeatureDim>& w) {
  double z = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) z += x[i] * w[i];
  return 1.0 / (1.0 + std::exp(-z));
}

}  // namespace

StructuralLinkPredictor::StructuralLinkPredictor(
    StructuralPredictorConfig config)
    : config_(config) {}

MuxLinkResult StructuralLinkPredictor::attack(
    const netlist::Netlist& locked) const {
  AttackScratch scratch;
  scratch.graph.build(locked);
  return attack_view(scratch);
}

MuxLinkResult StructuralLinkPredictor::attack(const lock::LockedDesign& design,
                                              AttackScratch& scratch) const {
  scratch.view(design);
  return attack_view(scratch);
}

MuxLinkResult StructuralLinkPredictor::attack_view(
    AttackScratch& scratch) const {
  MuxLinkResult result;
  const AttackGraph& graph = scratch.graph;
  if (graph.problems().empty()) return result;
  const netlist::Netlist& locked = graph.locked();

  util::Rng rng(config_.seed ^ (locked.size() * 0xC0FFEEULL));
  netlist::node_levels_into(locked, scratch.levels);
  const std::vector<std::uint32_t>& levels = scratch.levels;

  if (!sample_training_links(config_.max_train_links, rng, scratch)) {
    return result;
  }
  const std::vector<CandidateLink>& positives = scratch.positives;
  const std::vector<CandidateLink>& negatives = scratch.negatives;

  std::vector<Sample>& samples = scratch.pair_samples;
  samples.clear();
  for (const auto& link : positives) {
    samples.push_back({pair_features(graph, levels, link.u, link.v), 1.0});
  }
  for (const auto& link : negatives) {
    samples.push_back({pair_features(graph, levels, link.u, link.v), 0.0});
  }
  result.train_samples = samples.size();

  std::array<double, kPairFeatureDim> w{};
  std::vector<std::size_t>& order = scratch.order;
  order.resize(samples.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  for (std::size_t epoch = 0; epoch < config_.epochs; ++epoch) {
    rng.shuffle(order);
    // Only the first and last epochs' losses are reported; the loss never
    // feeds the weights, so the other epochs skip it.
    const bool reported = epoch == 0 || epoch + 1 == config_.epochs;
    double loss = 0.0;
    for (std::size_t idx : order) {
      const Sample& sample = samples[idx];
      const double p = predict_prob(sample.x, w);
      if (reported) {
        const double pc = std::clamp(p, 1e-9, 1.0 - 1e-9);
        loss += -(sample.y * std::log(pc) +
                  (1.0 - sample.y) * std::log(1.0 - pc));
      }
      const double err = p - sample.y;
      for (std::size_t i = 0; i < w.size(); ++i) {
        w[i] -= kLearningRate * (err * sample.x[i] + kL2 * w[i]);
      }
    }
    if (!reported) continue;
    loss /= static_cast<double>(samples.size());
    if (epoch == 0) result.first_epoch_loss = loss;
    result.last_epoch_loss = loss;
  }

  decide_key_bits(graph, kDecisionThreshold,
                  [&](const CandidateLink& link) {
                    return predict_prob(
                        pair_features(graph, levels, link.u, link.v), w);
                  },
                  result);
  return result;
}

}  // namespace autolock::attack
