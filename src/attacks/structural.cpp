#include "attacks/structural.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "attacks/attack_scratch.hpp"
#include "util/rng.hpp"

namespace autolock::attack {

using netlist::NodeId;

namespace {

std::array<double, StructuralLinkPredictor::kPairFeatureDim> pair_features(
    const AttackGraph& graph, const std::vector<std::size_t>& levels,
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
  return attack(locked, scratch);
}

MuxLinkResult StructuralLinkPredictor::attack(const netlist::Netlist& locked,
                                              AttackScratch& scratch) const {
  MuxLinkResult result;
  scratch.graph.build(locked);
  const AttackGraph& graph = scratch.graph;
  if (graph.problems().empty()) return result;

  util::Rng rng(config_.seed ^ (locked.size() * 0xC0FFEEULL));
  netlist::node_levels_into(locked, scratch.levels);
  const std::vector<std::size_t>& levels = scratch.levels;

  std::vector<CandidateLink>& positives = scratch.positives;
  positives = graph.known_links();
  if (positives.size() > config_.max_train_links) {
    rng.shuffle(positives);
    positives.resize(config_.max_train_links);
  }
  std::vector<NodeId>& present_nodes = scratch.present_nodes;
  std::vector<NodeId>& present_sinks = scratch.present_sinks;
  present_nodes.clear();
  present_sinks.clear();
  for (NodeId v = 0; v < locked.size(); ++v) {
    if (!graph.in_graph(v)) continue;
    present_nodes.push_back(v);
    if (!locked.node(v).fanins.empty()) present_sinks.push_back(v);
  }
  if (present_nodes.size() < 4 || present_sinks.empty()) return result;

  // Mirror the GNN attack's negative mix: half uniform, half hard
  // (near-the-sink) negatives — see muxlink.cpp for rationale.
  auto sample_hard_negative = [&](CandidateLink& out) {
    const NodeId v = present_sinks[rng.next_below(present_sinks.size())];
    std::vector<NodeId>& ring = scratch.ring;
    std::vector<NodeId>& frontier = scratch.frontier;
    std::vector<NodeId>& next = scratch.next_frontier;
    ring.clear();
    frontier.clear();
    frontier.push_back(v);
    scratch.seen.begin_epoch(locked.size());
    scratch.seen.mark(v);
    for (int hop = 1; hop <= 3; ++hop) {
      next.clear();
      for (const NodeId x : frontier) {
        for (const NodeId y : graph.neighbors(x)) {
          if (!scratch.seen.try_mark(y)) continue;
          next.push_back(y);
          if (hop >= 2) ring.push_back(y);
        }
      }
      std::swap(frontier, next);
      if (ring.size() > 64) break;
    }
    if (ring.empty()) return false;
    out = CandidateLink{ring[rng.next_below(ring.size())], v};
    return true;
  };

  std::vector<CandidateLink>& negatives = scratch.negatives;
  negatives.clear();
  std::size_t guard = 0;
  while (negatives.size() < positives.size() &&
         guard < 100 * positives.size() + 1000) {
    ++guard;
    if (negatives.size() % 2 == 0) {
      CandidateLink hard;
      if (sample_hard_negative(hard)) {
        negatives.push_back(hard);
        continue;
      }
    }
    const NodeId u = present_nodes[rng.next_below(present_nodes.size())];
    const NodeId v = present_sinks[rng.next_below(present_sinks.size())];
    if (u == v) continue;
    const auto nu = graph.neighbors(u);
    if (std::binary_search(nu.begin(), nu.end(), v)) {
      continue;
    }
    negatives.push_back(CandidateLink{u, v});
  }

  struct Sample {
    std::array<double, kPairFeatureDim> x;
    double y;
  };
  std::vector<Sample> samples;
  samples.reserve(positives.size() + negatives.size());
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
    double loss = 0.0;
    for (std::size_t idx : order) {
      const Sample& sample = samples[idx];
      const double p = predict_prob(sample.x, w);
      const double pc = std::clamp(p, 1e-9, 1.0 - 1e-9);
      loss += -(sample.y * std::log(pc) + (1.0 - sample.y) * std::log(1.0 - pc));
      const double err = p - sample.y;
      for (std::size_t i = 0; i < w.size(); ++i) {
        w[i] -= config_.learning_rate *
                (err * sample.x[i] + config_.l2 * w[i]);
      }
    }
    loss /= static_cast<double>(samples.size());
    if (epoch == 0) result.first_epoch_loss = loss;
    result.last_epoch_loss = loss;
  }

  int max_bit = -1;
  for (const auto& problem : graph.problems()) {
    max_bit = std::max(max_bit, problem.key_bit_index);
  }
  result.predicted_bits.assign(static_cast<std::size_t>(max_bit) + 1, 0);
  result.margins.assign(static_cast<std::size_t>(max_bit) + 1, 0.0);
  result.thresholded_bits.assign(static_cast<std::size_t>(max_bit) + 1, -1);
  result.bit_attacked.assign(static_cast<std::size_t>(max_bit) + 1, 0);

  for (const auto& problem : graph.problems()) {
    auto mean_prob = [&](const std::vector<CandidateLink>& links) {
      double sum = 0.0;
      for (const auto& link : links) {
        sum += predict_prob(pair_features(graph, levels, link.u, link.v), w);
      }
      return links.empty() ? 0.5 : sum / static_cast<double>(links.size());
    };
    const double p0 = mean_prob(problem.if_zero);
    const double p1 = mean_prob(problem.if_one);
    const int bit = problem.key_bit_index;
    const int decision = p1 > p0 ? 1 : 0;
    const double margin = std::abs(p1 - p0);
    result.predicted_bits[bit] = decision;
    result.margins[bit] = margin;
    result.thresholded_bits[bit] =
        margin >= config_.decision_threshold ? decision : -1;
    result.bit_attacked[bit] = 1;
  }
  return result;
}

}  // namespace autolock::attack
