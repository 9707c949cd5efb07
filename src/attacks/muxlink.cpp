#include "attacks/muxlink.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>

#include "attacks/attack_scratch.hpp"
#include "util/rng.hpp"

namespace autolock::attack {

using netlist::NodeId;

MuxLinkAttack::MuxLinkAttack(MuxLinkConfig config) : config_(config) {}

MuxLinkResult MuxLinkAttack::attack(const netlist::Netlist& locked) const {
  AttackScratch scratch;
  scratch.graph.build(locked);
  return attack_view(scratch);
}

MuxLinkResult MuxLinkAttack::attack(const lock::LockedDesign& design,
                                    AttackScratch& scratch) const {
  scratch.view(design);
  return attack_view(scratch);
}

MuxLinkResult MuxLinkAttack::attack_view(AttackScratch& scratch) const {
  MuxLinkResult result;
  const AttackGraph& graph = scratch.graph;
  if (graph.problems().empty()) return result;

  util::Rng rng(config_.seed ^ (graph.locked().size() * 0x9E37ULL));

  // ---- assemble the self-supervised training set ---------------------------
  if (!sample_training_links(config_.max_train_links, rng, scratch)) {
    return result;
  }
  const std::vector<CandidateLink>& positives = scratch.positives;
  const std::vector<CandidateLink>& negatives = scratch.negatives;

  // Assemble training samples into the scratch arena: slots (and their
  // adjacency/feature buffers) are reused across designs and epochs instead
  // of building one fresh Subgraph per sample. Slots beyond `sample_count`
  // may hold stale data from a larger previous design; the training order
  // below never indexes them.
  std::vector<Subgraph>& samples = scratch.train_samples;
  const std::size_t sample_count = positives.size() + negatives.size();
  if (samples.size() < sample_count) samples.resize(sample_count);
  std::size_t next_sample = 0;
  for (const auto& link : positives) {
    Subgraph& sub = samples[next_sample++];
    extract_subgraph_into(graph, link.u, link.v, config_.subgraph,
                          scratch.subgraph, sub);
    sub.label = 1.0;
  }
  for (const auto& link : negatives) {
    Subgraph& sub = samples[next_sample++];
    extract_subgraph_into(graph, link.u, link.v, config_.subgraph,
                          scratch.subgraph, sub);
    sub.label = 0.0;
  }
  result.train_samples = sample_count;

  // ---- train ---------------------------------------------------------------
  const std::size_t ensemble_size = std::max<std::size_t>(config_.ensemble, 1);
  std::vector<Gnn> models;
  models.reserve(ensemble_size);
  for (std::size_t m = 0; m < ensemble_size; ++m) {
    models.emplace_back(config_.gnn, config_.seed ^ 0x517EULL ^ (m * 7919));
  }
  std::vector<std::size_t>& order = scratch.order;
  order.resize(sample_count);
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  for (std::size_t epoch = 0; epoch < config_.epochs; ++epoch) {
    double loss = 0.0;
    for (Gnn& model : models) {
      rng.shuffle(order);
      loss += model.train_epoch(samples, order, scratch.gnn);
    }
    loss /= static_cast<double>(ensemble_size);
    if (epoch == 0) result.first_epoch_loss = loss;
    result.last_epoch_loss = loss;
  }

  // ---- decide every key bit -------------------------------------------------
  decide_key_bits(graph, config_.decision_threshold,
                  [&](const CandidateLink& link) {
                    Subgraph& sub = scratch.inference_subgraph;
                    extract_subgraph_into(graph, link.u, link.v,
                                          config_.subgraph, scratch.subgraph,
                                          sub);
                    double p = 0.0;
                    for (const Gnn& model : models) {
                      p += model.predict(sub, scratch.gnn);
                    }
                    return p / static_cast<double>(models.size());
                  },
                  result);
  return result;
}

bool sample_training_links(std::size_t max_positives, util::Rng& rng,
                           AttackScratch& scratch) {
  const AttackGraph& graph = scratch.graph;
  const std::vector<CandidateLink>& links = graph.known_links();
  std::vector<CandidateLink>& positives = scratch.positives;
  if (links.size() <= max_positives) {
    positives = links;
  } else {
    // Rng::shuffle's Fisher–Yates over link indices, cut to the kept
    // prefix: slot i - 1 is never read again once step i has filled it,
    // so slots at or above max_positives take the one store.
    std::vector<std::uint32_t>& order = scratch.link_order;
    order.resize(links.size());
    std::iota(order.begin(), order.end(), std::uint32_t{0});
    for (std::size_t i = order.size(); i > 1; --i) {
      const std::size_t j = rng.next_below(i);
      if (i - 1 < max_positives) {
        std::swap(order[i - 1], order[j]);
      } else {
        order[j] = order[i - 1];
      }
    }
    positives.resize(max_positives);
    for (std::size_t k = 0; k < max_positives; ++k) {
      positives[k] = links[order[k]];
    }
  }

  // Present nodes, split into "possible drivers" (anything present) and
  // "possible sinks" (present gates with fanins) so negatives share the
  // directional shape of positives.
  const std::vector<NodeId>& present_nodes = graph.present_nodes();
  const std::vector<NodeId>& present_sinks = graph.present_sinks();
  if (present_nodes.size() < 4 || present_sinks.empty()) return false;

  auto is_adjacent = [&](NodeId a, NodeId b) {
    const auto list = graph.neighbors(a);
    return std::binary_search(list.begin(), list.end(), b);
  };

  // Negatives: half uniform non-links, half *hard* negatives — a false
  // driver drawn from the sink's 2..3-hop neighbourhood, which is exactly
  // the shape of the wrong MUX candidate the attack must reject at
  // inference time.
  auto sample_hard_negative = [&](CandidateLink& out) {
    const NodeId v = present_sinks[rng.next_below(present_sinks.size())];
    // Bounded BFS to 3 hops; visited marks are epoch-stamped, so this
    // allocates nothing once the scratch is warm.
    std::vector<NodeId>& ring = scratch.ring;
    std::vector<NodeId>& frontier = scratch.frontier;
    std::vector<NodeId>& next = scratch.next_frontier;
    ring.clear();
    frontier.clear();
    frontier.push_back(v);
    scratch.seen.begin_epoch(graph.locked().size());
    scratch.seen.mark(v);
    for (int hop = 1; hop <= 3; ++hop) {
      next.clear();
      for (const NodeId x : frontier) {
        for (const NodeId y : graph.neighbors(x)) {
          if (!scratch.seen.try_mark(y)) continue;
          next.push_back(y);
          if (hop >= 2) ring.push_back(y);  // distance 2..3: non-adjacent
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
  negatives.reserve(positives.size());
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
    if (u == v || is_adjacent(u, v)) continue;
    negatives.push_back(CandidateLink{u, v});
  }
  return true;
}

void decide_key_bits(const AttackGraph& graph, double threshold,
                     const std::function<double(const CandidateLink&)>& prob,
                     MuxLinkResult& result) {
  int max_bit = -1;
  for (const auto& problem : graph.problems()) {
    max_bit = std::max(max_bit, problem.key_bit_index);
  }
  result.predicted_bits.assign(static_cast<std::size_t>(max_bit) + 1, 0);
  result.margins.assign(static_cast<std::size_t>(max_bit) + 1, 0.0);
  result.thresholded_bits.assign(static_cast<std::size_t>(max_bit) + 1, -1);
  result.bit_attacked.assign(static_cast<std::size_t>(max_bit) + 1, 0);

  auto mean_prob = [&](const std::vector<CandidateLink>& links) {
    double sum = 0.0;
    for (const auto& link : links) sum += prob(link);
    return links.empty() ? 0.5 : sum / static_cast<double>(links.size());
  };
  for (const auto& problem : graph.problems()) {
    const double p0 = mean_prob(problem.if_zero);
    const double p1 = mean_prob(problem.if_one);
    const int bit = problem.key_bit_index;
    const int decision = p1 > p0 ? 1 : 0;
    const double margin = std::abs(p1 - p0);
    result.predicted_bits[bit] = decision;
    result.margins[bit] = margin;
    result.thresholded_bits[bit] = margin >= threshold ? decision : -1;
    result.bit_attacked[bit] = 1;
  }
}

}  // namespace autolock::attack
