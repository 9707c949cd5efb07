#include "locking/sites.hpp"

#include <atomic>

namespace autolock::lock {

using netlist::NodeId;

namespace {

std::uint64_t next_decode_token() {
  static std::atomic<std::uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

}  // namespace

SiteContext::SiteContext(const netlist::Netlist& original)
    : original_(&original),
      seed_order_(original.topological_order()),
      decode_token_(next_decode_token()) {
  // Deduplicated ascending fanout CSR, derived from a flat fanout pass
  // (per-source runs are ascending, so duplicates are adjacent).
  {
    netlist::CsrFanouts raw;
    raw.build(original);
    fanout_offsets_.resize(original.size() + 1);
    fanout_edges_.clear();
    fanout_edges_.reserve(raw.edges().size());
    fanout_offsets_[0] = 0;
    for (NodeId v = 0; v < original.size(); ++v) {
      const auto outs = raw.fanouts(v);
      for (std::size_t i = 0; i < outs.size(); ++i) {
        if (i == 0 || outs[i] != outs[i - 1]) fanout_edges_.push_back(outs[i]);
      }
      fanout_offsets_[v + 1] = static_cast<std::uint32_t>(fanout_edges_.size());
    }
  }
  for (NodeId v = 0; v < original.size(); ++v) {
    // Drivers may be inputs or gates, but not constants (locking a constant
    // wire leaks the key bit trivially) and must have at least one gate
    // fanout to redirect.
    const auto type = original.node(v).type;
    if (type == netlist::GateType::kConst0 ||
        type == netlist::GateType::kConst1) {
      continue;
    }
    if (!fanouts(v).empty()) candidate_drivers_.push_back(v);
  }
  fanin_csr_.build(original);
  // Seed the decode-local dynamic order from longest-path levels rather
  // than dense topological positions: levels are the tightest valid rank
  // assignment, so unrelated nodes tie instead of being artificially
  // ordered — which keeps the relabel windows (dependencies ranked at or
  // above an inverted site gate) small. The original's topological order
  // is sorted by (level, id), so it is already sorted by (seed rank, id).
  std::vector<std::uint32_t> level;
  netlist::node_levels_into(original, level);
  topo_rank_.resize(original.size());
  seed_ranks_.resize(original.size());
  seed_order_ranks_.resize(original.size());
  for (std::uint32_t i = 0; i < seed_order_.size(); ++i) {
    const NodeId v = seed_order_[i];
    topo_rank_[v] = i;
    seed_ranks_[v] = (std::uint64_t{level[v]} + 1) * DecodeTopo::kRankGap;
    seed_order_ranks_[i] = seed_ranks_[v];
  }
  primary_inputs_ = original.primary_inputs();
}

const std::vector<std::pair<NodeId, NodeId>>& SiteContext::rll_wires() const {
  std::call_once(rll_wires_once_, [this] {
    // Every fanin edge of the original whose driver is not a constant, each
    // physical wire once, ascending by (driver, sink): the candidate
    // drivers' rows of the deduplicated ascending fanout CSR, in order.
    rll_wires_.reserve(fanout_edges_.size());
    for (const NodeId v : candidate_drivers_) {
      for (const NodeId sink : fanouts(v)) rll_wires_.emplace_back(v, sink);
    }
  });
  return rll_wires_;
}

bool SiteContext::reaches(NodeId from, NodeId target,
                          ReachScratch& scratch) const {
  if (from == target) return true;
  // Only nodes whose topological rank lies between the endpoints' ranks can
  // sit on a forward path, so anything at or past target's rank is pruned.
  const std::uint32_t target_rank = topo_rank_[target];
  if (topo_rank_[from] > target_rank) return false;
  // Forward DFS along fanout edges.
  scratch.visited.begin_epoch(original_->size());
  scratch.stack.clear();
  scratch.stack.push_back(from);
  scratch.visited.mark(from);
  while (!scratch.stack.empty()) {
    const NodeId v = scratch.stack.back();
    scratch.stack.pop_back();
    for (NodeId w : fanouts(v)) {
      if (w == target) return true;
      if (topo_rank_[w] >= target_rank) continue;  // cannot lead to target
      if (scratch.visited.try_mark(w)) scratch.stack.push_back(w);
    }
  }
  return false;
}

bool SiteContext::structurally_valid(const Gene& site) const {
  ReachScratch scratch;
  return structurally_valid(site, scratch);
}

bool SiteContext::structurally_valid(const Gene& site,
                                     ReachScratch& scratch) const {
  const auto n = original_->size();
  if (site.f_i >= n || site.f_j >= n || site.g_i >= n || site.g_j >= n) {
    return false;
  }
  if (site.f_i == site.f_j) return false;
  const auto has_edge = [&](NodeId f, NodeId g) {
    const auto outs = fanouts(f);
    return std::binary_search(outs.begin(), outs.end(), g);
  };
  if (!has_edge(site.f_i, site.g_i) || !has_edge(site.f_j, site.g_j)) {
    return false;
  }
  // New cross edges: f_j -> g_i and f_i -> g_j. A cycle would close iff the
  // destination gate already reaches the new source.
  if (reaches(site.g_i, site.f_j, scratch)) return false;
  if (reaches(site.g_j, site.f_i, scratch)) return false;
  return true;
}

bool SiteContext::edges_available(const Gene& site, const Genotype& taken) {
  for (const Gene& other : taken) {
    if (other.kind != GeneKind::kMux) continue;
    const bool clash =
        (site.f_i == other.f_i && site.g_i == other.g_i) ||
        (site.f_i == other.f_j && site.g_i == other.g_j) ||
        (site.f_j == other.f_i && site.g_j == other.g_i) ||
        (site.f_j == other.f_j && site.g_j == other.g_j) ||
        // Also forbid locking the same (f,g) edge under swapped roles.
        (site.f_j == other.f_i && site.g_j == other.g_i) ||
        (site.f_i == other.f_j && site.g_i == other.g_j);
    if (clash) return false;
  }
  return true;
}

bool SiteContext::sample_site(util::Rng& rng, const Genotype& taken,
                              Gene& out) const {
  ReachScratch scratch;
  return sample_site(rng, taken, out, scratch);
}

bool SiteContext::sample_site(util::Rng& rng, const Genotype& taken,
                              Gene& out, ReachScratch& scratch) const {
  if (candidate_drivers_.size() < 2) return false;
  constexpr int kMaxAttempts = 400;
  for (int attempt = 0; attempt < kMaxAttempts; ++attempt) {
    const NodeId f_i =
        candidate_drivers_[rng.next_below(candidate_drivers_.size())];
    const NodeId f_j =
        candidate_drivers_[rng.next_below(candidate_drivers_.size())];
    if (f_i == f_j) continue;
    const auto outs_i = fanouts(f_i);
    const auto outs_j = fanouts(f_j);
    const NodeId g_i = outs_i[rng.next_below(outs_i.size())];
    const NodeId g_j = outs_j[rng.next_below(outs_j.size())];
    const Gene site = Gene::mux(f_i, f_j, g_i, g_j, rng.next_bool());
    if (!edges_available(site, taken)) continue;
    if (!structurally_valid(site, scratch)) continue;
    out = site;
    return true;
  }
  return false;
}

}  // namespace autolock::lock
