#include "attacks/features.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace autolock::attack {

using netlist::NodeId;

namespace {

constexpr auto kUnreached = std::numeric_limits<std::uint32_t>::max();

/// BFS distances within the subgraph into `dist`, skipping `blocked`
/// (DRNL's "remove the other endpoint" rule). Unreachable = kUnreached.
/// `queue` is the FIFO: every node enters it at most once.
void bfs_from(const LocalAdjacency& adjacency, std::uint32_t source,
              std::uint32_t blocked, std::vector<std::uint32_t>& dist,
              std::vector<std::uint32_t>& queue) {
  dist.assign(adjacency.size(), kUnreached);
  queue.clear();
  dist[source] = 0;
  queue.push_back(source);
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const std::uint32_t x = queue[head];
    for (std::uint32_t y : adjacency.neighbors(x)) {
      if (y == blocked) continue;
      if (dist[y] != kUnreached) continue;
      dist[y] = dist[x] + 1;
      queue.push_back(y);
    }
  }
}

/// Builds sub.neighbor_mean from sub.adjacency and sub.features. Column c
/// of row i sums the neighbours' stored entries in list order, then scales
/// by 1 / degree: the same operations, in the same order, as a dense mean
/// over the nonzeros, and a dense mean adds only zeros besides (a sum that
/// starts at +0.0 never becomes -0.0, so they change nothing).
void build_neighbor_mean(Subgraph& sub, SubgraphScratch& scratch) {
  const std::size_t n = sub.node_count;
  const PackedRows& x = sub.features;
  PackedRows& mean = sub.neighbor_mean;
  std::vector<std::uint32_t>& row_start = scratch.row_start;
  row_start.resize(n);
  std::uint32_t offset = 0;
  for (std::size_t i = 0; i < n; ++i) {
    row_start[i] = offset;
    offset += static_cast<std::uint32_t>(std::popcount(x.mask[i]));
  }
  mean.mask.resize(n);
  mean.values.clear();
  double sum[kFeatureDim];
  for (std::size_t i = 0; i < n; ++i) {
    const auto nbrs = sub.adjacency.neighbors(i);
    std::uint64_t row_mask = 0;
    for (const std::uint32_t j : nbrs) row_mask |= x.mask[j];
    mean.mask[i] = row_mask;
    if (row_mask == 0) continue;
    for (std::uint64_t bits = row_mask; bits != 0; bits &= bits - 1) {
      sum[std::countr_zero(bits)] = 0.0;
    }
    for (const std::uint32_t j : nbrs) {
      const double* value = &x.values[row_start[j]];
      for (std::uint64_t bits = x.mask[j]; bits != 0; bits &= bits - 1) {
        sum[std::countr_zero(bits)] += *value++;
      }
    }
    const double inv = 1.0 / static_cast<double>(nbrs.size());
    for (std::uint64_t bits = row_mask; bits != 0; bits &= bits - 1) {
      mean.values.push_back(sum[std::countr_zero(bits)] * inv);
    }
  }
}

}  // namespace

LocalAdjacency LocalAdjacency::from_lists(
    const std::vector<std::vector<std::uint32_t>>& lists) {
  LocalAdjacency adjacency;
  for (const auto& list : lists) {
    adjacency.edges.insert(adjacency.edges.end(), list.begin(), list.end());
    adjacency.offsets.push_back(
        static_cast<std::uint32_t>(adjacency.edges.size()));
  }
  return adjacency;
}

const std::vector<std::uint32_t>& drnl_labels(const LocalAdjacency& adjacency,
                                              SubgraphScratch& scratch) {
  const std::size_t n = adjacency.size();
  std::vector<std::uint32_t>& labels = scratch.labels;
  labels.assign(n, 0);
  if (n < 2) return labels;
  const auto& du = scratch.dist_u;
  const auto& dv = scratch.dist_v;
  bfs_from(adjacency, 0, 1, scratch.dist_u, scratch.queue);
  bfs_from(adjacency, 1, 0, scratch.dist_v, scratch.queue);
  labels[0] = 1;
  labels[1] = 1;
  for (std::size_t x = 2; x < n; ++x) {
    if (du[x] == kUnreached || dv[x] == kUnreached) {
      labels[x] = 0;  // reachable from at most one endpoint
      continue;
    }
    const std::uint32_t d = du[x] + dv[x];
    const std::uint32_t half = d / 2;
    const std::uint32_t label =
        1 + std::min(du[x], dv[x]) + half * (half + (d % 2) - 1);
    labels[x] = std::min(label, kDrnlCap);
  }
  return labels;
}

void extract_subgraph_into(const AttackGraph& graph, NodeId u, NodeId v,
                           const SubgraphConfig& config,
                           SubgraphScratch& scratch, Subgraph& out) {
  const std::size_t graph_nodes = graph.locked().size();

  // Joint BFS from {u, v}; u and v occupy local slots 0 and 1. Membership
  // is epoch-stamped, so local_of entries are only read where marked.
  scratch.member_marks.begin_epoch(graph_nodes);
  if (scratch.local_of.size() < graph_nodes) scratch.local_of.resize(graph_nodes);
  std::vector<NodeId>& members = scratch.members;
  std::vector<std::uint32_t>& hop = scratch.hop;
  members.clear();
  hop.clear();
  auto admit = [&](NodeId x, std::uint32_t h) {
    scratch.member_marks.mark(x);
    scratch.local_of[x] = static_cast<std::uint32_t>(members.size());
    members.push_back(x);
    hop.push_back(h);
  };
  admit(u, 0);
  if (v != u) admit(v, 0);
  for (std::size_t head = 0; head < members.size(); ++head) {
    if (members.size() >= config.max_nodes) break;
    if (hop[head] >= config.hops) continue;
    for (NodeId y : graph.neighbors(members[head])) {
      if (scratch.member_marks.marked(y)) continue;
      admit(y, hop[head] + 1);
      if (members.size() >= config.max_nodes) break;
    }
  }

  // Local adjacency, omitting the (u, v) edge itself.
  const std::size_t n = members.size();
  LocalAdjacency& adjacency = out.adjacency;
  adjacency.offsets.resize(n + 1);
  adjacency.edges.clear();
  for (std::size_t x = 0; x < n; ++x) {
    adjacency.offsets[x] = static_cast<std::uint32_t>(adjacency.edges.size());
    for (NodeId y : graph.neighbors(members[x])) {
      if (!scratch.member_marks.marked(y)) continue;
      const std::uint32_t ly = scratch.local_of[y];
      const bool is_target_edge =
          (x == 0 && ly == 1) || (x == 1 && ly == 0);
      if (is_target_edge) continue;
      adjacency.edges.push_back(ly);
    }
  }
  adjacency.offsets[n] = static_cast<std::uint32_t>(adjacency.edges.size());

  // Features: one-hot DRNL ++ one-hot gate type ++ endpoint role ++
  // normalized degree, written packed (these column groups ascend).
  const auto& labels = drnl_labels(adjacency, scratch);
  out.node_count = n;
  out.features.mask.resize(n);
  out.features.values.clear();
  const auto& locked = graph.locked();
  constexpr std::size_t kTypeOffset = kDrnlCap + 1;
  constexpr std::size_t kRoleOffset = kTypeOffset + netlist::kGateTypeCount;
  auto store = [&](std::uint64_t& mask, std::size_t column, double value) {
    mask |= std::uint64_t{1} << column;
    out.features.values.push_back(value);
  };
  for (std::size_t x = 0; x < n; ++x) {
    std::uint64_t mask = 0;
    store(mask, labels[x], 1.0);
    const auto type = locked.node(members[x]).type;
    store(mask, kTypeOffset + static_cast<std::size_t>(type), 1.0);
    if (x == 0) store(mask, kRoleOffset, 1.0);      // queried driver endpoint
    if (x == 1) store(mask, kRoleOffset + 1, 1.0);  // queried sink endpoint
    const double degree = static_cast<double>(graph.degree(members[x]));
    const double scaled = std::log1p(degree) / 4.0;
    if (scaled != 0.0) store(mask, kFeatureDim - 1, scaled);
    out.features.mask[x] = mask;
  }
  build_neighbor_mean(out, scratch);
}

Subgraph make_subgraph(const std::vector<std::vector<std::uint32_t>>& adjacency,
                       const std::vector<double>& features, double label) {
  const std::size_t n = adjacency.size();
  if (features.size() != n * kFeatureDim) {
    throw std::invalid_argument(
        "make_subgraph: features must be n x kFeatureDim");
  }
  for (const auto& list : adjacency) {
    for (const std::uint32_t j : list) {
      if (j >= n) {
        throw std::invalid_argument("make_subgraph: neighbour out of range");
      }
    }
  }
  Subgraph sub;
  sub.adjacency = LocalAdjacency::from_lists(adjacency);
  sub.node_count = n;
  sub.label = label;
  sub.features.mask.resize(sub.node_count);
  for (std::size_t i = 0; i < sub.node_count; ++i) {
    std::uint64_t mask = 0;
    for (std::size_t p = 0; p < kFeatureDim; ++p) {
      const double value = features[i * kFeatureDim + p];
      if (value == 0.0) continue;
      mask |= std::uint64_t{1} << p;
      sub.features.values.push_back(value);
    }
    sub.features.mask[i] = mask;
  }
  SubgraphScratch scratch;
  build_neighbor_mean(sub, scratch);
  return sub;
}

}  // namespace autolock::attack
