// Enclosing-subgraph extraction and node featurization for link prediction
// (the SEAL recipe MuxLink builds on).
//
// For a (candidate or training) link (u, v) we extract the h-hop enclosing
// subgraph around {u, v} in the attacker graph, always *without* the (u, v)
// edge itself, and label every node with DRNL — Double-Radius Node Labeling
// — which encodes its distances to both endpoints. Node features are the
// concatenation of a capped one-hot DRNL label, a one-hot gate type, and a
// normalized global degree.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "attacks/attack_graph.hpp"
#include "netlist/netlist.hpp"
#include "util/epoch_flags.hpp"

namespace autolock::attack {

/// DRNL labels above this value are clamped (one-hot size = kDrnlCap + 1,
/// label 0 = unreachable from an endpoint).
inline constexpr std::uint32_t kDrnlCap = 10;

/// Feature vector length per node: one-hot DRNL ++ one-hot gate type ++
/// endpoint-role flags (driver endpoint, sink endpoint) ++ normalized degree.
/// The role flags give the (otherwise undirected) model the direction of the
/// queried link — a real wire always runs driver -> sink.
inline constexpr std::size_t kFeatureDim =
    (kDrnlCap + 1) + netlist::kGateTypeCount + 2 + 1;

/// Undirected local adjacency in CSR form: node x's neighbours are
/// edges[offsets[x] .. offsets[x + 1]), in list order.
struct LocalAdjacency {
  std::vector<std::uint32_t> offsets{0};
  std::vector<std::uint32_t> edges;

  std::size_t size() const noexcept { return offsets.size() - 1; }
  std::span<const std::uint32_t> neighbors(std::size_t x) const noexcept {
    return {edges.data() + offsets[x], edges.data() + offsets[x + 1]};
  }
  /// Copies adjacency lists (list order, duplicates included).
  static LocalAdjacency from_lists(
      const std::vector<std::vector<std::uint32_t>>& lists);
};

/// A row-major matrix of at most 64 columns, stored packed: row i keeps a
/// mask of its stored columns (bit p = column p) and its stored entries, in
/// ascending column order, right after those of row i - 1. Unstored entries
/// are zero.
struct PackedRows {
  std::vector<std::uint64_t> mask;
  std::vector<double> values;
};

/// A materialized enclosing subgraph ready for the GNN. Besides the graph
/// it holds the GNN's layer-0 state, which no weight touches and so is
/// built once per sample instead of once per forward pass.
struct Subgraph {
  /// Local adjacency (indices into this subgraph; undirected, deduplicated).
  LocalAdjacency adjacency;
  /// The n x kFeatureDim feature matrix; its masks mark exactly the
  /// nonzeros.
  PackedRows features;
  /// Row i is the mean of the feature rows of i's neighbours (zero for an
  /// isolated node); its mask is the OR of those rows' masks, so it may
  /// mark zeros.
  PackedRows neighbor_mean;
  std::size_t node_count = 0;
  /// Training label (1 = link exists); ignored for inference samples.
  double label = 0.0;
};

struct SubgraphConfig {
  std::uint32_t hops = 2;
  /// Hard cap on subgraph size (BFS order truncation); keeps the cost of a
  /// fitness evaluation bounded on large/high-fanout circuits.
  std::size_t max_nodes = 64;
};

/// Reusable extraction state (one per worker): epoch-stamped membership
/// marks plus the member/hop/label staging vectors and the DRNL BFS
/// buffers.
struct SubgraphScratch {
  util::EpochFlags member_marks;
  std::vector<std::uint32_t> local_of;  // valid only where member_marks set
  std::vector<netlist::NodeId> members;
  std::vector<std::uint32_t> hop;
  // DRNL: distances from each endpoint, the BFS queue, the labels.
  std::vector<std::uint32_t> dist_u, dist_v, queue, labels;
  std::vector<std::uint32_t> row_start;  // features.values offset per row
};

/// Extracts the enclosing subgraph for link (u, v) over `graph` into `out`
/// (buffers retained across calls), using `scratch`. The (u, v) edge is
/// omitted from the local adjacency in both directions (SEAL rule: the
/// model must never see the edge it is asked to predict).
void extract_subgraph_into(const AttackGraph& graph, netlist::NodeId u,
                           netlist::NodeId v, const SubgraphConfig& config,
                           SubgraphScratch& scratch, Subgraph& out);

/// A subgraph from adjacency lists and a dense row-major
/// n x kFeatureDim feature matrix (hand-built samples for tests and
/// benchmarks); its layer-0 state is built as extraction builds it.
/// Throws std::invalid_argument when `features` is not n x kFeatureDim or
/// a neighbour index is out of range.
Subgraph make_subgraph(const std::vector<std::vector<std::uint32_t>>& adjacency,
                       const std::vector<double>& features, double label);

/// Computes DRNL labels for a subgraph whose nodes 0 and 1 are the link
/// endpoints, into scratch.labels (returned). Allocates nothing once the
/// scratch is warm.
const std::vector<std::uint32_t>& drnl_labels(const LocalAdjacency& adjacency,
                                              SubgraphScratch& scratch);

}  // namespace autolock::attack
