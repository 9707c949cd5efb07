// Reusable CSR (compressed sparse row) adjacency over a netlist.
//
// Both directions of the gate graph are consumed by hot paths that used to
// chase one heap-allocated vector per node: decode-time cycle checks walk
// fanins (hundreds of times per genotype decode), the topological sort and
// site sampling walk fanouts. A CSR adjacency flattens either direction into
// two contiguous arrays — `offsets` (node -> first edge index) and `edges`
// (flat u32 targets) — so traversals touch sequential cache lines and the
// storage is reusable: `build()` re-derives the adjacency for a new netlist
// into the existing buffers, allocating nothing once they are warm (the same
// contract as attacks::AttackGraph, whose flat offsets+edges form this
// module generalises into the netlist layer).
//
// Edge order is deterministic and load-bearing:
//   - CsrFanins keeps each node's fanins in declaration order, duplicates
//     included — the span is byte-for-byte the node's `Node::fanins` vector,
//     which lets decode mirror netlist mutations edge-for-edge.
//   - CsrFanouts groups edges by source in ascending sink order, duplicates
//     included. SiteContext draws GA lock sites from these ascending lists,
//     so the pinned GA trajectories depend on the order.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "netlist/types.hpp"

namespace autolock::netlist {

class Netlist;

/// Flat fanin adjacency: `fanins(v)` is node v's fanin list as a contiguous
/// span. Rebuildable in place; views stay valid until the next build().
class CsrFanins {
 public:
  /// (Re)derives the fanin CSR for `net`, reusing internal storage.
  void build(const Netlist& net);

  std::size_t node_count() const noexcept {
    return offsets_.empty() ? 0 : offsets_.size() - 1;
  }

  /// Fanins of `v` in declaration order (duplicates preserved).
  std::span<const NodeId> fanins(NodeId v) const noexcept {
    return {edges_.data() + offsets_[v], offsets_[v + 1] - offsets_[v]};
  }

  const std::vector<std::uint32_t>& offsets() const noexcept {
    return offsets_;
  }
  const std::vector<NodeId>& edges() const noexcept { return edges_; }

 private:
  std::vector<std::uint32_t> offsets_;  // node_count() + 1 entries
  std::vector<NodeId> edges_;
};

/// Flat fanout adjacency: `fanouts(v)` lists the gates having v as a fanin,
/// ascending, duplicates preserved (a gate listing v twice appears twice —
/// Kahn's in-degree bookkeeping counts edges, not neighbours).
class CsrFanouts {
 public:
  /// (Re)derives the fanout CSR for `net`, reusing internal storage.
  void build(const Netlist& net);

  std::size_t node_count() const noexcept {
    return offsets_.empty() ? 0 : offsets_.size() - 1;
  }

  std::span<const NodeId> fanouts(NodeId v) const noexcept {
    return {edges_.data() + offsets_[v], offsets_[v + 1] - offsets_[v]};
  }

  const std::vector<std::uint32_t>& offsets() const noexcept {
    return offsets_;
  }
  const std::vector<NodeId>& edges() const noexcept { return edges_; }

 private:
  std::vector<std::uint32_t> offsets_;  // node_count() + 1 entries
  std::vector<NodeId> edges_;
};

}  // namespace autolock::netlist
