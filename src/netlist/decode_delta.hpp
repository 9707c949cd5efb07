// What a decode changed on its original netlist, in netlist terms only:
// node ids, (driver, sink) wires and output-port indices.
//
// lock::replay_records (locking/mux_lock.hpp) fills a DecodeDelta from a
// decoded design whose records check out and stamps it with the structural
// versions of the design and of its original. The warm decode undoes a
// design by it; the attackers patch their views of the original with it
// (attack::AttackGraph::patch, KeyConeAreas::reset), after fill_wires has
// listed the wires. A consumer trusts a delta only while its stamps match
// the two netlists it is handed.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "netlist/types.hpp"

namespace autolock::netlist {

class Netlist;

struct DecodeDelta {
  /// A (driver, sink) wire.
  using Wire = std::pair<NodeId, NodeId>;

  /// The structural versions of the design and of the original this delta
  /// describes (0 = none). Structural versions are unique across netlist
  /// objects, so matching stamps name exactly one pair as it stands.
  std::uint64_t design_version = 0;
  std::uint64_t original_version = 0;
  /// The original gates whose fanins decode rewired, ascending. The design's
  /// nodes from original.size() on are the key-logic tail; every other
  /// original node is unchanged.
  std::vector<NodeId> rewired;
  /// The output ports decode moved onto the tail, ascending.
  std::vector<std::uint32_t> moved_ports;
  /// True once fill_wires has listed `added` and `cut` for the stamped pair.
  bool wired = false;
  /// Every wire into or out of the tail: each tail node's fanins and each
  /// rewired gate's tail fanins, one entry per fanin slot (a gate reading
  /// a node twice lists the wire twice), sorted.
  std::vector<Wire> added;
  /// The original wires the rewiring cut, sorted, each once.
  std::vector<Wire> cut;
  /// Replay storage: the fanin splices the records state (in `gate`,
  /// `from` replaced by `to`, the `order`-th in gene order), and one
  /// gate's fanin list as they replay it.
  struct Splice {
    NodeId gate;
    std::uint32_t order;
    NodeId from;
    NodeId to;
  };
  std::vector<Splice> splices;
  std::vector<NodeId> fanins;

  /// True when the stamps name `design` and `original` as they stand.
  bool describes(const Netlist& design,
                 const Netlist& original) const noexcept;
  /// True when the delta describes the pair and lists its wires.
  bool lists_wires(const Netlist& design,
                   const Netlist& original) const noexcept {
    return wired && describes(design, original);
  }
  /// Lists `added` and `cut` from the rewired gates and the tail. Returns
  /// false, listing nothing, unless the delta describes the pair.
  bool fill_wires(const Netlist& design, const Netlist& original);
};

}  // namespace autolock::netlist
