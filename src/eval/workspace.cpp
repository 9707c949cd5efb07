#include "eval/workspace.hpp"

namespace autolock::eval {

void EvalWorkspace::reserve(const netlist::Netlist& original,
                            std::size_t key_bits) {
  // A MUX gene adds one key input and two MUXes per key bit; RLL genes add
  // two nodes per bit and anti-SAT genes (4n + 4) nodes for 2n bits — so
  // three nodes per key bit bounds every gene kind (for widths >= 2).
  const std::size_t locked_nodes = original.size() + 3 * key_bits;
  design.key.reserve(key_bits);
  design.genes.reserve(key_bits);
  design.applied.reserve(key_bits);
  reach.visited.begin_epoch(locked_nodes);
  reach.stack.reserve(64);
  std::size_t original_edges = 0;
  for (netlist::NodeId v = 0; v < original.size(); ++v) {
    original_edges += original.node(v).fanins.size();
  }
  reach.topo.reserve(original.size(), original_edges, 3 * key_bits);
  // The decode-final order merge writes one entry per working-netlist node.
  reach.topo_order.reserve(locked_nodes);
  lock::warm_decode_names(original, key_bits, reach);
  attack.family = &original;
  attack.seen.begin_epoch(locked_nodes);
  sim.values.reserve(locked_nodes);
  wrong_key.reserve(key_bits);
  key_errors.reserve(64);
}

}  // namespace autolock::eval
