#include "netlist/decode_delta.hpp"

#include <algorithm>

#include "netlist/netlist.hpp"

namespace autolock::netlist {

bool DecodeDelta::describes(const Netlist& design,
                            const Netlist& original) const noexcept {
  return design_version != 0 &&
         design_version == design.structural_version() &&
         original_version == original.structural_version();
}

bool DecodeDelta::fill_wires(const Netlist& design, const Netlist& original) {
  added.clear();
  cut.clear();
  wired = false;
  if (!describes(design, original)) return false;
  // Every fanin of a tail node, the tail fanins a rewired gate gained (its
  // other fanins are a subset of its original ones), and the original
  // fanins it lost.
  const auto n0 = static_cast<NodeId>(original.size());
  for (NodeId y = n0; y < design.size(); ++y) {
    for (const NodeId fanin : design.node(y).fanins) {
      added.emplace_back(fanin, y);
    }
  }
  for (const NodeId gate : rewired) {
    const auto& now = design.node(gate).fanins;
    for (const NodeId fanin : now) {
      if (fanin >= n0) added.emplace_back(fanin, gate);
    }
    for (const NodeId fanin : original.node(gate).fanins) {
      if (std::find(now.begin(), now.end(), fanin) == now.end()) {
        cut.emplace_back(fanin, gate);
      }
    }
  }
  std::sort(added.begin(), added.end());
  std::sort(cut.begin(), cut.end());
  cut.erase(std::unique(cut.begin(), cut.end()), cut.end());
  wired = true;
  return true;
}

}  // namespace autolock::netlist
