#include "netlist/csr.hpp"

#include "netlist/netlist.hpp"

namespace autolock::netlist {

void CsrFanins::build(const Netlist& net) {
  const std::vector<Node>& nodes = net.nodes_;
  const std::size_t n = nodes.size();
  offsets_.resize(n + 1);
  offsets_[0] = 0;
  for (NodeId v = 0; v < n; ++v) {
    offsets_[v + 1] =
        offsets_[v] + static_cast<std::uint32_t>(nodes[v].fanins.size());
  }
  edges_.resize(offsets_[n]);
  std::uint32_t e = 0;
  for (NodeId v = 0; v < n; ++v) {
    for (NodeId fanin : nodes[v].fanins) edges_[e++] = fanin;
  }
}

void CsrFanouts::build(const Netlist& net) {
  const std::vector<Node>& nodes = net.nodes_;
  const std::size_t n = nodes.size();
  offsets_.assign(n + 1, 0);
  for (NodeId v = 0; v < n; ++v) {
    for (NodeId fanin : nodes[v].fanins) ++offsets_[fanin + 1];
  }
  for (std::size_t v = 0; v < n; ++v) offsets_[v + 1] += offsets_[v];
  edges_.resize(offsets_[n]);
  // offsets_[f] is f's fill cursor, and ends as f's end = (f + 1)'s begin;
  // the shift afterwards restores the begins. Ascending v keeps each
  // source's fanout list in ascending sink order.
  for (NodeId v = 0; v < n; ++v) {
    for (NodeId fanin : nodes[v].fanins) edges_[offsets_[fanin]++] = v;
  }
  for (std::size_t v = n; v > 0; --v) offsets_[v] = offsets_[v - 1];
  offsets_[0] = 0;
}

}  // namespace autolock::netlist
