#include "support/decode.hpp"

#include <cstdint>
#include <vector>

namespace autolock::test_support {

using netlist::Netlist;
using netlist::NodeId;

bool applicable_to_working_dfs(const Netlist& working, const lock::Gene& site,
                               lock::ReachScratch& scratch) {
  const auto depends = [&](NodeId from, NodeId target) {
    if (from == target) return true;
    scratch.visited.begin_epoch(working.size());
    scratch.stack.clear();
    scratch.stack.push_back(from);
    scratch.visited.mark(from);
    while (!scratch.stack.empty()) {
      const NodeId v = scratch.stack.back();
      scratch.stack.pop_back();
      for (NodeId fanin : working.node(v).fanins) {
        if (fanin == target) return true;
        if (scratch.visited.try_mark(fanin)) scratch.stack.push_back(fanin);
      }
    }
    return false;
  };
  const auto has_fanin = [&](NodeId gate, NodeId fanin) {
    for (NodeId f : working.node(gate).fanins) {
      if (f == fanin) return true;
    }
    return false;
  };
  if (!has_fanin(site.g_i, site.f_i)) return false;
  if (!has_fanin(site.g_j, site.f_j)) return false;
  // Cycle check on the working graph: new edges f_j -> g_i and f_i -> g_j.
  if (depends(site.f_j, site.g_i)) return false;
  if (depends(site.f_i, site.g_j)) return false;
  return true;
}

bool depends_on(const lock::DecodeTopo& topo, NodeId from, NodeId target) {
  if (from == target) return true;
  const std::uint64_t floor = topo.rank(target);
  if (floor > topo.rank(from)) return false;
  std::vector<bool> visited(topo.node_count(), false);
  std::vector<NodeId> stack{from};
  visited[from] = true;
  while (!stack.empty()) {
    const NodeId v = stack.back();
    stack.pop_back();
    for (NodeId f : topo.fanins(v)) {
      if (f == target) return true;
      if (topo.rank(f) <= floor || visited[f]) continue;
      visited[f] = true;
      stack.push_back(f);
    }
  }
  return false;
}

}  // namespace autolock::test_support
