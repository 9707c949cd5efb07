#include "locking/mux_lock.hpp"

#include <stdexcept>
#include <utility>

namespace autolock::lock {

using netlist::Netlist;
using netlist::NodeId;

// The genotype decode itself (apply_genotype / apply_genotype_into /
// random_genotype / warm_decode_names) lives in locking/compound.cpp — it
// handles every gene kind; this file keeps the MUX-specific pieces.

namespace testing {

bool applicable_to_working_dfs(const Netlist& working, const Gene& site,
                               ReachScratch& scratch) {
  // True iff `target` is in the transitive fanin of `from` — the
  // pre-incremental check: a from-scratch backward DFS over the working
  // netlist's per-gate fanin vectors, unbounded by any rank structure.
  const auto depends_on = [&](NodeId from, NodeId target) {
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
  if (depends_on(site.f_j, site.g_i)) return false;
  if (depends_on(site.f_i, site.g_j)) return false;
  return true;
}

}  // namespace testing

bool applicable_to_working_ranks(DecodeTopo& topo, const Gene& site) {
  if (!topo.has_fanin(site.g_i, site.f_i)) return false;
  if (!topo.has_fanin(site.g_j, site.f_j)) return false;
  // Cycle check on the working graph: new edges f_j -> g_i and f_i -> g_j.
  // ensure_order doubles as the pre-relabel for a subsequent
  // insert_mux_pair — an accepted site's MUXes slot straight in between
  // the already-ordered drivers and gates.
  if (!topo.ensure_order(site.f_j, site.g_i)) return false;
  if (!topo.ensure_order(site.f_i, site.g_j)) return false;
  return true;
}

LockedDesign dmux_lock(const Netlist& original, std::size_t key_bits,
                       std::uint64_t seed) {
  if (key_bits == 0) {
    throw std::invalid_argument("dmux_lock: key_bits must be >= 1");
  }
  util::Rng rng(seed);
  const SiteContext context(original);
  auto genes = random_genotype(context, key_bits, rng);
  auto design = apply_genotype(original, context, std::move(genes), rng);
  design.netlist.set_name(original.name() + "_dmux");
  return design;
}

}  // namespace autolock::lock
