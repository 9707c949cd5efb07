// Reference decode checks for the tests: the from-scratch backward-DFS
// applicability check, and a rank-pruned DFS dependency query over
// DecodeTopo's fanin mirror. Decode's incremental rank-based checks
// (lock::applicable_to_working_ranks, DecodeTopo::ensure_order) are pinned
// against them. The query's pruning assumes the invariant ensure_order
// maintains (every edge goes strictly up in rank), so it cannot catch a
// relabel that breaks that invariant.
#pragma once

#include "locking/decode_topo.hpp"
#include "locking/gene.hpp"
#include "locking/sites.hpp"
#include "netlist/netlist.hpp"

namespace autolock::test_support {

/// The applicability check decode ran before the incremental ranks: the
/// site's two locked edges are still present in `working` and neither
/// cross edge closes a cycle, each cycle check a from-scratch backward DFS
/// over the per-gate fanin vectors. Site ids must be in range for
/// `working`.
bool applicable_to_working_dfs(const netlist::Netlist& working,
                               const lock::Gene& site,
                               lock::ReachScratch& scratch);

/// True iff `target` is in the transitive fanin of `from` in `topo`'s
/// working graph: a backward DFS over DecodeTopo::fanins, pruned to the
/// nodes ranked strictly above `target` (a path target ~> v forces
/// rank(target) < rank(v)).
bool depends_on(const lock::DecodeTopo& topo, netlist::NodeId from,
                netlist::NodeId target);

}  // namespace autolock::test_support
