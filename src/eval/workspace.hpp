// EvalWorkspace — all scratch state one worker needs to evaluate one
// genotype, owned once per ThreadPool shard and reused across the whole
// optimization run.
//
// One evaluation = decode the genotype into a locked netlist, run the
// configured attacks against it, and (optionally) measure wrong-key output
// corruption. The workspace holds every stage's working set as per-worker
// state, so in steady state the only allocations are the fanin vectors of
// the key gates each decode appends:
//
//   design   — the decode target; its netlist reuses node/name storage
//   reach    — the decode's working state (lock::ReachScratch): DFS marks,
//              the incremental topological order (DecodeTopo) and the
//              merged order it primes, the warm decode's delta and the
//              interned key-gate names
//   attack   — CSR AttackGraph (patched per design from the bound
//              family's view) + BFS/sampling buffers + SCOPE's area oracle
//   sim      — simulator value/output buffers for corruption measurement
//
// Workspaces hold no result state: an evaluation through a freshly
// constructed workspace and through a thousand-times-reused one are
// bit-identical (pinned by test_workspace.cpp and, per registered attack,
// test_eval.cpp), which is what lets EvalPipeline hand them to whichever
// pool shard picks up the individual — and lets one-shot callers pass a
// fresh EvalWorkspace to Attack::evaluate.
#pragma once

#include "attacks/attack_scratch.hpp"
#include "locking/mux_lock.hpp"
#include "locking/sites.hpp"
#include "netlist/simulator.hpp"

namespace autolock::eval {

class EvalWorkspace {
 public:
  EvalWorkspace() = default;

  EvalWorkspace(const EvalWorkspace&) = delete;
  EvalWorkspace& operator=(const EvalWorkspace&) = delete;

  /// Binds the workspace to the design family of `original` and pre-sizes
  /// the buffers for evaluating designs decoded from it with about
  /// `key_bits` key bits. Optional — buffers grow on demand — but attacks
  /// patch a bound family's view per design instead of rebuilding it (the
  /// family view itself is built on first use, not here). `original` must
  /// outlive the workspace's evaluations.
  void reserve(const netlist::Netlist& original, std::size_t key_bits);

  lock::LockedDesign design;
  lock::ReachScratch reach;
  attack::AttackScratch attack;
  netlist::SimScratch sim;
  /// Reusable simulator slot for the design under evaluation: corruption
  /// measurement (the pipeline's fitness term, and the campaign's per-job
  /// lock::measure_corruption) rebinds it per design instead of
  /// constructing a fresh Simulator (and its order/input vectors) every
  /// call.
  netlist::Simulator locked_sim;
  /// Wrong-key corruption state: the key batch, a reusable key buffer for
  /// rejection sampling, and per-key error rates.
  netlist::KeyBatch key_batch;
  netlist::Key wrong_key;
  std::vector<double> key_errors;
};

}  // namespace autolock::eval
