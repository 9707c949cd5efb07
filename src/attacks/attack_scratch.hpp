// Per-worker scratch state shared by the oracle-less attacks.
//
// One AttackScratch serves one worker thread for the lifetime of an
// evaluation loop: the CSR AttackGraph (the view of the design family's
// original, patched per design), the epoch-stamped BFS marks used by
// hard-negative sampling and subgraph extraction, the key-cone area oracle
// behind SCOPE (the family's baseline, patched per design), the decode
// delta both patches read, and assorted reusable vectors. Every
// attack resets the pieces it uses, so a scratch can be handed from design
// to design (and attack to attack) freely — results are bit-identical to a
// fresh scratch. The one-shot attack(locked) overloads run on exactly that:
// a local AttackScratch.
#pragma once

#include <cstdint>
#include <vector>

#include "attacks/attack_graph.hpp"
#include "attacks/features.hpp"
#include "attacks/gnn.hpp"
#include "attacks/structural.hpp"
#include "locking/mux_lock.hpp"
#include "netlist/opt.hpp"
#include "util/epoch_flags.hpp"

namespace autolock::attack {

struct AttackScratch {
  /// Puts the attacker view of `design` into `graph` and returns it. When
  /// lock::replay_records accepts the design against `family` (into
  /// `delta`, whose wires are then filled), `graph` is patched from its
  /// view of `family` (built here, after the replay, on the first such
  /// design); otherwise it is a full build. The view is identical either
  /// way.
  const AttackGraph& view(const lock::LockedDesign& design);

  /// Points `scope_areas` at `design` and returns it. When
  /// lock::replay_records accepts the design against `family` (into
  /// `delta`, whose wires are then filled), the areas patch their baseline
  /// of `family` (built on the first such design) by the delta; otherwise
  /// they rewrite the design in full. The areas are identical either way.
  netlist::KeyConeAreas& scope_view(const lock::LockedDesign& design);

  /// The original the designs attacked through this scratch are decoded
  /// from, or null (EvalWorkspace::reserve binds it). It must outlive the
  /// scratch's use.
  const netlist::Netlist* family = nullptr;
  /// Reused attacker-view graph (storage retained): based on `family` and
  /// patched per design, or rebuilt per design.
  AttackGraph graph;
  /// Visited marks for hard-negative BFS sampling.
  util::EpochFlags seen;
  /// Enclosing-subgraph extraction state (MuxLink).
  SubgraphScratch subgraph;
  /// One reusable inference subgraph (inference scores one link at a time).
  Subgraph inference_subgraph;
  /// Training-sample slots, reused across designs: the trainer needs every
  /// sample alive at once, so unlike inference there is one Subgraph per
  /// sample — but each slot's adjacency/feature buffers are retained, so a
  /// warm scratch assembles a training set without allocating.
  std::vector<Subgraph> train_samples;
  /// SCOPE's area oracle: the baseline rewrite (of `family`, patched per
  /// design, or of the design), fanout index, edits and rollback journals.
  netlist::KeyConeAreas scope_areas;
  /// The decode delta, with its wires, of the design last replayed by view
  /// or scope_view.
  lock::DecodeDelta delta;
  /// GNN forward/backward buffers (MuxLink training and inference).
  GnnScratch gnn;
  // BFS / sampling buffers.
  std::vector<netlist::NodeId> frontier;
  std::vector<netlist::NodeId> next_frontier;
  std::vector<netlist::NodeId> ring;
  /// Shuffled link indices behind the positives' draw.
  std::vector<std::uint32_t> link_order;
  std::vector<CandidateLink> positives;
  std::vector<CandidateLink> negatives;
  /// Structural predictor training samples, reused across designs.
  std::vector<StructuralLinkPredictor::Sample> pair_samples;
  std::vector<std::uint32_t> levels;
  std::vector<std::size_t> order;
};

}  // namespace autolock::attack
