#include "attacks/attack_scratch.hpp"

namespace autolock::attack {

namespace {

/// Checks `design`'s records against `family` into `delta` and lists the
/// wires both patches read.
bool replay(const lock::LockedDesign& design, const netlist::Netlist* family,
            lock::DecodeDelta& delta) {
  return family != nullptr && lock::replay_records(design, *family, delta) &&
         delta.fill_wires(design.netlist, *family);
}

}  // namespace

const AttackGraph& AttackScratch::view(const lock::LockedDesign& design) {
  if (replay(design, family, delta)) {
    if (!graph.based_on(*family)) graph.build(*family);
    if (graph.patch(design.netlist, *family, delta)) return graph;
  }
  graph.build(design.netlist);
  return graph;
}

netlist::KeyConeAreas& AttackScratch::scope_view(
    const lock::LockedDesign& design) {
  if (replay(design, family, delta)) {
    scope_areas.reset(design.netlist, *family, delta);
  } else {
    scope_areas.reset(design.netlist);
  }
  return scope_areas;
}

}  // namespace autolock::attack
