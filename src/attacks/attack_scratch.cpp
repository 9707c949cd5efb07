#include "attacks/attack_scratch.hpp"

namespace autolock::attack {

const AttackGraph& AttackScratch::view(const lock::LockedDesign& design) {
  if (family != nullptr &&
      design.original_version == family->structural_version()) {
    if (!graph.based_on(*family)) graph.build(*family);
    if (graph.patch(design, *family)) return graph;
  }
  graph.build(design.netlist);
  return graph;
}

netlist::KeyConeAreas& AttackScratch::scope_view(
    const lock::LockedDesign& design) {
  if (family != nullptr && lock::replay_records(design, *family, replay)) {
    scope_areas.reset(design.netlist, *family, replay.rewired);
  } else {
    scope_areas.reset(design.netlist);
  }
  return scope_areas;
}

}  // namespace autolock::attack
