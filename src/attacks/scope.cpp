#include "attacks/scope.hpp"

#include "attacks/attack_scratch.hpp"
#include "netlist/opt.hpp"

namespace autolock::attack {

namespace {

int decide_from_areas(std::size_t area0, std::size_t area1) {
  // The correct hypothesis synthesizes *smaller* (key gate disappears).
  if (area0 < area1) return 0;
  if (area1 < area0) return 1;
  return -1;
}

/// Both hypotheses of every key bit, on areas already reset to the design.
ScopeResult decide(netlist::KeyConeAreas& areas) {
  ScopeResult result;
  const std::size_t key_bits = areas.key_bits();
  result.predicted_bits.reserve(key_bits);
  result.areas.reserve(key_bits);
  for (std::size_t bit = 0; bit < key_bits; ++bit) {
    const std::size_t area0 = areas.area(bit, false);
    const std::size_t area1 = areas.area(bit, true);
    result.predicted_bits.push_back(decide_from_areas(area0, area1));
    result.areas.emplace_back(area0, area1);
  }
  return result;
}

}  // namespace

ScopeResult ScopeAttack::attack(const netlist::Netlist& locked) const {
  AttackScratch scratch;
  return attack(locked, scratch);
}

ScopeResult ScopeAttack::attack(const netlist::Netlist& locked,
                                AttackScratch& scratch) const {
  scratch.scope_areas.reset(locked);
  return decide(scratch.scope_areas);
}

ScopeResult ScopeAttack::attack(const lock::LockedDesign& design,
                                AttackScratch& scratch) const {
  return decide(scratch.scope_view(design));
}

}  // namespace autolock::attack
