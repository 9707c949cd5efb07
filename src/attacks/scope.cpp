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

}  // namespace

ScopeResult ScopeAttack::attack(const netlist::Netlist& locked) const {
  AttackScratch scratch;
  return attack(locked, scratch);
}

ScopeResult ScopeAttack::attack(const netlist::Netlist& locked,
                                AttackScratch& scratch) const {
  ScopeResult result;
  netlist::KeyConeAreas& areas = scratch.scope_areas;
  areas.reset(locked);
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

ScopeScore ScopeAttack::score(const ScopeResult& result,
                              const netlist::Key& correct_key) {
  ScopeScore score;
  score.key_bits = correct_key.size();
  if (correct_key.empty()) return score;
  std::size_t decided = 0;
  std::size_t correct = 0;
  for (std::size_t bit = 0; bit < correct_key.size(); ++bit) {
    const int prediction =
        bit < result.predicted_bits.size() ? result.predicted_bits[bit] : -1;
    if (prediction == -1) continue;
    ++decided;
    if (prediction == (correct_key[bit] ? 1 : 0)) ++correct;
  }
  score.decided_fraction =
      static_cast<double>(decided) / static_cast<double>(correct_key.size());
  score.accuracy_on_decided =
      decided == 0 ? 0.0
                   : static_cast<double>(correct) / static_cast<double>(decided);
  score.expected_overall_accuracy =
      (static_cast<double>(correct) +
       0.5 * static_cast<double>(correct_key.size() - decided)) /
      static_cast<double>(correct_key.size());
  return score;
}

}  // namespace autolock::attack
