// The report functions that score every attack's native result (declared
// in eval/attack.hpp), the adapters mapping each concrete attack onto the
// unified eval::Attack interface (each forwards construction knobs from
// AttackOptions, runs its attack and scores the result), and the
// registry's table of them (eval/registry.hpp).
#include <algorithm>
#include <array>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>

#include "attacks/muxlink.hpp"
#include "attacks/sat_attack.hpp"
#include "attacks/scope.hpp"
#include "attacks/structural.hpp"
#include "eval/registry.hpp"
#include "eval/workspace.hpp"
#include "util/timer.hpp"

namespace autolock::eval {

AttackReport link_report(std::string attack,
                         const attack::MuxLinkResult& result,
                         const netlist::Key& key) {
  AttackReport report;
  report.attack = std::move(attack);
  report.key_bits = key.size();
  if (key.empty()) {
    report.attacked_fraction = 0.0;
    return report;
  }

  double correct = 0.0;
  std::size_t attacked = 0;
  std::size_t decided = 0;
  std::size_t decided_correct = 0;
  for (std::size_t bit = 0; bit < key.size(); ++bit) {
    // A bit without a MUX-link hypothesis (non-MUX key gate, or beyond the
    // attacked range) scores as a coin flip: crediting the forced-0 default
    // would reward the attack for key bits it never examined.
    if (bit >= result.bit_attacked.size() || result.bit_attacked[bit] == 0) {
      correct += 0.5;
      continue;
    }
    ++attacked;
    const int truth = key[bit] ? 1 : 0;
    const int forced =
        bit < result.predicted_bits.size() ? result.predicted_bits[bit] : 0;
    if (forced == truth) correct += 1.0;
    const int soft =
        bit < result.thresholded_bits.size() ? result.thresholded_bits[bit] : -1;
    if (soft != -1) {
      ++decided;
      if (soft == truth) ++decided_correct;
    }
  }
  report.accuracy = correct / static_cast<double>(key.size());
  report.attacked_fraction =
      static_cast<double>(attacked) / static_cast<double>(key.size());
  report.decided_fraction =
      static_cast<double>(decided) / static_cast<double>(key.size());
  report.precision = decided == 0 ? 0.0
                                  : static_cast<double>(decided_correct) /
                                        static_cast<double>(decided);
  report.key_recovery = report.accuracy;
  report.key_recovered = report.accuracy >= 1.0;
  return report;
}

AttackReport scope_report(const attack::ScopeResult& result,
                          const netlist::Key& key) {
  AttackReport report;
  report.attack = "scope";
  report.key_bits = key.size();
  if (key.empty()) return report;
  std::size_t decided = 0;
  std::size_t correct = 0;
  for (std::size_t bit = 0; bit < key.size(); ++bit) {
    const int prediction =
        bit < result.predicted_bits.size() ? result.predicted_bits[bit] : -1;
    if (prediction == -1) continue;
    ++decided;
    if (prediction == (key[bit] ? 1 : 0)) ++correct;
  }
  report.decided_fraction =
      static_cast<double>(decided) / static_cast<double>(key.size());
  report.precision =
      decided == 0 ? 0.0
                   : static_cast<double>(correct) / static_cast<double>(decided);
  // SCOPE leaves symmetric (MUX) bits undecided; the forced-decision
  // accuracy credits those as coin flips, matching the other attacks'
  // "guess every bit" convention.
  report.accuracy = (static_cast<double>(correct) +
                     0.5 * static_cast<double>(key.size() - decided)) /
                    static_cast<double>(key.size());
  report.key_recovery = report.precision * report.decided_fraction;
  report.key_recovered =
      report.decided_fraction >= 1.0 && report.precision >= 1.0;
  return report;
}

AttackReport sat_report(const attack::SatAttackResult& result,
                        const netlist::Key& key) {
  AttackReport report;
  report.attack = "sat";
  report.key_bits = key.size();
  // The SAT attack proves functional correctness rather than guessing
  // bits; success means total key recovery even if some recovered bits
  // differ from the ground truth on don't-care positions.
  report.accuracy = result.success ? 1.0 : 0.0;
  report.decided_fraction = result.success ? 1.0 : 0.0;
  std::size_t matching = 0;
  const std::size_t bits = std::min(result.recovered_key.size(), key.size());
  for (std::size_t b = 0; b < bits; ++b) {
    if (result.recovered_key[b] == key[b]) ++matching;
  }
  report.key_recovery =
      key.empty() ? (result.success ? 1.0 : 0.0)
                  : static_cast<double>(matching) /
                        static_cast<double>(key.size());
  report.precision = report.key_recovery;
  report.key_recovered = result.success;
  report.seconds = result.seconds;
  return report;
}

namespace {

/// MuxLink (and its ensemble) and the structural predictor: one
/// link-prediction result shape, scored by link_report.
template <class Attacker>
class LinkAdapter : public Attack {
 public:
  LinkAdapter(std::string name, Attacker attacker)
      : name_(std::move(name)), attacker_(std::move(attacker)) {}

  const std::string& name() const noexcept override { return name_; }

  AttackReport evaluate(const lock::LockedDesign& design,
                        EvalWorkspace& workspace) const override {
    util::Timer timer;
    AttackReport report = link_report(
        name_, attacker_.attack(design, workspace.attack), design.key);
    report.seconds = timer.elapsed_seconds();
    return report;
  }

 private:
  std::string name_;
  Attacker attacker_;
};

class ScopeAdapter : public Attack {
 public:
  const std::string& name() const noexcept override { return name_; }

  AttackReport evaluate(const lock::LockedDesign& design,
                        EvalWorkspace& workspace) const override {
    util::Timer timer;
    AttackReport report = scope_report(
        attack::ScopeAttack().attack(design, workspace.attack),
        design.key);
    report.seconds = timer.elapsed_seconds();
    return report;
  }

 private:
  std::string name_ = "scope";
};

class SatAdapter : public Attack {
 public:
  SatAdapter(attack::SatAttackConfig config, const netlist::Netlist* oracle)
      : config_(config), oracle_(oracle) {}

  const std::string& name() const noexcept override { return name_; }

  AttackReport evaluate(const lock::LockedDesign& design,
                        EvalWorkspace&) const override {
    return sat_report(
        attack::SatAttack(config_).attack(design.netlist, *oracle_),
        design.key);
  }

 private:
  std::string name_ = "sat";
  attack::SatAttackConfig config_;
  const netlist::Netlist* oracle_;
};

attack::MuxLinkConfig seeded_muxlink(const AttackOptions& options) {
  attack::MuxLinkConfig config = options.muxlink;
  config.seed ^= options.seed;
  return config;
}

struct Builtin {
  std::string_view name;
  std::unique_ptr<Attack> (*make)(const AttackOptions&);
};

/// Every attack the registry knows, strictly sorted by name: names() lists
/// them in table order, and no name repeats.
constexpr std::array<Builtin, 5> kBuiltins = {{
    {"muxlink",
     [](const AttackOptions& options) -> std::unique_ptr<Attack> {
       return std::make_unique<LinkAdapter<attack::MuxLinkAttack>>(
           "muxlink", attack::MuxLinkAttack(seeded_muxlink(options)));
     }},
    {"muxlink-ensemble",
     [](const AttackOptions& options) -> std::unique_ptr<Attack> {
       attack::MuxLinkConfig config = seeded_muxlink(options);
       config.ensemble = std::max<std::size_t>(options.ensemble, 1);
       return std::make_unique<LinkAdapter<attack::MuxLinkAttack>>(
           "muxlink-ensemble", attack::MuxLinkAttack(config));
     }},
    {"sat",
     [](const AttackOptions& options) -> std::unique_ptr<Attack> {
       if (options.oracle == nullptr) {
         throw std::invalid_argument(
             "attack 'sat' is oracle-guided: AttackOptions.oracle must "
             "point at the original netlist");
       }
       if (!options.oracle->key_inputs().empty()) {
         // Fail at construction, not on the first evaluate(): a locked
         // netlist is not an oracle (SatAttack::attack would throw anyway).
         throw std::invalid_argument(
             "attack 'sat': AttackOptions.oracle has key inputs — pass the "
             "ORIGINAL (unlocked) netlist, not the locked one");
       }
       return std::make_unique<SatAdapter>(options.sat, options.oracle);
     }},
    {"scope",
     [](const AttackOptions&) -> std::unique_ptr<Attack> {
       return std::make_unique<ScopeAdapter>();
     }},
    {"structural",
     [](const AttackOptions& options) -> std::unique_ptr<Attack> {
       attack::StructuralPredictorConfig config = options.structural;
       config.seed ^= options.seed;
       return std::make_unique<LinkAdapter<attack::StructuralLinkPredictor>>(
           "structural", attack::StructuralLinkPredictor(config));
     }},
}};
static_assert(std::ranges::adjacent_find(kBuiltins,
                                         std::ranges::greater_equal{},
                                         &Builtin::name) == kBuiltins.end());

}  // namespace

const AttackRegistry& AttackRegistry::instance() {
  static const AttackRegistry registry;
  return registry;
}

std::vector<std::string> AttackRegistry::names() const {
  std::vector<std::string> result;
  result.reserve(kBuiltins.size());
  for (const Builtin& builtin : kBuiltins) {
    result.emplace_back(builtin.name);
  }
  return result;
}

std::unique_ptr<Attack> AttackRegistry::create(
    const std::string& name, const AttackOptions& options) const {
  for (const Builtin& builtin : kBuiltins) {
    if (builtin.name == name) return builtin.make(options);
  }
  std::string known;
  for (const Builtin& builtin : kBuiltins) {
    if (!known.empty()) known += ", ";
    known += builtin.name;
  }
  throw std::out_of_range("AttackRegistry: unknown attack '" + name +
                          "' (known: " + known + ")");
}

std::unique_ptr<Attack> make_attack(const std::string& name,
                                    const AttackOptions& options) {
  return AttackRegistry::instance().create(name, options);
}

std::vector<std::unique_ptr<Attack>> make_attacks(
    const std::vector<std::string>& names, const AttackOptions& options) {
  std::vector<std::unique_ptr<Attack>> result;
  result.reserve(names.size());
  for (const std::string& name : names) {
    result.push_back(make_attack(name, options));
  }
  return result;
}

}  // namespace autolock::eval
