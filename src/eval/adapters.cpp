// Adapters mapping each concrete attack onto the unified eval::Attack
// interface. These are intentionally thin: they forward construction knobs
// from AttackOptions, run the underlying attack, and normalize its native
// score into an AttackReport.
#include <algorithm>
#include <memory>
#include <string>

#include "attacks/muxlink.hpp"
#include "attacks/sat_attack.hpp"
#include "attacks/scope.hpp"
#include "attacks/structural.hpp"
#include "eval/registry.hpp"
#include "eval/workspace.hpp"
#include "util/timer.hpp"

namespace autolock::eval {
namespace {

/// Shared normalization for attacks that emit a MuxLinkScore (the GNN and
/// the structural surrogate share MuxLink's result shape).
AttackReport from_muxlink_score(std::string name,
                                const attack::MuxLinkScore& score,
                                double seconds) {
  AttackReport report;
  report.attack = std::move(name);
  report.key_bits = score.key_bits;
  report.accuracy = score.accuracy;
  report.precision = score.precision;
  report.decided_fraction = score.decided_fraction;
  report.attacked_fraction = score.attacked_fraction;
  report.key_recovery = score.accuracy;
  report.key_recovered = score.key_bits > 0 && score.accuracy >= 1.0;
  report.seconds = seconds;
  return report;
}

class MuxLinkAdapter : public Attack {
 public:
  MuxLinkAdapter(std::string name, attack::MuxLinkConfig config)
      : name_(std::move(name)), config_(config) {}

  const std::string& name() const noexcept override { return name_; }

  AttackReport evaluate(const lock::LockedDesign& design,
                        EvalWorkspace& workspace) const override {
    util::Timer timer;
    const auto score =
        attack::MuxLinkAttack(config_).run(design, workspace.attack);
    return from_muxlink_score(name_, score, timer.elapsed_seconds());
  }

 private:
  std::string name_;
  attack::MuxLinkConfig config_;
};

class StructuralAdapter : public Attack {
 public:
  explicit StructuralAdapter(attack::StructuralPredictorConfig config)
      : config_(config) {}

  const std::string& name() const noexcept override { return name_; }

  AttackReport evaluate(const lock::LockedDesign& design,
                        EvalWorkspace& workspace) const override {
    util::Timer timer;
    const auto score =
        attack::StructuralLinkPredictor(config_).run(design, workspace.attack);
    return from_muxlink_score(name_, score, timer.elapsed_seconds());
  }

 private:
  std::string name_ = "structural";
  attack::StructuralPredictorConfig config_;
};

class ScopeAdapter : public Attack {
 public:
  const std::string& name() const noexcept override { return name_; }

  AttackReport evaluate(const lock::LockedDesign& design,
                        EvalWorkspace& workspace) const override {
    util::Timer timer;
    return from_scope_score(attack::ScopeAttack().run(design, workspace.attack),
                            timer);
  }

 private:
  AttackReport from_scope_score(const attack::ScopeScore& score,
                                const util::Timer& timer) const {
    AttackReport report;
    report.attack = name_;
    report.key_bits = score.key_bits;
    // SCOPE leaves symmetric (MUX) bits undecided; the forced-decision
    // accuracy credits those as coin flips, matching the other attacks'
    // "guess every bit" convention.
    report.accuracy = score.expected_overall_accuracy;
    report.precision = score.accuracy_on_decided;
    report.decided_fraction = score.decided_fraction;
    report.key_recovery = score.accuracy_on_decided * score.decided_fraction;
    report.key_recovered = score.key_bits > 0 &&
                           score.decided_fraction >= 1.0 &&
                           score.accuracy_on_decided >= 1.0;
    report.seconds = timer.elapsed_seconds();
    return report;
  }

  std::string name_ = "scope";
};

class SatAdapter : public Attack {
 public:
  SatAdapter(attack::SatAttackConfig config, const netlist::Netlist* oracle)
      : config_(config), oracle_(oracle) {}

  const std::string& name() const noexcept override { return name_; }

  AttackReport evaluate(const lock::LockedDesign& design,
                        EvalWorkspace&) const override {
    const auto result = attack::SatAttack(config_).attack(design.netlist,
                                                          *oracle_);
    AttackReport report;
    report.attack = name_;
    report.key_bits = design.key.size();
    // The SAT attack proves functional correctness rather than guessing
    // bits; success means total key recovery even if some recovered bits
    // differ from the ground truth on don't-care positions.
    report.accuracy = result.success ? 1.0 : 0.0;
    report.decided_fraction = result.success ? 1.0 : 0.0;
    std::size_t matching = 0;
    const std::size_t bits =
        std::min(result.recovered_key.size(), design.key.size());
    for (std::size_t b = 0; b < bits; ++b) {
      if (result.recovered_key[b] == design.key[b]) ++matching;
    }
    report.key_recovery =
        design.key.empty()
            ? (result.success ? 1.0 : 0.0)
            : static_cast<double>(matching) /
                  static_cast<double>(design.key.size());
    report.precision = report.key_recovery;
    report.key_recovered = result.success;
    report.seconds = result.seconds;
    return report;
  }

 private:
  std::string name_ = "sat";
  attack::SatAttackConfig config_;
  const netlist::Netlist* oracle_;
};

}  // namespace

void register_builtin_attacks(AttackRegistry& registry) {
  const auto seeded_muxlink = [](const AttackOptions& options) {
    attack::MuxLinkConfig config = options.muxlink;
    config.seed ^= options.seed;
    return config;
  };
  registry.add("muxlink", [seeded_muxlink](const AttackOptions& options) {
    attack::MuxLinkConfig config = seeded_muxlink(options);
    return std::make_unique<MuxLinkAdapter>("muxlink", config);
  });
  registry.add("muxlink-ensemble",
               [seeded_muxlink](const AttackOptions& options) {
                 attack::MuxLinkConfig config = seeded_muxlink(options);
                 config.ensemble = std::max<std::size_t>(options.ensemble, 1);
                 return std::make_unique<MuxLinkAdapter>("muxlink-ensemble",
                                                         config);
               });
  registry.add("structural", [](const AttackOptions& options) {
    attack::StructuralPredictorConfig config = options.structural;
    config.seed ^= options.seed;
    return std::make_unique<StructuralAdapter>(config);
  });
  registry.add("scope", [](const AttackOptions&) {
    return std::make_unique<ScopeAdapter>();
  });
  registry.add("sat", [](const AttackOptions& options) {
    if (options.oracle == nullptr) {
      throw std::invalid_argument(
          "attack 'sat' is oracle-guided: AttackOptions.oracle must point at "
          "the original netlist");
    }
    if (!options.oracle->key_inputs().empty()) {
      // Fail at registry time, not on the first evaluate(): a locked
      // netlist is not an oracle (SatAttack::attack would throw anyway).
      throw std::invalid_argument(
          "attack 'sat': AttackOptions.oracle has key inputs — pass the "
          "ORIGINAL (unlocked) netlist, not the locked one");
    }
    return std::make_unique<SatAdapter>(options.sat, options.oracle);
  });
}

}  // namespace autolock::eval
