// By-name construction of attack adapters. Any bench, example, or config
// file can sweep attacks from a string list:
//
//   eval::EvalWorkspace workspace;  // reusable across attacks and designs
//   for (const auto& name : eval::AttackRegistry::instance().names()) {
//     auto attack = eval::make_attack(name, options);
//     const eval::AttackReport report = attack->evaluate(design, workspace);
//     ...
//   }
//
// The registry is a fixed, name-sorted table of the five built-in attacks
// (muxlink, muxlink-ensemble, sat, scope, structural) in
// src/eval/adapters.cpp. Adding a new attack (see README.md "Adding a new
// attack"): implement eval::Attack for it (usually a thin adapter in that
// file) and add a row for it to the table.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "eval/attack.hpp"

namespace autolock::eval {

class AttackRegistry {
 public:
  /// The registry of the built-in attacks.
  static const AttackRegistry& instance();

  /// All attack names, sorted.
  std::vector<std::string> names() const;

  /// Constructs the named attack. Throws std::out_of_range (message lists
  /// the known names) if `name` is not in the table.
  std::unique_ptr<Attack> create(const std::string& name,
                                 const AttackOptions& options = {}) const;
};

/// Convenience: AttackRegistry::instance().create(...).
std::unique_ptr<Attack> make_attack(const std::string& name,
                                    const AttackOptions& options = {});

/// Constructs several attacks from a name list (order preserved).
std::vector<std::unique_ptr<Attack>> make_attacks(
    const std::vector<std::string>& names, const AttackOptions& options = {});

}  // namespace autolock::eval
