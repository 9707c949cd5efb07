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
// Adding a new attack (see README.md "Adding a new attack"):
//   1. implement eval::Attack for it (usually a thin adapter in
//      src/eval/adapters.cpp);
//   2. register a factory: either in register_builtin_attacks() for in-tree
//      attacks, or at startup via AttackRegistry::instance().add(...).
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "eval/attack.hpp"

namespace autolock::eval {

class AttackRegistry {
 public:
  using Factory = std::function<std::unique_ptr<Attack>(const AttackOptions&)>;

  /// Global registry, pre-populated with the built-in attacks.
  static AttackRegistry& instance();

  /// Registers a factory. Throws std::invalid_argument on an empty name or a
  /// duplicate registration.
  void add(std::string name, Factory factory);

  bool contains(const std::string& name) const;

  /// All registered names, sorted.
  std::vector<std::string> names() const;

  /// Constructs the named attack. Throws std::out_of_range (message lists
  /// the known names) if `name` is not registered.
  std::unique_ptr<Attack> create(const std::string& name,
                                 const AttackOptions& options = {}) const;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, Factory> factories_;
};

/// Convenience: AttackRegistry::instance().create(...).
std::unique_ptr<Attack> make_attack(const std::string& name,
                                    const AttackOptions& options = {});

/// Constructs several attacks from a name list (order preserved).
std::vector<std::unique_ptr<Attack>> make_attacks(
    const std::vector<std::string>& names, const AttackOptions& options = {});

/// Registers the five built-in adapters (muxlink, muxlink-ensemble,
/// structural, scope, sat). Called once by instance(); exposed for tests
/// that build a private registry.
void register_builtin_attacks(AttackRegistry& registry);

}  // namespace autolock::eval
