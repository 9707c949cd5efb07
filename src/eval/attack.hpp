// The unified attack oracle: one polymorphic interface over every attack in
// the repo, so optimizers, benches, and examples score a locked design the
// same way regardless of which attack (or mix of attacks) is configured.
//
// Each adapter runs one concrete attack (attacks/) and scores its native
// result with one of the report functions below — the one place that says
// which key bits count and for how much. Adapters are constructed by name
// through AttackRegistry (eval/registry.hpp) and consumed in bulk by
// EvalPipeline (eval/pipeline.hpp), which owns the decode -> attack -> score
// loop.
#pragma once

#include <cstdint>
#include <string>

#include "attacks/muxlink.hpp"
#include "attacks/sat_attack.hpp"
#include "attacks/scope.hpp"
#include "attacks/structural.hpp"
#include "locking/mux_lock.hpp"
#include "netlist/netlist.hpp"

namespace autolock::eval {

/// Normalized outcome of one attack run against one locked design. All
/// fractional fields are in [0, 1].
struct AttackReport {
  std::string attack;             // registry name of the attack that ran
  std::size_t key_bits = 0;       // key length of the attacked design
  double accuracy = 0.0;          // forced-decision key-bit accuracy
  double precision = 0.0;         // correctness among confidently-decided bits
  double decided_fraction = 0.0;  // decided bits / all bits
  /// Key bits the attack actually reached (link-prediction attacks skip
  /// bits whose structural query is degenerate; whole-key attacks report
  /// 1.0). A low value means accuracy speaks for few bits.
  double attacked_fraction = 1.0;
  double key_recovery = 0.0;      // fraction of key bits exactly recovered
  bool key_recovered = false;     // full (functional) key recovery
  double seconds = 0.0;           // wall time of the attack run
};

// ---- scoring: a native attack result against the ground-truth key --------
// These functions (eval/adapters.cpp) hold every metric definition an
// AttackReport carries. Only sat_report fills `seconds` (the SAT attack
// times itself); the adapters stamp the others' wall time.

/// Link prediction (MuxLink, its ensemble, the structural predictor) under
/// the registry name `attack`: bits without a MUX hypothesis earn
/// coin-flip credit, `key_recovery` equals `accuracy`, and an empty key
/// gives all zeros, `attacked_fraction` included.
AttackReport link_report(std::string attack,
                         const attack::MuxLinkResult& result,
                         const netlist::Key& key);

/// SCOPE: undecided bits earn coin-flip credit, `precision` is taken over
/// decided bits and `key_recovery` is precision times `decided_fraction`.
AttackReport scope_report(const attack::ScopeResult& result,
                          const netlist::Key& key);

/// The SAT attack: `accuracy` and `decided_fraction` are 1 on a proven key
/// and 0 otherwise; `precision` and `key_recovery` count matching bits.
AttackReport sat_report(const attack::SatAttackResult& result,
                        const netlist::Key& key);

/// Construction-time knobs shared by all registry factories. Adapters read
/// only the fields they understand; unknown fields are ignored.
struct AttackOptions {
  /// Original (unlocked) netlist, required by oracle-guided attacks ("sat").
  /// EvalPipeline fills this with its own original automatically.
  const netlist::Netlist* oracle = nullptr;
  attack::MuxLinkConfig muxlink;
  attack::StructuralPredictorConfig structural;
  attack::SatAttackConfig sat;
  /// Committee size for "muxlink-ensemble".
  std::size_t ensemble = 3;
  /// XORed into every stochastic attack's seed (0 = use the configs' seeds
  /// unchanged). At 0 the "muxlink" entry is exactly a default
  /// attack::MuxLinkAttack(), so a held-out re-attack of a design evolved
  /// against it must change this seed or the MuxLink preset.
  std::uint64_t seed = 0;
};

class EvalWorkspace;

/// Interface every attack adapter implements. Implementations must be
/// thread-safe: evaluate() is invoked concurrently for different designs.
class Attack {
 public:
  virtual ~Attack() = default;

  /// Stable registry name ("muxlink", "scope", ...).
  virtual const std::string& name() const noexcept = 0;

  /// Runs the attack on `design` and scores it against the ground-truth key,
  /// routing scratch state through `workspace`. The report must not depend
  /// on what the workspace evaluated before (a fresh EvalWorkspace is the
  /// one-shot caller's choice). The workspace is exclusively the caller's
  /// for the duration of the call (one per pool shard), so implementations
  /// need no internal synchronization.
  virtual AttackReport evaluate(const lock::LockedDesign& design,
                                EvalWorkspace& workspace) const = 0;
};

}  // namespace autolock::eval
