// Benchmark circuit suite.
//
// The paper evaluates on standard benchmark netlists (ISCAS-85 style). The
// tiny public c17 circuit is embedded verbatim; the larger ISCAS-85 members
// are represented by a deterministic synthetic generator whose profiles
// match each circuit's published interface size, gate count, depth and
// rough gate-type mix (the attacks and the GA depend on graph-structural
// statistics, not on the specific Boolean function).
// Real .bench files drop in unchanged through bench::stream_load_file.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>
#include <vector>

#include "netlist/netlist.hpp"

namespace autolock::netlist::gen {

/// Relative gate-type weights used when sampling gate kinds.
struct GateMix {
  double and_w = 0.15;
  double nand_w = 0.35;
  double or_w = 0.12;
  double nor_w = 0.12;
  double not_w = 0.12;
  double xor_w = 0.07;
  double xnor_w = 0.04;
  double buf_w = 0.03;
};

struct RandomCircuitConfig {
  std::string name = "random";
  std::size_t primary_inputs = 16;
  std::size_t outputs = 8;
  std::size_t gates = 100;
  /// Approximate target logic depth; controls how local fanin selection is.
  std::size_t target_depth = 12;
  /// Probability that a fanin is drawn from the recent-node window (locality)
  /// rather than uniformly from all earlier nodes.
  double locality_bias = 0.7;
  /// Probability that a gate's non-first fanin is drawn from the 2-hop
  /// neighbourhood of its first fanin (triadic closure). Real circuits are
  /// built from modules (adders, decoders) whose wires reconverge heavily;
  /// this is the structural signal link-prediction attacks rely on, so the
  /// synthetic substitutes must exhibit it too.
  double reconvergence_bias = 0.45;
  GateMix mix;
};

/// Generates a random combinational circuit. Deterministic in (config, seed).
/// Guarantees: acyclic, every gate is live (feeds some output), interface
/// sizes exactly as configured, validate() passes.
Netlist make_random(const RandomCircuitConfig& config, std::uint64_t seed);

/// Shape of a large layered synthetic design. Unlike RandomCircuitConfig
/// (whose sink-absorption pass is quadratic in the gate count and unusable
/// past ~10k gates), the layered generator is strictly O(nodes + edges):
/// gates are placed layer by layer, each gate's first fanin consumes the
/// previous layer round-robin (so fanout coverage never needs a global sink
/// sweep), remaining fanins are drawn from the previous layer or — with
/// `long_edge_bias` — uniformly from any earlier node, and the handful of
/// previous-layer nodes the round-robin missed are absorbed as extra fanins
/// of this layer's n-ary gates. The last layer is exactly the output
/// drivers, so interface sizes are exact.
struct LayeredCircuitConfig {
  std::string name = "layered";
  std::size_t primary_inputs = 64;
  std::size_t outputs = 32;
  /// Total gate count, spread over `layers` with the last layer fixed to
  /// `outputs`. Must be at least outputs + layers - 1.
  std::size_t gates = 10'000;
  /// Gate layers (approximate logic depth). At least 2.
  std::size_t layers = 40;
  /// Probability that a non-first fanin reaches past the previous layer to
  /// a uniformly random earlier node (ISCAS-style long reconvergent wires).
  double long_edge_bias = 0.15;
  GateMix mix;
};

/// Generates a layered DAG in O(nodes + edges) time and memory.
/// Deterministic in (config, seed). Guarantees: acyclic, interface sizes
/// exactly as configured, gate count exact, validate() passes. Inputs are
/// named pi<i>, gates n<id>, output ports po<i>.
Netlist make_layered(const LayeredCircuitConfig& config, std::uint64_t seed);

/// A named large-scale benchmark shape for make_layered. These profiles are
/// deliberately NOT part of ProfileId/all_profiles(): every bench iterating
/// the ISCAS suite would otherwise pick up million-gate designs.
struct ScaleProfileInfo {
  std::string_view name;  // "synth100k", "synth1m"
  std::size_t primary_inputs;
  std::size_t outputs;
  std::size_t gates;
  std::size_t layers;
};

/// All scale profiles, ascending by size.
const std::vector<ScaleProfileInfo>& scale_profiles();

/// Builds a scale profile by name ("synth100k", "synth1m"); deterministic
/// in (name, seed). Throws on unknown name.
Netlist make_scale_profile(std::string_view name, std::uint64_t seed = 1);

/// ISCAS-85 profile identifiers. kC17 is the real circuit; the rest are
/// synthetic equivalents sized like their namesakes.
enum class ProfileId {
  kC17,
  kC432,
  kC880,
  kC1355,
  kC1908,
  kC2670,
  kC3540,
  kC5315,
  kC6288,
  kC7552,
};

struct ProfileInfo {
  ProfileId id;
  std::string_view name;       // e.g. "c432"
  std::size_t primary_inputs;  // published ISCAS-85 interface
  std::size_t outputs;
  std::size_t gates;
  std::size_t depth;
  bool synthetic;  // false only for c17
};

/// Published metadata for every profile.
const ProfileInfo& profile_info(ProfileId id) noexcept;

/// All profiles in ascending size order.
std::vector<ProfileId> all_profiles();

/// Looks a profile up by name ("c432"); throws on unknown name.
ProfileId profile_by_name(std::string_view name);

/// Builds the circuit for a profile. For kC17 the real netlist is returned
/// (seed ignored); others are deterministic in (id, seed).
Netlist make_profile(ProfileId id, std::uint64_t seed = 1);

/// The real ISCAS-85 c17 netlist (5 PI, 2 PO, 6 NAND gates).
Netlist c17();

}  // namespace autolock::netlist::gen
