#include "netlist/generator.hpp"

#include <algorithm>
#include <stdexcept>

#include "netlist/bench_io.hpp"
#include "util/rng.hpp"

namespace autolock::netlist::gen {

namespace {

/// Probability that make_random draws a fanin from the recent-node window
/// (locality) rather than uniformly from all earlier nodes.
constexpr double kLocalityBias = 0.7;

GateType sample_type(const GateMix& mix, util::Rng& rng) {
  struct Entry {
    GateType type;
    double weight;
  };
  const Entry entries[] = {
      {GateType::kAnd, mix.and_w},   {GateType::kNand, mix.nand_w},
      {GateType::kOr, mix.or_w},     {GateType::kNor, mix.nor_w},
      {GateType::kNot, mix.not_w},   {GateType::kXor, mix.xor_w},
      {GateType::kXnor, mix.xnor_w}, {GateType::kBuf, mix.buf_w},
  };
  double total = 0.0;
  for (const auto& entry : entries) total += entry.weight;
  if (total <= 0.0) return GateType::kNand;
  double draw = rng.next_double() * total;
  for (const auto& entry : entries) {
    draw -= entry.weight;
    if (draw <= 0.0) return entry.type;
  }
  return GateType::kNand;
}

}  // namespace

Netlist make_random(const RandomCircuitConfig& config, std::uint64_t seed) {
  if (config.primary_inputs == 0 || config.outputs == 0 || config.gates == 0) {
    throw std::invalid_argument("make_random: empty interface");
  }
  util::Rng rng(seed ^ 0xC19C17ULL);
  Netlist netlist(config.name);

  std::vector<NodeId> pool;  // candidate fanin sources, in creation order
  for (std::size_t i = 0; i < config.primary_inputs; ++i) {
    pool.push_back(netlist.add_input("G" + std::to_string(i + 1) + "gat"));
  }

  const std::size_t depth_target = std::max<std::size_t>(config.target_depth, 2);
  // Window of "recent" nodes a local fanin is drawn from: small windows
  // produce long chains (depth), large windows produce flat circuits.
  const std::size_t window = std::max<std::size_t>(
      2, (config.gates + depth_target - 1) / depth_target);

  // Incrementally maintained undirected adjacency (for reconvergent fanin
  // selection). Indexed by NodeId.
  std::vector<std::vector<NodeId>> adjacency;
  auto ensure_adj = [&](NodeId id) {
    if (adjacency.size() <= id) adjacency.resize(id + 1);
  };

  // Samples a node from the 2-hop undirected neighbourhood of `anchor`;
  // returns kNoNode when the neighbourhood is empty.
  auto sample_near = [&](NodeId anchor) -> NodeId {
    ensure_adj(anchor);
    const auto& first = adjacency[anchor];
    if (first.empty()) return kNoNode;
    const NodeId mid = first[rng.next_below(first.size())];
    ensure_adj(mid);
    const auto& second = adjacency[mid];
    if (!second.empty() && rng.next_bool(0.6)) {
      return second[rng.next_below(second.size())];
    }
    return mid;
  };

  auto pick_fanin = [&](const std::vector<NodeId>& chosen) -> NodeId {
    // Triadic closure: draw non-first fanins near the first fanin.
    if (!chosen.empty() && rng.next_bool(config.reconvergence_bias)) {
      for (int attempt = 0; attempt < 6; ++attempt) {
        const NodeId near = sample_near(chosen[0]);
        if (near == kNoNode) break;
        if (std::find(chosen.begin(), chosen.end(), near) == chosen.end()) {
          return near;
        }
      }
    }
    // Fanins of one gate must be pairwise distinct: duplicate fanins create
    // degenerate logic (XOR(w, w) == 0) that makes wires unobservable and
    // does not occur in real netlists.
    for (int attempt = 0; attempt < 16; ++attempt) {
      std::size_t idx;
      if (rng.next_bool(kLocalityBias) && pool.size() > window) {
        idx = pool.size() - 1 - rng.next_below(window);
      } else {
        idx = rng.next_below(pool.size());
      }
      const NodeId candidate = pool[idx];
      if (std::find(chosen.begin(), chosen.end(), candidate) == chosen.end()) {
        return candidate;
      }
    }
    // Deterministic fallback: linear scan from a random start.
    const std::size_t start = rng.next_below(pool.size());
    for (std::size_t off = 0; off < pool.size(); ++off) {
      const NodeId candidate = pool[(start + off) % pool.size()];
      if (std::find(chosen.begin(), chosen.end(), candidate) == chosen.end()) {
        return candidate;
      }
    }
    throw std::logic_error("make_random: cannot pick a distinct fanin");
  };

  std::size_t next_name = config.primary_inputs + 1;
  for (std::size_t g = 0; g < config.gates; ++g) {
    const GateType type = sample_type(config.mix, rng);
    const std::size_t arity =
        (type == GateType::kNot || type == GateType::kBuf)
            ? 1
            : (rng.next_bool(0.82) ? 2 : 3);
    std::vector<NodeId> fanins;
    fanins.reserve(arity);
    for (std::size_t i = 0; i < arity; ++i) {
      fanins.push_back(pick_fanin(fanins));
    }
    const NodeId id = netlist.add_gate(
        type, std::move(fanins), "G" + std::to_string(next_name++) + "gat");
    pool.push_back(id);
    ensure_adj(id);
    for (const NodeId fanin : netlist.node(id).fanins) {
      ensure_adj(fanin);
      adjacency[id].push_back(fanin);
      adjacency[fanin].push_back(id);
    }
  }

  // Choose outputs among sinks (gates with no fanout) so the circuit is
  // maximally live; absorb excess sinks as extra fanins of later n-ary
  // gates (keeps gate count and acyclicity).
  std::vector<bool> has_fanout(netlist.size(), false);
  for (NodeId v = 0; v < netlist.size(); ++v) {
    for (const NodeId fanin : netlist.node(v).fanins) has_fanout[fanin] = true;
  }
  std::vector<NodeId> sinks;
  for (NodeId v = 0; v < netlist.size(); ++v) {
    if (netlist.node(v).type == GateType::kInput) continue;
    if (!has_fanout[v]) sinks.push_back(v);
  }
  rng.shuffle(sinks);

  std::vector<NodeId> output_drivers;
  for (NodeId sink : sinks) {
    if (output_drivers.size() < config.outputs) {
      output_drivers.push_back(sink);
      continue;
    }
    // Excess sink: splice into a strictly later n-ary gate as an extra
    // fanin (keeps the sink live, preserves gate count and acyclicity).
    std::vector<NodeId> hosts;
    for (NodeId v = sink + 1; v < netlist.size(); ++v) {
      const GateType t = netlist.node(v).type;
      if (t == GateType::kAnd || t == GateType::kNand || t == GateType::kOr ||
          t == GateType::kNor) {
        hosts.push_back(v);
      }
    }
    if (hosts.empty()) {
      output_drivers.push_back(sink);  // no host exists; accept extra output
      continue;
    }
    netlist.append_fanin(hosts[rng.next_below(hosts.size())], sink);
  }

  // If sinks were fewer than requested outputs, top up with random gates.
  std::size_t attempts = 0;
  while (output_drivers.size() < config.outputs &&
         attempts < 10 * config.gates) {
    ++attempts;
    const NodeId v = static_cast<NodeId>(
        config.primary_inputs + rng.next_below(config.gates));
    if (std::find(output_drivers.begin(), output_drivers.end(), v) ==
        output_drivers.end()) {
      output_drivers.push_back(v);
    }
  }
  rng.shuffle(output_drivers);

  // Mark outputs; name them O<i>.
  std::size_t port = 0;
  for (NodeId driver : output_drivers) {
    netlist.mark_output(driver, "O" + std::to_string(port++));
  }
  netlist.validate();
  return netlist;
}

Netlist make_layered(const LayeredCircuitConfig& config, std::uint64_t seed) {
  if (config.primary_inputs < 3 || config.outputs == 0 || config.layers < 2 ||
      config.gates < config.outputs + config.layers - 1) {
    throw std::invalid_argument("make_layered: infeasible shape");
  }
  util::Rng rng(seed ^ 0x1A7E12EDULL);
  Netlist netlist(config.name);
  // Bulk reservations: a million-gate build must not pay a reallocation
  // storm (nodes, inputs, name index) on top of the per-node work.
  netlist.names()->reserve(config.primary_inputs + config.gates +
                           config.outputs);
  netlist.reserve_nodes(config.primary_inputs + config.gates,
                        config.primary_inputs);

  std::vector<NodeId> prev;  // previous layer, consumed round-robin
  prev.reserve(config.primary_inputs);
  for (std::size_t i = 0; i < config.primary_inputs; ++i) {
    prev.push_back(netlist.add_input("pi" + std::to_string(i)));
  }

  // Layer widths: the last layer is exactly the outputs; interior layers
  // share the rest with a deterministic +-25% jitter around the mean.
  std::vector<std::size_t> widths(config.layers);
  widths.back() = config.outputs;
  std::size_t remaining = config.gates - config.outputs;
  const std::size_t interior = config.layers - 1;
  for (std::size_t l = 0; l < interior; ++l) {
    const std::size_t left = interior - l;
    std::size_t w;
    if (left == 1) {
      w = remaining;
    } else {
      const std::size_t base = remaining / left;
      w = base - base / 4 + rng.next_below(base / 2 + 1);
      w = std::max<std::size_t>(w, 1);
      w = std::min(w, remaining - (left - 1));  // leave >= 1 per later layer
    }
    widths[l] = w;
    remaining -= w;
  }

  const auto is_nary = [](GateType t) {
    return t != GateType::kNot && t != GateType::kBuf;
  };
  std::vector<NodeId> layer_nodes;
  std::vector<NodeId> fanins;
  for (std::size_t l = 0; l < config.layers; ++l) {
    const std::size_t width = widths[l];
    const NodeId layer_start = static_cast<NodeId>(netlist.size());
    layer_nodes.clear();
    std::size_t cursor = 0;
    for (std::size_t g = 0; g < width; ++g) {
      GateType type = sample_type(config.mix, rng);
      // The layer's first gate doubles as a guaranteed absorption host.
      if (g == 0 && !is_nary(type)) type = GateType::kNand;
      const std::size_t arity =
          is_nary(type) ? (rng.next_bool(0.82) ? 2 : 3) : 1;
      fanins.clear();
      fanins.push_back(prev[cursor]);
      cursor = cursor + 1 == prev.size() ? 0 : cursor + 1;
      while (fanins.size() < arity) {
        NodeId candidate = kNoNode;
        for (int attempt = 0; attempt < 8; ++attempt) {
          const NodeId draw =
              rng.next_bool(config.long_edge_bias)
                  ? static_cast<NodeId>(rng.next_below(layer_start))
                  : prev[rng.next_below(prev.size())];
          if (std::find(fanins.begin(), fanins.end(), draw) == fanins.end()) {
            candidate = draw;
            break;
          }
        }
        if (candidate == kNoNode) {
          // Deterministic fallback: earlier ids are dense, so a linear scan
          // from a random start always finds a distinct fanin (layer_start
          // >= primary_inputs >= 3 >= arity).
          const NodeId start = static_cast<NodeId>(rng.next_below(layer_start));
          for (NodeId off = 0; off < layer_start; ++off) {
            const NodeId draw = (start + off) % layer_start;
            if (std::find(fanins.begin(), fanins.end(), draw) ==
                fanins.end()) {
              candidate = draw;
              break;
            }
          }
        }
        fanins.push_back(candidate);
      }
      layer_nodes.push_back(netlist.add_gate(
          type, std::vector<NodeId>(fanins.begin(), fanins.end())));
    }
    // Previous-layer nodes the round-robin never reached (width <
    // prev.size()) are spliced into this layer's n-ary gates as extra
    // fanins, so no interior node is left driving nothing.
    if (width < prev.size()) {
      std::size_t host_cursor = 0;
      for (std::size_t u = width; u < prev.size(); ++u) {
        for (std::size_t attempt = 0; attempt < layer_nodes.size(); ++attempt) {
          const NodeId host = layer_nodes[host_cursor];
          host_cursor = host_cursor + 1 == layer_nodes.size() ? 0
                                                              : host_cursor + 1;
          const auto& host_fanins = netlist.node(host).fanins;
          if (!is_nary(netlist.node(host).type)) continue;
          if (std::find(host_fanins.begin(), host_fanins.end(), prev[u]) !=
              host_fanins.end()) {
            continue;
          }
          netlist.append_fanin(host, prev[u]);
          break;
        }
      }
    }
    prev.swap(layer_nodes);
  }

  for (std::size_t i = 0; i < prev.size(); ++i) {
    netlist.mark_output(prev[i], "po" + std::to_string(i));
  }
  netlist.validate();
  return netlist;
}

const std::vector<ScaleProfileInfo>& scale_profiles() {
  static const std::vector<ScaleProfileInfo> kScaleProfiles{
      {"synth100k", 2'000, 1'500, 100'000, 60},
      {"synth1m", 10'000, 8'000, 1'000'000, 90},
  };
  return kScaleProfiles;
}

Netlist make_scale_profile(std::string_view name, std::uint64_t seed) {
  for (const ScaleProfileInfo& info : scale_profiles()) {
    if (info.name != name) continue;
    LayeredCircuitConfig config;
    config.name = std::string(info.name);
    config.primary_inputs = info.primary_inputs;
    config.outputs = info.outputs;
    config.gates = info.gates;
    config.layers = info.layers;
    return make_layered(config, seed);
  }
  throw std::invalid_argument("unknown scale profile: " + std::string(name));
}

namespace {
constexpr std::array<ProfileInfo, 10> kProfiles{{
    {ProfileId::kC17, "c17", 5, 2, 6, 3, false},
    {ProfileId::kC432, "c432", 36, 7, 160, 17, true},
    {ProfileId::kC880, "c880", 60, 26, 383, 24, true},
    {ProfileId::kC1355, "c1355", 41, 32, 546, 24, true},
    {ProfileId::kC1908, "c1908", 33, 25, 880, 40, true},
    {ProfileId::kC2670, "c2670", 233, 140, 1193, 32, true},
    {ProfileId::kC3540, "c3540", 50, 22, 1669, 47, true},
    {ProfileId::kC5315, "c5315", 178, 123, 2307, 49, true},
    {ProfileId::kC6288, "c6288", 32, 32, 2416, 124, true},
    {ProfileId::kC7552, "c7552", 207, 108, 3512, 43, true},
}};
}  // namespace

const ProfileInfo& profile_info(ProfileId id) noexcept {
  for (const auto& profile : kProfiles) {
    if (profile.id == id) return profile;
  }
  return kProfiles[0];
}

std::vector<ProfileId> all_profiles() {
  std::vector<ProfileId> ids;
  ids.reserve(kProfiles.size());
  for (const auto& profile : kProfiles) ids.push_back(profile.id);
  return ids;
}

ProfileId profile_by_name(std::string_view name) {
  for (const auto& profile : kProfiles) {
    if (profile.name == name) return profile.id;
  }
  throw std::invalid_argument("unknown circuit profile: " + std::string(name));
}

Netlist c17() {
  // ISCAS-85 c17, verbatim (public domain benchmark).
  static constexpr std::string_view kC17Bench = R"(
# c17 — ISCAS-85
INPUT(1)
INPUT(2)
INPUT(3)
INPUT(6)
INPUT(7)
OUTPUT(22)
OUTPUT(23)
10 = NAND(1, 3)
11 = NAND(3, 6)
16 = NAND(2, 11)
19 = NAND(11, 7)
22 = NAND(10, 16)
23 = NAND(16, 19)
)";
  return bench::parse(kC17Bench, "c17");
}

Netlist make_profile(ProfileId id, std::uint64_t seed) {
  const ProfileInfo& info = profile_info(id);
  if (id == ProfileId::kC17) return c17();

  RandomCircuitConfig config;
  config.name = std::string(info.name);
  config.primary_inputs = info.primary_inputs;
  config.outputs = info.outputs;
  config.gates = info.gates;
  config.target_depth = info.depth;
  switch (id) {
    case ProfileId::kC1355:  // ECAT: XOR-rich error-correcting circuit
      config.mix = GateMix{0.08, 0.42, 0.05, 0.05, 0.08, 0.22, 0.08, 0.02};
      break;
    case ProfileId::kC6288:  // 16x16 multiplier: AND/NOR carry-save array
      config.mix = GateMix{0.45, 0.05, 0.02, 0.38, 0.05, 0.03, 0.01, 0.01};
      break;
    default:
      config.mix = GateMix{};  // generic control-logic mix
      break;
  }
  return make_random(config, seed ^ (static_cast<std::uint64_t>(id) << 32));
}

}  // namespace autolock::netlist::gen
