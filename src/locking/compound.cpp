#include "locking/compound.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <string_view>

#include "locking/mux_lock.hpp"

namespace autolock::lock {

using netlist::GateType;
using netlist::NameId;
using netlist::Netlist;
using netlist::NodeId;

namespace {

bool lists(const std::vector<NodeId>& fanins, NodeId node) {
  return std::find(fanins.begin(), fanins.end(), node) != fanins.end();
}

/// The interned {keyinput<t>, keymux<t>a, keymux<t>b, keyxor<t>} symbols
/// for key bit `t`, from the scratch cache; interns only the first time a
/// given bit index is seen per design family. The suffixed names are
/// formatted into a stack buffer (NameTable::intern takes a string_view),
/// so even a cold cache builds no heap strings — pinned by the zero-intern
/// regression in test_mux_lock.cpp.
const std::array<NameId, 4>& key_bit_names(const Netlist& net, std::size_t t,
                                           ReachScratch& scratch) {
  netlist::NameTable& table = *net.names();
  if (scratch.key_name_table != net.names()) {
    scratch.key_name_table = net.names();
    scratch.key_names.clear();
  }
  while (scratch.key_names.size() <= t) {
    const unsigned long long bit = scratch.key_names.size();
    char buf[32];
    const auto format = [&](const char* pattern) {
      const int len = std::snprintf(buf, sizeof buf, pattern, bit);
      return table.intern({buf, static_cast<std::size_t>(len)});
    };
    const NameId key_input = format("keyinput%llu");
    const NameId mux_a = format("keymux%llua");
    const NameId mux_b = format("keymux%llub");
    const NameId key_xor = format("keyxor%llu");
    scratch.key_names.push_back({key_input, mux_a, mux_b, key_xor});
  }
  return scratch.key_names[t];
}

/// Interns pattern-%llu(index) without building a heap string. Used for the
/// anti-SAT block's internal gate names; after the first decode of a family
/// every call finds an existing symbol.
NameId intern_indexed(const Netlist& net, const char* pattern,
                      std::size_t index) {
  char buf[32];
  const int len = std::snprintf(buf, sizeof buf, pattern,
                                static_cast<unsigned long long>(index));
  return net.names()->intern({buf, static_cast<std::size_t>(len)});
}

/// Decodes one MUX gene (exactly the historical per-site decode step).
/// `site` comes in as the genotype's gene and leaves as the possibly
/// repaired gene that was actually applied. Edge clashes are checked
/// against the MUX genes already in `design.genes`.
void apply_mux_gene(LockedDesign& design, const SiteContext& context,
                    Gene& site, util::Rng& repair_rng,
                    ReachScratch& scratch, std::size_t key_offset) {
  DecodeTopo& topo = scratch.topo;
  const bool ok = context.structurally_valid(site, scratch) &&
                  SiteContext::edges_available(site, design.genes) &&
                  applicable_to_working_ranks(topo, site);
  if (!ok) {
    bool repaired = false;
    for (int attempt = 0; attempt < 64 && !repaired; ++attempt) {
      Gene candidate;
      if (!context.sample_site(repair_rng, design.genes, candidate, scratch)) {
        break;
      }
      if (applicable_to_working_ranks(topo, candidate)) {
        site = candidate;
        repaired = true;
      }
    }
    if (!repaired) {
      throw std::runtime_error(
          "apply_genotype: could not repair invalid site at key bit " +
          std::to_string(key_offset) + " (circuit too small or saturated)");
    }
  }

  // Wire so that select == site.key_bit restores the original paths.
  const NodeId a0 = site.key_bit ? site.f_j : site.f_i;
  const NodeId a1 = site.key_bit ? site.f_i : site.f_j;
  const auto& names = key_bit_names(design.netlist, key_offset, scratch);
  const NodeId sel = design.netlist.add_input(names[0], /*is_key=*/true);
  const NodeId m1 =
      design.netlist.add_gate(GateType::kMux, {sel, a0, a1}, names[1]);
  const NodeId m2 =
      design.netlist.add_gate(GateType::kMux, {sel, a1, a0}, names[2]);
  if (design.netlist.replace_fanin(site.g_i, site.f_i, m1) == 0 ||
      design.netlist.replace_fanin(site.g_j, site.f_j, m2) == 0) {
    throw std::logic_error("apply_genotype: edge vanished during rewiring");
  }
  topo.insert_mux_pair(site.f_i, site.f_j, site.g_i, site.g_j, a0, a1, sel,
                       m1, m2);
  design.key.push_back(site.key_bit);
}

/// Decodes one RLL gene: an XOR/XNOR key gate spliced into the gene's
/// (driver, sink) wire. Invalid wires (stale after crossover, or already
/// consumed by an earlier gene) are repaired from the context's wire pool.
void apply_rll_gene(LockedDesign& design, const SiteContext& context,
                    Gene& gene, util::Rng& repair_rng, ReachScratch& scratch,
                    std::size_t key_offset, AppliedGene& rec) {
  DecodeTopo& topo = scratch.topo;
  const Netlist& original = context.original();
  NodeId driver = gene.f_i;
  NodeId sink = gene.g_i;
  const auto wire_ok = [&](NodeId d, NodeId s) {
    if (d >= original.size() || s >= original.size()) return false;
    const auto type = original.node(d).type;
    if (type == GateType::kConst0 || type == GateType::kConst1) return false;
    // The wire must still exist in the WORKING netlist — an earlier gene
    // may have consumed it (its fanin slot now holds that gene's key
    // logic), in which case locking it again is meaningless.
    return topo.has_fanin(s, d);
  };
  if (!wire_ok(driver, sink)) {
    const auto& pool = context.rll_wires();
    bool repaired = false;
    for (int attempt = 0; attempt < 64 && !repaired && !pool.empty();
         ++attempt) {
      const auto& wire = pool[repair_rng.next_below(pool.size())];
      if (topo.has_fanin(wire.second, wire.first)) {
        driver = wire.first;
        sink = wire.second;
        repaired = true;
      }
    }
    if (!repaired) {
      throw std::runtime_error(
          "apply_genotype: could not repair invalid RLL gene at key bit " +
          std::to_string(key_offset) + " (circuit too small or saturated)");
    }
  }
  const GateType gate_type =
      gene.key_bit ? GateType::kXnor : GateType::kXor;
  const auto& names = key_bit_names(design.netlist, key_offset, scratch);
  const NodeId key_in = design.netlist.add_input(names[0], /*is_key=*/true);
  const NodeId key_gate =
      design.netlist.add_gate(gate_type, {key_in, driver}, names[3]);
  if (design.netlist.replace_fanin(sink, driver, key_gate) == 0) {
    throw std::logic_error("apply_genotype: edge vanished during rewiring");
  }
  topo.insert_rll_gate(driver, sink, key_in, key_gate);
  design.key.push_back(gene.key_bit);
  gene.f_i = driver;
  gene.g_i = sink;
  rec.driver = driver;
  rec.sink = sink;
}

/// Decodes one Anti-SAT gene: the block's taps, correct key values and
/// splice location all derive from the gene-local RNG stream seeded by
/// gene.seed — identical to the standalone antisat_lock stream, so the
/// wrapper schemes reproduce their historical netlists bit for bit.
void apply_antisat_gene(LockedDesign& design, const SiteContext& context,
                        const Gene& gene, ReachScratch& scratch,
                        std::size_t key_offset, AppliedGene& rec) {
  DecodeTopo& topo = scratch.topo;
  Netlist& net = design.netlist;
  const std::size_t n = gene.width;
  if (n < 2) {
    throw std::runtime_error(
        "apply_genotype: anti-SAT gene needs width >= 2 (key bit " +
        std::to_string(key_offset) + ")");
  }
  const auto& primary = context.primary_inputs();
  if (primary.size() < n) {
    throw std::runtime_error(
        "apply_genotype: circuit has too few inputs for an anti-SAT gene of "
        "width " +
        std::to_string(n));
  }
  util::Rng grng(gene.seed);
  const auto tap_indices = grng.sample_indices(primary.size(), n);

  // Node-id layout inside the gene's 4n + 4 appended ids:
  //   [K1 inputs x n][K2 inputs x n][x1_i, x2_i interleaved x n]
  //   [g1][g2n][b][mix]
  const NodeId first = rec.first_node;
  const NodeId k1_base = first;
  const NodeId k2_base = first + static_cast<NodeId>(n);
  const NodeId xor_base = first + static_cast<NodeId>(2 * n);
  const NodeId g1 = first + static_cast<NodeId>(4 * n);
  const NodeId g2n = g1 + 1;
  const NodeId b = g1 + 2;
  const NodeId mix = g1 + 3;
  rec.width = gene.width;
  rec.splice_output = gene.splice_output;

  // K1 == K2 is the correct key; the per-bit values are drawn here, in the
  // standalone scheme's stream position (before the splice draw).
  const std::size_t key_start = design.key.size();
  for (std::size_t i = 0; i < n; ++i) design.key.push_back(grng.next_bool());
  for (std::size_t i = 0; i < n; ++i) {
    design.key.push_back(design.key[key_start + i]);
  }

  for (std::size_t i = 0; i < 2 * n; ++i) {
    (void)net.add_input(key_bit_names(net, key_offset + i, scratch)[0],
                        /*is_key=*/true);
  }
  for (std::size_t i = 0; i < n; ++i) {
    const NodeId tap = primary[tap_indices[i]];
    (void)net.add_gate(GateType::kXor, {tap, k1_base + static_cast<NodeId>(i)},
                       intern_indexed(net, "asat_x1_%llu", key_offset + i));
    (void)net.add_gate(GateType::kXor, {tap, k2_base + static_cast<NodeId>(i)},
                       intern_indexed(net, "asat_x2_%llu", key_offset + i));
  }
  auto& fanins = scratch.gene_fanins;
  fanins.clear();
  for (std::size_t i = 0; i < n; ++i) {
    fanins.push_back(xor_base + static_cast<NodeId>(2 * i));
  }
  (void)net.add_gate(GateType::kAnd, {fanins.begin(), fanins.end()},
                     intern_indexed(net, "asat_g1_%llu", key_offset));
  for (std::size_t i = 0; i < n; ++i) {
    fanins[i] = xor_base + static_cast<NodeId>(2 * i + 1);
  }
  (void)net.add_gate(GateType::kNand, {fanins.begin(), fanins.end()},
                     intern_indexed(net, "asat_g2n_%llu", key_offset));
  const NodeId b_fanins[2] = {g1, g2n};
  (void)net.add_gate(GateType::kAnd, {g1, g2n},
                     intern_indexed(net, "asat_b_%llu", key_offset));

  // Splice target (the last draw of the gene stream, as in the standalone
  // scheme: block first, splice second).
  NodeId displaced;
  NodeId sink = netlist::kNoNode;
  if (gene.splice_output) {
    rec.port = static_cast<std::uint32_t>(
        grng.next_below(net.outputs().size()));
    displaced = net.outputs()[rec.port].driver;
  } else {
    // Raw (undeduplicated) wire pool over everything that precedes the
    // gene's own nodes, input drivers excluded — the standalone scheme's
    // draw distribution.
    auto& pool = scratch.splice_pool;
    pool.clear();
    for (NodeId v = 0; v < first; ++v) {
      for (const NodeId fanin : net.node(v).fanins) {
        if (net.node(fanin).type == GateType::kInput) continue;
        pool.emplace_back(fanin, v);
      }
    }
    if (pool.empty()) {
      throw std::runtime_error(
          "apply_genotype: no internal wire for an anti-SAT gene to corrupt");
    }
    const auto wire = pool[grng.next_below(pool.size())];
    displaced = wire.first;
    sink = wire.second;
  }
  const NodeId mix_fanins[2] = {displaced, b};
  (void)net.add_gate(GateType::kXor, {displaced, b},
                     intern_indexed(net, "asat_mix_%llu", key_offset));
  if (gene.splice_output) {
    net.set_output_driver(rec.port, mix);
  } else if (net.replace_fanin(sink, displaced, mix) == 0) {
    throw std::logic_error("apply_genotype: wire vanished during rewiring");
  }
  rec.driver = displaced;
  rec.sink = sink;

  // Mirror the block in the dynamic order. An output-spliced block feeds no
  // working-graph node, so it floats above every current rank; an
  // internal-spliced block must fit strictly between its lows (taps and the
  // displaced driver) and the sink gate — ensure_order first demotes any
  // tap ranked at or above the sink (taps are primary inputs, so the sink
  // can never be in their fanin closure and the demote cannot fail).
  fanins.clear();
  for (std::size_t i = 0; i < n; ++i) {
    fanins.push_back(primary[tap_indices[i]]);
  }
  fanins.push_back(displaced);
  if (!gene.splice_output) {
    for (const NodeId low : fanins) {
      if (!topo.ensure_order(low, sink)) {
        throw std::logic_error(
            "apply_genotype: anti-SAT splice wire closed a cycle");
      }
    }
  }
  const DecodeTopo::BlockSlots slots = topo.block_slots(
      fanins, gene.splice_output ? netlist::kNoNode : sink, /*levels=*/5);
  const std::uint64_t r_keys = slots.base + slots.step;
  const std::uint64_t r_xors = slots.base + 2 * slots.step;
  const std::uint64_t r_gs = slots.base + 3 * slots.step;
  const std::uint64_t r_b = slots.base + 4 * slots.step;
  const std::uint64_t r_mix = slots.base + 5 * slots.step;
  for (std::size_t i = 0; i < 2 * n; ++i) {
    topo.append_node(first + static_cast<NodeId>(i),
                     std::span<const NodeId>{}, r_keys);
  }
  for (std::size_t i = 0; i < n; ++i) {
    const NodeId x1_fanins[2] = {primary[tap_indices[i]],
                                 k1_base + static_cast<NodeId>(i)};
    const NodeId x2_fanins[2] = {primary[tap_indices[i]],
                                 k2_base + static_cast<NodeId>(i)};
    topo.append_node(xor_base + static_cast<NodeId>(2 * i), x1_fanins, r_xors);
    topo.append_node(xor_base + static_cast<NodeId>(2 * i + 1), x2_fanins,
                     r_xors);
  }
  fanins.clear();
  for (std::size_t i = 0; i < n; ++i) {
    fanins.push_back(xor_base + static_cast<NodeId>(2 * i));
  }
  topo.append_node(g1, fanins, r_gs);
  for (std::size_t i = 0; i < n; ++i) {
    fanins[i] = xor_base + static_cast<NodeId>(2 * i + 1);
  }
  topo.append_node(g2n, fanins, r_gs);
  topo.append_node(b, b_fanins, r_b);
  topo.append_node(mix, mix_fanins, r_mix);
  if (!gene.splice_output &&
      topo.splice_fanin(sink, displaced, mix) == 0) {
    throw std::logic_error("apply_genotype: wire vanished during rewiring");
  }
}

/// Shared decode loop. `design.netlist` must hold exactly the original
/// netlist (a copy, or a warm design after undo and truncate); key, genes
/// and applied must be empty. Each gene appends its key logic after the
/// nodes already there.
void apply_genes(LockedDesign& design, const SiteContext& context,
                 const Genotype& genes, util::Rng& repair_rng,
                 ReachScratch& scratch) {
  // Decode-local dynamic topological order over the working netlist: seeded
  // from the original's longest-path levels, relabelled incrementally per
  // accepted gene. Every applicability query below is an O(1) rank
  // comparison in the common case, with a rank-window-bounded DFS otherwise
  // — never the from-scratch whole-graph DFS the pre-incremental decode
  // ran.
  DecodeTopo& topo = scratch.topo;
  topo.reset(context.fanin_csr(), context.seed_ranks(),
             context.decode_token());
  std::size_t key_offset = 0;
  for (std::size_t t = 0; t < genes.size(); ++t) {
    AppliedGene rec;
    rec.kind = genes[t].kind;
    rec.key_offset = static_cast<std::uint32_t>(key_offset);
    rec.first_node = static_cast<NodeId>(design.netlist.size());
    switch (genes[t].kind) {
      case GeneKind::kMux: {
        // Written back in factory form: fields a MUX gene does not use keep
        // their defaults, whatever the genotype carried there.
        const Gene& gene = genes[t];
        Gene site = Gene::mux(gene.f_i, gene.f_j, gene.g_i, gene.g_j,
                              gene.key_bit);
        apply_mux_gene(design, context, site, repair_rng, scratch, key_offset);
        design.genes.push_back(site);
        break;
      }
      case GeneKind::kRll: {
        Gene gene = genes[t];
        apply_rll_gene(design, context, gene, repair_rng, scratch, key_offset,
                       rec);
        design.genes.push_back(gene);
        break;
      }
      case GeneKind::kAntiSat: {
        apply_antisat_gene(design, context, genes[t], scratch, key_offset,
                           rec);
        design.genes.push_back(genes[t]);
        break;
      }
    }
    rec.node_count =
        static_cast<std::uint32_t>(design.netlist.size() - rec.first_node);
    design.applied.push_back(rec);
    key_offset += design.genes.back().key_bits();
  }
}

}  // namespace

LockedDesign apply_genotype(const Netlist& original,
                            const SiteContext& context, const Genotype& genes,
                            util::Rng& repair_rng) {
  LockedDesign design;
  ReachScratch scratch;
  apply_genotype_into(design, original, context, genes, repair_rng, scratch);
  design.netlist.validate();
  return design;
}

void apply_genotype_into(LockedDesign& out, const Netlist& original,
                         const SiteContext& context, const Genotype& genes,
                         util::Rng& repair_rng, ReachScratch& scratch) {
  // Warm path: when `out`'s records check out against `original` (it was
  // decoded from this original as it stands, and its netlist is as decode
  // left it), the previous decode is undone in place by its delta and the
  // key-logic tail truncated away, skipping the netlist copy. Either way the
  // genes then append their logic after the original's nodes, so both paths
  // produce identical designs, whatever the two genotypes' shapes. The
  // stamps are cleared first, so an exception can never leave a
  // half-rewired design that still checks out.
  DecodeDelta& delta = scratch.delta;
  const bool warm = replay_records(out, original, delta);
  out.original_version = 0;
  out.decoded_version = 0;
  if (warm) {
    // A rewired gate's fanins are its original list with some slots
    // replaced by tail ids. Each splice replaced every slot of its driver
    // with a fresh node, so slots that held one node still hold one node,
    // and replacing each tail id by its slot's original fanin restores it.
    for (const NodeId gate : delta.rewired) {
      const auto& was = original.node(gate).fanins;
      for (std::size_t k = 0; k < was.size(); ++k) {
        const NodeId now = out.netlist.node(gate).fanins[k];
        if (now != was[k]) out.netlist.replace_fanin(gate, now, was[k]);
      }
    }
    for (const std::uint32_t port : delta.moved_ports) {
      out.netlist.set_output_driver(port, original.outputs()[port].driver);
    }
    out.netlist.truncate(original.size());
  } else {
    // Copy-assignment reuses the destination's node/name storage where the
    // allocator permits; the first decode into a workspace pays the full
    // copy.
    out.netlist = original;
  }
  // Rename only when the name actually differs (the warm path arrives
  // already named) — the comparison allocates nothing.
  {
    constexpr std::string_view kSuffix = "_muxlocked";
    const std::string& base = original.name();
    const std::string& current = out.netlist.name();
    if (current.size() != base.size() + kSuffix.size() ||
        current.compare(0, base.size(), base) != 0 ||
        current.compare(base.size(), kSuffix.size(), kSuffix) != 0) {
      out.netlist.set_name(base + std::string(kSuffix));
    }
  }
  out.key.clear();
  out.genes.clear();
  out.applied.clear();
  out.genes.reserve(genes.size());
  out.applied.reserve(genes.size());
  apply_genes(out, context, genes, repair_rng, scratch);
  // Prime the traversal cache every downstream attack and simulator
  // construction consumes with the order derived from the decode's dynamic
  // ranks — an O(V) merge of the original's (level, id) order with the
  // decode's touched nodes, never an O(V + E) re-sort plus CSR fanout
  // rebuild per genotype. Acyclicity is already proven
  // gene-by-gene by the dynamic order; debug builds re-verify the primed
  // order inside prime_topological_order, every build in validate().
  scratch.topo.order_into(context.seed_order(), context.seed_order_ranks(),
                          context.seed_pos(), scratch.topo_order);
  out.netlist.prime_topological_order(scratch.topo_order);
  out.original_version = original.structural_version();
  out.decoded_version = out.netlist.structural_version();
}

bool replay_records(const LockedDesign& design, const Netlist& original,
                    DecodeDelta& delta) {
  const Netlist& locked = design.netlist;
  const std::size_t n0 = original.size();
  delta.design_version = 0;
  delta.original_version = 0;
  delta.wired = false;
  // Structural versions are unique across netlist objects, so: the design
  // was decoded from exactly this structure, and its netlist is exactly
  // what decode left.
  if (design.original_version != original.structural_version() ||
      design.decoded_version != locked.structural_version() ||
      locked.names() != original.names() || locked.size() < n0 ||
      design.applied.size() != design.genes.size()) {
    return false;
  }

  // Each gene owns the consecutive tail ids its kind fixes, from the end of
  // the original to the end of the design. Collect the splices its record
  // states: in an original gate, a driver replaced by a node of its logic,
  // or an output port moved onto it.
  delta.moved_ports.clear();
  delta.splices.clear();
  const auto splice = [&](NodeId gate, NodeId from, NodeId to) {
    delta.splices.push_back(
        {gate, static_cast<std::uint32_t>(delta.splices.size()), from, to});
  };
  std::size_t next = n0;
  for (std::size_t t = 0; t < design.genes.size(); ++t) {
    const AppliedGene& rec = design.applied[t];
    const Gene& gene = design.genes[t];
    if (rec.kind != gene.kind || rec.first_node != next) return false;
    std::size_t count = 0;
    switch (rec.kind) {
      case GeneKind::kMux:
        count = 3;
        break;
      case GeneKind::kRll:
        count = 2;
        break;
      case GeneKind::kAntiSat:
        count = 4 * static_cast<std::size_t>(gene.width) + 4;
        break;
    }
    if (rec.node_count != count || count > locked.size() - next) return false;
    next += count;
    switch (rec.kind) {
      case GeneKind::kMux:
        if (gene.f_i >= n0 || gene.f_j >= n0 || gene.g_i >= n0 ||
            gene.g_j >= n0) {
          return false;
        }
        splice(gene.g_i, gene.f_i, rec.first_node + 1);
        splice(gene.g_j, gene.f_j, rec.first_node + 2);
        break;
      case GeneKind::kRll:
        if (rec.driver >= n0 || rec.sink >= n0) return false;
        splice(rec.sink, rec.driver, rec.first_node + 1);
        break;
      case GeneKind::kAntiSat: {
        if (rec.width != gene.width ||
            rec.splice_output != gene.splice_output) {
          return false;
        }
        const NodeId mix = rec.first_node + rec.node_count - 1;
        if (rec.splice_output) {
          // No gate is rewired; the port must hold the block's output.
          if (rec.port >= locked.outputs().size() ||
              locked.outputs()[rec.port].driver != mix) {
            return false;
          }
          delta.moved_ports.push_back(rec.port);
        } else if (rec.sink < n0) {
          splice(rec.sink, rec.driver, mix);
        } else if (rec.sink >= rec.first_node ||
                   !lists(locked.node(rec.sink).fanins, mix)) {
          // A splice into an earlier gene's key logic: the tail rows come
          // from the design itself, but the sink must be that logic and
          // must still read the block.
          return false;
        }
        break;
      }
    }
  }
  if (next != locked.size()) return false;
  std::sort(delta.moved_ports.begin(), delta.moved_ports.end());

  // Replay the splices gate by gate, each gate's in gene order, on its
  // original fanin list. Each must replace at least one fanin, and the
  // replayed list must come out exactly as the design's: then the records
  // name every original gate decode rewired, and nothing else changed
  // there.
  std::sort(delta.splices.begin(), delta.splices.end(),
            [](const DecodeDelta::Splice& a, const DecodeDelta::Splice& b) {
              return a.gate != b.gate ? a.gate < b.gate : a.order < b.order;
            });
  delta.rewired.clear();
  for (auto s = delta.splices.cbegin(); s != delta.splices.cend();) {
    const NodeId gate = s->gate;
    delta.rewired.push_back(gate);
    delta.fanins = original.node(gate).fanins;
    for (; s != delta.splices.cend() && s->gate == gate; ++s) {
      bool replaced = false;
      for (NodeId& fanin : delta.fanins) {
        if (fanin == s->from) {
          fanin = s->to;
          replaced = true;
        }
      }
      if (!replaced) return false;
    }
    if (delta.fanins != locked.node(gate).fanins) return false;
  }
  delta.design_version = locked.structural_version();
  delta.original_version = original.structural_version();
  return true;
}

void warm_decode_names(const Netlist& original, std::size_t key_bits,
                       ReachScratch& scratch) {
  if (key_bits != 0) {
    (void)key_bit_names(original, key_bits - 1, scratch);
  }
}

Genotype random_genotype(const SiteContext& context, std::size_t key_bits,
                         util::Rng& rng) {
  Genotype genes;
  genes.reserve(key_bits);
  ReachScratch scratch;  // one visited set for all key bits, not one per bit
  for (std::size_t t = 0; t < key_bits; ++t) {
    Gene site;
    if (!context.sample_site(rng, genes, site, scratch)) {
      throw std::runtime_error(
          "random_genotype: cannot place " + std::to_string(key_bits) +
          " MUX pairs in circuit '" + context.original().name() + "'");
    }
    genes.push_back(site);
  }
  return genes;
}

Genotype random_genotype(const SiteContext& context, const GenotypeSpec& spec,
                         util::Rng& rng) {
  if (spec.key_bits() == 0) {
    throw std::invalid_argument("random_genotype: spec has no key bits");
  }
  Genotype genes = random_genotype(context, spec.mux_sites, rng);
  genes.reserve(spec.mux_sites + spec.rll_gates +
                (spec.antisat_width != 0 ? 1 : 0));
  if (spec.rll_gates != 0) {
    const auto& pool = context.rll_wires();
    if (pool.size() < spec.rll_gates) {
      throw std::runtime_error("random_genotype: circuit has only " +
                               std::to_string(pool.size()) +
                               " lockable wires, need " +
                               std::to_string(spec.rll_gates));
    }
    std::vector<std::size_t> chosen;
    chosen.reserve(spec.rll_gates);
    for (std::size_t t = 0; t < spec.rll_gates; ++t) {
      // Prefer distinct wires; after a few collisions accept the duplicate
      // and let decode repair it (keeps the draw count bounded).
      std::size_t idx = 0;
      for (int attempt = 0; attempt < 16; ++attempt) {
        idx = rng.next_below(pool.size());
        bool taken = false;
        for (const std::size_t c : chosen) taken = taken || c == idx;
        if (!taken) break;
      }
      chosen.push_back(idx);
      genes.push_back(
          Gene::rll(pool[idx].first, pool[idx].second, rng.next_bool()));
    }
  }
  if (spec.antisat_width != 0) {
    genes.push_back(Gene::antisat(spec.antisat_width, rng(),
                                  spec.antisat_splice_output));
  }
  return genes;
}

std::vector<KeyBitSlot> key_layout(const Genotype& genes) {
  std::vector<KeyBitSlot> slots;
  std::size_t total = 0;
  for (const Gene& gene : genes) total += gene.key_bits();
  slots.reserve(total);
  for (std::size_t g = 0; g < genes.size(); ++g) {
    for (std::size_t b = 0; b < genes[g].key_bits(); ++b) {
      slots.push_back({g, genes[g].kind, b});
    }
  }
  return slots;
}

}  // namespace autolock::lock
