// The allocation-free evaluation path must compute exactly what the
// straightforward references compute: SCOPE's in-place key-cone edits match
// full synthesis, the CSR attack graph matches an independently built
// adjacency and positive-link list, buffer-reusing decode matches apply_genotype — across thread
// counts, and whether a workspace is fresh or has evaluated a thousand
// designs before. Pinned GA/NSGA-II trajectories freeze the end-to-end
// results, alongside two behavioural fixes (repaired-genotype cache keys,
// corruption RNG seed mixing).
#include <gtest/gtest.h>

#include <map>

#include "attacks/attack_scratch.hpp"
#include "attacks/scope.hpp"
#include "campaign/campaign.hpp"
#include "core/ga.hpp"
#include "core/nsga2.hpp"
#include "eval/pipeline.hpp"
#include "eval/workspace.hpp"
#include "locking/mux_lock.hpp"
#include "locking/rll.hpp"
#include "netlist/bench_io.hpp"
#include "netlist/generator.hpp"
#include "netlist/opt.hpp"
#include "netlist/simulator.hpp"
#include "util/rng.hpp"

namespace autolock {
namespace {

using netlist::Netlist;
using netlist::GateType;
using netlist::NodeId;

Netlist profile(netlist::gen::ProfileId id, std::uint64_t seed) {
  return netlist::gen::make_profile(id, seed);
}

eval::EvalPipelineConfig attack_mix(std::uint64_t seed) {
  eval::EvalPipelineConfig config;
  config.attacks = {"structural", "scope"};
  config.seed = seed;
  return config;
}

// ---- SCOPE key-cone deltas vs reference synthesis --------------------------

using AreaPairs = std::vector<std::pair<std::size_t, std::size_t>>;

/// The reference SCOPE areas: one full optimize_with_key_bit per hypothesis.
AreaPairs reference_areas(const Netlist& locked) {
  AreaPairs areas;
  for (std::size_t bit = 0; bit < locked.key_inputs().size(); ++bit) {
    areas.emplace_back(
        netlist::optimize_with_key_bit(locked, bit, false).gate_count(),
        netlist::optimize_with_key_bit(locked, bit, true).gate_count());
  }
  return areas;
}

/// SCOPE's delta areas (and the oracle's baseline) on `scratch` must equal
/// full synthesis.
void expect_scope_matches_reference(const Netlist& locked,
                                    attack::AttackScratch& scratch) {
  EXPECT_EQ(attack::ScopeAttack().attack(locked, scratch).areas,
            reference_areas(locked));
  EXPECT_EQ(scratch.scope_areas.baseline_area(),
            netlist::optimize(locked).gate_count());
}

TEST(ScopeConeDelta, AreasMatchReferenceSynthesisOnMuxLocking) {
  const Netlist original = profile(netlist::gen::ProfileId::kC432, 3);
  const auto design = lock::dmux_lock(original, 12, 3);
  EXPECT_EQ(attack::ScopeAttack().attack(design.netlist).areas,
            reference_areas(design.netlist));
}

TEST(ScopeConeDelta, AreasMatchReferenceSynthesisOnRll) {
  // RLL XOR/XNOR key gates are the case SCOPE actually strips: the two
  // hypotheses produce asymmetric areas, so both branches of the rewriter
  // (folds and collapses) are exercised.
  const Netlist original = profile(netlist::gen::ProfileId::kC880, 5);
  const auto design = lock::rll_lock(original, 16, 5);
  EXPECT_EQ(attack::ScopeAttack().attack(design.netlist).areas,
            reference_areas(design.netlist));
}

TEST(ScopeConeDelta, ScopeAreasMatchReferenceSynthesis) {
  const Netlist original = profile(netlist::gen::ProfileId::kC432, 7);
  attack::AttackScratch scratch;  // one scratch across both designs: reuse
  for (const auto& design :
       {lock::dmux_lock(original, 10, 7), lock::rll_lock(original, 10, 7)}) {
    expect_scope_matches_reference(design.netlist, scratch);
  }
}

/// One reused KeyConeAreas against full synthesis (`reference`, the
/// reference_areas of `locked`): every bit queried for both values in
/// ascending order, then again in descending order, so each query starts
/// from the rollback of a different earlier one.
void expect_areas_match_reference(netlist::KeyConeAreas& areas,
                                  const Netlist& locked,
                                  const AreaPairs& reference) {
  areas.reset(locked);
  ASSERT_EQ(areas.key_bits(), reference.size());
  EXPECT_EQ(areas.baseline_area(), netlist::optimize(locked).gate_count());
  for (std::size_t bit = 0; bit < reference.size(); ++bit) {
    EXPECT_EQ(areas.area(bit, false), reference[bit].first) << "bit " << bit;
    EXPECT_EQ(areas.area(bit, true), reference[bit].second) << "bit " << bit;
  }
  for (std::size_t bit = reference.size(); bit-- > 0;) {
    EXPECT_EQ(areas.area(bit, true), reference[bit].second) << "bit " << bit;
    EXPECT_EQ(areas.area(bit, false), reference[bit].first) << "bit " << bit;
  }
}

void expect_areas_match_reference(netlist::KeyConeAreas& areas,
                                  const Netlist& locked) {
  expect_areas_match_reference(areas, locked, reference_areas(locked));
}

TEST(ScopeConeDelta, RandomGenotypesOfEverySchemeAndKeySize) {
  netlist::KeyConeAreas areas;  // one instance across every design
  util::Rng rng(13);
  for (const auto id : {netlist::gen::ProfileId::kC432,
                        netlist::gen::ProfileId::kC880,
                        netlist::gen::ProfileId::kC1355}) {
    const Netlist original = profile(id, 13);
    const lock::SiteContext context(original);
    for (const std::size_t key_bits : {8, 16, 32}) {
      for (const auto& scheme : campaign::default_schemes(key_bits)) {
        for (int trial = 0; trial < 2; ++trial) {
          const auto genes = lock::random_genotype(context, scheme.spec, rng);
          util::Rng repair(trial);
          const auto design =
              lock::apply_genotype(original, context, genes, repair);
          SCOPED_TRACE(original.name() + " " + scheme.name + " K=" +
                       std::to_string(key_bits) + " trial " +
                       std::to_string(trial));
          expect_areas_match_reference(areas, design.netlist);
        }
      }
    }
  }
}

TEST(ScopeConeDelta, DeepReconvergentDesignWith72KeyBits) {
  // ~5k gates of heavily reconvergent logic, and 72 key bits of every gene
  // kind: the cones overlap, and the keys run past the 64 one machine word
  // could hold.
  netlist::gen::RandomCircuitConfig config;
  config.primary_inputs = 64;
  config.outputs = 32;
  config.gates = 5000;
  config.target_depth = 60;
  config.reconvergence_bias = 0.8;
  const Netlist original = netlist::gen::make_random(config, 17);
  const lock::SiteContext context(original);
  util::Rng rng(17);
  const auto genes = lock::random_genotype(
      context,
      lock::GenotypeSpec{.mux_sites = 48, .rll_gates = 16, .antisat_width = 4},
      rng);
  util::Rng repair(17);
  const auto design = lock::apply_genotype(original, context, genes, repair);
  ASSERT_EQ(design.key.size(), 72u);

  // One scratch across designs of different sizes and key counts: small,
  // large, then small again.
  attack::AttackScratch scratch;
  const auto small = lock::rll_lock(profile(netlist::gen::ProfileId::kC432, 17),
                                    6, 17);
  expect_scope_matches_reference(small.netlist, scratch);
  expect_scope_matches_reference(design.netlist, scratch);
  expect_scope_matches_reference(small.netlist, scratch);
}

TEST(ScopeConeDelta, DecodedAndReparsedLayeredDesignsOfEveryScheme) {
  // Workspace-decoded designs carry the decode's primed topological order;
  // their .bench re-parses hold the same gates under renumbered ids, so
  // full synthesis gives both the same areas. One KeyConeAreas serves
  // every design, whose sizes change from one to the next: K = 8 and
  // K = 64 of every scheme, each with a small c432 design after it.
  netlist::gen::LayeredCircuitConfig config;
  config.primary_inputs = 96;
  config.outputs = 48;
  config.gates = 5000;
  config.layers = 30;
  const Netlist original = netlist::gen::make_layered(config, 23);
  const lock::SiteContext context(original);
  const auto small =
      lock::rll_lock(profile(netlist::gen::ProfileId::kC432, 23), 6, 23);
  eval::EvalWorkspace workspace;
  netlist::KeyConeAreas areas;
  util::Rng rng(23);
  for (const std::size_t key_bits : {8, 64}) {
    for (const auto& scheme : campaign::default_schemes(key_bits)) {
      const auto genes = lock::random_genotype(context, scheme.spec, rng);
      util::Rng repair(key_bits);
      lock::apply_genotype_into(workspace.design, original, context, genes,
                                repair, workspace.reach);
      const Netlist& decoded = workspace.design.netlist;
      const Netlist reparsed =
          netlist::bench::parse(netlist::bench::write(decoded));
      SCOPED_TRACE(scheme.name + " K=" + std::to_string(key_bits));
      const AreaPairs reference = reference_areas(reparsed);
      expect_areas_match_reference(areas, decoded, reference);
      expect_areas_match_reference(areas, reparsed, reference);
      expect_areas_match_reference(areas, small.netlist);
    }
  }
}

// Hand-built boundary cases: key k, primary inputs a..d.
struct HandBuilt {
  Netlist netlist{"hand"};
  NodeId a = netlist.add_input("a");
  NodeId b = netlist.add_input("b");
  NodeId c = netlist.add_input("c");
  NodeId d = netlist.add_input("d");
  NodeId k = netlist.add_input("k", /*is_key=*/true);
};

TEST(ScopeConeDelta, PinnedMuxSelectDropsDataInputWithLargeMffc) {
  // k = 0 keeps in0 and kills in1's three-gate MFFC; k = 1 kills in0's
  // OR but in0's AND survives through a second output.
  HandBuilt h;
  Netlist& n = h.netlist;
  const NodeId and_ab = n.add_gate(GateType::kAnd, {h.a, h.b}, "and_ab");
  const NodeId in0 = n.add_gate(GateType::kOr, {and_ab, h.c}, "in0");
  const NodeId nand_cd = n.add_gate(GateType::kNand, {h.c, h.d}, "nand_cd");
  const NodeId not_a = n.add_gate(GateType::kNot, {h.a}, "not_a");
  const NodeId in1 = n.add_gate(GateType::kXor, {nand_cd, not_a}, "in1");
  const NodeId mux = n.add_gate(GateType::kMux, {h.k, in0, in1}, "mux");
  n.mark_output(mux, "o0");
  n.mark_output(and_ab, "o1");
  attack::AttackScratch scratch;
  const auto areas = attack::ScopeAttack().attack(n, scratch).areas;
  EXPECT_EQ(areas, reference_areas(n));
  EXPECT_EQ(areas, AreaPairs({{2, 4}}));
}

TEST(ScopeConeDelta, DoubleInverterAcrossTheConeBoundary) {
  // not_a lies outside k's cone; with k = 1, AND(k, not_a) forwards it and
  // the cone's NOT folds onto a through the baseline inverter record.
  HandBuilt h;
  Netlist& n = h.netlist;
  const NodeId not_a = n.add_gate(GateType::kNot, {h.a}, "not_a");
  const NodeId gated = n.add_gate(GateType::kAnd, {h.k, not_a}, "gated");
  const NodeId back = n.add_gate(GateType::kNot, {gated}, "back");
  const NodeId x = n.add_gate(GateType::kXor, {h.k, not_a}, "x");
  n.mark_output(back, "o0");
  n.mark_output(x, "o1");
  n.mark_output(h.b, "o2");
  attack::AttackScratch scratch;
  expect_scope_matches_reference(n, scratch);
}

TEST(ScopeConeDelta, AndDedupeOfConeFaninWithOutsideFanin) {
  // k = 0 turns OR(k, b) into b, which AND(t, b, c) then deduplicates.
  HandBuilt h;
  Netlist& n = h.netlist;
  const NodeId t = n.add_gate(GateType::kOr, {h.k, h.b}, "t");
  const NodeId g = n.add_gate(GateType::kAnd, {t, h.b, h.c}, "g");
  const NodeId nor = n.add_gate(GateType::kNor, {g, h.d}, "nor");
  n.mark_output(nor, "o0");
  n.mark_output(h.a, "o1");
  attack::AttackScratch scratch;
  expect_scope_matches_reference(n, scratch);
}

TEST(ScopeConeDelta, OutputDrivenByKeyGateOrKeyInput) {
  // Two keys: one whose key gate drives a port, one that drives a port
  // directly (and also feeds logic).
  HandBuilt h;
  Netlist& n = h.netlist;
  const NodeId k2 = n.add_input("k2", /*is_key=*/true);
  const NodeId key_gate = n.add_gate(GateType::kXnor, {h.a, h.k}, "key_gate");
  const NodeId mixed = n.add_gate(GateType::kNand, {k2, h.c, h.d}, "mixed");
  n.mark_output(key_gate, "o0");
  n.mark_output(k2, "o1");
  n.mark_output(mixed, "o2");
  n.mark_output(key_gate, "o3");  // two ports on one cone driver
  attack::AttackScratch scratch;
  expect_scope_matches_reference(n, scratch);
}

TEST(ScopeConeDelta, NotEditedInPlaceFeedsNot) {
  // k = 1 turns AND(k, a) into a, so `inv` re-emits its NOT with fanin a:
  // an in-place edit. `outer` reaches it through a buffer and must see the
  // edited fanin: NOT(NOT(a)) = a, and the AND dies.
  HandBuilt h;
  Netlist& n = h.netlist;
  const NodeId gated = n.add_gate(GateType::kAnd, {h.k, h.a}, "gated");
  const NodeId inv = n.add_gate(GateType::kNot, {gated}, "inv");
  const NodeId buf = n.add_gate(GateType::kBuf, {inv}, "buf");
  const NodeId outer = n.add_gate(GateType::kNot, {buf}, "outer");
  n.mark_output(outer, "o0");
  n.mark_output(inv, "o1");
  attack::AttackScratch scratch;
  expect_scope_matches_reference(n, scratch);
  EXPECT_EQ(reference_areas(n), AreaPairs({{0, 1}}));
}

TEST(ScopeConeDelta, CollapsedXorKeyGateMakesDownstreamAndDedupe) {
  // k = 0 collapses the key gate to a, and AND(key_gate, a, b) edits in
  // place to AND(a, b); k = 1 appends NOT(a) for the key gate instead.
  HandBuilt h;
  Netlist& n = h.netlist;
  const NodeId key_gate = n.add_gate(GateType::kXor, {h.a, h.k}, "key_gate");
  const NodeId g = n.add_gate(GateType::kAnd, {key_gate, h.a, h.b}, "g");
  const NodeId out = n.add_gate(GateType::kOr, {g, h.c}, "out");
  n.mark_output(out, "o0");
  netlist::KeyConeAreas areas;
  expect_areas_match_reference(areas, n);
  EXPECT_EQ(reference_areas(n), AreaPairs({{2, 3}}));
}

TEST(ScopeConeDelta, DeadBaselineNodeComesAliveUnderPin) {
  // Without a pin NOT(NOT(x)) = x, so the MUX has equal data inputs and
  // forwards x: its select, and the XOR and NOT behind it, are dead. k = 1
  // makes x a NOT, which the double inverter strips and re-emits as a
  // second NOT: the data inputs differ and the MUX is emitted, reached only
  // through the OR edited in place behind it. The select, edited in place
  // itself (the XOR collapses to d), comes alive with its new fanins.
  HandBuilt h;
  Netlist& n = h.netlist;
  const NodeId not_d = n.add_gate(GateType::kNot, {h.d}, "not_d");
  const NodeId g = n.add_gate(GateType::kXor, {h.k, not_d}, "g");
  const NodeId select = n.add_gate(GateType::kAnd, {g, h.c}, "select");
  const NodeId x = n.add_gate(GateType::kNand, {h.k, h.a}, "x");
  const NodeId inv = n.add_gate(GateType::kNot, {x}, "inv");
  const NodeId back = n.add_gate(GateType::kNot, {inv}, "back");
  const NodeId mux = n.add_gate(GateType::kMux, {select, x, back}, "mux");
  const NodeId out = n.add_gate(GateType::kOr, {mux, h.b}, "out");
  n.mark_output(out, "o0");
  netlist::KeyConeAreas areas;
  expect_areas_match_reference(areas, n);
  EXPECT_EQ(areas.baseline_area(), 2u);
  EXPECT_EQ(reference_areas(n), AreaPairs({{0, 5}}));
}

TEST(ScopeConeDelta, PortDriverChanges) {
  // k = 0 moves port o0 from OR(k, a) to input a while AND(t, b) behind o1
  // edits in place; k = 1 moves o0 to a constant and o1 to b. Port o2 reads
  // the key gate through a buffer.
  HandBuilt h;
  Netlist& n = h.netlist;
  const NodeId t = n.add_gate(GateType::kOr, {h.k, h.a}, "t");
  const NodeId z = n.add_gate(GateType::kAnd, {t, h.b}, "z");
  const NodeId buf = n.add_gate(GateType::kBuf, {t}, "buf");
  n.mark_output(t, "o0");
  n.mark_output(z, "o1");
  n.mark_output(buf, "o2");
  netlist::KeyConeAreas areas;
  expect_areas_match_reference(areas, n);
  EXPECT_EQ(reference_areas(n), AreaPairs({{1, 0}}));
}

TEST(ScopeConeDelta, OutOfRangeBitThrows) {
  HandBuilt h;
  h.netlist.mark_output(h.netlist.add_gate(GateType::kAnd, {h.a, h.k}), "o");
  netlist::KeyConeAreas areas;
  areas.reset(h.netlist);
  EXPECT_THROW(areas.area(1, false), std::invalid_argument);
}

TEST(NetlistStats, GateCountAccessorMatchesStats) {
  const Netlist original = profile(netlist::gen::ProfileId::kC432, 11);
  EXPECT_EQ(original.gate_count(), original.stats().gates);
}

// ---- CSR attack graph ------------------------------------------------------

/// `graph`, built from `locked`, must equal an independently built view.
void expect_graph_matches_reference(const attack::AttackGraph& graph,
                                    const Netlist& locked) {

  // Reference adjacency, built the way the legacy list-of-lists code did:
  // undirected edges over present nodes, rows sorted + deduplicated.
  const std::size_t n = locked.size();
  std::vector<std::vector<NodeId>> reference(n);
  for (NodeId v = 0; v < n; ++v) {
    if (!graph.in_graph(v)) continue;
    for (const NodeId fanin : locked.node(v).fanins) {
      if (!graph.in_graph(fanin)) continue;
      reference[v].push_back(fanin);
      reference[fanin].push_back(v);
    }
  }
  for (auto& row : reference) {
    std::sort(row.begin(), row.end());
    row.erase(std::unique(row.begin(), row.end()), row.end());
  }
  EXPECT_EQ(graph.adjacency_lists(), reference);
  for (NodeId v = 0; v < n; ++v) {
    const auto span = graph.neighbors(v);
    ASSERT_EQ(std::vector<NodeId>(span.begin(), span.end()), reference[v]);
    EXPECT_EQ(graph.degree(v), reference[v].size());
  }

  // Reference positives: every (driver, sink) wire between present nodes,
  // sorted and deduplicated.
  std::vector<std::pair<NodeId, NodeId>> links;
  for (NodeId v = 0; v < n; ++v) {
    if (!graph.in_graph(v)) continue;
    for (const NodeId fanin : locked.node(v).fanins) {
      if (graph.in_graph(fanin)) links.emplace_back(fanin, v);
    }
  }
  std::sort(links.begin(), links.end());
  links.erase(std::unique(links.begin(), links.end()), links.end());
  std::vector<std::pair<NodeId, NodeId>> known;
  for (const auto& link : graph.known_links()) known.emplace_back(link.u, link.v);
  EXPECT_EQ(known, links);

  // Reference problems, grouped through a std::map exactly as the legacy
  // implementation did; sinks per MUX deduplicated and ascending.
  std::vector<std::vector<NodeId>> fanouts(n);
  for (NodeId v = 0; v < n; ++v) {
    for (const NodeId fanin : locked.node(v).fanins) {
      if (fanouts[fanin].empty() || fanouts[fanin].back() != v) {
        fanouts[fanin].push_back(v);
      }
    }
  }
  const auto key_nodes = locked.key_inputs();
  std::vector<int> bit_of(n, -1);
  for (std::size_t i = 0; i < key_nodes.size(); ++i) {
    bit_of[key_nodes[i]] = static_cast<int>(i);
  }
  std::map<int, attack::KeyBitProblem> by_bit;
  for (NodeId m = 0; m < n; ++m) {
    const auto& node = locked.node(m);
    if (node.type != netlist::GateType::kMux || node.fanins.empty()) continue;
    const auto& sel = locked.node(node.fanins[0]);
    if (sel.type != netlist::GateType::kInput || !sel.is_key_input) continue;
    const NodeId in0 = node.fanins[1];
    const NodeId in1 = node.fanins[2];
    if (!graph.in_graph(in0) || !graph.in_graph(in1)) continue;
    auto& problem = by_bit[bit_of[node.fanins[0]]];
    problem.key_bit_index = bit_of[node.fanins[0]];
    for (const NodeId sink : fanouts[m]) {
      if (!graph.in_graph(sink)) continue;
      problem.if_zero.push_back(attack::CandidateLink{in0, sink});
      problem.if_one.push_back(attack::CandidateLink{in1, sink});
    }
  }
  std::size_t expected_problems = 0;
  for (const auto& [bit, problem] : by_bit) {
    if (problem.if_zero.empty()) continue;
    ASSERT_LT(expected_problems, graph.problems().size());
    const auto& actual = graph.problems()[expected_problems++];
    EXPECT_EQ(actual.key_bit_index, bit);
    ASSERT_EQ(actual.if_zero.size(), problem.if_zero.size());
    for (std::size_t p = 0; p < problem.if_zero.size(); ++p) {
      EXPECT_EQ(actual.if_zero[p].u, problem.if_zero[p].u);
      EXPECT_EQ(actual.if_zero[p].v, problem.if_zero[p].v);
      EXPECT_EQ(actual.if_one[p].u, problem.if_one[p].u);
      EXPECT_EQ(actual.if_one[p].v, problem.if_one[p].v);
    }
  }
  EXPECT_EQ(graph.problems().size(), expected_problems);
}

TEST(CsrAttackGraph, MatchesIndependentlyBuiltReference) {
  const Netlist original = profile(netlist::gen::ProfileId::kC880, 11);
  const auto design = lock::dmux_lock(original, 20, 11);
  expect_graph_matches_reference(attack::AttackGraph(design.netlist),
                                 design.netlist);

  // Random genotypes of every scheme, on one reused graph.
  const lock::SiteContext context(original);
  attack::AttackGraph reused;
  util::Rng rng(11);
  for (const auto& scheme : campaign::default_schemes(16)) {
    const auto genes = lock::random_genotype(context, scheme.spec, rng);
    util::Rng repair(11);
    const auto locked = lock::apply_genotype(original, context, genes, repair);
    SCOPED_TRACE(scheme.name);
    reused.build(locked.netlist);
    expect_graph_matches_reference(reused, locked.netlist);
  }

  // A gate listing the same fanin twice, and a key MUX fed by another.
  HandBuilt h;
  Netlist& n = h.netlist;
  const NodeId k2 = n.add_input("k2", /*is_key=*/true);
  const NodeId twice = n.add_gate(GateType::kAnd, {h.a, h.a, h.b}, "twice");
  const NodeId mux = n.add_gate(GateType::kMux, {h.k, twice, h.c}, "mux");
  const NodeId chained = n.add_gate(GateType::kMux, {k2, mux, h.d}, "chained");
  const NodeId sink = n.add_gate(GateType::kOr, {mux, mux, twice}, "sink");
  const NodeId x = n.add_gate(GateType::kXor, {chained, twice, twice}, "x");
  n.mark_output(sink, "o0");
  n.mark_output(x, "o1");
  const attack::AttackGraph hand(n);
  expect_graph_matches_reference(hand, n);
  // a->twice, b->twice, twice->sink, twice->x: each repeat counted once.
  EXPECT_EQ(hand.known_links().size(), 4u);
}

TEST(CsrAttackGraph, RebuildReusesStorageAndMatchesFreshBuild) {
  const Netlist original = profile(netlist::gen::ProfileId::kC432, 13);
  const auto design_a = lock::dmux_lock(original, 8, 13);
  const auto design_b = lock::dmux_lock(original, 14, 17);

  attack::AttackGraph reused;
  reused.build(design_a.netlist);   // warm the buffers on a different design
  reused.build(design_b.netlist);   // then rebuild for the design under test
  const attack::AttackGraph fresh(design_b.netlist);

  EXPECT_EQ(reused.adjacency_lists(), fresh.adjacency_lists());
  ASSERT_EQ(reused.known_links().size(), fresh.known_links().size());
  for (std::size_t i = 0; i < fresh.known_links().size(); ++i) {
    EXPECT_EQ(reused.known_links()[i].u, fresh.known_links()[i].u);
    EXPECT_EQ(reused.known_links()[i].v, fresh.known_links()[i].v);
  }
  ASSERT_EQ(reused.problems().size(), fresh.problems().size());
  for (std::size_t i = 0; i < fresh.problems().size(); ++i) {
    EXPECT_EQ(reused.problems()[i].key_bit_index,
              fresh.problems()[i].key_bit_index);
    EXPECT_EQ(reused.problems()[i].if_zero.size(),
              fresh.problems()[i].if_zero.size());
  }
}

// ---- attacker view patched from the family's view ---------------------------

/// `view` must equal `full`, a fresh build() of the same netlist: every row,
/// degree and presence mark, the positives, the present lists, the problems.
void expect_same_view(const attack::AttackGraph& view,
                      const attack::AttackGraph& full) {
  ASSERT_EQ(&view.locked(), &full.locked());
  for (NodeId v = 0; v < full.locked().size(); ++v) {
    ASSERT_EQ(view.in_graph(v), full.in_graph(v)) << "node " << v;
    ASSERT_EQ(view.degree(v), full.degree(v)) << "node " << v;
    const auto row = view.neighbors(v);
    const auto expected = full.neighbors(v);
    ASSERT_TRUE(std::equal(row.begin(), row.end(), expected.begin(),
                           expected.end()))
        << "node " << v;
  }
  const auto pairs = [](const std::vector<attack::CandidateLink>& links) {
    std::vector<std::pair<NodeId, NodeId>> out;
    for (const auto& link : links) out.emplace_back(link.u, link.v);
    return out;
  };
  EXPECT_EQ(pairs(view.known_links()), pairs(full.known_links()));
  EXPECT_EQ(view.present_nodes(), full.present_nodes());
  EXPECT_EQ(view.present_sinks(), full.present_sinks());
  ASSERT_EQ(view.problems().size(), full.problems().size());
  for (std::size_t p = 0; p < full.problems().size(); ++p) {
    const auto& problem = view.problems()[p];
    const auto& expected = full.problems()[p];
    EXPECT_EQ(problem.key_bit_index, expected.key_bit_index);
    EXPECT_EQ(pairs(problem.if_zero), pairs(expected.if_zero));
    EXPECT_EQ(pairs(problem.if_one), pairs(expected.if_one));
  }
}

/// A design family: an original, its site context and a decode workspace.
struct Family {
  explicit Family(Netlist netlist)
      : original(std::move(netlist)), context(original) {}
  Netlist original;
  lock::SiteContext context;
  eval::EvalWorkspace workspace;

  lock::LockedDesign& decode(const lock::Genotype& genes, std::uint64_t seed) {
    util::Rng repair(seed);
    lock::apply_genotype_into(workspace.design, original, context, genes,
                              repair, workspace.reach);
    return workspace.design;
  }
};

TEST(CsrAttackGraph, PatchedViewMatchesFullBuild) {
  netlist::gen::RandomCircuitConfig random5k;
  random5k.name = "random5k";
  random5k.primary_inputs = 64;
  random5k.outputs = 32;
  random5k.gates = 5000;
  std::vector<std::unique_ptr<Family>> families;
  for (const auto id : {netlist::gen::ProfileId::kC432,
                        netlist::gen::ProfileId::kC880,
                        netlist::gen::ProfileId::kC1355}) {
    families.push_back(std::make_unique<Family>(profile(id, 24)));
  }
  families.push_back(
      std::make_unique<Family>(netlist::gen::make_random(random5k, 24)));

  // One scratch across every design, switching families from one design to
  // the next: each view must be patched, and equal a fresh full build.
  attack::AttackScratch scratch;
  const auto expect_patched = [&](const lock::LockedDesign& design,
                                  const Family& family) {
    scratch.family = &family.original;
    const attack::AttackGraph full(design.netlist);
    expect_same_view(scratch.view(design), full);
    EXPECT_TRUE(scratch.graph.patched());
    EXPECT_TRUE(scratch.graph.based_on(family.original));
  };
  util::Rng rng(24);
  for (const std::size_t key_bits : {8, 16, 32}) {
    std::vector<lock::GenotypeSpec> specs;
    for (const auto& scheme : campaign::default_schemes(key_bits)) {
      specs.push_back(scheme.spec);
    }
    // An internally spliced anti-SAT block, which may land on an earlier
    // gene's key logic.
    specs.push_back({.mux_sites = key_bits,
                     .rll_gates = key_bits / 4,
                     .antisat_width = 2,
                     .antisat_splice_output = false});
    for (const auto& spec : specs) {
      for (const auto& family : families) {
        SCOPED_TRACE(family->original.name() + " K=" +
                     std::to_string(spec.key_bits()));
        const auto genes = lock::random_genotype(family->context, spec, rng);
        expect_patched(family->decode(genes, rng()), *family);
      }
    }
  }

  // The bound original replaced in place (same object, same size, new
  // structure): the view of the old one is stale and must be rebuilt.
  {
    Netlist original;
    scratch.family = &original;
    for (const std::uint64_t seed : {25, 26}) {
      original = profile(netlist::gen::ProfileId::kC432, seed);
      const lock::SiteContext context(original);
      util::Rng genes_rng(seed);
      util::Rng repair(seed);
      const auto design = lock::apply_genotype(
          original, context, lock::random_genotype(context, 16, genes_rng),
          repair);
      expect_same_view(scratch.view(design), attack::AttackGraph(design.netlist));
      EXPECT_TRUE(scratch.graph.patched());
      EXPECT_TRUE(scratch.graph.based_on(original));
    }
  }

  Family& c432 = *families.front();
  util::Rng c432_rng(7);
  const lock::GenotypeSpec compound{.mux_sites = 16,
                                    .rll_gates = 4,
                                    .antisat_width = 2,
                                    .antisat_splice_output = false};

  // A design moved out of its workspace keeps its records and stamps, so
  // its view is still patched.
  {
    (void)c432.decode(lock::random_genotype(c432.context, compound, c432_rng),
                      1);
    const lock::LockedDesign moved = std::move(c432.workspace.design);
    expect_patched(moved, c432);
    expect_patched(c432.decode(moved.genes, 2), c432);
  }

  // Key logic chained into key logic: internal anti-SAT splices whose wire
  // leaves a key MUX or enters one (or an RLL key gate).
  {
    bool from_tail = false;
    bool into_tail = false;
    for (int tries = 0; tries < 400 && !(from_tail && into_tail); ++tries) {
      const auto& design = c432.decode(
          lock::random_genotype(c432.context, compound, c432_rng), tries);
      const lock::AppliedGene& block = design.applied.back();
      const bool leaves = block.driver >= c432.original.size();
      const bool enters = block.sink >= c432.original.size();
      if ((leaves && !from_tail) || (enters && !into_tail)) {
        expect_patched(design, c432);
        from_tail = from_tail || leaves;
        into_tail = into_tail || enters;
      }
    }
    EXPECT_TRUE(from_tail);
    EXPECT_TRUE(into_tail);
  }

  // A gate reading a key MUX twice (its locked fanin was listed twice), and
  // an RLL gate and an anti-SAT block on a repeated wire.
  {
    Netlist original{"repeats"};
    const NodeId a = original.add_input("a");
    const NodeId b = original.add_input("b");
    const NodeId c = original.add_input("c");
    const NodeId d = original.add_input("d");
    const NodeId twice = original.add_gate(GateType::kAnd, {a, a, b}, "twice");
    const NodeId other = original.add_gate(GateType::kOr, {c, d}, "other");
    const NodeId mix = original.add_gate(GateType::kXor, {twice, other}, "mix");
    const NodeId pair = original.add_gate(GateType::kNand, {mix, mix, d}, "pair");
    original.mark_output(mix, "o0");
    original.mark_output(pair, "o1");
    Family family(std::move(original));
    const lock::Gene site = lock::Gene::mux(a, c, twice, other, true);
    bool read_twice = false;
    for (std::uint64_t seed = 1; seed <= 64; ++seed) {
      const lock::Genotype genes{
          site, lock::Gene::rll(mix, pair, false),
          lock::Gene::antisat(2, seed, /*splice_at_output=*/false)};
      const auto& design = family.decode(genes, seed);
      ASSERT_EQ(design.genes[0], site);
      expect_patched(design, family);
      const auto& fanins = design.netlist.node(twice).fanins;
      const NodeId m1 = design.applied[0].first_node + 1;
      read_twice = read_twice ||
                   std::count(fanins.begin(), fanins.end(), m1) == 2;
    }
    EXPECT_TRUE(read_twice);
  }

  // A graph based on c432 patched for design after design by their decode
  // deltas, and designs the records do not describe: replay_records
  // rejects them, their patch fails and leaves the view of the original,
  // and view() falls back to the full build.
  attack::AttackGraph patched(c432.original);
  const attack::AttackGraph c432_view(c432.original);
  lock::DecodeDelta delta;
  const auto expect_full = [&](const lock::LockedDesign& design) {
    EXPECT_FALSE(lock::replay_records(design, c432.original, delta));
    EXPECT_FALSE(patched.patch(design.netlist, c432.original, delta));
    expect_same_view(patched, c432_view);
    scratch.family = &c432.original;
    expect_same_view(scratch.view(design), attack::AttackGraph(design.netlist));
    EXPECT_FALSE(scratch.graph.patched());
  };
  const auto decoded = [&] {
    lock::LockedDesign design = c432.decode(
        lock::random_genotype(c432.context, compound, c432_rng), 5);
    EXPECT_TRUE(lock::replay_records(design, c432.original, delta));
    EXPECT_TRUE(delta.fill_wires(design.netlist, c432.original));
    EXPECT_TRUE(patched.patch(design.netlist, c432.original, delta));
    expect_same_view(patched, attack::AttackGraph(design.netlist));
    return design;
  };
  {
    lock::LockedDesign design = decoded();
    lock::Gene& gene = design.genes[0];
    gene.g_i = gene.g_i == design.genes[1].g_i ? design.genes[2].g_i
                                               : design.genes[1].g_i;
    expect_full(design);  // a MUX record moved to another gate
  }
  {
    // A MUX record naming the wrong old driver of its gate.
    lock::LockedDesign design = decoded();
    bool tampered = false;
    for (std::size_t t = 0; t < compound.mux_sites && !tampered; ++t) {
      lock::Gene& gene = design.genes[t];
      for (const NodeId fanin : c432.original.node(gene.g_i).fanins) {
        if (fanin != gene.f_i) {
          gene.f_i = fanin;
          tampered = true;
          break;
        }
      }
    }
    ASSERT_TRUE(tampered);
    expect_full(design);
  }
  {
    lock::LockedDesign design = decoded();
    lock::AppliedGene& rec = design.applied[compound.mux_sites];
    ASSERT_EQ(rec.kind, lock::GeneKind::kRll);
    rec.sink = rec.sink == design.genes[0].g_i ? design.genes[0].g_j
                                               : design.genes[0].g_i;
    expect_full(design);  // an RLL record moved to another gate
  }
  {
    lock::LockedDesign design = decoded();
    design.genes.back().splice_output = true;  // an internal splice hidden
    design.applied.back().splice_output = true;
    expect_full(design);
  }
  {
    lock::LockedDesign design = decoded();
    ++design.applied[1].first_node;
    expect_full(design);
  }
  {
    lock::LockedDesign design = decoded();
    design.genes.pop_back();
    design.applied.pop_back();
    expect_full(design);
  }
  {
    // The netlist edited after decode, records untouched.
    lock::LockedDesign design = decoded();
    NodeId gate = 0;
    while (c432.original.node(gate).fanins.size() < 2 ||
           c432.original.node(gate).fanins[0] ==
               c432.original.node(gate).fanins[1]) {
      ++gate;
    }
    const auto fanins = design.netlist.node(gate).fanins;
    ASSERT_EQ(design.netlist.replace_fanin(gate, fanins[1], fanins[0]), 1u);
    expect_full(design);
  }
  {
    // A sibling original: same names, same size, one wire different.
    Netlist sibling = c432.original;
    const NodeId gate = c432.original.outputs().front().driver;
    const auto fanins = sibling.node(gate).fanins;
    sibling.replace_fanin(gate, fanins.front(), c432.original.inputs().back());
    const lock::SiteContext context(sibling);
    util::Rng repair(9);
    const lock::LockedDesign design = lock::apply_genotype(
        sibling, context, lock::random_genotype(context, 12, c432_rng), repair);
    expect_full(design);
  }
  {
    // A delta stamped for another design, then one replayed but without its
    // wires listed: neither patch takes it.
    (void)decoded();
    const lock::LockedDesign design = c432.decode(
        lock::random_genotype(c432.context, compound, c432_rng), 6);
    netlist::KeyConeAreas areas;
    const auto expect_unpatched = [&] {
      EXPECT_FALSE(patched.patch(design.netlist, c432.original, delta));
      expect_same_view(patched, c432_view);
      areas.reset(design.netlist, c432.original, delta);
      EXPECT_FALSE(areas.patched());
    };
    expect_unpatched();
    ASSERT_TRUE(lock::replay_records(design, c432.original, delta));
    expect_unpatched();
    ASSERT_TRUE(delta.fill_wires(design.netlist, c432.original));
    EXPECT_TRUE(patched.patch(design.netlist, c432.original, delta));
    expect_same_view(patched, attack::AttackGraph(design.netlist));
    areas.reset(design.netlist, c432.original, delta);
    EXPECT_TRUE(areas.patched());
  }
}

// ---- SCOPE's baseline patched from the family's -----------------------------

/// `areas`, already reset to `locked` (patched or not), must answer every
/// query exactly as a fresh full reset of `locked` and as the optimizer
/// oracle: each bit for both values in ascending order, then again in
/// descending order, so each query starts from the rollback of another.
void expect_areas_match_fresh(netlist::KeyConeAreas& areas,
                              const Netlist& locked) {
  const AreaPairs reference = reference_areas(locked);
  netlist::KeyConeAreas fresh;
  fresh.reset(locked);
  ASSERT_EQ(areas.key_bits(), reference.size());
  EXPECT_EQ(areas.baseline_area(), netlist::optimize(locked).gate_count());
  EXPECT_EQ(areas.baseline_area(), fresh.baseline_area());
  const auto expect_bit = [&](std::size_t bit, bool value) {
    SCOPED_TRACE("bit " + std::to_string(bit) + " = " + std::to_string(value));
    const std::size_t expected =
        value ? reference[bit].second : reference[bit].first;
    EXPECT_EQ(areas.area(bit, value), expected);
    EXPECT_EQ(fresh.area(bit, value), expected);
  };
  for (std::size_t bit = 0; bit < reference.size(); ++bit) {
    expect_bit(bit, false);
    expect_bit(bit, true);
  }
  for (std::size_t bit = reference.size(); bit-- > 0;) {
    expect_bit(bit, true);
    expect_bit(bit, false);
  }
}

TEST(ScopeFamily, PatchedAreasMatchFreshReset) {
  netlist::gen::RandomCircuitConfig random5k;
  random5k.name = "random5k";
  random5k.primary_inputs = 64;
  random5k.outputs = 32;
  random5k.gates = 5000;
  std::vector<std::unique_ptr<Family>> families;
  for (const auto id : {netlist::gen::ProfileId::kC432,
                        netlist::gen::ProfileId::kC880,
                        netlist::gen::ProfileId::kC1355}) {
    families.push_back(std::make_unique<Family>(profile(id, 36)));
  }
  families.push_back(
      std::make_unique<Family>(netlist::gen::make_random(random5k, 36)));

  // One scratch across every design, switching families after every two
  // designs (so each family's baseline is built afresh, then rolled back
  // from one design to the next): each design's areas must be patched from
  // its family's baseline, and match a fresh reset and the oracle.
  attack::AttackScratch scratch;
  const auto expect_patched = [&](const lock::LockedDesign& design,
                                  const Family& family) {
    scratch.family = &family.original;
    netlist::KeyConeAreas& areas = scratch.scope_view(design);
    EXPECT_TRUE(areas.patched());
    expect_areas_match_fresh(areas, design.netlist);
  };
  const auto expect_full = [&](const lock::LockedDesign& design,
                               const Family& family) {
    scratch.family = &family.original;
    netlist::KeyConeAreas& areas = scratch.scope_view(design);
    EXPECT_FALSE(areas.patched());
    expect_areas_match_fresh(areas, design.netlist);
  };
  util::Rng rng(36);
  for (const std::size_t key_bits : {8, 16, 32}) {
    std::vector<lock::GenotypeSpec> specs;
    for (const auto& scheme : campaign::default_schemes(key_bits)) {
      specs.push_back(scheme.spec);
    }
    // Compounds with an anti-SAT block spliced into an internal wire (which
    // may be an earlier gene's key logic) and at an output port.
    for (const bool splice_output : {false, true}) {
      specs.push_back({.mux_sites = key_bits,
                       .rll_gates = key_bits / 4,
                       .antisat_width = 2,
                       .antisat_splice_output = splice_output});
    }
    for (const auto& spec : specs) {
      for (const auto& family : families) {
        SCOPED_TRACE(family->original.name() + " K=" +
                     std::to_string(spec.key_bits()));
        for (int design = 0; design < 2; ++design) {
          const auto genes = lock::random_genotype(family->context, spec, rng);
          expect_patched(family->decode(genes, rng()), *family);
        }
      }
    }
  }

  Family& c432 = *families.front();
  const lock::GenotypeSpec compound{.mux_sites = 16,
                                    .rll_gates = 4,
                                    .antisat_width = 2,
                                    .antisat_splice_output = false};
  const auto decoded = [&] {
    return c432.decode(lock::random_genotype(c432.context, compound, rng),
                       rng());
  };

  // A design moved out of its workspace keeps its records and stamps, so
  // its areas are still patched; the emptied workspace design is not.
  {
    (void)decoded();
    const lock::LockedDesign moved = std::move(c432.workspace.design);
    expect_patched(moved, c432);
    expect_full(c432.workspace.design, c432);
    expect_patched(decoded(), c432);
  }

  // Designs the records do not describe fall back to the full rewrite, and
  // the next described design is patched again.
  {
    lock::LockedDesign design = decoded();
    lock::Gene& gene = design.genes[0];
    gene.g_i = gene.g_i == design.genes[1].g_i ? design.genes[2].g_i
                                               : design.genes[1].g_i;
    expect_full(design, c432);  // a MUX record moved to another gate
    expect_patched(decoded(), c432);
  }
  {
    lock::LockedDesign design = decoded();
    lock::AppliedGene& rec = design.applied[compound.mux_sites];
    ASSERT_EQ(rec.kind, lock::GeneKind::kRll);
    rec.sink = rec.sink == design.genes[0].g_i ? design.genes[0].g_j
                                               : design.genes[0].g_i;
    expect_full(design, c432);  // an RLL record moved to another gate
  }
  {
    lock::LockedDesign design = decoded();
    ++design.applied[1].first_node;
    expect_full(design, c432);
  }
  {
    // The netlist edited after decode, records untouched.
    lock::LockedDesign design = decoded();
    NodeId gate = 0;
    while (c432.original.node(gate).fanins.size() < 2 ||
           c432.original.node(gate).fanins[0] ==
               c432.original.node(gate).fanins[1]) {
      ++gate;
    }
    const auto fanins = design.netlist.node(gate).fanins;
    ASSERT_EQ(design.netlist.replace_fanin(gate, fanins[1], fanins[0]), 1u);
    expect_full(design, c432);
    expect_patched(decoded(), c432);
  }
  {
    // A design of another original than the bound family.
    const Family& c880 = *families[1];
    const lock::LockedDesign& design = families[1]->decode(
        lock::random_genotype(c880.context, compound, rng), rng());
    expect_full(design, c432);
  }
}

// ---- simulator scratch API -------------------------------------------------

TEST(SimulatorScratch, RunWordIntoMatchesRunWord) {
  const Netlist original = profile(netlist::gen::ProfileId::kC432, 19);
  const auto design = lock::dmux_lock(original, 6, 19);
  const netlist::Simulator sim(design.netlist);
  util::Rng rng(99);
  netlist::SimScratch scratch;
  std::vector<std::uint64_t> out;
  std::vector<std::uint64_t> in(original.primary_inputs().size());
  for (int round = 0; round < 8; ++round) {
    for (auto& word : in) word = rng();
    sim.run_word_into(in, design.key, scratch, out);
    EXPECT_EQ(out, sim.run_word(in, design.key));
  }
}

TEST(SimulatorScratch, ScratchErrorRateMatchesAllocatingErrorRate) {
  const Netlist original = profile(netlist::gen::ProfileId::kC432, 23);
  const auto design = lock::dmux_lock(original, 6, 23);
  const netlist::Simulator locked(design.netlist);
  const netlist::Simulator oracle(original);
  netlist::Key wrong = design.key;
  for (std::size_t b = 0; b < wrong.size(); ++b) wrong[b] = !wrong[b];
  util::Rng rng_a(7);
  util::Rng rng_b(7);
  netlist::SimScratch scratch;
  const double with_scratch = netlist::Simulator::output_error_rate(
      locked, wrong, oracle, netlist::Key{}, 256, rng_a, scratch);
  const double without = netlist::Simulator::output_error_rate(
      locked, wrong, oracle, netlist::Key{}, 256, rng_b);
  EXPECT_EQ(with_scratch, without);
}

// ---- decode into a reused workspace ---------------------------------------

TEST(WorkspaceDecode, MatchesApplyGenotypeAndSurvivesReuse) {
  const Netlist original = profile(netlist::gen::ProfileId::kC432, 29);
  const lock::SiteContext context(original);
  util::Rng rng(29);
  const auto genes_a = lock::random_genotype(context, 10, rng);
  const auto genes_b = lock::random_genotype(context, 10, rng);

  eval::EvalWorkspace workspace;
  const auto check = [&](const lock::Genotype& genes,
                         std::uint64_t seed) {
    util::Rng repair_fresh(seed);
    const auto fresh = lock::apply_genotype(original, context, genes,
                                            repair_fresh);
    util::Rng repair_reused(seed);
    lock::apply_genotype_into(workspace.design, original, context, genes,
                              repair_reused, workspace.reach);
    const auto& reused = workspace.design;
    ASSERT_EQ(reused.netlist.size(), fresh.netlist.size());
    for (NodeId v = 0; v < fresh.netlist.size(); ++v) {
      EXPECT_EQ(reused.netlist.node(v).type, fresh.netlist.node(v).type);
      EXPECT_EQ(reused.netlist.node(v).name, fresh.netlist.node(v).name);
      EXPECT_EQ(reused.netlist.node(v).fanins, fresh.netlist.node(v).fanins);
    }
    EXPECT_EQ(reused.key, fresh.key);
    EXPECT_EQ(reused.genes, fresh.genes);
    EXPECT_EQ(reused.applied, fresh.applied);
    // One decode body: the one-shot design carries the same primed order.
    EXPECT_EQ(reused.netlist.topological_order(),
              fresh.netlist.topological_order());
    // The reused decode skips full validate(); make sure it would pass.
    EXPECT_NO_THROW(reused.netlist.validate());
  };
  check(genes_a, 0xA);
  check(genes_b, 0xB);  // reuse with a different genotype
  check(genes_a, 0xA);  // and back: no state leaks across decodes
}

// ---- pipeline equivalences -------------------------------------------------

TEST(WorkspacePipeline, ThreadCountDoesNotChangeGaTrajectory) {
  const Netlist original = profile(netlist::gen::ProfileId::kC432, 37);
  ga::GaConfig config;
  config.population = 8;
  config.generations = 3;
  config.seed = 77;

  ga::GaResult results[2];
  int slot = 0;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    auto pipeline_config = attack_mix(config.seed);
    pipeline_config.threads = threads;
    eval::EvalPipeline pipeline(original, pipeline_config);
    ga::GeneticAlgorithm ga(original, config);
    results[slot++] = ga.run({.mux_sites = 10}, pipeline);
  }
  EXPECT_EQ(results[0].evaluations, results[1].evaluations);
  EXPECT_EQ(results[0].best.genes, results[1].best.genes);
  ASSERT_EQ(results[0].history.size(), results[1].history.size());
  for (std::size_t g = 0; g < results[0].history.size(); ++g) {
    EXPECT_EQ(results[0].history[g].best_fitness,
              results[1].history[g].best_fitness);
    EXPECT_EQ(results[0].history[g].mean_fitness,
              results[1].history[g].mean_fitness);
    EXPECT_EQ(results[0].history[g].cache_hits,
              results[1].history[g].cache_hits);
  }
}

TEST(WorkspacePipeline, FreshAndReusedWorkspacesAgree) {
  const Netlist original = profile(netlist::gen::ProfileId::kC432, 43);
  const lock::SiteContext context(original);
  util::Rng rng(43);
  auto genes_a = lock::random_genotype(context, 8, rng);
  auto genes_b = lock::random_genotype(context, 8, rng);

  auto config = attack_mix(9);
  config.cache = false;
  eval::EvalPipeline reused_pipeline(original, config);
  // The reused pipeline evaluates b first, warming (and dirtying) its
  // workspace, then a; the fresh pipeline evaluates a on a cold workspace.
  auto genes_b_copy = genes_b;
  (void)reused_pipeline.evaluate(genes_b_copy, 1);
  auto genes_a_reused = genes_a;
  const auto reused = reused_pipeline.evaluate(genes_a_reused, 2);

  eval::EvalPipeline fresh_pipeline(original, config);
  auto genes_a_fresh = genes_a;
  const auto fresh = fresh_pipeline.evaluate(genes_a_fresh, 2);

  EXPECT_EQ(genes_a_reused, genes_a_fresh);
  EXPECT_EQ(reused.fitness, fresh.fitness);
  EXPECT_EQ(reused.attack_accuracy, fresh.attack_accuracy);
  EXPECT_EQ(reused.attack_precision, fresh.attack_precision);
}

TEST(WorkspacePipeline, PatchedViewAttacksMatchOneShot) {
  // Structural and in-loop MuxLink through a pipeline's warm workspace,
  // whose view is patched from the family's, must report exactly what the
  // one-shot attack(design.netlist) reports on a full build.
  const attack::StructuralLinkPredictor structural;
  const attack::MuxLinkAttack muxlink(campaign::full_spec().muxlink);
  const auto expect_same = [](const attack::MuxLinkResult& actual,
                              const attack::MuxLinkResult& expected) {
    EXPECT_EQ(actual.predicted_bits, expected.predicted_bits);
    EXPECT_EQ(actual.margins, expected.margins);
    EXPECT_EQ(actual.thresholded_bits, expected.thresholded_bits);
    EXPECT_EQ(actual.bit_attacked, expected.bit_attacked);
    EXPECT_EQ(actual.first_epoch_loss, expected.first_epoch_loss);
    EXPECT_EQ(actual.last_epoch_loss, expected.last_epoch_loss);
    EXPECT_EQ(actual.train_samples, expected.train_samples);
  };
  const auto expect_attacks_match = [&](const lock::LockedDesign& design,
                                        eval::EvalWorkspace& workspace) {
    expect_same(structural.attack(design, workspace.attack),
                structural.attack(design.netlist));
    EXPECT_TRUE(workspace.attack.graph.patched());
    expect_same(muxlink.attack(design, workspace.attack),
                muxlink.attack(design.netlist));
  };
  for (const auto id : {netlist::gen::ProfileId::kC432,
                        netlist::gen::ProfileId::kC880}) {
    const Netlist original = profile(id, 31);
    eval::EvalPipeline pipeline(original, attack_mix(31));
    eval::EvalWorkspace& workspace = pipeline.workspace();
    util::Rng rng(31);
    for (const auto& scheme : campaign::default_schemes(16)) {
      SCOPED_TRACE(original.name() + " " + scheme.name);
      pipeline.decode_into(
          workspace,
          lock::random_genotype(pipeline.context(), scheme.spec, rng), rng());
      expect_attacks_match(workspace.design, workspace);
    }
    // A design moved out of the workspace.
    pipeline.decode_into(
        workspace, lock::random_genotype(pipeline.context(), 16, rng), rng());
    const lock::LockedDesign moved = std::move(workspace.design);
    expect_attacks_match(moved, workspace);
  }
}

TEST(WorkspacePipeline, PinnedGaTrajectory) {
  // Frozen reference trajectory (c432 profile, structural+scope, seed
  // 2024), recorded when the workspace hot path landed. Any change to
  // decode, the attacks, the optimizer, the cache or the repair RNG that
  // shifts optimizer results shows up here as an exact-value mismatch —
  // performance work must not move these numbers.
  const Netlist original = profile(netlist::gen::ProfileId::kC432, 31);
  ga::GaConfig config;
  config.population = 8;
  config.generations = 3;
  config.seed = 2024;
  eval::EvalPipeline pipeline(original, attack_mix(config.seed));
  ga::GeneticAlgorithm ga(original, config);
  const auto result = ga.run({.mux_sites = 10}, pipeline);

  EXPECT_EQ(result.evaluations, 24u);
  EXPECT_EQ(result.best.eval.fitness, 0.65000000000000002);
  EXPECT_EQ(result.best.eval.attack_accuracy, 0.34999999999999998);
  ASSERT_EQ(result.history.size(), 4u);
  const double expected_best[] = {0.65000000000000002, 0.65000000000000002,
                                  0.65000000000000002, 0.65000000000000002};
  const double expected_mean[] = {0.56874999999999998, 0.63124999999999998,
                                  0.61875000000000002, 0.63749999999999996};
  const double expected_worst[] = {0.5, 0.59999999999999998,
                                   0.55000000000000004, 0.59999999999999998};
  const std::size_t expected_hits[] = {0, 2, 2, 4};
  for (std::size_t g = 0; g < 4; ++g) {
    EXPECT_EQ(result.history[g].best_fitness, expected_best[g]) << "gen " << g;
    EXPECT_EQ(result.history[g].mean_fitness, expected_mean[g]) << "gen " << g;
    EXPECT_EQ(result.history[g].worst_fitness, expected_worst[g])
        << "gen " << g;
    EXPECT_EQ(result.history[g].cache_hits, expected_hits[g]) << "gen " << g;
  }
}

TEST(WorkspacePipeline, PinnedNsga2Trajectory) {
  // Frozen reference trajectory (c432 profile, structural+scope, seed
  // 2025), recorded BEFORE the incremental dynamic-topological-order
  // decode landed — passing on the rank-based decode proves NSGA-II runs
  // are bit-identical across the refactor (same decode verdicts => same
  // repair RNG stream => same fronts, genes included).
  const Netlist original = profile(netlist::gen::ProfileId::kC432, 31);
  ga::Nsga2Config config;
  config.population = 8;
  config.generations = 3;
  config.seed = 2025;
  eval::EvalPipeline pipeline(original, attack_mix(config.seed));
  ga::Nsga2 nsga2(original, config);
  const auto result = nsga2.run({.mux_sites = 10}, pipeline);

  EXPECT_EQ(result.evaluations, 32u);
  const std::vector<std::size_t> expected_front_sizes = {1, 2, 3, 7};
  EXPECT_EQ(result.front_size_history, expected_front_sizes);
  ASSERT_EQ(result.front.size(), 7u);
  for (const auto& individual : result.front) {
    ASSERT_EQ(individual.objectives.size(), 2u);
    EXPECT_EQ(individual.objectives[0], 0.29999999999999999);
    EXPECT_EQ(individual.objectives[1], 0.45000000000000001);
  }
  using lock::Gene;
  const lock::Genotype expected_front0 = {
      Gene::mux(33, 69, 41, 79, true),     Gene::mux(60, 4, 65, 36, false),
      Gene::mux(69, 127, 93, 129, true),   Gene::mux(72, 158, 81, 171, true),
      Gene::mux(8, 189, 63, 194, false),   Gene::mux(156, 42, 160, 51, true),
      Gene::mux(162, 108, 168, 119, true), Gene::mux(170, 131, 191, 146, true),
      Gene::mux(178, 182, 184, 187, false),
      Gene::mux(125, 62, 130, 126, false)};
  EXPECT_EQ(result.front[0].genes, expected_front0);
}

// ---- satellite fixes -------------------------------------------------------

TEST(WorkspacePipeline, RepairedGenotypeHitsCacheUnderPreRepairKey) {
  const Netlist original = profile(netlist::gen::ProfileId::kC432, 47);
  const lock::SiteContext context(original);
  util::Rng rng(47);
  auto genes = lock::random_genotype(context, 6, rng);
  // Invalidate one gene (f_i == f_j is never structurally valid), forcing a
  // decode-time repair.
  genes[2].f_j = genes[2].f_i;

  eval::EvalPipeline pipeline(original, attack_mix(5));
  auto first = genes;
  (void)pipeline.evaluate(first, 0);
  ASSERT_NE(first, genes) << "expected the invalid gene to be repaired";
  EXPECT_EQ(pipeline.evaluations(), 1u);

  // A later duplicate of the *pre-repair* genotype must hit the cache: the
  // legacy store keyed only the repaired genes, so this exact lookup used
  // to miss forever.
  auto duplicate = genes;
  (void)pipeline.evaluate(duplicate, 0);
  EXPECT_EQ(pipeline.evaluations(), 1u);
  EXPECT_EQ(pipeline.cache_hits(), 1u);

  // The repaired genotype keeps hitting too.
  auto repaired = first;
  (void)pipeline.evaluate(repaired, 0);
  EXPECT_EQ(pipeline.evaluations(), 1u);
  EXPECT_EQ(pipeline.cache_hits(), 2u);
}

TEST(WorkspacePipeline, CorruptionMixesConfiguredSeed) {
  const Netlist original = profile(netlist::gen::ProfileId::kC432, 53);
  const lock::SiteContext context(original);
  util::Rng rng(53);
  const auto genes = lock::random_genotype(context, 8, rng);

  const auto corruption_for = [&](std::uint64_t seed) {
    eval::EvalPipeline pipeline(original, attack_mix(seed));
    const auto design = pipeline.decode(genes, 0);
    return pipeline.corruption(design);
  };
  const double seed_a_once = corruption_for(101);
  const double seed_a_again = corruption_for(101);
  const double seed_b = corruption_for(202);
  EXPECT_EQ(seed_a_once, seed_a_again) << "same seed must reproduce exactly";
  EXPECT_NE(seed_a_once, seed_b)
      << "different pipeline seeds must sample different vectors";
}

}  // namespace
}  // namespace autolock
