#include "locking/sites.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "eval/fitness_cache.hpp"
#include "locking/mux_lock.hpp"
#include "netlist/generator.hpp"

namespace autolock::lock {
namespace {

using netlist::GateType;
using netlist::Netlist;
using netlist::NodeId;

/// Diamond: a -> g1, g2 -> g3.
Netlist diamond() {
  Netlist n;
  const auto a = n.add_input("a");
  const auto b = n.add_input("b");
  const auto g1 = n.add_gate(GateType::kNot, {a}, "g1");
  const auto g2 = n.add_gate(GateType::kNot, {b}, "g2");
  const auto g3 = n.add_gate(GateType::kAnd, {g1, g2}, "g3");
  n.mark_output(g3);
  return n;
}

TEST(SiteContext, CandidateDriversHaveFanout) {
  const Netlist n = diamond();
  const SiteContext context(n);
  // a, b, g1, g2 have fanout; g3 does not.
  EXPECT_EQ(context.candidate_drivers().size(), 4u);
}

TEST(SiteContext, SeedOrderIsTheOriginalsTopologicalOrder) {
  const Netlist n = netlist::gen::make_profile(netlist::gen::ProfileId::kC880, 5);
  const SiteContext context(n);
  // The original's cached order itself, not a copy.
  EXPECT_EQ(&context.seed_order(), &n.topological_order());
  const auto& order = context.seed_order();
  ASSERT_EQ(context.seed_pos().size(), order.size());
  for (std::uint32_t i = 0; i < order.size(); ++i) {
    EXPECT_EQ(context.seed_pos()[order[i]], i);
  }
  // Merge keys stay aligned with the order and non-decreasing along it.
  ASSERT_EQ(context.seed_order_ranks().size(), order.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    EXPECT_EQ(context.seed_order_ranks()[i], context.seed_ranks()[order[i]]);
    if (i > 0) {
      EXPECT_LE(context.seed_order_ranks()[i - 1],
                context.seed_order_ranks()[i]);
    }
  }
}

TEST(SiteContext, ValidSiteAccepted) {
  const Netlist n = diamond();
  const SiteContext context(n);
  const Gene site =
      Gene::mux(n.find("g1"), n.find("g2"), n.find("g3"), n.find("g3"), false);
  EXPECT_TRUE(context.structurally_valid(site));
}

TEST(SiteContext, RejectsSameDriver) {
  const Netlist n = diamond();
  const SiteContext context(n);
  const Gene site =
      Gene::mux(n.find("g1"), n.find("g1"), n.find("g3"), n.find("g3"), false);
  EXPECT_FALSE(context.structurally_valid(site));
}

TEST(SiteContext, RejectsNonexistentEdge) {
  const Netlist n = diamond();
  const SiteContext context(n);
  // a does not drive g3.
  const Gene site =
      Gene::mux(n.find("a"), n.find("g2"), n.find("g3"), n.find("g3"), false);
  EXPECT_FALSE(context.structurally_valid(site));
}

TEST(SiteContext, RejectsOutOfRangeIds) {
  const Netlist n = diamond();
  const SiteContext context(n);
  const Gene site = Gene::mux(99, 1, 2, 3, false);
  EXPECT_FALSE(context.structurally_valid(site));
}

TEST(SiteContext, RejectsCycleFormingSite) {
  // Chain a -> g1 -> g2 -> g3; also a -> g3.
  // Site swapping (a->g1 slot of g1... ) f_i=a,g_i=g1 with f_j=g2,g_j=g3:
  // cross edge g2 -> g1 would close a cycle (g1 reaches g2).
  Netlist n;
  const auto a = n.add_input("a");
  const auto g1 = n.add_gate(GateType::kNot, {a}, "g1");
  const auto g2 = n.add_gate(GateType::kNot, {g1}, "g2");
  const auto g3 = n.add_gate(GateType::kAnd, {g2, a}, "g3");
  n.mark_output(g3);
  const SiteContext context(n);
  EXPECT_FALSE(context.structurally_valid(Gene::mux(a, g2, g1, g3, false)));
  // The reverse orientation is fine: f_i=g2->g3, f_j=a->... check a->g3
  const Gene ok = Gene::mux(g2, a, g3, g3, false);
  EXPECT_TRUE(context.structurally_valid(ok));
}

TEST(SiteContext, EdgesAvailableDetectsCollisions) {
  const Genotype used{Gene::mux(1, 3, 2, 4, false)};

  const Gene same_first_edge = Gene::mux(1, 5, 2, 6, false);
  EXPECT_FALSE(SiteContext::edges_available(same_first_edge, used));

  // (3, 4) collides with the taken gene's (f_j, g_j).
  const Gene swapped_roles = Gene::mux(3, 7, 4, 8, false);
  EXPECT_FALSE(SiteContext::edges_available(swapped_roles, used));

  const Gene disjoint = Gene::mux(5, 7, 6, 8, false);
  EXPECT_TRUE(SiteContext::edges_available(disjoint, used));
}

TEST(SiteContext, SampleSiteProducesValidSites) {
  const netlist::Netlist circuit =
      netlist::gen::make_profile(netlist::gen::ProfileId::kC432, 5);
  const SiteContext context(circuit);
  util::Rng rng(5);
  Genotype taken;
  for (int i = 0; i < 32; ++i) {
    Gene site;
    ASSERT_TRUE(context.sample_site(rng, taken, site));
    EXPECT_TRUE(context.structurally_valid(site));
    EXPECT_TRUE(SiteContext::edges_available(site, taken));
    taken.push_back(site);
  }
}

TEST(SiteContext, SampleSiteFailsOnTinyCircuit) {
  // Single wire: no two distinct drivers exist.
  Netlist n;
  const auto a = n.add_input("a");
  const auto g = n.add_gate(GateType::kNot, {a}, "g");
  n.mark_output(g);
  const SiteContext context(n);
  util::Rng rng(1);
  Gene site;
  EXPECT_FALSE(context.sample_site(rng, {}, site));
}

/// `gene`'s MUX fields rebuilt through the factory.
Gene remuxed(const Gene& gene) {
  return Gene::mux(gene.f_i, gene.f_j, gene.g_i, gene.g_j, gene.key_bit);
}

TEST(SiteContext, TakenGenotypeSkipsNonMuxGenes) {
  const Netlist circuit =
      netlist::gen::make_profile(netlist::gen::ProfileId::kC432, 5);
  const SiteContext context(circuit);
  util::Rng rng(5);
  const Genotype mixed = random_genotype(
      context, GenotypeSpec{.mux_sites = 6, .rll_gates = 6, .antisat_width = 2},
      rng);
  Genotype mux_only;
  for (const Gene& gene : mixed) {
    if (gene.kind == GeneKind::kMux) mux_only.push_back(gene);
  }
  ASSERT_EQ(mux_only.size(), 6u);

  // Clash verdicts over the mixed genotype are those over its MUX genes,
  // even with RLL genes on each candidate's own two wires.
  std::size_t clashes = 0;
  for (int i = 0; i < 64; ++i) {
    Gene candidate;
    ASSERT_TRUE(context.sample_site(rng, {}, candidate));
    if (i % 8 == 0) candidate = mux_only[i / 8 % mux_only.size()];
    Genotype taken = mixed;
    taken.push_back(Gene::rll(candidate.f_i, candidate.g_i, false));
    taken.push_back(Gene::rll(candidate.f_j, candidate.g_j, true));
    const bool available = SiteContext::edges_available(candidate, mux_only);
    EXPECT_EQ(SiteContext::edges_available(candidate, taken), available);
    EXPECT_TRUE(SiteContext::edges_available(
        candidate, {Gene::rll(candidate.f_i, candidate.g_i, false),
                    Gene::antisat(2, 7, false)}));
    clashes += available ? 0 : 1;
  }
  EXPECT_GE(clashes, 8u);

  // sample_site draws the same stream and the same genes either way.
  util::Rng over_mixed(77);
  util::Rng over_mux(77);
  Genotype grown_mixed = mixed;
  Genotype grown_mux = mux_only;
  for (int i = 0; i < 32; ++i) {
    Gene a;
    Gene b;
    ASSERT_TRUE(context.sample_site(over_mixed, grown_mixed, a));
    ASSERT_TRUE(context.sample_site(over_mux, grown_mux, b));
    ASSERT_EQ(a, b);
    grown_mixed.push_back(a);
    grown_mux.push_back(b);
  }
  EXPECT_EQ(over_mixed(), over_mux());

  // Every MUX gene, wherever it comes from, is exactly Gene::mux of its
  // fields: FitnessCache hashes and compares all of them.
  const eval::GenotypeHash hash;
  const auto expect_factory_form = [&](const Gene& gene) {
    ASSERT_EQ(gene.kind, GeneKind::kMux);
    EXPECT_EQ(gene, remuxed(gene));
    EXPECT_EQ(hash({gene}), hash({remuxed(gene)}));
  };
  for (const Gene& gene : grown_mux) expect_factory_form(gene);  // sampled
  for (const Gene& gene : random_genotype(context, 8, rng)) {
    expect_factory_form(gene);
  }
  Genotype stale = random_genotype(context, 8, rng);
  stale[3].f_j = stale[3].f_i;  // forces a decode-time repair
  util::Rng repair(3);
  const LockedDesign design = apply_genotype(circuit, context, stale, repair);
  EXPECT_NE(design.genes[3], stale[3]);
  for (const Gene& gene : design.genes) expect_factory_form(gene);
}

// ---- incremental dynamic-topological-order cycle check ---------------------

/// Replays apply_genes' insertion for one accepted MUX gene onto a working
/// netlist and its DecodeTopo mirror (same wiring as mux_lock.cpp).
void apply_site_to_both(Netlist& working, DecodeTopo& topo,
                        const Gene& site, int bit) {
  const std::string suffix = std::to_string(bit);
  const NodeId sel = working.add_input("tsel" + suffix, /*is_key=*/true);
  const NodeId a0 = site.key_bit ? site.f_j : site.f_i;
  const NodeId a1 = site.key_bit ? site.f_i : site.f_j;
  const NodeId m1 = working.add_gate(GateType::kMux, {sel, a0, a1},
                                     "tmux" + suffix + "a");
  const NodeId m2 = working.add_gate(GateType::kMux, {sel, a1, a0},
                                     "tmux" + suffix + "b");
  ASSERT_NE(working.replace_fanin(site.g_i, site.f_i, m1), 0u);
  ASSERT_NE(working.replace_fanin(site.g_j, site.f_j, m2), 0u);
  topo.insert_mux_pair(site.f_i, site.f_j, site.g_i, site.g_j, a0, a1, sel,
                       m1, m2);
}

TEST(IncrementalCycleCheck, AgreesWithLegacyDfsOn200RandomGenotypes) {
  // Property: at every step of a decode, the incremental rank-based
  // applicability verdict equals the legacy from-scratch DFS verdict — for
  // the genotype's own genes (including corrupted ones) and for extra
  // random probe sites. Same accepts and rejects, in the same order, is
  // what keeps repair RNG consumption (and hence every GA trajectory)
  // bit-identical across the refactor.
  const netlist::gen::ProfileId profiles[] = {netlist::gen::ProfileId::kC432,
                                              netlist::gen::ProfileId::kC880};
  std::size_t genotypes = 0;
  std::size_t checks = 0;
  for (const auto profile : profiles) {
    const Netlist original = netlist::gen::make_profile(profile, 17);
    const SiteContext context(original);
    for (int trial = 0; trial < 100; ++trial) {
      util::Rng rng(0x51735ULL + 977 * trial);
      auto genes = lock::random_genotype(context, 8, rng);
      // Corrupt a pair of genes the way stale crossover artefacts look:
      // cross-bred fields and duplicated edges (ids stay in range).
      genes[1].f_j = genes[4].f_j;
      genes[1].g_j = genes[4].g_j;
      genes[6] = genes[2];
      ++genotypes;

      Netlist working = original;
      ReachScratch scratch;
      DecodeTopo& topo = scratch.topo;
      topo.reset(context.fanin_csr(), context.seed_ranks());
      Genotype applied;
      int bit = 0;
      for (const Gene& gene : genes) {
        // One random probe per step exercises sites decode would never
        // accept (wrong edges, cross-site conflicts, cycle formers).
        const auto f_i = static_cast<NodeId>(rng.next_below(original.size()));
        const auto f_j = static_cast<NodeId>(rng.next_below(original.size()));
        const auto g_i = static_cast<NodeId>(rng.next_below(original.size()));
        const auto g_j = static_cast<NodeId>(rng.next_below(original.size()));
        const Gene probe = Gene::mux(f_i, f_j, g_i, g_j, rng.next_bool());
        for (const Gene& candidate : {gene, probe}) {
          const bool legacy =
              testing::applicable_to_working_dfs(working, candidate, scratch);
          const bool ranks =
              applicable_to_working_ranks(topo, candidate);
          ASSERT_EQ(legacy, ranks)
              << "divergent verdict at bit " << bit << " trial " << trial;
          ++checks;
        }
        if (context.structurally_valid(gene, scratch) &&
            SiteContext::edges_available(gene, applied) &&
            applicable_to_working_ranks(topo, gene)) {
          apply_site_to_both(working, topo, gene, bit);
          applied.push_back(gene);
        }
        ++bit;
      }
      // The maintained order must stay a valid linearization of the final
      // working netlist, and the CSR mirror must match it edge-for-edge.
      for (NodeId v = 0; v < working.size(); ++v) {
        const auto& fanins = working.node(v).fanins;
        const auto mirror = topo.fanins(v);
        ASSERT_EQ(fanins.size(), mirror.size());
        for (std::size_t i = 0; i < fanins.size(); ++i) {
          ASSERT_EQ(fanins[i], mirror[i]);
          ASSERT_LT(topo.rank(fanins[i]), topo.rank(v));
        }
      }
      ASSERT_TRUE(working.is_acyclic());
    }
  }
  EXPECT_EQ(genotypes, 200u);
  EXPECT_GT(checks, 3000u);
}

TEST(IncrementalCycleCheck, DependsOnMatchesEnsureOrderVerdicts) {
  // depends_on (the pure query) and ensure_order (the fused check +
  // relabel) must agree on every pair, before and after relabels.
  const Netlist original =
      netlist::gen::make_profile(netlist::gen::ProfileId::kC432, 23);
  const SiteContext context(original);
  ReachScratch scratch;
  DecodeTopo& topo = scratch.topo;
  topo.reset(context.fanin_csr(), context.seed_ranks());
  util::Rng rng(23);
  for (int i = 0; i < 2000; ++i) {
    const auto a = static_cast<NodeId>(rng.next_below(original.size()));
    const auto b = static_cast<NodeId>(rng.next_below(original.size()));
    const bool dependent = topo.depends_on(a, b);
    EXPECT_EQ(topo.ensure_order(a, b), !dependent);
    if (!dependent) {
      // ensure_order's postcondition.
      EXPECT_LT(topo.rank(a), topo.rank(b));
    }
  }
  // 2000 arbitrary demotes (orders of magnitude beyond one decode's load)
  // exhaust the sub-gaps occasionally; the global renumber fallback must
  // absorb that without verdicts drifting. Real decodes reseed per
  // genotype and measure zero renumbers.
  EXPECT_LE(topo.renumber_count(), 16u);
}

TEST(SiteContext, ConstantsNeverCandidates) {
  Netlist n;
  const auto a = n.add_input("a");
  const auto one = n.add_const(true, "one");
  const auto g = n.add_gate(GateType::kAnd, {a, one}, "g");
  n.mark_output(g);
  const SiteContext context(n);
  for (const NodeId v : context.candidate_drivers()) {
    EXPECT_NE(v, one);
  }
}

/// The RLL wire pool as it used to be built: every fanin edge with a
/// non-constant driver, sorted and deduplicated.
std::vector<std::pair<NodeId, NodeId>> sorted_rll_wires(const Netlist& n) {
  std::vector<std::pair<NodeId, NodeId>> wires;
  for (NodeId v = 0; v < n.size(); ++v) {
    for (const NodeId fanin : n.node(v).fanins) {
      const auto type = n.node(fanin).type;
      if (type == GateType::kConst0 || type == GateType::kConst1) continue;
      wires.emplace_back(fanin, v);
    }
  }
  std::sort(wires.begin(), wires.end());
  wires.erase(std::unique(wires.begin(), wires.end()), wires.end());
  return wires;
}

TEST(SiteContext, RllWiresMatchTheSortedFaninEdges) {
  // The pool walks the deduplicated fanout CSR; it must list the same
  // wires in the same order as sorting every fanin edge would.
  using netlist::gen::ProfileId;
  for (const ProfileId id :
       {ProfileId::kC432, ProfileId::kC880, ProfileId::kC1355}) {
    const Netlist n = netlist::gen::make_profile(id, 3);
    EXPECT_EQ(SiteContext(n).rll_wires(), sorted_rll_wires(n))
        << n.name();
  }
  const Netlist big = netlist::gen::make_scale_profile("synth100k", 1);
  EXPECT_EQ(SiteContext(big).rll_wires(), sorted_rll_wires(big));

  // Constant drivers and a gate reading one wire twice.
  Netlist n;
  const auto a = n.add_input("a");
  const auto one = n.add_const(true, "one");
  const auto g = n.add_gate(GateType::kAnd, {a, a, one}, "g");
  const auto h = n.add_gate(GateType::kXor, {g, a}, "h");
  n.mark_output(h);
  const std::vector<std::pair<NodeId, NodeId>> expected = {
      {a, g}, {a, h}, {g, h}};
  EXPECT_EQ(SiteContext(n).rll_wires(), expected);
  EXPECT_EQ(sorted_rll_wires(n), expected);
}

}  // namespace
}  // namespace autolock::lock
