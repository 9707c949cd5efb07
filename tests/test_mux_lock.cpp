#include "locking/mux_lock.hpp"

#include <gtest/gtest.h>

#include "locking/verify.hpp"
#include "netlist/generator.hpp"
#include "netlist/simulator.hpp"
#include "sat/cnf.hpp"

namespace autolock::lock {
namespace {

using netlist::GateType;
using netlist::Key;
using netlist::Netlist;
using netlist::NodeId;
using netlist::Simulator;

TEST(MuxLock, DmuxProducesRequestedKeyLength) {
  const Netlist original =
      netlist::gen::make_profile(netlist::gen::ProfileId::kC432, 7);
  const LockedDesign design = dmux_lock(original, 16, 99);
  EXPECT_EQ(design.key.size(), 16u);
  EXPECT_EQ(design.genes.size(), 16u);
  EXPECT_EQ(design.applied.size(), 16u);
  EXPECT_EQ(design.netlist.key_inputs().size(), 16u);
  // 2 MUX gates per key bit were added.
  EXPECT_EQ(design.netlist.stats().gates, original.stats().gates + 32u);
  EXPECT_NO_THROW(design.netlist.validate());
}

TEST(MuxLock, InterfaceUnchangedForPrimaryIO) {
  const Netlist original =
      netlist::gen::make_profile(netlist::gen::ProfileId::kC880, 7);
  const LockedDesign design = dmux_lock(original, 24, 5);
  EXPECT_EQ(design.netlist.primary_inputs().size(),
            original.primary_inputs().size());
  EXPECT_EQ(design.netlist.outputs().size(), original.outputs().size());
}

TEST(MuxLock, CorrectKeyRestoresFunction) {
  const Netlist original =
      netlist::gen::make_profile(netlist::gen::ProfileId::kC432, 11);
  const LockedDesign design = dmux_lock(original, 20, 11);
  EXPECT_TRUE(verify_unlocks(design, original, VerifyMode::kSimulation, 4096));
}

TEST(MuxLock, CorrectKeySatProvenOnSmallCircuit) {
  const Netlist original =
      netlist::gen::make_profile(netlist::gen::ProfileId::kC432, 13);
  const LockedDesign design = dmux_lock(original, 8, 13);
  EXPECT_TRUE(verify_unlocks(design, original, VerifyMode::kSat));
}

TEST(MuxLock, DeterministicInSeed) {
  const Netlist original =
      netlist::gen::make_profile(netlist::gen::ProfileId::kC432, 17);
  const LockedDesign a = dmux_lock(original, 12, 3);
  const LockedDesign b = dmux_lock(original, 12, 3);
  EXPECT_EQ(a.key, b.key);
  EXPECT_EQ(a.genes, b.genes);
}

TEST(MuxLock, MuxPairStructure) {
  const Netlist original =
      netlist::gen::make_profile(netlist::gen::ProfileId::kC432, 19);
  const LockedDesign design = dmux_lock(original, 10, 19);
  const auto key_nodes = design.netlist.key_inputs();
  ASSERT_EQ(design.applied.size(), 10u);
  for (std::size_t t = 0; t < design.applied.size(); ++t) {
    ASSERT_EQ(design.applied[t].kind, GeneKind::kMux);
    const NodeId m1 = design.applied[t].first_node + 1;
    const NodeId m2 = design.applied[t].first_node + 2;
    const auto& node1 = design.netlist.node(m1);
    const auto& node2 = design.netlist.node(m2);
    EXPECT_EQ(node1.type, GateType::kMux);
    EXPECT_EQ(node2.type, GateType::kMux);
    // Both select the same key input (bit t).
    EXPECT_EQ(node1.fanins[0], key_nodes[t]);
    EXPECT_EQ(node2.fanins[0], key_nodes[t]);
    // Data inputs are swapped between the pair.
    EXPECT_EQ(node1.fanins[1], node2.fanins[2]);
    EXPECT_EQ(node1.fanins[2], node2.fanins[1]);
    // And they are the site's two drivers.
    const Gene& site = design.genes[t];
    const bool wiring_a = node1.fanins[1] == site.f_i &&
                          node1.fanins[2] == site.f_j;
    const bool wiring_b = node1.fanins[1] == site.f_j &&
                          node1.fanins[2] == site.f_i;
    EXPECT_TRUE(wiring_a || wiring_b);
    // Polarity convention: key bit value selects the original paths.
    EXPECT_EQ(wiring_b, site.key_bit);
  }
}

TEST(MuxLock, KeyBitPolarityActuallyMatters) {
  // Flipping one key bit must change behaviour on some input (with very
  // high probability) unless the swapped paths are equivalent.
  const Netlist original =
      netlist::gen::make_profile(netlist::gen::ProfileId::kC432, 23);
  const LockedDesign design = dmux_lock(original, 8, 23);
  const Simulator locked_sim(design.netlist);
  const Simulator original_sim(original);
  util::Rng rng(23);
  std::size_t corrupting_bits = 0;
  for (std::size_t b = 0; b < design.key.size(); ++b) {
    Key flipped = design.key;
    flipped[b] = !flipped[b];
    const double err = Simulator::output_error_rate(
        locked_sim, flipped, original_sim, Key{}, 2048, rng);
    if (err > 0.0) ++corrupting_bits;
  }
  // Not every site must corrupt (swapped paths can coincide functionally),
  // but most should.
  EXPECT_GE(corrupting_bits, design.key.size() / 2);
}

TEST(MuxLock, ApplyGenotypeRepairsStaleGenes) {
  const Netlist original =
      netlist::gen::make_profile(netlist::gen::ProfileId::kC432, 29);
  const SiteContext context(original);
  util::Rng rng(29);
  auto sites = random_genotype(context, 6, rng);
  // Corrupt one gene so it is structurally invalid.
  sites[3].f_i = sites[3].f_j;
  LockedDesign design = apply_genotype(original, context, sites, rng);
  EXPECT_EQ(design.key.size(), 6u);
  EXPECT_TRUE(context.structurally_valid(design.genes[3]));
  EXPECT_TRUE(verify_unlocks(design, original));
}

TEST(MuxLock, DuplicateSitesGetRepaired) {
  const Netlist original =
      netlist::gen::make_profile(netlist::gen::ProfileId::kC432, 37);
  const SiteContext context(original);
  util::Rng rng(37);
  auto sites = random_genotype(context, 4, rng);
  sites[2] = sites[0];  // crossover can duplicate genes
  const LockedDesign design = apply_genotype(original, context, sites, rng);
  EXPECT_EQ(design.key.size(), 4u);
  // Repaired: no two applied sites lock the same edge.
  for (std::size_t i = 0; i < design.genes.size(); ++i) {
    const Genotype others(design.genes.begin(), design.genes.begin() + i);
    EXPECT_TRUE(SiteContext::edges_available(design.genes[i], others));
  }
  EXPECT_TRUE(verify_unlocks(design, original));
}

TEST(MuxLock, ThrowsWhenCircuitTooSmall) {
  // c17 has ~11 usable edges; requesting a huge key must fail cleanly.
  const Netlist c17 = netlist::gen::c17();
  EXPECT_THROW(dmux_lock(c17, 64, 1), std::runtime_error);
}

TEST(MuxLock, ThrowsOnZeroKeyBits) {
  // A keyless design is no lock; it would score as perfectly resilient.
  EXPECT_THROW(dmux_lock(netlist::gen::c17(), 0, 1), std::invalid_argument);
}

TEST(MuxLock, C17SmallKeyWorks) {
  const Netlist c17 = netlist::gen::c17();
  const LockedDesign design = dmux_lock(c17, 2, 5);
  EXPECT_TRUE(verify_unlocks(design, c17, VerifyMode::kSat));
}

TEST(MuxLock, WarmDecodeInternsNoNames) {
  // warm_decode_names pre-interns every decode-generated symbol, and
  // key_bit_names formats suffixes into a stack buffer — so a warmed
  // scratch must add nothing to the family's NameTable, on the first
  // decode or any later one.
  const Netlist original =
      netlist::gen::make_profile(netlist::gen::ProfileId::kC432, 7);
  const SiteContext context(original);
  util::Rng rng(7);
  const auto genes = random_genotype(context, 8, rng);

  ReachScratch scratch;
  warm_decode_names(original, 8, scratch);
  const std::size_t warm_names = original.names()->size();

  LockedDesign out;
  util::Rng repair_a(1);
  apply_genotype_into(out, original, context, genes, repair_a, scratch);
  EXPECT_EQ(original.names()->size(), warm_names) << "first decode interned";
  util::Rng repair_b(2);
  apply_genotype_into(out, original, context, genes, repair_b, scratch);
  EXPECT_EQ(original.names()->size(), warm_names) << "warm decode interned";
}

TEST(MuxLock, RecycledDecodeMatchesFreshDecode) {
  // Consecutive apply_genotype_into calls through one (design, scratch)
  // pair recycle the MUX tail nodes in place; the result must be
  // node-for-node identical to a cold decode of the same genotype.
  const Netlist original =
      netlist::gen::make_profile(netlist::gen::ProfileId::kC880, 11);
  const SiteContext context(original);
  util::Rng rng(11);
  const auto genes_a = random_genotype(context, 12, rng);
  auto genes_b = random_genotype(context, 12, rng);
  genes_b[3].f_j = genes_b[3].f_i;  // force one repair on the second decode

  ReachScratch reused_scratch;
  LockedDesign reused;
  util::Rng repair_a(5);
  apply_genotype_into(reused, original, context, genes_a, repair_a,
                      reused_scratch);
  util::Rng repair_b(6);
  apply_genotype_into(reused, original, context, genes_b, repair_b,
                      reused_scratch);  // recycled path

  ReachScratch fresh_scratch;
  LockedDesign fresh;
  util::Rng repair_c(6);
  apply_genotype_into(fresh, original, context, genes_b, repair_c,
                      fresh_scratch);  // cold path

  ASSERT_EQ(reused.netlist.size(), fresh.netlist.size());
  for (NodeId v = 0; v < fresh.netlist.size(); ++v) {
    EXPECT_EQ(reused.netlist.node(v).type, fresh.netlist.node(v).type);
    EXPECT_EQ(reused.netlist.node(v).name, fresh.netlist.node(v).name);
    EXPECT_EQ(reused.netlist.node(v).fanins, fresh.netlist.node(v).fanins);
  }
  EXPECT_EQ(reused.key, fresh.key);
  EXPECT_EQ(reused.genes, fresh.genes);
  EXPECT_EQ(reused.applied, fresh.applied);
  EXPECT_EQ(reused.netlist.topological_order(),
            fresh.netlist.topological_order());
  EXPECT_NO_THROW(reused.netlist.validate());
}

TEST(MuxLock, RecycleFallsBackAfterExternalMutation) {
  // A caller that structurally modifies the decoded design between decodes
  // must not poison the fast path: the undo detects the mutation and drops
  // to the full-copy decode.
  const Netlist original =
      netlist::gen::make_profile(netlist::gen::ProfileId::kC432, 13);
  const SiteContext context(original);
  util::Rng rng(13);
  const auto genes = random_genotype(context, 6, rng);

  ReachScratch scratch;
  LockedDesign out;
  util::Rng repair_a(1);
  apply_genotype_into(out, original, context, genes, repair_a, scratch);
  // Rewire one locked gate back to its original driver behind decode's back.
  const Gene& site = out.genes[2];
  ASSERT_EQ(out.netlist.replace_fanin(site.g_i, out.applied[2].first_node + 1,
                                      site.f_i),
            1u);
  util::Rng repair_b(1);
  apply_genotype_into(out, original, context, genes, repair_b, scratch);

  ReachScratch fresh_scratch;
  LockedDesign fresh;
  util::Rng repair_c(1);
  apply_genotype_into(fresh, original, context, genes, repair_c,
                      fresh_scratch);
  ASSERT_EQ(out.netlist.size(), fresh.netlist.size());
  for (NodeId v = 0; v < fresh.netlist.size(); ++v) {
    EXPECT_EQ(out.netlist.node(v).fanins, fresh.netlist.node(v).fanins);
  }
  EXPECT_NO_THROW(out.netlist.validate());

  // Same discipline for a mutation on a gate NO site touches: the
  // structural-version token catches every mutation, not just unwired
  // MUXes, so the stray edge must be discarded by the next decode.
  NodeId untouched = netlist::kNoNode;
  for (NodeId v = 0; v < original.size() && untouched == netlist::kNoNode;
       ++v) {
    const auto& fanins = out.netlist.node(v).fanins;
    bool in_site = false;
    for (const auto& s : out.genes) {
      in_site = in_site || s.g_i == v || s.g_j == v;
    }
    if (!in_site && fanins.size() >= 2 && fanins[0] != fanins[1]) {
      untouched = v;
    }
  }
  ASSERT_NE(untouched, netlist::kNoNode);
  const auto fanin0 = out.netlist.node(untouched).fanins[0];
  const auto fanin1 = out.netlist.node(untouched).fanins[1];
  ASSERT_NE(out.netlist.replace_fanin(untouched, fanin0, fanin1), 0u);
  util::Rng repair_d(1);
  apply_genotype_into(out, original, context, genes, repair_d, scratch);
  for (NodeId v = 0; v < fresh.netlist.size(); ++v) {
    EXPECT_EQ(out.netlist.node(v).fanins, fresh.netlist.node(v).fanins);
  }
}

class MuxLockSweep
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, std::size_t>> {
};

TEST_P(MuxLockSweep, LockVerifyProperty) {
  const auto [seed, key_bits] = GetParam();
  const Netlist original =
      netlist::gen::make_profile(netlist::gen::ProfileId::kC880, seed);
  const LockedDesign design = dmux_lock(original, key_bits, seed * 31 + 7);
  EXPECT_EQ(design.key.size(), key_bits);
  EXPECT_TRUE(verify_unlocks(design, original, VerifyMode::kSimulation, 2048));
  EXPECT_NO_THROW(design.netlist.validate());
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndKeys, MuxLockSweep,
    ::testing::Combine(::testing::Values(1, 2, 3, 4),
                       ::testing::Values(8, 32, 64)));

}  // namespace
}  // namespace autolock::lock
