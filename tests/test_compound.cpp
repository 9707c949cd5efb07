// Scheme-polymorphic (compound) genotype decode: key-bit layout round-trip,
// warm (workspace-reused) decode equality for mixed genotypes of changing
// shape, and compound GA runs. The pinned trajectory at the bottom freezes
// a MUX + RLL + Anti-SAT GA run on c880 under every attack in the registry
// — the compound counterpart of the MUX-only pins in test_workspace.cpp.
#include "locking/compound.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/ga.hpp"
#include "core/heuristics.hpp"
#include "eval/pipeline.hpp"
#include "eval/registry.hpp"
#include "eval/workspace.hpp"
#include "locking/antisat.hpp"
#include "locking/verify.hpp"
#include "netlist/generator.hpp"
#include "util/rng.hpp"

namespace autolock {
namespace {

using lock::Gene;
using lock::GeneKind;
using netlist::Netlist;
using netlist::NodeId;

Netlist profile(netlist::gen::ProfileId id, std::uint64_t seed) {
  return netlist::gen::make_profile(id, seed);
}

lock::GenotypeSpec mixed_spec(std::size_t mux, std::size_t rll,
                              std::uint16_t antisat) {
  lock::GenotypeSpec spec;
  spec.mux_sites = mux;
  spec.rll_gates = rll;
  spec.antisat_width = antisat;
  return spec;
}

// ---- key-bit layout (satellite: documented compound layout) ----------------

TEST(CompoundKeyLayout, CompoundLockMatchesDocumentedOrder) {
  const Netlist original = profile(netlist::gen::ProfileId::kC880, 5);
  lock::AntiSatOptions options;
  options.width = 3;
  const auto design = lock::compound_lock(original, 8, options, 5);

  // 8 MUX bits, then K1 [8, 11), then K2 [11, 14).
  ASSERT_EQ(design.key.size(), 14u);
  ASSERT_EQ(design.netlist.key_inputs().size(), 14u);
  const auto layout = lock::key_layout(design.genes);
  ASSERT_EQ(layout.size(), design.key.size());
  for (std::size_t t = 0; t < 8; ++t) {
    EXPECT_EQ(layout[t].gene, t);
    EXPECT_EQ(layout[t].kind, GeneKind::kMux);
    EXPECT_EQ(layout[t].bit_in_gene, 0u);
  }
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(layout[8 + i].gene, 8u);
    EXPECT_EQ(layout[8 + i].kind, GeneKind::kAntiSat);
    EXPECT_EQ(layout[8 + i].bit_in_gene, i);
  }
  // The correct key sets K1 == K2, addressed through the layout slots.
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(design.key[8 + i], design.key[8 + 3 + i]) << "K1/K2 bit " << i;
  }
  EXPECT_TRUE(lock::verify_unlocks(design, original));
}

TEST(CompoundKeyLayout, MixedGenotypeRoundTripAndSlotMapping) {
  const Netlist original = profile(netlist::gen::ProfileId::kC880, 9);
  const lock::SiteContext context(original);
  util::Rng rng(9);
  const auto genes = lock::random_genotype(context, mixed_spec(4, 3, 2), rng);
  ASSERT_EQ(genes.size(), 8u);  // 4 MUX + 3 RLL + 1 Anti-SAT

  util::Rng repair(9);
  const auto design = lock::apply_genotype(original, context, genes, repair);
  ASSERT_EQ(design.key.size(), 11u);  // 4 + 3 + 2*2
  ASSERT_EQ(design.netlist.key_inputs().size(), 11u);

  // Round-trip every recovered bit through the layout back to its gene: MUX
  // and RLL bits must equal the gene's key_bit, anti-SAT bits must satisfy
  // K1 == K2 within the owning gene.
  const auto layout = lock::key_layout(design.genes);
  ASSERT_EQ(layout.size(), design.key.size());
  std::size_t antisat_offset = 0;
  for (std::size_t t = 0; t < layout.size(); ++t) {
    const auto& slot = layout[t];
    const Gene& gene = design.genes[slot.gene];
    EXPECT_EQ(slot.kind, gene.kind) << "bit " << t;
    if (slot.kind != GeneKind::kAntiSat) {
      EXPECT_EQ(slot.bit_in_gene, 0u);
      EXPECT_EQ(design.key[t], gene.key_bit) << "bit " << t;
    } else if (antisat_offset == 0) {
      antisat_offset = t;  // first anti-SAT bit: K1 starts here
    }
  }
  ASSERT_EQ(antisat_offset, 7u);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(design.key[antisat_offset + i], design.key[antisat_offset + 2 + i])
        << "K1/K2 bit " << i;
  }
  EXPECT_TRUE(lock::verify_unlocks(design, original));
}

// ---- workspace reuse on mixed genotypes (satellite: decode coverage) -------

TEST(CompoundDecode, FreshAndRecycledWorkspaceDecodesIdentical) {
  const Netlist original = profile(netlist::gen::ProfileId::kC880, 13);
  const lock::SiteContext context(original);
  util::Rng rng(13);
  const auto genes_a = lock::random_genotype(context, mixed_spec(6, 2, 2), rng);
  const auto genes_b = lock::random_genotype(context, mixed_spec(6, 2, 2), rng);

  eval::EvalWorkspace workspace;
  const auto check = [&](const lock::Genotype& genes, std::uint64_t seed) {
    util::Rng repair_fresh(seed);
    const auto fresh =
        lock::apply_genotype(original, context, genes, repair_fresh);
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
    ASSERT_EQ(reused.netlist.outputs().size(), fresh.netlist.outputs().size());
    for (std::size_t o = 0; o < fresh.netlist.outputs().size(); ++o) {
      EXPECT_EQ(reused.netlist.outputs()[o].driver,
                fresh.netlist.outputs()[o].driver);
    }
    EXPECT_EQ(reused.key, fresh.key);
    EXPECT_EQ(reused.genes, fresh.genes);
    EXPECT_EQ(reused.applied, fresh.applied);
    EXPECT_NO_THROW(reused.netlist.validate());
    EXPECT_TRUE(lock::verify_unlocks(reused, original));
  };
  check(genes_a, 0xA);
  check(genes_b, 0xB);  // recycle across different mixed genotypes
  check(genes_a, 0xA);  // and back: no state leaks between gene kinds
}

TEST(CompoundDecode, WarmDecodeAcrossGenotypeShapesMatchesColdDecode) {
  // One (design, scratch) pair decodes genotypes whose shape changes every
  // time: more or fewer genes, kinds reordered, anti-SAT width and splice
  // mode flipped. Each warm decode (undo, truncate, append) must equal a
  // cold decode of the same genotype.
  const Netlist original = profile(netlist::gen::ProfileId::kC880, 17);
  const lock::SiteContext context(original);
  util::Rng rng(17);
  lock::LockedDesign warm;
  lock::ReachScratch scratch;
  for (std::uint64_t trial = 0; trial < 48; ++trial) {
    lock::GenotypeSpec spec;
    spec.mux_sites = rng.next_below(9);
    spec.rll_gates = rng.next_below(5);
    spec.antisat_width = trial % 3 == 0 ? 0 : 2 + rng.next_below(3);
    spec.antisat_splice_output = rng.next_bool();
    if (spec.key_bits() == 0) spec.mux_sites = 1;
    auto genes = lock::random_genotype(context, spec, rng);
    for (std::size_t i = genes.size(); i > 1; --i) {  // reorder the kinds
      std::swap(genes[i - 1], genes[rng.next_below(i)]);
    }
    SCOPED_TRACE("trial " + std::to_string(trial) + ": " +
                 std::to_string(genes.size()) + " genes");

    util::Rng repair_warm(trial);
    lock::apply_genotype_into(warm, original, context, genes, repair_warm,
                              scratch);
    util::Rng repair_cold(trial);
    const auto cold =
        lock::apply_genotype(original, context, genes, repair_cold);

    ASSERT_EQ(warm.netlist.size(), cold.netlist.size());
    for (NodeId v = 0; v < cold.netlist.size(); ++v) {
      const auto& w = warm.netlist.node(v);
      const auto& c = cold.netlist.node(v);
      ASSERT_EQ(w.type, c.type) << "node " << v;
      ASSERT_EQ(w.is_key_input, c.is_key_input) << "node " << v;
      ASSERT_EQ(w.name, c.name) << "node " << v;
      ASSERT_EQ(w.fanins, c.fanins) << "node " << v;
      ASSERT_EQ(warm.netlist.find(c.name), v);
    }
    EXPECT_EQ(warm.netlist.inputs(), cold.netlist.inputs());
    ASSERT_EQ(warm.netlist.outputs().size(), cold.netlist.outputs().size());
    for (std::size_t o = 0; o < cold.netlist.outputs().size(); ++o) {
      EXPECT_EQ(warm.netlist.outputs()[o].driver,
                cold.netlist.outputs()[o].driver);
    }
    EXPECT_EQ(warm.key, cold.key);
    EXPECT_EQ(warm.genes, cold.genes);
    EXPECT_EQ(warm.applied, cold.applied);
    EXPECT_EQ(warm.netlist.topological_order(),
              cold.netlist.topological_order());
    EXPECT_NO_THROW(warm.netlist.validate());
  }
}

// ---- compound GA (tentpole acceptance) -------------------------------------

TEST(CompoundGa, ThreadCountDoesNotChangeTrajectory) {
  const Netlist original = profile(netlist::gen::ProfileId::kC432, 17);
  ga::GaConfig config;
  config.population = 8;
  config.generations = 2;
  config.seed = 303;

  ga::GaResult results[2];
  int slot = 0;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    eval::EvalPipelineConfig pipeline_config;
    pipeline_config.attacks = {"structural", "scope"};
    pipeline_config.seed = config.seed;
    pipeline_config.threads = threads;
    eval::EvalPipeline pipeline(original, pipeline_config);
    ga::GeneticAlgorithm ga(original, config);
    results[slot++] = ga.run(mixed_spec(6, 2, 2), pipeline);
  }
  EXPECT_EQ(results[0].evaluations, results[1].evaluations);
  EXPECT_EQ(results[0].best.genes, results[1].best.genes);
  EXPECT_EQ(results[0].best.eval.fitness, results[1].best.eval.fitness);
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

TEST(CompoundGa, OptimizersRefuseAKeylessSpec) {
  // A design with no key bits has nothing to attack, so every attack would
  // score it as perfectly resilient; random_genotype(context, spec, rng),
  // where every optimizer starts, refuses the spec instead.
  const Netlist original = profile(netlist::gen::ProfileId::kC432, 17);
  std::size_t calls = 0;
  eval::EvalPipelineConfig pipeline_config;
  pipeline_config.fitness_override = [&calls](const lock::LockedDesign&) {
    ++calls;
    return ga::Evaluation{};
  };
  pipeline_config.threads = 1;
  eval::EvalPipeline pipeline(original, pipeline_config);

  ga::GaConfig config;
  config.population = 4;
  config.generations = 1;
  EXPECT_THROW(ga::GeneticAlgorithm(original, config)
                   .run(lock::GenotypeSpec{}, pipeline),
               std::invalid_argument);
  EXPECT_THROW(ga::random_search(pipeline, lock::GenotypeSpec{},
                                 ga::HeuristicConfig{}),
               std::invalid_argument);
  EXPECT_EQ(calls, 0u);
}

TEST(CompoundGa, PinnedTrajectoryUnderFullAttackRegistry) {
  // Frozen compound-GA reference (c880, MUX + RLL + Anti-SAT genes, every
  // registered attack), recorded when the scheme-polymorphic genotype
  // landed. Exact-value mismatches here mean compound decode, a gene
  // operator, an attack, or the repair RNG stream changed.
  const auto registry_names = eval::AttackRegistry::instance().names();
  const std::vector<std::string> expected_names = {
      "muxlink", "muxlink-ensemble", "sat", "scope", "structural"};
  ASSERT_EQ(registry_names, expected_names);

  const Netlist original = profile(netlist::gen::ProfileId::kC880, 21);
  ga::GaConfig config;
  config.population = 4;
  config.generations = 2;
  config.elites = 1;
  config.seed = 99;

  eval::EvalPipelineConfig pipeline_config;
  pipeline_config.attacks = registry_names;
  pipeline_config.seed = config.seed;
  // Keep the GNN attacks small: the pin freezes values, not wall time.
  pipeline_config.attack_options.muxlink.epochs = 4;
  pipeline_config.attack_options.muxlink.max_train_links = 120;
  pipeline_config.attack_options.muxlink.subgraph.max_nodes = 32;
  pipeline_config.attack_options.ensemble = 2;
  eval::EvalPipeline pipeline(original, pipeline_config);

  ga::GeneticAlgorithm ga(original, config);
  const auto result = ga.run(mixed_spec(6, 2, 2), pipeline);

  // Every individual decodes 6 + 2 + 1 genes into 6 + 2 + 4 key bits.
  ASSERT_EQ(result.best.genes.size(), 9u);
  const auto design = pipeline.decode(result.best.genes);
  EXPECT_EQ(design.key.size(), 12u);
  EXPECT_TRUE(lock::verify_unlocks(design, original));

  EXPECT_EQ(result.evaluations, 5u);
  ASSERT_EQ(result.history.size(), 3u);
  EXPECT_EQ(result.best.eval.fitness, 0.34999999999999987);
  EXPECT_EQ(result.best.eval.attack_accuracy, 0.65000000000000013);
  const double expected_best[] = {0.34999999999999987, 0.34999999999999987,
                                  0.34999999999999987};
  const double expected_mean[] = {0.31874999999999998, 0.34999999999999987,
                                  0.34999999999999987};
  const double expected_worst[] = {0.27500000000000002, 0.34999999999999987,
                                   0.34999999999999987};
  const std::size_t expected_hits[] = {0, 4, 3};
  for (std::size_t g = 0; g < 3; ++g) {
    EXPECT_EQ(result.history[g].best_fitness, expected_best[g]) << "gen " << g;
    EXPECT_EQ(result.history[g].mean_fitness, expected_mean[g]) << "gen " << g;
    EXPECT_EQ(result.history[g].worst_fitness, expected_worst[g])
        << "gen " << g;
    EXPECT_EQ(result.history[g].cache_hits, expected_hits[g]) << "gen " << g;
  }
}

}  // namespace
}  // namespace autolock
