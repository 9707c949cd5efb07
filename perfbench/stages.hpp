// The benchmark's traced stage drivers. Each drives the same sequence of
// public library calls as the untraced entry point it mirrors, with a span
// around every call, and must reproduce that entry point's output exactly
// (the driver checks it): otherwise the trace measured a different program.
#pragma once

#include <cstddef>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "campaign/campaign.hpp"
#include "core/ga.hpp"
#include "eval/attack.hpp"
#include "eval/pipeline.hpp"
#include "eval/workspace.hpp"
#include "netlist/netlist.hpp"
#include "trace.hpp"

namespace perfbench {

/// Scores designs exactly as EvalPipeline::score / score_objectives do for
/// `config`, but calls each configured attack and EvalPipeline::corruption
/// itself, inside spans. Before scoring it re-decodes the (already
/// repaired) genotype with EvalPipeline::decode_into, so the trace also
/// times the decode the pipeline runs before every evaluation.
class TracedScorer {
 public:
  /// `config` is the pipeline configuration to reproduce (no overrides).
  TracedScorer(const autolock::netlist::Netlist& original,
               const autolock::eval::EvalPipelineConfig& config,
               Tracer& tracer, std::size_t key_bits);

  TracedScorer(const TracedScorer&) = delete;
  TracedScorer& operator=(const TracedScorer&) = delete;

  /// `config` with fitness/objective overrides routed through this scorer.
  /// The scorer must outlive every pipeline built from the result.
  autolock::eval::EvalPipelineConfig overriding(
      autolock::eval::EvalPipelineConfig config);

  /// Re-decodes whose design differed from the pipeline's (must stay 0).
  std::size_t decode_mismatches() const;
  /// Corruption counters of the pipeline that served corruption().
  std::size_t corruption_probes() const { return reference_.corruption_probes(); }
  std::size_t corruption_sweeps() const { return reference_.corruption_sweeps(); }

 private:
  autolock::ga::Evaluation score(const autolock::lock::LockedDesign& design);
  std::vector<double> objectives(const autolock::lock::LockedDesign& design);
  /// Span-timed re-decode plus per-attack accuracies through this thread's
  /// workspace.
  std::vector<autolock::eval::AttackReport> run_attacks(
      const autolock::lock::LockedDesign& design,
      autolock::eval::EvalWorkspace& workspace);
  autolock::eval::EvalWorkspace& thread_workspace();

  const autolock::netlist::Netlist* original_;
  Tracer* tracer_;
  std::size_t key_bits_;
  /// Identically configured pipeline: serves decode_into and corruption()
  /// (same seed, so the same probe set as the pipeline being reproduced).
  autolock::eval::EvalPipeline reference_;
  std::vector<std::unique_ptr<autolock::eval::Attack>> attacks_;

  mutable std::mutex mutex_;  // guards workspaces_ and mismatches_
  std::unordered_map<std::thread::id,
                     std::unique_ptr<autolock::eval::EvalWorkspace>>
      workspaces_;
  std::size_t mismatches_ = 0;
};

/// Builds a campaign circuit by axis name, as campaign::run does.
autolock::netlist::Netlist build_circuit(const std::string& name);

/// Counters the traced campaign reads from its pipelines.
struct CampaignCounters {
  std::size_t evaluations = 0;
  std::size_t cache_hits = 0;
  std::size_t corruption_probes = 0;
  std::size_t corruption_sweeps = 0;
  std::size_t decode_mismatches = 0;
};

/// Runs `spec` like campaign::run, through public calls with spans. The
/// returned result must serialize (campaign::to_json) byte-identically to
/// campaign::run(spec).
autolock::campaign::CampaignResult run_campaign_traced(
    const autolock::campaign::CampaignSpec& spec, Tracer& tracer,
    CampaignCounters& counters);

}  // namespace perfbench
