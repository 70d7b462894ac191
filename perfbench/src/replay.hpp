#pragma once

/// Step-by-step replay of one design job through the public functions
/// core::run_design_flow / core::run_flow call, in their order and with
/// their seeds, with a span around each layer call.  Results must match
/// the library's own run_design_flow bit for bit; workloads check that.

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/flow_engine.hpp"
#include "trace.hpp"

namespace perfbench {

struct ReplayRound {
    std::vector<std::size_t> selected;  ///< top-k indices into the samples
    int best_reduction = 0;
    bool productive = false;
    std::size_t ands_after = 0;  ///< graph size after the round's commit
};

struct ReplayOutcome {
    std::vector<ReplayRound> rounds;  ///< executed rounds, in order
    std::size_t final_ands = 0;
    std::shared_ptr<const bg::aig::Aig> final_graph;
    std::optional<bg::verify::VerifyReport> verification;
    std::size_t samples = 0;    ///< decision vectors scored
    std::size_t checked = 0;    ///< OrchestrationResult::num_checked, commits
    std::size_t applied = 0;    ///< OrchestrationResult::num_applied, commits
};

/// Replay run_design_flow(job, model, flow, rounds, pool, prover) with
/// want_graph on.  Every layer call gets a span under `parent` tagged
/// with `job_id` (no-ops when the tracer is disabled).  Only the shapes
/// the workloads use are supported: verification with rounds > 1, or no
/// verification.
ReplayOutcome replay_design_flow(const bg::core::DesignJob& job,
                                 const bg::core::BoolGebraModel& model,
                                 const bg::core::FlowConfig& flow,
                                 std::size_t rounds, bg::ThreadPool& pool,
                                 bg::verify::PortfolioCec* prover,
                                 Tracer& tracer, std::uint64_t parent,
                                 std::uint64_t job_id);

}  // namespace perfbench
