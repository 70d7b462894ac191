#pragma once

/// \file sampling.hpp
/// Decision-vector sampling (§III-B / §III-C.1 "Data Normalization"):
///
///  * purely random sampling — D[v] uniform over {rw, rs, rf};
///  * priority-guided sampling — a base assignment gives every node the
///    highest-priority *applicable* operation (priority rw > rs > rf, to
///    minimize structural change, following FlowTune), then additional
///    samples mutate a random 10%..90% of the nodes;
///  * evaluation — run Algorithm 1 on a copy and record the reduction and
///    the applied-op trace (the dynamic-feature source).

#include <cstdint>
#include <vector>

#include "aig/aig.hpp"
#include "core/features.hpp"
#include "opt/lut_map.hpp"
#include "opt/orchestrate.hpp"
#include "util/rng.hpp"

namespace bg::core {

/// One evaluated Boolean-manipulation sample.
struct SampleRecord {
    opt::DecisionVector decisions;       ///< input assignment D
    std::vector<opt::OpKind> applied;    ///< ops actually applied per var
    int reduction = 0;                   ///< AND nodes removed
    int depth_reduction = 0;             ///< levels removed
    std::size_t final_size = 0;
    std::uint32_t final_depth = 0;
    /// Mapped K-LUT count of the optimized graph — the training label for
    /// the model's LUT head.  -1 = not measured (mapping every sample
    /// costs a lut_map run, so it is opt-in via the generators'
    /// `lut_labels` parameter); datasets mask the LUT label out for such
    /// records.
    long long lut_count = -1;
};

/// Uniformly random decisions on the AND nodes (None elsewhere).
opt::DecisionVector random_decisions(const aig::Aig& g, bg::Rng& rng);

/// Priority-guided base assignment derived from the static features:
/// highest-priority applicable op, random op where nothing applies.
opt::DecisionVector priority_decisions(const aig::Aig& g,
                                       const StaticFeatures& st,
                                       bg::Rng& rng);

/// Re-assign a random `fraction` (0..1) of the AND positions.
opt::DecisionVector mutate_decisions(const aig::Aig& g,
                                     const opt::DecisionVector& base,
                                     double fraction, bg::Rng& rng);

/// Run Algorithm 1 on a copy of `design` and record the outcome.  The
/// orchestration commits under `objective` (default size, the paper's
/// behavior); `optimized_out`, when given, receives the optimized copy so
/// graph-needing objectives can measure it before it is discarded.
SampleRecord evaluate_decisions(const aig::Aig& design,
                                opt::DecisionVector decisions,
                                const opt::OptParams& params = {},
                                const opt::Objective& objective =
                                    opt::size_objective(),
                                aig::Aig* optimized_out = nullptr);

/// N purely random samples (Fig 2 "Random").  When `lut_labels` is
/// non-null every record additionally carries the K-LUT mapping size of
/// its optimized graph (SampleRecord::lut_count — the LUT head's label).
std::vector<SampleRecord> generate_random_samples(
    const aig::Aig& design, std::size_t n, std::uint64_t seed,
    const opt::OptParams& params = {},
    const opt::LutMapParams* lut_labels = nullptr);

/// N priority-guided samples (Fig 2 "Guided"): the base assignment plus
/// partial random mutations with fractions cycling through 10%..90%.
/// `lut_labels` works as in generate_random_samples.
std::vector<SampleRecord> generate_guided_samples(
    const aig::Aig& design, std::size_t n, std::uint64_t seed,
    const opt::OptParams& params = {},
    const StaticFeatures* precomputed_static = nullptr,
    const opt::LutMapParams* lut_labels = nullptr);

}  // namespace bg::core
