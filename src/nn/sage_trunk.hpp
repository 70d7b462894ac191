#pragma once

/// \file sage_trunk.hpp
/// The eval-mode GraphSAGE trunk — every SAGE conv with its ReLU6, then
/// mean pooling — run one sample at a time.
///
/// One design means one graph, so each sample's activations are a small
/// (N, F) panel.  SageTrunk keeps that panel in a per-shard scratch and
/// runs each layer as one fused kernel: it mean-aggregates a tile of rows
/// in CSR edge order, accumulates x·W_self and agg·W_neigh in two
/// register tiles in ascending p from zero, and writes
/// clamp((self + neigh) + b, 0, 6).  Those are the operations, in the
/// same order, that mean_aggregate, the blocked GEMM, the sum, add_row_bias
/// and ReLU6 perform on the batched path, so every pooled row is
/// bit-identical to SageConv::forward(..., /*train=*/false) followed by
/// mean_pool.  The kernel has SSE, AVX2 and AVX-512 variants picked once
/// at runtime; its TU is built with -ffp-contract=off.

#include <cstddef>
#include <span>
#include <vector>

#include "nn/matrix.hpp"
#include "nn/sage.hpp"

namespace bg {
class ThreadPool;  // util/parallel.hpp
}

namespace bg::nn {

/// Temporaries of one sample shard: the sample's input rows, two
/// ping-pong activation panels and the aggregation tile.  Sized on first
/// use and reused across samples and calls; one instance per concurrent
/// shard, never shared.
struct TrunkScratch {
    std::vector<float> input;
    std::vector<float> ping;
    std::vector<float> pong;
    std::vector<float> agg;
};

/// Reusable temporaries for BoolGebraModel::forward_eval: one TrunkScratch
/// per sample shard.  Reuse one instance per calling thread; never share it
/// between concurrent forwards.
struct EvalScratch {
    std::vector<TrunkScratch> shards;
};

class SageTrunk {
public:
    /// Snapshot of `convs`' weights for one inference call.  Layer widths
    /// that are not a multiple of the kernel's column tile are zero-padded
    /// into packed panels here — per call, because training, the
    /// optimizer and load() write the weights in place.  Non-empty
    /// `in_mean`/`in_std` standardize every input column as
    /// (x - mean) / std first.  The convs and stats must outlive the trunk.
    SageTrunk(std::span<const SageConv> convs, std::span<const float> in_mean,
              std::span<const float> in_std);

    SageTrunk(const SageTrunk&) = delete;
    SageTrunk& operator=(const SageTrunk&) = delete;

    std::size_t in_dim() const { return layers_.front().in; }
    std::size_t out_dim() const { return layers_.back().out; }

    /// Mean-pooled trunk output of every sample: `stacked` holds `batch`
    /// consecutive (N, in_dim) node blocks of one graph; row s of `pooled`
    /// (batch, out_dim) receives sample s.  `pool` runs contiguous sample
    /// shards with for_each once the call carries enough work to pay for
    /// the fork; every row is computed by the same code whatever the
    /// sharding, so the result is independent of the worker count.
    void run(ConstMatrixView stacked, const Csr& csr, std::size_t batch,
             EvalScratch& scratch, bg::ThreadPool* pool,
             MatrixView pooled) const;

private:
    struct Layer {
        std::size_t in = 0;
        std::size_t out = 0;
        std::size_t ld = 0;  ///< out rounded up to the column tile
        std::vector<float> packed;  ///< zero-padded W_self | W_neigh | b
        const float* w_self = nullptr;
        const float* w_neigh = nullptr;
        const float* bias = nullptr;
    };

    /// One sample: x is (N, in_dim); writes out_dim floats to `pooled`.
    void run_sample(ConstMatrixView x, const Csr& csr, TrunkScratch& ws,
                    float* pooled) const;

    std::vector<Layer> layers_;
    std::span<const float> in_mean_;
    std::span<const float> in_std_;
};

}  // namespace bg::nn
