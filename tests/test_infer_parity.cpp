/// \file test_infer_parity.cpp
/// The eval path (predict_batch_head, predict_batch_blend, forward_eval),
/// whose GraphSAGE trunk runs one sample at a time through fused per-layer
/// kernels, against the batched GEMM path forward(..., /*train=*/false):
/// every prediction must be bit-identical (memcmp), across model configs
/// and odd layer widths, input standardization on and off, graphs with
/// dead or isolated slots and single-node graphs, MLP chunk sizes with and
/// without a tail chunk, and with or without a worker pool.

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "circuits/registry.hpp"
#include "core/features.hpp"
#include "core/model.hpp"
#include "core/sampling.hpp"
#include "model_test_helpers.hpp"
#include "opt/orchestrate.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace {

using namespace bg::core;  // NOLINT: test brevity
using bg::nn::ConstMatrixView;
using bg::nn::Csr;
using bg::nn::Matrix;
using bg::test::perturb_params;

/// Hand-built graph: a path over the even nodes, a hub, and every node
/// whose index is 1 mod 4 isolated (degree 0, the dead-slot shape).
Csr sparse_graph(std::size_t n) {
    std::vector<std::vector<std::int32_t>> adj(n);
    const auto link = [&](std::size_t u, std::size_t v) {
        adj[u].push_back(static_cast<std::int32_t>(v));
        adj[v].push_back(static_cast<std::int32_t>(u));
    };
    for (std::size_t v = 2; v < n; v += 2) {
        link(v - 2, v);
    }
    for (std::size_t v = 3; v < n; v += 4) {
        link(0, v);
    }
    Csr csr;
    csr.offsets.assign(n + 1, 0);
    for (std::size_t v = 0; v < n; ++v) {
        csr.offsets[v + 1] =
            csr.offsets[v] + static_cast<std::int32_t>(adj[v].size());
        csr.neighbors.insert(csr.neighbors.end(), adj[v].begin(),
                             adj[v].end());
    }
    csr.build_inv_deg();
    return csr;
}

/// CSR of a registry design after an in-place optimization pass: the
/// replaced nodes stay behind as dead, edge-less slots.
Csr design_with_dead_slots(const std::string& name, double scale) {
    bg::aig::Aig g = bg::circuits::make_benchmark_scaled(name, scale);
    bg::Rng rng(5);
    (void)bg::opt::orchestrate(g, random_decisions(g, rng));
    std::size_t dead = 0;
    for (bg::aig::Var v = 0; v < g.num_slots(); ++v) {
        dead += g.is_dead(v) ? 1 : 0;
    }
    EXPECT_GT(dead, 0U) << name << " left no dead slot to cover";
    return build_csr(g);
}

/// Stacked features with the shapes real rows have: exact zeros, the
/// paper's -99 PI marker and small magnitudes.
Matrix random_features(std::size_t samples, std::size_t n, bg::Rng& rng) {
    Matrix x(samples * n, static_cast<std::size_t>(feature_dim));
    for (auto& v : x.data()) {
        const auto pick = rng.next_below(8);
        v = pick == 0   ? 0.0F
            : pick == 1 ? -99.0F
                        : 4.0F * rng.next_float() - 1.0F;
    }
    return x;
}

void set_random_stats(BoolGebraModel& model, bg::Rng& rng) {
    std::vector<float> mean(static_cast<std::size_t>(feature_dim));
    std::vector<float> stddev(mean.size());
    for (std::size_t j = 0; j < mean.size(); ++j) {
        mean[j] = 2.0F * rng.next_float() - 1.0F;
        stddev[j] = 0.5F + 3.0F * rng.next_float();
    }
    model.set_input_stats(std::move(mean), std::move(stddev));
}

bool bits_equal(const double a, const double b) {
    return std::memcmp(&a, &b, sizeof a) == 0;
}

bool bits_equal(const Matrix& a, const Matrix& b) {
    return a.rows() == b.rows() && a.cols() == b.cols() &&
           std::memcmp(a.data().data(), b.data().data(),
                       a.size() * sizeof(float)) == 0;
}

/// Checks every eval entry point, without a pool and on `pool`, against
/// forward(train=false) run chunk by chunk, the way predict_batch_scored
/// chunks the MLP.
void expect_parity(BoolGebraModel& model, const Csr& csr,
                   ConstMatrixView stacked, std::size_t batch_size,
                   bg::ThreadPool& pool, const std::string& what) {
    SCOPED_TRACE(what + " batch_size=" + std::to_string(batch_size));
    const std::size_t n = csr.num_nodes();
    const std::size_t total = stacked.rows() / n;
    const std::size_t heads = model.num_heads();

    std::vector<Matrix> ref_chunks;
    Matrix ref(total, heads);  // reference predictions, one row per sample
    for (std::size_t start = 0; start < total; start += batch_size) {
        const std::size_t b = std::min(batch_size, total - start);
        ref_chunks.push_back(model.forward(
            stacked.rows_view(start * n, b * n), csr, b, /*train=*/false));
        const Matrix& pred = ref_chunks.back();
        ASSERT_EQ(pred.rows(), b);
        ASSERT_EQ(pred.cols(), heads);
        for (std::size_t s = 0; s < b; ++s) {
            for (std::size_t h = 0; h < heads; ++h) {
                ref.at(start + s, h) = pred.at(s, h);
            }
        }
    }

    const std::vector<double> all_weights = {0.625, 0.0, 0.25};
    const std::vector<double> weights(all_weights.begin(),
                                      all_weights.begin() +
                                          static_cast<std::ptrdiff_t>(heads));
    for (bg::ThreadPool* p : {static_cast<bg::ThreadPool*>(nullptr), &pool}) {
        SCOPED_TRACE(p != nullptr ? "pool" : "no pool");
        bg::nn::EvalScratch scratch;  // reused across chunks
        for (std::size_t c = 0; c < ref_chunks.size(); ++c) {
            const std::size_t start = c * batch_size;
            const std::size_t b = ref_chunks[c].rows();
            const Matrix eval = model.forward_eval(
                stacked.rows_view(start * n, b * n), csr, b, scratch, p);
            EXPECT_TRUE(bits_equal(ref_chunks[c], eval))
                << "forward_eval differs on the chunk at " << start;
        }

        for (std::size_t h = 0; h < heads; ++h) {
            const auto got =
                model.predict_batch_head(csr, n, stacked, h, batch_size, p);
            ASSERT_EQ(got.size(), total);
            for (std::size_t s = 0; s < total; ++s) {
                ASSERT_TRUE(
                    bits_equal(got[s], static_cast<double>(ref.at(s, h))))
                    << "head " << h << " sample " << s << ": " << got[s]
                    << " vs " << ref.at(s, h);
            }
        }

        const auto blend =
            model.predict_batch_blend(csr, n, stacked, weights, batch_size, p);
        ASSERT_EQ(blend.size(), total);
        for (std::size_t s = 0; s < total; ++s) {
            double expected = 0.0;
            for (std::size_t h = 0; h < heads; ++h) {
                if (weights[h] != 0.0) {
                    expected += weights[h] * ref.at(s, h);
                }
            }
            ASSERT_TRUE(bits_equal(blend[s], expected))
                << "blend sample " << s;
        }
    }
}

/// Runs expect_parity for every batch size under each input
/// standardization setting (raw features, then dataset statistics).
void expect_parity_all(const ModelConfig& cfg, const Csr& csr,
                       std::size_t samples,
                       std::initializer_list<std::size_t> batch_sizes,
                       const std::string& what,
                       std::initializer_list<bool> standardize_modes = {
                           false, true}) {
    bg::Rng rng(0x5A6E ^ samples ^ csr.num_nodes());
    const Matrix stacked = random_features(samples, csr.num_nodes(), rng);
    bg::ThreadPool pool(4);
    for (const bool standardize : standardize_modes) {
        BoolGebraModel model(cfg);
        perturb_params(model, rng);
        if (standardize) {
            set_random_stats(model, rng);
        }
        const std::string label =
            what + (standardize ? " standardized" : " raw");
        for (const std::size_t bs : batch_sizes) {
            expect_parity(model, csr, stacked, bs, pool, label);
        }
    }
}

TEST(InferParity, QuickSparseGraphAllBatchSizes) {
    // 600 samples: batch 64 leaves a 24-sample tail chunk, batch 1 takes
    // BatchNorm's single-row running-statistics branch.
    expect_parity_all(ModelConfig::quick(), sparse_graph(6), 600,
                      {1, 7, 64, 600}, "quick sparse-6");
}

TEST(InferParity, QuickMultiDesignWithDeadSlots) {
    expect_parity_all(ModelConfig::quick_multi(),
                      design_with_dead_slots("b09", 0.3), 70, {7, 64},
                      "quick_multi b09", {true});
}

TEST(InferParity, PaperWidthsSmallDesign) {
    // Paper widths (12 -> 512 -> 512 -> 64, MLP 1000 -> 200) on the
    // smallest registry design; three samples cover a full and a tail
    // chunk of two.
    expect_parity_all(ModelConfig::paper(),
                      design_with_dead_slots("b08", 0.1), 3, {1, 2},
                      "paper b08", {true});
}

TEST(InferParity, OddWidthsAndSingleNodeGraph) {
    ModelConfig odd = ModelConfig::quick();
    odd.sage_dims = {5, 17, 3};
    odd.mlp_dims = {9, 4, 1};
    expect_parity_all(odd, sparse_graph(1), 30, {1, 7, 64}, "odd n=1");
    expect_parity_all(odd, sparse_graph(21), 30, {7}, "odd sparse-21");
    ModelConfig wide = ModelConfig::quick_multi();
    wide.sage_dims = {33, 16, 47};
    wide.standardize_inputs = false;  // stats set but ignored
    expect_parity_all(wide, sparse_graph(10), 20, {7}, "wide ignored-stats");
}

TEST(InferParity, CsrWithoutPrecomputedInverseDegrees) {
    Csr csr = sparse_graph(19);
    csr.inv_deg.clear();  // the divide-on-the-fly aggregation branch
    expect_parity_all(ModelConfig::quick(), csr, 12, {7}, "no inv_deg");
}

TEST(InferParity, WeightsWrittenInPlaceAreSeen) {
    // The trainer, the optimizer and load() write weights through
    // params(); the eval path packs them per call, so it must never serve
    // a stale copy.
    ModelConfig cfg = ModelConfig::quick();
    const Csr csr = sparse_graph(11);
    bg::Rng rng(9);
    const Matrix stacked = random_features(20, csr.num_nodes(), rng);
    BoolGebraModel model(cfg);
    const auto before =
        model.predict_batch_head(csr, csr.num_nodes(), stacked, 0);
    for (const auto& p : model.params()) {
        for (std::size_t i = 0; i < p.size; ++i) {
            p.value[i] = p.value[i] * 1.5F + 0.01F;
        }
    }
    const auto after =
        model.predict_batch_head(csr, csr.num_nodes(), stacked, 0);
    EXPECT_NE(before, after);
    bg::ThreadPool pool(2);
    expect_parity(model, csr, stacked, 7, pool, "edited weights");
}

TEST(InferParity, ScratchReusedAcrossGraphSizes) {
    // One EvalScratch across graphs that grow and shrink: stale rows of a
    // larger earlier sample must never leak into a smaller one.
    BoolGebraModel model(ModelConfig::quick());
    bg::ThreadPool pool(4);
    bg::nn::EvalScratch scratch;
    bg::Rng rng(21);
    perturb_params(model, rng);
    for (const std::size_t n : {40UL, 3UL, 25UL, 1UL, 40UL}) {
        const Csr csr = sparse_graph(n);
        const Matrix x = random_features(64, n, rng);
        const Matrix ref = model.forward(x, csr, 64, /*train=*/false);
        const Matrix got = model.forward_eval(x, csr, 64, scratch, &pool);
        EXPECT_TRUE(bits_equal(ref, got)) << "n=" << n;
    }
}

}  // namespace
