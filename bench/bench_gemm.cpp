/// \file bench_gemm.cpp
/// Micro-benchmark for the dense GEMM layer — naive (seed) triple loop vs
/// the blocked/register-tiled kernel — and for model inference: the fused
/// sample-major eval trunk (predict_batch_head) vs the batched GEMM path
/// (forward(train=false)) on c5315 at quick widths, 600 samples.  Every
/// timed configuration is also parity-checked (bit for bit) against its
/// reference, so a wrong-but-fast kernel cannot slip through.
///
/// Usage: bench_gemm [--quick] [--workers N]
///   --quick     fewer repetitions (CI nightly mode)
///   --workers   pool width for the pooled inference row (default:
///               hardware)

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "circuits/registry.hpp"
#include "core/features.hpp"
#include "core/model.hpp"
#include "nn/matrix.hpp"
#include "util/parallel.hpp"
#include "util/progress.hpp"
#include "util/rng.hpp"

namespace {

using bg::nn::ConstMatrixView;
using bg::nn::Matrix;

Matrix random_matrix(std::size_t r, std::size_t c, bg::Rng& rng) {
    Matrix m(r, c);
    for (auto& v : m.data()) {
        v = 2.0F * rng.next_float() - 1.0F;
    }
    return m;
}

/// Best-of-reps wall time of fn(), with enough inner iterations that one
/// measurement is >= min_time.
template <typename Fn>
double time_best(Fn&& fn, int reps, double min_time) {
    fn();  // warm-up (and first-touch of the output)
    int iters = 1;
    for (;;) {
        bg::Stopwatch watch;
        for (int i = 0; i < iters; ++i) {
            fn();
        }
        const double dt = watch.seconds();
        if (dt >= min_time || iters >= (1 << 20)) {
            double best = dt / iters;
            for (int r = 1; r < reps; ++r) {
                watch.reset();
                for (int i = 0; i < iters; ++i) {
                    fn();
                }
                best = std::min(best, watch.seconds() / iters);
            }
            return best;
        }
        iters *= 2;
    }
}

bool bit_equal(const Matrix& a, const Matrix& b) {
    return a.rows() == b.rows() && a.cols() == b.cols() &&
           std::memcmp(a.data().data(), b.data().data(),
                       a.size() * sizeof(float)) == 0;
}

/// Inference row: predict_batch_head (fused per-sample trunk, then the MLP
/// in kPredictBatch chunks) against forward(train=false) over the same
/// chunks, on c5315 with 600 samples of random features at quick widths.
/// Returns false when the predictions differ in any bit.
bool inference_row(bg::ThreadPool& pool, int reps, double min_time) {
    using bg::core::BoolGebraModel;
    const auto g = bg::circuits::make_benchmark_scaled("c5315", 1.0);
    const auto csr = bg::core::build_csr(g);
    const std::size_t n = csr.num_nodes();
    constexpr std::size_t samples = 600;
    constexpr std::size_t chunk = BoolGebraModel::kPredictBatch;
    bg::Rng rng(0xC531);
    const Matrix stacked = random_matrix(
        samples * n, static_cast<std::size_t>(bg::core::feature_dim), rng);
    BoolGebraModel model(bg::core::ModelConfig::quick());

    std::vector<double> reference(samples);
    const auto run_reference = [&] {
        for (std::size_t start = 0; start < samples; start += chunk) {
            const std::size_t b = std::min(chunk, samples - start);
            const Matrix pred = model.forward(
                stacked.rows_view(start * n, b * n), csr, b,
                /*train=*/false);
            for (std::size_t s = 0; s < b; ++s) {
                reference[start + s] = pred.at(s, 0);
            }
        }
    };
    run_reference();
    const auto fused = model.predict_batch_head(csr, n, stacked, 0);
    const auto pooled =
        model.predict_batch_head(csr, n, stacked, 0, chunk, &pool);
    const std::size_t bytes = samples * sizeof(double);
    if (std::memcmp(fused.data(), reference.data(), bytes) != 0 ||
        std::memcmp(pooled.data(), reference.data(), bytes) != 0) {
        std::printf("%-14s PARITY FAILURE\n", "infer-c5315");
        return false;
    }
    const double t_ref = time_best(run_reference, reps, min_time);
    const double t_fused = time_best(
        [&] { (void)model.predict_batch_head(csr, n, stacked, 0); }, reps,
        min_time);
    const double t_pool = time_best(
        [&] {
            (void)model.predict_batch_head(csr, n, stacked, 0, chunk, &pool);
        },
        reps, min_time);
    std::printf("\nInference, c5315 (%zu nodes), %zu samples, quick widths;"
                " predictions bit-identical\n",
                n, samples);
    std::printf("%-34s %9.1f ms\n", "forward(train=false), 64-chunks",
                t_ref * 1e3);
    std::printf("%-34s %9.1f ms %8.2fx\n", "predict_batch_head", t_fused * 1e3,
                t_ref / t_fused);
    std::printf("%-34s %9.1f ms %8.2fx\n", "predict_batch_head, pool",
                t_pool * 1e3, t_ref / t_pool);
    return true;
}

struct Case {
    const char* name;
    std::size_t n, k, m;
};

}  // namespace

int main(int argc, char** argv) {
    bool quick = false;
    std::size_t workers = 0;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--quick") == 0) {
            quick = true;
        } else if (std::strcmp(argv[i], "--workers") == 0 && i + 1 < argc) {
            workers = static_cast<std::size_t>(std::max(0, std::atoi(argv[++i])));
        }
    }
    const int reps = quick ? 2 : 5;
    const double min_time = quick ? 0.05 : 0.2;
    bg::ThreadPool pool(workers);

    const Case cases[] = {
        {"square-64", 64, 64, 64},
        {"square-128", 128, 128, 128},
        {"square-256", 256, 256, 256},
        {"odd-257x129", 257, 193, 129},
        // Inference shapes: (B*N, in) x (in, hidden) feature GEMMs.
        {"sage-in", 4096, 12, 48},
        {"sage-hidden", 4096, 48, 48},
    };

    std::printf("GEMM kernels (Release, floats).  naive = seed triple loop;"
                " blocked = register-tiled; pool = %zu workers\n\n",
                pool.size());
    std::printf("%-14s %10s %10s %9s\n", "case", "naive", "blocked",
                "speedup");

    bool all_ok = true;
    for (const auto& c : cases) {
        bg::Rng rng(0xBEEF ^ c.n ^ (c.m << 8));
        const Matrix a = random_matrix(c.n, c.k, rng);
        const Matrix b = random_matrix(c.k, c.m, rng);
        Matrix ref;
        bg::nn::matmul_naive(a, b, ref);
        Matrix out;
        bg::nn::matmul(a, b, out);
        if (!bit_equal(ref, out)) {
            std::printf("%-14s PARITY FAILURE\n", c.name);
            all_ok = false;
            continue;
        }
        const double gflop =
            2.0 * static_cast<double>(c.n) * static_cast<double>(c.k) *
            static_cast<double>(c.m) * 1e-9;
        const double t_naive = time_best(
            [&] { bg::nn::matmul_naive(a, b, out); }, reps, min_time);
        const double t_blocked =
            time_best([&] { bg::nn::matmul(a, b, out); }, reps, min_time);
        std::printf("%-14s %8.2fGF %8.2fGF %8.2fx\n", c.name,
                    gflop / t_naive, gflop / t_blocked, t_naive / t_blocked);
    }

    // Transposed variants at the training shapes.
    {
        bg::Rng rng(0xF00D);
        const Matrix a = random_matrix(256, 192, rng);
        const Matrix b = random_matrix(256, 160, rng);
        Matrix ref;
        bg::nn::matmul_tn_naive(a, b, ref);
        Matrix out;
        bg::nn::matmul_tn(a, b, out);
        all_ok = all_ok && bit_equal(ref, out);
        const double gflop = 2.0 * 192.0 * 256.0 * 160.0 * 1e-9;
        const double tn_naive = time_best(
            [&] { bg::nn::matmul_tn_naive(a, b, out); }, reps, min_time);
        const double tn_blocked =
            time_best([&] { bg::nn::matmul_tn(a, b, out); }, reps, min_time);
        std::printf("%-14s %8.2fGF %8.2fGF %8.2fx\n", "tn-256",
                    gflop / tn_naive, gflop / tn_blocked,
                    tn_naive / tn_blocked);

        const Matrix d = random_matrix(256, 192, rng);
        const Matrix e = random_matrix(160, 192, rng);
        Matrix ref_nt;
        bg::nn::matmul_nt_naive(d, e, ref_nt);
        Matrix out_nt;
        bg::nn::matmul_nt(d, e, out_nt);
        all_ok = all_ok && bit_equal(ref_nt, out_nt);
        const double gflop_nt = 2.0 * 256.0 * 192.0 * 160.0 * 1e-9;
        const double nt_naive = time_best(
            [&] { bg::nn::matmul_nt_naive(d, e, out_nt); }, reps, min_time);
        const double nt_blocked = time_best(
            [&] { bg::nn::matmul_nt(d, e, out_nt); }, reps, min_time);
        std::printf("%-14s %8.2fGF %8.2fGF %8.2fx\n", "nt-256",
                    gflop_nt / nt_naive, gflop_nt / nt_blocked,
                    nt_naive / nt_blocked);
    }

    all_ok = inference_row(pool, reps, min_time) && all_ok;

    if (!all_ok) {
        std::printf("\nFAIL: a kernel does not match its reference"
                    " bit-for-bit\n");
        return 1;
    }
    std::printf("\nall kernels parity-checked against their references\n");
    return 0;
}
