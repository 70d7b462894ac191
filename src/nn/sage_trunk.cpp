#include "nn/sage_trunk.hpp"

#include <algorithm>
#include <cstdint>
#include <cstring>

#include "util/contracts.hpp"
#include "util/parallel.hpp"

namespace bg::nn {

// ---------------------------------------------------------------------------
// Fused SAGE layer kernel
//
// For a tile of Mr node rows the kernel first mean-aggregates their
// neighbor rows (CSR edge order, then one multiply by 1/deg — exactly
// mean_aggregate), then, per one-vector-wide column tile, accumulates x·W_self and
// agg·W_neigh in two register tiles that start from +0 and add one
// product per p in ascending order — exactly the blocked GEMM — and
// stores clamp((self + neigh) + b, 0, 6).  Every output element therefore
// sees the same operations in the same order as the batched layer path.
//
// Activation panels have their rows padded to kRowPad and their columns
// to kColPad, so every tile is full and every loop bound below the panel
// level is a compile-time constant the vectorizer can unroll.  Padded
// weight columns and bias entries are zero, so padded output columns hold
// clamp(0) = 0; padded rows hold finite values nobody reads back (the CSR
// never points at them and pooling stops at N).
//
// This TU is compiled with -ffp-contract=off (see CMakeLists): the AVX2
// and AVX-512 variants may not fuse mul+add into FMA.
// ---------------------------------------------------------------------------

namespace {

#if defined(__GNUC__) || defined(__clang__)
#define BG_ALWAYS_INLINE inline __attribute__((always_inline))
#else
#define BG_ALWAYS_INLINE inline
#endif

/// Every variant's column tile divides kColPad and its row tile kRowPad.
constexpr std::size_t kColPad = 16;
constexpr std::size_t kRowPad = 8;

/// Below this many multiply-adds per shard, running the samples on the
/// calling thread beats forking (small graphs, few samples).
constexpr std::size_t kMinShardWork = std::size_t{1} << 22;

std::size_t round_up(std::size_t v, std::size_t to) {
    return (v + to - 1) / to * to;
}

struct LayerArgs {
    const float* x;  ///< (rows_pad, ldx) input activations
    std::size_t ldx;
    std::size_t rows;      ///< real rows (N)
    std::size_t rows_pad;  ///< rows rounded up to kRowPad
    std::size_t k;         ///< real input width
    const std::int32_t* offsets;
    const std::int32_t* neighbors;
    const float* inv_deg;  ///< null: divide on the fly
    const float* w_self;   ///< (k, ldy)
    const float* w_neigh;  ///< (k, ldy)
    const float* bias;     ///< ldy
    float* y;              ///< (rows_pad, ldy) output activations
    std::size_t ldy;
    float* agg;  ///< (kRowPad, ldx) aggregation tile
};

/// W-lane float vector (GCC/Clang vector extension).  Each lane is plain
/// IEEE single arithmetic, so a vector op computes exactly what the scalar
/// op computes per lane; spelling the register tiles as vectors keeps them
/// in registers at the width each ISA variant provides.
template <std::size_t W>
struct Lanes {
    // A typedef, not a using-alias: GCC drops vector_size from the latter.
    typedef float type  // NOLINT(modernize-use-using)
        __attribute__((vector_size(W * sizeof(float))));
};

/// Unaligned vector load/store.  Vectors travel by reference: passing
/// them by value across these helpers would change the ABI with the ISA.
template <typename V>
BG_ALWAYS_INLINE void load(V& v, const float* p) {
    std::memcpy(&v, p, sizeof v);
}

template <typename V>
BG_ALWAYS_INLINE void store(float* p, const V& v) {
    std::memcpy(p, &v, sizeof v);
}

/// Raw pointers and strides are copied into locals first: routing them
/// through a struct inside the loops defeats the vectorizer (the same
/// finding as the GEMM kernels in matrix.cpp).
template <std::size_t Mr, std::size_t W>
BG_ALWAYS_INLINE void sage_layer_impl(const LayerArgs& args) {
    static_assert(kRowPad % Mr == 0 && kColPad % W == 0,
                  "tiles must divide the panel padding");
    using V = typename Lanes<W>::type;
    static_assert(sizeof(V) == W * sizeof(float), "V must hold W lanes");
    const float* x = args.x;
    const std::size_t ldx = args.ldx;
    const std::size_t n = args.rows;
    const std::size_t rows_pad = args.rows_pad;
    const std::size_t k = args.k;
    const std::int32_t* offsets = args.offsets;
    const std::int32_t* neighbors = args.neighbors;
    const float* inv_deg = args.inv_deg;
    const float* w_self = args.w_self;
    const float* w_neigh = args.w_neigh;
    const float* bias = args.bias;
    float* y = args.y;
    const std::size_t ldy = args.ldy;
    float* agg = args.agg;
    const V zero = {};
    const V six = zero + 6.0F;

    for (std::size_t i = 0; i < rows_pad; i += Mr) {
        for (std::size_t r = 0; r < Mr; ++r) {
            float* ar = agg + r * ldx;
            std::fill(ar, ar + ldx, 0.0F);
            const std::size_t v = i + r;
            if (v >= n) {
                continue;
            }
            const auto beg = offsets[v];
            const auto end = offsets[v + 1];
            if (beg == end) {
                continue;
            }
            for (auto e = beg; e < end; ++e) {
                const float* xj =
                    x + static_cast<std::size_t>(
                            neighbors[static_cast<std::size_t>(e)]) *
                            ldx;
                for (std::size_t c = 0; c < ldx; c += W) {
                    V a;
                    V b;
                    load(a, ar + c);
                    load(b, xj + c);
                    a += b;
                    store(ar + c, a);
                }
            }
            const float inv = inv_deg != nullptr
                                  ? inv_deg[v]
                                  : 1.0F / static_cast<float>(end - beg);
            for (std::size_t c = 0; c < ldx; c += W) {
                V a;
                load(a, ar + c);
                a *= inv;
                store(ar + c, a);
            }
        }
        const float* xi = x + i * ldx;
        for (std::size_t j = 0; j < ldy; j += W) {
            V acc_self[Mr];
            V acc_neigh[Mr];
            for (std::size_t r = 0; r < Mr; ++r) {
                acc_self[r] = zero;
                acc_neigh[r] = zero;
            }
            for (std::size_t p = 0; p < k; ++p) {
                V bs;
                V bn;
                load(bs, w_self + p * ldy + j);
                load(bn, w_neigh + p * ldy + j);
                for (std::size_t r = 0; r < Mr; ++r) {
                    acc_self[r] += xi[r * ldx + p] * bs;
                    acc_neigh[r] += agg[r * ldx + p] * bn;
                }
            }
            V b;
            load(b, bias + j);
            for (std::size_t r = 0; r < Mr; ++r) {
                // std::clamp(v, 0, 6) lane by lane: v < 0 ? 0 : (6 < v ? 6 : v).
                const V sum = (acc_self[r] + acc_neigh[r]) + b;
                const V hi = six < sum ? six : sum;
                const V out = sum < zero ? zero : hi;
                store(y + (i + r) * ldy + j, out);
            }
        }
    }
}

using LayerFn = void (*)(const LayerArgs&);

void sage_layer_portable(const LayerArgs& args) {
    sage_layer_impl<4, 4>(args);
}

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define BG_SAGE_MULTIVERSION 1
// Two Mr-row accumulator tiles of one vector each must fit the register
// file next to the weight loads (SSE: 2 x 4 xmm of 16; AVX2: 2 x 4 ymm of
// 16; AVX-512: 2 x 8 zmm of 32).
__attribute__((target("avx2"))) void sage_layer_avx2(const LayerArgs& args) {
    sage_layer_impl<4, 8>(args);
}
__attribute__((target("avx512f"))) void sage_layer_avx512(
    const LayerArgs& args) {
    sage_layer_impl<8, 16>(args);
}
#endif

LayerFn pick_layer_fn() {
#if defined(BG_SAGE_MULTIVERSION)
    if (__builtin_cpu_supports("avx512f")) {
        return sage_layer_avx512;
    }
    if (__builtin_cpu_supports("avx2")) {
        return sage_layer_avx2;
    }
#endif
    return sage_layer_portable;
}

/// ISA dispatch, resolved once (thread-safe magic static).
LayerFn layer_fn() {
    static const LayerFn fn = pick_layer_fn();
    return fn;
}

/// Grow-only resize: a scratch keeps its largest size across calls.
float* sized(std::vector<float>& v, std::size_t n) {
    if (v.size() < n) {
        v.resize(n);
    }
    return v.data();
}

}  // namespace

SageTrunk::SageTrunk(std::span<const SageConv> convs,
                     std::span<const float> in_mean,
                     std::span<const float> in_std)
    : in_mean_(in_mean), in_std_(in_std) {
    BG_EXPECTS(!convs.empty(), "the trunk needs at least one conv");
    BG_EXPECTS(in_mean.size() == in_std.size() &&
                   (in_mean.empty() || in_mean.size() == convs[0].in_dim()),
               "input statistics must match the input width");
    layers_.reserve(convs.size());
    for (const SageConv& conv : convs) {
        BG_EXPECTS(layers_.empty() || layers_.back().out == conv.in_dim(),
                   "conv widths must chain");
        Layer& l = layers_.emplace_back();
        l.in = conv.in_dim();
        l.out = conv.out_dim();
        l.ld = round_up(l.out, kColPad);
        const Matrix& ws = conv.w_self();
        const Matrix& wn = conv.w_neigh();
        const std::span<const float> b = conv.bias();
        if (l.ld == l.out) {
            l.w_self = ws.row(0);
            l.w_neigh = wn.row(0);
            l.bias = b.data();
            continue;
        }
        const std::size_t panel = l.in * l.ld;
        l.packed.assign(2 * panel + l.ld, 0.0F);
        for (std::size_t p = 0; p < l.in; ++p) {
            std::copy(ws.row(p), ws.row(p) + l.out, &l.packed[p * l.ld]);
            std::copy(wn.row(p), wn.row(p) + l.out,
                      &l.packed[panel + p * l.ld]);
        }
        std::copy(b.begin(), b.end(), &l.packed[2 * panel]);
        l.w_self = l.packed.data();
        l.w_neigh = l.packed.data() + panel;
        l.bias = l.packed.data() + 2 * panel;
    }
}

void SageTrunk::run_sample(ConstMatrixView x, const Csr& csr,
                           TrunkScratch& ws, float* pooled) const {
    const std::size_t n = csr.num_nodes();
    const std::size_t rows_pad = round_up(n, kRowPad);
    const std::size_t in = in_dim();
    std::size_t ld = round_up(in, kColPad);
    std::size_t max_ld = ld;
    for (const Layer& l : layers_) {
        max_ld = std::max(max_ld, l.ld);
    }

    // Input panel: standardized (or copied) rows, zero in every padded row
    // and column.
    float* cur = sized(ws.input, rows_pad * ld);
    const bool standardize = !in_mean_.empty();
    for (std::size_t i = 0; i < rows_pad; ++i) {
        float* dst = cur + i * ld;
        std::fill(dst, dst + ld, 0.0F);
        if (i >= n) {
            continue;
        }
        const float* src = x.row(i);
        if (standardize) {
            for (std::size_t j = 0; j < in; ++j) {
                dst[j] = (src[j] - in_mean_[j]) / in_std_[j];
            }
        } else {
            std::copy(src, src + in, dst);
        }
    }

    float* bufs[2] = {sized(ws.ping, rows_pad * max_ld),
                      sized(ws.pong, rows_pad * max_ld)};
    float* agg = sized(ws.agg, kRowPad * max_ld);
    const float* inv_deg =
        csr.inv_deg.size() == n ? csr.inv_deg.data() : nullptr;
    const LayerFn fn = layer_fn();
    for (std::size_t li = 0; li < layers_.size(); ++li) {
        const Layer& l = layers_[li];
        float* out = bufs[li % 2];
        fn({cur, ld, n, rows_pad, l.in, csr.offsets.data(),
            csr.neighbors.data(), inv_deg, l.w_self, l.w_neigh, l.bias, out,
            l.ld, agg});
        cur = out;
        ld = l.ld;
    }

    // Mean pooling over the N real rows, exactly as mean_pool.
    const std::size_t f = out_dim();
    std::fill(pooled, pooled + f, 0.0F);
    for (std::size_t i = 0; i < n; ++i) {
        const float* yi = cur + i * ld;
        for (std::size_t c = 0; c < f; ++c) {
            pooled[c] += yi[c];
        }
    }
    const float inv = 1.0F / static_cast<float>(n);
    for (std::size_t c = 0; c < f; ++c) {
        pooled[c] *= inv;
    }
}

void SageTrunk::run(ConstMatrixView stacked, const Csr& csr,
                    std::size_t batch, EvalScratch& scratch,
                    bg::ThreadPool* pool, MatrixView pooled) const {
    const std::size_t n = csr.num_nodes();
    BG_EXPECTS(stacked.rows() == batch * n,
               "feature rows must equal batch * nodes");
    BG_EXPECTS(stacked.cols() == in_dim(), "trunk input width mismatch");
    BG_EXPECTS(pooled.rows() == batch && pooled.cols() == out_dim(),
               "pooled output shape mismatch");
    if (batch == 0) {
        return;
    }
    BG_EXPECTS(n > 0, "mean pooling needs at least one node");
    // Multiply-adds per sample: both weight panels of every layer plus
    // the aggregation sums.
    std::size_t per_node = 0;
    std::size_t per_edge = 0;
    for (const Layer& l : layers_) {
        per_node += 2 * l.in * l.ld;
        per_edge += round_up(l.in, kColPad);
    }
    const std::size_t work =
        batch * (n * per_node + csr.neighbors.size() * per_edge);
    std::size_t shards = 1;
    if (pool != nullptr && pool->size() > 0) {
        shards = std::min({batch, pool->size() + 1,
                           std::max<std::size_t>(1, work / kMinShardWork)});
    }
    if (scratch.shards.size() < shards) {
        scratch.shards.resize(shards);
    }
    const auto run_shard = [&](std::size_t sh) {
        TrunkScratch& ws = scratch.shards[sh];
        const std::size_t lo = batch * sh / shards;
        const std::size_t hi = batch * (sh + 1) / shards;
        for (std::size_t s = lo; s < hi; ++s) {
            run_sample(stacked.rows_view(s * n, n), csr, ws, pooled.row(s));
        }
    };
    if (shards == 1) {
        run_shard(0);
        return;
    }
    pool->for_each(shards, run_shard);
}

}  // namespace bg::nn
