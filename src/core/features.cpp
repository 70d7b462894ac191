#include "core/features.hpp"

#include <algorithm>

#include "util/contracts.hpp"
#include "util/parallel.hpp"

namespace bg::core {

using aig::Aig;
using aig::Var;
using opt::OpKind;

namespace {

/// One row of the static features; thread-safe for distinct vars.
void compute_static_row(const Aig& g, Var v, const opt::OptParams& params,
                        std::array<float, static_dim>& row) {
    if (!g.is_and(v) || g.is_dead(v)) {
        row.fill(pi_fill);  // PIs, the constant, and tombstones
        return;
    }
    row[0] = g.fanin0_ref(v).complemented() ? 1.0F : 0.0F;
    row[1] = g.fanin1_ref(v).complemented() ? 1.0F : 0.0F;
    const OpKind ops[3] = {OpKind::Rewrite, OpKind::Resub, OpKind::Refactor};
    for (int k = 0; k < 3; ++k) {
        const auto res = opt::check_op(g, v, ops[k], params);
        row[2 + 2 * k] = res.applicable ? 1.0F : 0.0F;
        // The embedded local gain stays the size delta under every
        // objective: feature semantics (and trained weights) must not
        // depend on the flow's cost model.
        row[3 + 2 * k] = res.applicable
                             ? static_cast<float>(res.gain.size_delta)
                             : -1.0F;
    }
}

}  // namespace

StaticFeatures compute_static_features(const Aig& g,
                                       const opt::OptParams& params,
                                       ThreadPool* pool) {
    params.validate();
    StaticFeatures rows(g.num_slots());
    // The three checks are read-only, so per-node work parallelizes.
    const auto row = [&](std::size_t i) {
        compute_static_row(g, static_cast<Var>(i), params, rows[i]);
    };
    if (pool != nullptr) {
        pool->for_each(g.num_slots(), row);
    } else {
        bg::parallel_for(g.num_slots(), row);
    }
    return rows;
}

DynamicFeatures compute_dynamic_features(const Aig& g,
                                         std::span<const OpKind> applied) {
    BG_EXPECTS(applied.size() >= g.num_slots(),
               "applied-op trace must cover every var");
    DynamicFeatures rows(g.num_slots());
    for (Var v = 0; v < g.num_slots(); ++v) {
        auto& row = rows[v];
        if (!g.is_and(v) || g.is_dead(v)) {
            row.fill(pi_fill);
            continue;
        }
        row.fill(0.0F);
        switch (applied[v]) {
            case OpKind::None:
                row[0] = 1.0F;
                break;
            case OpKind::Rewrite:
                row[1] = 1.0F;
                break;
            case OpKind::Resub:
                row[2] = 1.0F;
                break;
            case OpKind::Refactor:
                row[3] = 1.0F;
                break;
        }
    }
    return rows;
}

void assemble_features_into(const StaticFeatures& st,
                            const DynamicFeatures& dy,
                            const FeatureConfig& cfg, std::span<float> out) {
    BG_EXPECTS(st.size() == dy.size(),
               "static/dynamic row counts must match");
    BG_EXPECTS(out.size() == st.size() * feature_dim,
               "feature output span size mismatch");
    std::fill(out.begin(), out.end(), 0.0F);
    for (std::size_t v = 0; v < st.size(); ++v) {
        float* row = &out[v * feature_dim];
        if (cfg.use_static) {
            for (int i = 0; i < static_dim; ++i) {
                row[i] = st[v][i];
            }
        }
        if (cfg.use_dynamic) {
            for (int i = 0; i < dynamic_dim; ++i) {
                row[static_dim + i] = dy[v][i];
            }
        }
    }
}

std::vector<float> assemble_features(const StaticFeatures& st,
                                     const DynamicFeatures& dy,
                                     const FeatureConfig& cfg) {
    std::vector<float> out(st.size() * feature_dim);
    assemble_features_into(st, dy, cfg, out);
    return out;
}

GraphCsr build_csr(const Aig& g) {
    const std::size_t n = g.num_slots();
    std::vector<std::int32_t> degree(n, 0);
    for (Var v = 0; v < n; ++v) {
        if (!g.is_and(v) || g.is_dead(v)) {
            continue;
        }
        const auto [f0, f1] = g.fanin_refs(v);
        const Var u0 = f0.index();
        const Var u1 = f1.index();
        degree[v] += 2;
        ++degree[u0];
        ++degree[u1];
    }
    GraphCsr csr;
    csr.offsets.assign(n + 1, 0);
    for (std::size_t v = 0; v < n; ++v) {
        csr.offsets[v + 1] = csr.offsets[v] + degree[v];
    }
    csr.neighbors.assign(static_cast<std::size_t>(csr.offsets[n]), 0);
    std::vector<std::int32_t> cursor(csr.offsets.begin(),
                                     csr.offsets.end() - 1);
    for (Var v = 0; v < n; ++v) {
        if (!g.is_and(v) || g.is_dead(v)) {
            continue;
        }
        for (const aig::NodeRef f : g.fanin_refs(v)) {
            const Var u = f.index();
            csr.neighbors[static_cast<std::size_t>(cursor[v]++)] =
                static_cast<std::int32_t>(u);
            csr.neighbors[static_cast<std::size_t>(cursor[u]++)] =
                static_cast<std::int32_t>(v);
        }
    }
    csr.build_inv_deg();
    return csr;
}

}  // namespace bg::core
