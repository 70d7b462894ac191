#include <gtest/gtest.h>

#include "circuits/registry.hpp"
#include "core/features.hpp"
#include "opt/orchestrate.hpp"
#include "opt/rewrite_lib.hpp"
#include "test_helpers.hpp"
#include "util/parallel.hpp"

namespace {

using namespace bg::aig;  // NOLINT: test brevity
using namespace bg::core;  // NOLINT: test brevity
using bg::opt::OpKind;

TEST(StaticFeatures, PiRowsAreFilled) {
    Aig g;
    const Lit a = g.add_pi();
    const Lit b = g.add_pi();
    g.add_po(g.and_(a, b));
    const auto st = compute_static_features(g);
    ASSERT_EQ(st.size(), g.num_slots());
    for (const Var v : {lit_var(a), lit_var(b), Var{0}}) {
        for (int i = 0; i < static_dim; ++i) {
            EXPECT_FLOAT_EQ(st[v][i], pi_fill);
        }
    }
}

TEST(StaticFeatures, EdgeComplementBits) {
    Aig g;
    const Lit a = g.add_pi();
    const Lit b = g.add_pi();
    const Lit x = g.and_(lit_not(a), b);  // fanin0 = !a, fanin1 = b
    g.add_po(x);
    const auto st = compute_static_features(g);
    const auto& row = st[lit_var(x)];
    // Normalized fanin order puts !a first (literal 3 < literal 4).
    EXPECT_FLOAT_EQ(row[0], 1.0F);
    EXPECT_FLOAT_EQ(row[1], 0.0F);
}

TEST(StaticFeatures, GainColumnsMatchChecks) {
    // The mux-collapse pattern: rw applicable with gain 3 at the root.
    Aig g;
    const Lit c = g.add_pi();
    const Lit a = g.add_pi();
    const Lit f = g.or_(g.and_(c, a), g.and_(lit_not(c), a));
    g.add_po(f);
    const auto st = compute_static_features(g);
    const auto& row = st[lit_var(f)];
    EXPECT_FLOAT_EQ(row[2], 1.0F) << "rw must be applicable";
    EXPECT_FLOAT_EQ(row[3], 3.0F) << "rw gain must be 3";
}

TEST(StaticFeatures, InapplicableIsMinusOne) {
    Aig g;
    const Lit a = g.add_pi();
    const Lit b = g.add_pi();
    const Lit x = g.and_(a, b);  // irredundant
    g.add_po(x);
    const auto st = compute_static_features(g);
    const auto& row = st[lit_var(x)];
    EXPECT_FLOAT_EQ(row[2], 0.0F);
    EXPECT_FLOAT_EQ(row[3], -1.0F);
    EXPECT_FLOAT_EQ(row[4], 0.0F);
    EXPECT_FLOAT_EQ(row[5], -1.0F);
    EXPECT_FLOAT_EQ(row[6], 0.0F);
    EXPECT_FLOAT_EQ(row[7], -1.0F);
}

TEST(DynamicFeatures, OneHotEncoding) {
    auto g = bg::test::redundant_aig(6, 15, 2, 31);
    std::vector<OpKind> applied(g.num_slots(), OpKind::None);
    const auto ands = g.topo_ands();
    ASSERT_GE(ands.size(), 3u);
    applied[ands[0]] = OpKind::Rewrite;
    applied[ands[1]] = OpKind::Resub;
    applied[ands[2]] = OpKind::Refactor;
    const auto dy = compute_dynamic_features(g, applied);
    EXPECT_FLOAT_EQ(dy[ands[0]][1], 1.0F);
    EXPECT_FLOAT_EQ(dy[ands[0]][0], 0.0F);
    EXPECT_FLOAT_EQ(dy[ands[1]][2], 1.0F);
    EXPECT_FLOAT_EQ(dy[ands[2]][3], 1.0F);
    // Untouched node: none-hot.
    EXPECT_FLOAT_EQ(dy[ands[3]][0], 1.0F);
    // PI row filled.
    EXPECT_FLOAT_EQ(dy[g.pi(0)][0], pi_fill);
}

TEST(AssembleFeatures, LayoutAndAblation) {
    Aig g;
    const Lit a = g.add_pi();
    const Lit b = g.add_pi();
    const Lit x = g.and_(a, b);
    g.add_po(x);
    const auto st = compute_static_features(g);
    std::vector<OpKind> applied(g.num_slots(), OpKind::None);
    const auto dy = compute_dynamic_features(g, applied);

    const auto full = assemble_features(st, dy);
    ASSERT_EQ(full.size(), g.num_slots() * feature_dim);
    const std::size_t xrow = lit_var(x) * feature_dim;
    EXPECT_FLOAT_EQ(full[xrow + 0], st[lit_var(x)][0]);
    EXPECT_FLOAT_EQ(full[xrow + static_dim + 0], 1.0F);  // none-hot

    FeatureConfig static_only;
    static_only.use_dynamic = false;
    const auto so = assemble_features(st, dy, static_only);
    EXPECT_FLOAT_EQ(so[xrow + static_dim + 0], 0.0F);

    FeatureConfig dynamic_only;
    dynamic_only.use_static = false;
    const auto dyn = assemble_features(st, dy, dynamic_only);
    EXPECT_FLOAT_EQ(dyn[xrow + 0], 0.0F);
    EXPECT_FLOAT_EQ(dyn[xrow + static_dim + 0], 1.0F);
}

TEST(Csr, UndirectedDegrees) {
    Aig g;
    const Lit a = g.add_pi();
    const Lit b = g.add_pi();
    const Lit x = g.and_(a, b);
    const Lit y = g.and_(x, lit_not(a));
    g.add_po(y);
    const auto csr = build_csr(g);
    EXPECT_EQ(csr.num_nodes(), g.num_slots());
    // a feeds x and y -> degree 2; x has fanins a,b and fanout y -> 3.
    EXPECT_EQ(csr.degree(lit_var(a)), 2u);
    EXPECT_EQ(csr.degree(lit_var(b)), 1u);
    EXPECT_EQ(csr.degree(lit_var(x)), 3u);
    EXPECT_EQ(csr.degree(lit_var(y)), 2u);
    EXPECT_EQ(csr.degree(0), 0u);  // constant unused
    // Symmetry: total neighbor entries = 2 * edges = 2 * (2 ANDs * 2).
    EXPECT_EQ(csr.neighbors.size(), 8u);
}

TEST(Csr, TraceFeaturesOnRealDesign) {
    // End-to-end: orchestrate a registry design and embed the trace.
    auto design = bg::circuits::make_benchmark_scaled("b10", 0.5);
    const auto original = design;
    bg::Rng rng(5);
    bg::opt::DecisionVector d(design.num_slots(), OpKind::None);
    for (Var v = 0; v < design.num_slots(); ++v) {
        if (design.is_and(v)) {
            d[v] = bg::opt::op_from_index(static_cast<int>(rng.next_below(3)));
        }
    }
    auto work = design;
    const auto res = bg::opt::orchestrate(work, d);
    const auto dy = compute_dynamic_features(original, res.applied);
    std::size_t applied_count = 0;
    for (const Var v : original.topo_ands()) {
        if (dy[v][1] + dy[v][2] + dy[v][3] > 0.5F) {
            ++applied_count;
        }
    }
    EXPECT_EQ(applied_count, res.num_applied);
}

TEST(StaticFeatures, ConcurrentCallsOnSharedPoolMatchSingleThreaded) {
    // Several jobs compute static features at once on one pool (nesting
    // their per-node loops in it) while other jobs fill the shared rewrite
    // library; every result must equal a plain sequential row loop.
    const std::vector<Aig> designs = {
        bg::circuits::make_benchmark_scaled("b10", 0.3),
        bg::circuits::make_benchmark_scaled("c2670", 0.2),
        bg::test::random_aig(10, 300, 6, 5),
    };
    const bg::opt::OptParams params;
    std::vector<StaticFeatures> want;
    for (const auto& g : designs) {
        StaticFeatures rows(g.num_slots());
        for (Var v = 0; v < g.num_slots(); ++v) {
            compute_static_row(g, v, params, rows[v]);
        }
        want.push_back(std::move(rows));
    }

    bg::ThreadPool pool(4);
    constexpr std::size_t repeats = 3;
    const std::size_t jobs = designs.size() * repeats;
    std::vector<StaticFeatures> got(jobs);
    std::vector<std::uint16_t> probes(jobs);
    pool.for_each(2 * jobs, [&](std::size_t i) {
        if (i < jobs) {
            got[i] = compute_static_features(designs[i % designs.size()],
                                             params, &pool);
        } else {
            const auto f = static_cast<std::uint16_t>(0x9E37U * (i + 1));
            const auto& s = bg::opt::RewriteLibrary::instance().structure_for(f);
            probes[i - jobs] = bg::opt::RewriteLibrary::evaluate(s);
        }
    });
    for (std::size_t i = 0; i < jobs; ++i) {
        EXPECT_EQ(got[i], want[i % designs.size()]) << "job " << i;
        EXPECT_EQ(probes[i], static_cast<std::uint16_t>(0x9E37U * (jobs + i + 1)));
    }
}

}  // namespace
