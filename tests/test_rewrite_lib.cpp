#include <gtest/gtest.h>

#include <vector>

#include "opt/rewrite_lib.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace {

using bg::opt::RewriteLibrary;

TEST(RewriteLib, ConstantsAndLiterals) {
    RewriteLibrary lib;
    EXPECT_EQ(lib.structure_for(0x0000).num_gates(), 0u);
    EXPECT_EQ(lib.structure_for(0xFFFF).num_gates(), 0u);
    EXPECT_EQ(lib.structure_for(0xAAAA).num_gates(), 0u);  // x0
    EXPECT_EQ(lib.structure_for(0x5555).num_gates(), 0u);  // !x0
    EXPECT_EQ(lib.structure_for(0xFF00).num_gates(), 0u);  // x3
}

TEST(RewriteLib, SimpleGates) {
    RewriteLibrary lib;
    EXPECT_EQ(lib.structure_for(0x8888).num_gates(), 1u);  // x0 & x1
    EXPECT_EQ(lib.structure_for(0xEEEE).num_gates(), 1u);  // x0 | x1
    EXPECT_EQ(lib.structure_for(0x7777).num_gates(), 1u);  // NAND
    EXPECT_EQ(lib.structure_for(0x6666).num_gates(), 3u);  // XOR
}

TEST(RewriteLib, EveryFunctionEvaluatesCorrectly) {
    // The central property: for every 4-variable function the produced
    // structure computes exactly that function.  (Verified internally too;
    // this test also exercises NPN mapping on the full space.)
    RewriteLibrary lib;
    for (std::uint32_t f = 0; f <= 0xFFFF; ++f) {
        const auto& s = lib.structure_for(static_cast<std::uint16_t>(f));
        ASSERT_EQ(RewriteLibrary::evaluate(s), f) << "function " << f;
    }
    EXPECT_EQ(lib.cache_size(), 0x10000u);
    EXPECT_EQ(lib.classes_built(), 222u)
        << "one synthesis per NPN class, no more";
}

TEST(RewriteLib, StructureSizesAreReasonable) {
    // Spot-check known optimal sizes.
    RewriteLibrary lib;
    // MUX x0 ? x1 : x2 -> 3 AND gates.
    // f = x0 x1 + !x0 x2 : minterm eval: 0xCACA.
    EXPECT_LE(lib.structure_for(0xCACA).num_gates(), 3u);
    // MAJ(x0, x1, x2) = 0xE8E8 -> 4 gates in AIG.
    EXPECT_LE(lib.structure_for(0xE8E8).num_gates(), 4u);
    // 3-input XOR = 0x9696 -> <= 8 gates (optimum is 6..8 region).
    EXPECT_LE(lib.structure_for(0x9696).num_gates(), 8u);
    // 4-input AND.
    EXPECT_EQ(lib.structure_for(0x8000).num_gates(), 3u);
    // 4-input OR = !(AND of complements).
    EXPECT_EQ(lib.structure_for(0xFFFE).num_gates(), 3u);
}

TEST(RewriteLib, WorstCaseStaysBounded) {
    RewriteLibrary lib;
    std::size_t worst = 0;
    bg::Rng rng(4);
    for (int i = 0; i < 2000; ++i) {
        const auto f = static_cast<std::uint16_t>(rng.next_below(0x10000));
        worst = std::max(worst, lib.structure_for(f).num_gates());
    }
    // Any 4-var function fits in a handful of gates; a blowup signals a
    // broken decomposition.  (The hardest 4-var functions need ~11 gates
    // optimally; the greedy search may spend a few more.)
    EXPECT_LE(worst, 16u);
}

TEST(RewriteLib, SharedInstanceIsCached) {
    auto& a = RewriteLibrary::instance();
    auto& b = RewriteLibrary::instance();
    EXPECT_EQ(&a, &b);
    (void)a.structure_for(0x1234);
    EXPECT_GE(b.cache_size(), 1u);
}

TEST(RewriteLib, ConcurrentFillMatchesSingleThreaded) {
    // Every pool worker fills the same fresh library in a different order,
    // so threads race on empty slots; each must still see exactly the
    // structure a single-threaded library builds.
    bg::Rng rng(11);
    std::vector<std::uint16_t> funcs(1500);
    for (auto& f : funcs) {
        f = static_cast<std::uint16_t>(rng.next_below(0x10000));
    }
    RewriteLibrary shared;
    bg::ThreadPool pool(4);
    constexpr std::size_t lanes = 8;
    std::vector<std::vector<const RewriteLibrary::Structure*>> seen(lanes);
    pool.for_each(lanes, [&](std::size_t lane) {
        auto& out = seen[lane];
        out.resize(funcs.size());
        for (std::size_t k = 0; k < funcs.size(); ++k) {
            // Lanes walk the list from staggered offsets.
            const std::size_t i = (k + lane * 97) % funcs.size();
            out[i] = &shared.structure_for(funcs[i]);
        }
    });

    RewriteLibrary single;
    for (std::size_t i = 0; i < funcs.size(); ++i) {
        const auto& want = single.structure_for(funcs[i]);
        for (std::size_t lane = 0; lane < lanes; ++lane) {
            const auto* got = seen[lane][i];
            ASSERT_EQ(got, seen[0][i]) << "one published structure per slot";
            ASSERT_EQ(got->out, want.out) << "function " << funcs[i];
            ASSERT_EQ(got->steps.size(), want.steps.size());
            for (std::size_t s = 0; s < want.steps.size(); ++s) {
                ASSERT_EQ(got->steps[s].in0, want.steps[s].in0);
                ASSERT_EQ(got->steps[s].in1, want.steps[s].in1);
            }
        }
    }
    EXPECT_EQ(shared.cache_size(), single.cache_size());
    EXPECT_EQ(shared.classes_built(), single.classes_built());
}

}  // namespace
