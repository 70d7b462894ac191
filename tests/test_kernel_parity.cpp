#include <gtest/gtest.h>

#include "circuits/registry.hpp"
#include "cut/cut_enum.hpp"
#include "opt/rewrite_lib.hpp"
#include "reference_kernels.hpp"
#include "tt/isop.hpp"
#include "util/rng.hpp"

/// Differential tests: the word-level ISOP and the shared rewrite library
/// must reproduce the reference kernels (tests/reference_kernels.hpp)
/// exactly — same cubes in the same order, same phase, same structures.

namespace {

// The reference kernels run one to two orders of magnitude slower under
// sanitizers, so sanitizer builds compare every `stride`-th case; normal
// builds compare every case.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr std::size_t stride = 16;
#else
constexpr std::size_t stride = 1;
#endif

using bg::tt::Sop;
using bg::tt::TruthTable;
namespace ref = bg::test::reference;

TruthTable random_tt(unsigned nv, bg::Rng& rng) {
    TruthTable f(nv);
    if (nv < 6) {
        for (std::uint64_t m = 0; m < f.num_bits(); ++m) {
            f.set_bit(m, rng.next_bool());  // keeps the word replicated
        }
        return f;
    }
    for (auto& w : f.words()) {
        w = rng.next_u64();
    }
    return f;
}

::testing::AssertionResult same_cubes(const Sop& got, const Sop& want) {
    if (got.num_vars() != want.num_vars()) {
        return ::testing::AssertionFailure() << "width differs";
    }
    if (got.cubes() != want.cubes()) {
        return ::testing::AssertionFailure()
               << "got " << got.to_string() << ", want " << want.to_string();
    }
    return ::testing::AssertionSuccess();
}

TEST(KernelParity, IsopMatchesReferenceOnRandomFunctions) {
    bg::Rng rng(2024);
    for (unsigned nv = 0; nv <= 14; ++nv) {
        const std::size_t trials = nv <= 8 ? 40 : (nv <= 11 ? 8 : 2);
        for (std::size_t t = 0; t < trials; ++t) {
            const TruthTable f = random_tt(nv, rng);
            // Sparse don't-cares: about a quarter of the offset.
            const TruthTable dc =
                ~f & random_tt(nv, rng) & random_tt(nv, rng);
            if (t % stride != 0 && nv > 8) {
                continue;
            }
            ASSERT_TRUE(same_cubes(bg::tt::isop(f), ref::isop(f)))
                << nv << " vars, trial " << t;
            ASSERT_TRUE(same_cubes(bg::tt::isop(f, dc), ref::isop(f, dc)))
                << nv << " vars with don't-cares, trial " << t;
            bool got_phase = false;
            bool want_phase = false;
            const Sop got = bg::tt::isop_best_phase(f, got_phase);
            const Sop want = ref::isop_best_phase(f, want_phase);
            ASSERT_EQ(got_phase, want_phase) << nv << " vars, trial " << t;
            ASSERT_TRUE(same_cubes(got, want)) << nv << " vars, trial " << t;
        }
    }
}

TEST(KernelParity, IsopMatchesReferenceOnConstantsAndProjections) {
    for (unsigned nv = 0; nv <= 8; ++nv) {
        for (const auto& f : {TruthTable::zeros(nv), TruthTable::ones(nv)}) {
            ASSERT_TRUE(same_cubes(bg::tt::isop(f), ref::isop(f))) << nv;
        }
        for (unsigned i = 0; i < nv; ++i) {
            const auto x = TruthTable::nth_var(nv, i);
            ASSERT_TRUE(same_cubes(bg::tt::isop(x), ref::isop(x))) << nv;
            ASSERT_TRUE(same_cubes(bg::tt::isop(~x), ref::isop(~x))) << nv;
        }
    }
}

TEST(KernelParity, IsopMatchesReferenceOnRegistryCones) {
    // Every AND of every full-scale registry design, collapsed over its
    // reconvergence-driven cut at the leaf caps refactoring uses.
    std::size_t cones = 0;
    for (const auto& name : bg::circuits::benchmark_names()) {
        const auto g = bg::circuits::make_benchmark(name);
        for (const unsigned leaves : {4U, 8U, 10U, 14U}) {
            for (bg::aig::Var v = 0; v < g.num_slots(); ++v) {
                if (!g.is_and(v) || v % stride != 0) {
                    continue;
                }
                const auto cut = bg::cut::reconv_cut(g, v, leaves);
                if (cut.size() < 2) {
                    continue;
                }
                const auto f = bg::cut::cone_function(g, v, cut);
                ++cones;
                bool got_phase = false;
                bool want_phase = false;
                const Sop got = bg::tt::isop_best_phase(f, got_phase);
                const Sop want = ref::isop_best_phase(f, want_phase);
                ASSERT_EQ(got_phase, want_phase)
                    << name << " var " << v << " at " << leaves;
                ASSERT_TRUE(same_cubes(got, want))
                    << name << " var " << v << " at " << leaves;
            }
        }
    }
    EXPECT_GT(cones * stride, 4u * 5000u);
}

TEST(KernelParity, SharedLibraryMatchesPerInstanceReference) {
    ref::RewriteLibrary want_lib;
    auto& got_lib = bg::opt::RewriteLibrary::instance();
    for (std::uint32_t f = 0; f <= 0xFFFF; f += stride) {
        const auto func = static_cast<std::uint16_t>(f);
        const auto& got = got_lib.structure_for(func);
        const auto& want = want_lib.structure_for(func);
        ASSERT_EQ(got.out, want.out) << "function " << f;
        ASSERT_EQ(got.steps.size(), want.steps.size()) << "function " << f;
        for (std::size_t i = 0; i < got.steps.size(); ++i) {
            ASSERT_EQ(got.steps[i].in0, want.steps[i].in0)
                << "function " << f << " step " << i;
            ASSERT_EQ(got.steps[i].in1, want.steps[i].in1)
                << "function " << f << " step " << i;
        }
    }
    EXPECT_GE(got_lib.cache_size(), 0x10000u / stride);
}

}  // namespace
