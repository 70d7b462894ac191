#include <gtest/gtest.h>

#include "aig/cec.hpp"
#include "bdd/cec_bdd.hpp"
#include "circuits/registry.hpp"
#include "opt/orchestrate.hpp"
#include "opt/standalone.hpp"
#include "sat/cec_sat.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"

namespace {

using namespace bg::bdd;  // NOLINT: test brevity
using bg::aig::Aig;
using bg::aig::CecVerdict;
using Ref = BddManager::Ref;

TEST(Bdd, TerminalsAndVars) {
    BddManager mgr(3);
    EXPECT_EQ(BddManager::bdd_false, 0u);
    EXPECT_EQ(BddManager::bdd_true, 1u);
    const Ref x0 = mgr.var(0);
    EXPECT_EQ(mgr.var(0), x0) << "unique table must canonicalize";
    EXPECT_NE(mgr.var(1), x0);
    EXPECT_THROW((void)mgr.var(3), bg::ContractViolation);
}

TEST(Bdd, BooleanLawsCanonical) {
    BddManager mgr(4);
    const Ref a = mgr.var(0);
    const Ref b = mgr.var(1);
    const Ref c = mgr.var(2);
    EXPECT_EQ(mgr.and_(a, b), mgr.and_(b, a));
    EXPECT_EQ(mgr.or_(a, mgr.and_(a, b)), a);  // absorption
    EXPECT_EQ(mgr.and_(a, mgr.not_(a)), BddManager::bdd_false);
    EXPECT_EQ(mgr.or_(a, mgr.not_(a)), BddManager::bdd_true);
    EXPECT_EQ(mgr.not_(mgr.not_(c)), c);
    EXPECT_EQ(mgr.xor_(a, a), BddManager::bdd_false);
    // De Morgan, canonically.
    EXPECT_EQ(mgr.not_(mgr.and_(a, b)),
              mgr.or_(mgr.not_(a), mgr.not_(b)));
    // Distributivity.
    EXPECT_EQ(mgr.and_(a, mgr.or_(b, c)),
              mgr.or_(mgr.and_(a, b), mgr.and_(a, c)));
}

TEST(Bdd, EvaluateMatchesSemantics) {
    BddManager mgr(3);
    const Ref f = mgr.or_(mgr.and_(mgr.var(0), mgr.var(1)),
                          mgr.not_(mgr.var(2)));
    for (unsigned m = 0; m < 8; ++m) {
        const bool a = m & 1;
        const bool b = (m >> 1) & 1;
        const bool c = (m >> 2) & 1;
        EXPECT_EQ(mgr.evaluate(f, {a, b, c}), (a && b) || !c) << m;
    }
}

TEST(Bdd, MintermCounting) {
    BddManager mgr(4);
    EXPECT_DOUBLE_EQ(mgr.count_minterms(BddManager::bdd_false), 0.0);
    EXPECT_DOUBLE_EQ(mgr.count_minterms(BddManager::bdd_true), 16.0);
    EXPECT_DOUBLE_EQ(mgr.count_minterms(mgr.var(0)), 8.0);
    EXPECT_DOUBLE_EQ(mgr.count_minterms(mgr.var(3)), 8.0);
    EXPECT_DOUBLE_EQ(
        mgr.count_minterms(mgr.and_(mgr.var(0), mgr.var(1))), 4.0);
    // Parity of 4 variables: exactly half the space.
    Ref parity = mgr.var(0);
    for (unsigned i = 1; i < 4; ++i) {
        parity = mgr.xor_(parity, mgr.var(i));
    }
    EXPECT_DOUBLE_EQ(mgr.count_minterms(parity), 8.0);
}

TEST(Bdd, SizeOfCountsReachableNodes) {
    BddManager mgr(8);
    Ref parity = mgr.var(0);
    for (unsigned i = 1; i < 8; ++i) {
        parity = mgr.xor_(parity, mgr.var(i));
    }
    // Parity BDD has 2 internal nodes per level except the last.
    EXPECT_EQ(mgr.size_of(parity), 2u * 8 - 1);
    EXPECT_EQ(mgr.size_of(BddManager::bdd_true), 0u);
}

TEST(Bdd, OverflowThrowsAndCecDegrades) {
    // A tiny node budget must overflow on a multiplier-ish function.
    Aig g;
    const auto pis = g.add_pis(16);
    bg::Rng rng(3);
    std::vector<bg::aig::Lit> pool(pis.begin(), pis.end());
    for (int i = 0; i < 200; ++i) {
        const auto a = bg::aig::lit_not_cond(
            pool[rng.next_below(pool.size())], rng.next_bool());
        const auto b = bg::aig::lit_not_cond(
            pool[rng.next_below(pool.size())], rng.next_bool());
        pool.push_back(g.xor_(a, b));
    }
    g.add_po(pool.back());
    BddCecOptions tiny;
    tiny.node_limit = 64;
    EXPECT_EQ(check_equivalence_bdd(g, g, tiny),
              CecVerdict::ProbablyEquivalent)
        << "overflow must degrade, not crash";
}

TEST(Bdd, InterruptStopsOneLongOperation) {
    // OR of x_i & x_{i+14} under the natural order needs ~2^14 nodes, all
    // built inside one or_ call: the interrupt hook must fire within it.
    BddManager mgr(28);
    std::vector<Ref> terms;
    for (unsigned i = 0; i < 14; ++i) {
        terms.push_back(mgr.and_(mgr.var(i), mgr.var(i + 14)));
    }
    Ref left = BddManager::bdd_false;
    for (unsigned i = 0; i < 7; ++i) {
        left = mgr.or_(left, terms[i]);
    }
    Ref right = BddManager::bdd_false;
    for (unsigned i = 7; i < 14; ++i) {
        right = mgr.or_(right, terms[i]);
    }
    int polls = 0;
    mgr.set_interrupt([&polls] { return ++polls >= 2; });
    EXPECT_THROW((void)mgr.or_(left, right), BddInterrupted);
    EXPECT_EQ(polls, 2);
    // Without the hook the same call completes on the same manager.
    mgr.set_interrupt(nullptr);
    const Ref all = mgr.or_(left, right);
    EXPECT_GT(mgr.size_of(all), 4096u);
}

TEST(Bdd, MemoBoundKeepsNodeIds) {
    // The memo is cleared at node_limit / 4 entries.  With the limit at
    // what the diagrams need, the build passes that bound several times,
    // yet every PO gets the same node id, and the manager the same node
    // count, as under the default limit, where it never clears.
    const Aig g = bg::circuits::make_benchmark_scaled("c2670", 0.2);
    BddManager roomy(static_cast<unsigned>(g.num_pis()));
    const auto want = build_po_bdds(roomy, g);
    ASSERT_GT(roomy.num_nodes(), 4 * (g.num_pis() + 2));
    BddManager tight(static_cast<unsigned>(g.num_pis()), roomy.num_nodes());
    const auto got = build_po_bdds(tight, g);
    EXPECT_EQ(got, want);
    EXPECT_EQ(tight.num_nodes(), roomy.num_nodes());
}

TEST(BddCec, ProvesOptimizationOnWideDesigns) {
    const Aig original = bg::circuits::make_benchmark_scaled("b07", 0.5);
    ASSERT_GT(original.num_pis(), 14u);
    Aig g = original;
    (void)bg::opt::standalone_pass(g, bg::opt::OpKind::Rewrite);
    (void)bg::opt::standalone_pass(g, bg::opt::OpKind::Refactor);
    EXPECT_EQ(check_equivalence_bdd(original, g), CecVerdict::Equivalent);
}

TEST(BddCec, DetectsInequivalence) {
    Aig g;
    {
        const auto a = g.add_pi();
        const auto b = g.add_pi();
        g.add_po(g.and_(a, b));
    }
    Aig h;
    {
        const auto a = h.add_pi();
        const auto b = h.add_pi();
        h.add_po(h.or_(a, b));
    }
    EXPECT_EQ(check_equivalence_bdd(g, h), CecVerdict::NotEquivalent);
}

TEST(BddCec, NeedleInHaystack) {
    // The same needle SAT finds: single differing minterm among 2^20.
    const unsigned n = 20;
    Aig g;
    const auto gp = g.add_pis(n);
    g.add_po(g.and_reduce(gp));
    Aig h;
    (void)h.add_pis(n);
    h.add_po(bg::aig::lit_false);
    EXPECT_EQ(check_equivalence_bdd(g, h), CecVerdict::NotEquivalent);
}

class TripleEngine : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TripleEngine, AllThreeCecEnginesAgree) {
    // Simulation (exhaustive), SAT and BDD must return the same verdict
    // on both equivalent and inequivalent pairs.
    const std::uint64_t seed = GetParam();
    const Aig original = bg::test::redundant_aig(8, 35, 3, seed);
    Aig optimized = original;
    bg::Rng rng(seed * 7 + 1);
    bg::opt::DecisionVector d(optimized.num_slots(), bg::opt::OpKind::None);
    for (bg::aig::Var v = 0; v < optimized.num_slots(); ++v) {
        if (optimized.is_and(v)) {
            d[v] = bg::opt::op_from_index(static_cast<int>(rng.next_below(3)));
        }
    }
    (void)bg::opt::orchestrate(optimized, d);

    EXPECT_EQ(bg::aig::check_equivalence(original, optimized),
              CecVerdict::Equivalent);
    EXPECT_EQ(bg::sat::check_equivalence_sat(original, optimized),
              CecVerdict::Equivalent);
    EXPECT_EQ(check_equivalence_bdd(original, optimized),
              CecVerdict::Equivalent);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TripleEngine,
                         ::testing::Range(std::uint64_t{1},
                                          std::uint64_t{9}));

}  // namespace
