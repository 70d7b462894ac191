/// \file test_sat_sweep.cpp
/// Differential tests of the swept SAT equivalence check
/// (sat::check_equivalence_sat_full).  Seeded generated circuits are
/// optimized by opt::orchestrate under random decision vectors, then
/// mutated by one gate flip, by one PO flip, and by a "needle" on each PO
/// (an output that differs on a single rare assignment, which random
/// simulation misses, so only a proof separates it from its original
/// and an unsound merge shows as a wrong verdict).  Every verdict must equal
/// an independent reference: exhaustive simulation up to 14 PIs, and past
/// that a one-shot miter (OR of all output XORs, solved once on a fresh
/// solver without sweeping).  Every counterexample must distinguish the
/// pair in simulation.  On registry designs refined for several rounds
/// the sweep must actually merge nodes, so it cannot silently become a
/// no-op.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "aig/cec.hpp"
#include "aig/simulation.hpp"
#include "circuits/generators.hpp"
#include "circuits/registry.hpp"
#include "opt/orchestrate.hpp"
#include "sat/cec_sat.hpp"
#include "sat/cnf.hpp"
#include "util/rng.hpp"

namespace {

using namespace bg::aig;  // NOLINT: test brevity
using bg::opt::OpKind;

/// Reference prover: assert "some output pair differs" on the plain
/// miter and solve once.  Unsat == equivalent.
struct MiterResult {
    bg::sat::Result result = bg::sat::Result::Unknown;
    std::vector<bool> counterexample;
};

MiterResult prove_equivalence(const Aig& a, const Aig& b) {
    bg::sat::Solver solver;
    const auto enc = bg::sat::encode_miter(solver, a, b);
    if (!solver.add_clause(enc.diff_lits)) {
        return {bg::sat::Result::Unsat, {}};  // e.g. zero POs
    }
    MiterResult out;
    out.result = solver.solve();
    if (out.result == bg::sat::Result::Sat) {
        out.counterexample.resize(a.num_pis());
        for (std::size_t i = 0; i < a.num_pis(); ++i) {
            out.counterexample[i] = solver.model_value(enc.map_a[a.pi(i)]);
        }
    }
    return out;
}

/// Simulate one PI assignment on both designs; true iff some PO differs.
bool cex_distinguishes(const Aig& a, const Aig& b,
                       const std::vector<bool>& cex) {
    if (cex.size() != a.num_pis()) {
        return false;
    }
    SimVectors pats(a.num_pis());
    for (std::size_t i = 0; i < a.num_pis(); ++i) {
        pats[i].assign(1, cex[i] ? 1ULL : 0ULL);
    }
    const auto pa = po_signatures(a, simulate(a, pats));
    const auto pb = po_signatures(b, simulate(b, pats));
    for (std::size_t i = 0; i < pa.size(); ++i) {
        if ((pa[i][0] & 1ULL) != (pb[i][0] & 1ULL)) {
            return true;
        }
    }
    return false;
}

/// Copy of `source` (compacted) with the output of its `flip_and`-th AND
/// complemented wherever it is used, PO `flip_po` complemented, and PO
/// `needle_po` forced to 0 on the one assignment where its first (up to
/// 16) PIs are all 1 (pass a value past the end to leave any alone).
/// The needle differs from the original output so rarely that random
/// simulation keeps the pair as a sweep candidate, and only a proof can
/// tell them apart.
Aig mutate(const Aig& source, std::size_t flip_and, std::size_t flip_po,
           std::size_t needle_po = SIZE_MAX) {
    const Aig src = source.compact();
    Aig out;
    std::vector<Lit> translate(src.num_slots(), lit_false);
    for (std::size_t i = 0; i < src.num_pis(); ++i) {
        translate[src.pi(i)] = out.add_pi();
    }
    const auto ands = src.topo_ands();
    for (std::size_t k = 0; k < ands.size(); ++k) {
        const Var v = ands[k];
        const Lit f0 = src.fanin0(v);
        const Lit f1 = src.fanin1(v);
        const Lit t =
            out.and_(lit_not_cond(translate[lit_var(f0)], lit_is_compl(f0)),
                     lit_not_cond(translate[lit_var(f1)], lit_is_compl(f1)));
        translate[v] = k == flip_and ? lit_not(t) : t;
    }
    Lit needle = lit_true;
    for (std::size_t i = 0; i < std::min<std::size_t>(src.num_pis(), 16);
         ++i) {
        needle = out.and_(needle, translate[src.pi(i)]);
    }
    for (std::size_t i = 0; i < src.num_pos(); ++i) {
        Lit po = lit_not_cond(translate[lit_var(src.po(i))],
                              lit_is_compl(src.po(i)));
        if (i == needle_po) {
            po = out.and_(po, lit_not(needle));
        }
        out.add_po(i == flip_po ? lit_not(po) : po);
    }
    return out;
}

/// `rounds` passes of orchestrate under random decision vectors, with a
/// compaction after each.
Aig optimize(const Aig& design, int rounds, bg::Rng& rng) {
    Aig g = design;
    for (int r = 0; r < rounds; ++r) {
        std::vector<OpKind> decisions(g.num_slots());
        for (auto& d : decisions) {
            d = static_cast<OpKind>(rng.next_below(4));
        }
        (void)bg::opt::orchestrate(g, decisions);
        g = g.compact();
    }
    return g;
}

/// The reference verdict: exhaustive simulation when it is exact, else
/// the one-shot miter.
CecVerdict reference_verdict(const Aig& a, const Aig& b) {
    if (a.num_pis() <= 14) {
        return check_equivalence(a, b);  // exhaustive: exact
    }
    const MiterResult r = prove_equivalence(a, b);
    EXPECT_NE(r.result, bg::sat::Result::Unknown);
    if (r.result == bg::sat::Result::Sat) {
        EXPECT_TRUE(cex_distinguishes(a, b, r.counterexample))
            << "reference counterexample must be real";
        return CecVerdict::NotEquivalent;
    }
    return CecVerdict::Equivalent;
}

void expect_agrees(const Aig& a, const Aig& b, const char* what,
                   std::uint64_t seed) {
    const auto res = bg::sat::check_equivalence_sat_full(a, b);
    EXPECT_EQ(res.verdict, reference_verdict(a, b))
        << what << ", seed " << seed;
    if (res.verdict == CecVerdict::NotEquivalent) {
        EXPECT_TRUE(cex_distinguishes(a, b, res.counterexample))
            << what << ", seed " << seed;
    } else {
        EXPECT_TRUE(res.counterexample.empty()) << what << ", seed " << seed;
    }
    EXPECT_EQ(res.stats.spurious_cex, 0u) << what << ", seed " << seed;
    EXPECT_LE(res.stats.pairs_proven, res.stats.pairs_tried);
}

void run_differential(unsigned num_pis, std::size_t target_ands,
                      std::uint64_t first_seed, std::uint64_t last_seed) {
    for (std::uint64_t seed = first_seed; seed <= last_seed; ++seed) {
        bg::circuits::GeneratorParams p;
        p.num_pis = num_pis;
        p.target_ands = target_ands;
        p.max_pos = 8;
        p.family = seed % 2 == 0 ? bg::circuits::Family::Control
                                 : bg::circuits::Family::Arithmetic;
        p.seed = seed;
        const Aig design = bg::circuits::generate_circuit(p);
        bg::Rng rng(seed * 7919);
        const Aig optimized = optimize(design, 2, rng);
        ASSERT_GT(optimized.num_ands(), 0u) << "seed " << seed;

        expect_agrees(design, optimized, "optimized", seed);
        const std::size_t gate = rng.next_below(optimized.num_ands());
        expect_agrees(design, mutate(optimized, gate, SIZE_MAX),
                      "gate flip", seed);
        const std::size_t po = rng.next_below(optimized.num_pos());
        const Aig po_flipped = mutate(optimized, SIZE_MAX, po);
        expect_agrees(design, po_flipped, "PO flip", seed);
        EXPECT_EQ(bg::sat::check_equivalence_sat(design, po_flipped),
                  CecVerdict::NotEquivalent)
            << "a flipped output is never equivalent, seed " << seed;
        for (std::size_t i = 0; i < optimized.num_pos(); ++i) {
            expect_agrees(design, mutate(optimized, SIZE_MAX, SIZE_MAX, i),
                          "needle", seed);
        }
    }
}

TEST(SatSweep, MatchesExhaustiveSimulationOnSmallCircuits) {
    run_differential(12, 160, 1, 12);
    run_differential(14, 260, 13, 20);
}

TEST(SatSweep, MatchesOneShotMiterOnWideCircuits) {
    run_differential(24, 300, 101, 106);
    run_differential(32, 400, 107, 108);
}

TEST(SatSweep, MergesNodesOnRefinedRegistryDesigns) {
    // The refine shape: several rounds of committed rewrites.  Most of
    // the result's nodes have an equal in the input, so the sweep must
    // merge some and the verdict must be a proof.
    for (const char* name : {"b09", "b11", "c2670"}) {
        const Aig design = bg::circuits::make_benchmark_scaled(name, 0.5);
        bg::Rng rng(17);
        const Aig refined = optimize(design, 4, rng);
        const auto res = bg::sat::check_equivalence_sat_full(design, refined);
        EXPECT_EQ(res.verdict, CecVerdict::Equivalent) << name;
        EXPECT_GT(res.stats.pairs_proven, 0u) << name;
        EXPECT_LE(res.stats.pairs_proven, res.stats.pairs_tried) << name;
        EXPECT_EQ(res.stats.outputs_proven, design.num_pos()) << name;
    }
}

TEST(SatSweep, ReferenceMiterAgreesOnTrivialPairs) {
    // The test-local reference itself: zero POs, and a pair it must
    // refute with a real counterexample.
    Aig a;
    a.add_pis(3);
    Aig b;
    b.add_pis(3);
    EXPECT_EQ(prove_equivalence(a, b).result, bg::sat::Result::Unsat);

    Aig g;
    {
        const Lit x = g.add_pi();
        const Lit y = g.add_pi();
        g.add_po(g.and_(x, y));
    }
    Aig h;
    {
        h.add_pis(2);
        h.add_po(lit_false);
    }
    const MiterResult r = prove_equivalence(g, h);
    ASSERT_EQ(r.result, bg::sat::Result::Sat);
    EXPECT_EQ(r.counterexample, (std::vector<bool>{true, true}));
}

}  // namespace
