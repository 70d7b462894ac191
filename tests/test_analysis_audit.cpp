/// \file test_analysis_audit.cpp
/// The strict integrity checker (Aig::check_integrity): clean on real
/// designs and after an optimization pass, and each corruption kind is
/// flagged at the check level documented for it.

#include <gtest/gtest.h>

#include "aig/aig.hpp"
#include "circuits/registry.hpp"
#include "opt/orchestrate.hpp"
#include "test_helpers.hpp"
#include "util/contracts.hpp"

namespace {

using namespace bg::aig;  // NOLINT: test brevity

TEST(StrictIntegrity, CleanOnRegistryDesigns) {
    for (const auto& name : bg::circuits::benchmark_names()) {
        SCOPED_TRACE(name);
        const Aig g = bg::circuits::make_benchmark_scaled(name, 0.3);
        EXPECT_NO_THROW(g.check_integrity(Aig::CheckLevel::Strict));
    }
}

TEST(StrictIntegrity, CleanAfterOptimizationPass) {
    Aig g = bg::test::redundant_aig(6, 60, 3, 11);
    bg::opt::DecisionVector d(g.num_slots(), bg::opt::OpKind::None);
    for (const Var v : g.topo_ands()) {
        d[v] = bg::opt::op_from_index(static_cast<int>(v % 3));
    }
    bg::opt::orchestrate(g, d);
    EXPECT_NO_THROW(g.check_integrity(Aig::CheckLevel::Strict));
}

TEST(IntegrityCorruption, RefCountBumpCaughtByBasic) {
    Aig g = bg::test::random_aig(4, 20, 2, 7);
    const Var v = lit_var(g.pos()[0]);
    g.corrupt_for_test(Aig::Corrupt::RefCount, v);
    EXPECT_THROW(g.check_integrity(), bg::ContractViolation);
}

TEST(IntegrityCorruption, DuplicatedFanoutCaughtByStrict) {
    Aig g = bg::test::random_aig(4, 20, 2, 7);
    // Pick an AND with at least one fanout edge.
    Var victim = null_var;
    for (const Var v : g.topo_ands()) {
        if (!g.fanouts(v).empty()) {
            victim = v;
            break;
        }
    }
    ASSERT_NE(victim, null_var);
    g.corrupt_for_test(Aig::Corrupt::FanoutDup, victim);
    EXPECT_THROW(g.check_integrity(Aig::CheckLevel::Strict),
                 bg::ContractViolation);
}

TEST(IntegrityCorruption, DroppedStrashEntryCaught) {
    Aig g = bg::test::random_aig(4, 20, 2, 7);
    const Var v = lit_var(g.pos()[0]);
    ASSERT_TRUE(g.is_and(v));
    g.corrupt_for_test(Aig::Corrupt::StrashDrop, v);
    EXPECT_THROW(g.check_integrity(Aig::CheckLevel::Strict),
                 bg::ContractViolation);
}

}  // namespace
