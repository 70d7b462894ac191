#pragma once

/// \file cec_bdd.hpp
/// BDD-based combinational equivalence checking: build both networks'
/// output diagrams over a shared variable order; canonicity makes the
/// comparison exact.  Falls back to ProbablyEquivalent when the diagrams
/// blow past the node limit (the caller can then try SAT).
///
/// One of the three engines raced by bg::verify::PortfolioCec; the
/// `cancel`/`timeout_seconds` options let the portfolio stop a losing
/// BDD build early.

#include <atomic>

#include "aig/cec.hpp"
#include "bdd/bdd.hpp"

namespace bg::bdd {

/// BDD references of every PO of `g` inside `mgr` (PI i = variable i).
std::vector<BddManager::Ref> build_po_bdds(BddManager& mgr,
                                           const aig::Aig& g);

struct BddCecOptions {
    std::size_t node_limit = 2'000'000;
    /// Cooperative cancellation: polled every 4096 ITE expansions while
    /// the diagrams are built; a set flag degrades the verdict to
    /// ProbablyEquivalent.  Must outlive the call.
    const std::atomic<bool>* cancel = nullptr;
    /// Wall-clock budget in seconds (0 = unlimited), checked at the same
    /// points as `cancel`.
    double timeout_seconds = 0.0;
};

struct BddCecResult {
    aig::CecVerdict verdict = aig::CecVerdict::ProbablyEquivalent;
    /// PI assignment witnessing NotEquivalent (one bool per PI, indexed
    /// by PI position); empty otherwise, or when extracting the witness
    /// itself overflowed the node limit (the verdict stands on
    /// canonicity alone).
    std::vector<bool> counterexample;
};

BddCecResult check_equivalence_bdd_full(const aig::Aig& a, const aig::Aig& b,
                                        const BddCecOptions& opts = {});

aig::CecVerdict check_equivalence_bdd(const aig::Aig& a, const aig::Aig& b,
                                      const BddCecOptions& opts = {});

}  // namespace bg::bdd
