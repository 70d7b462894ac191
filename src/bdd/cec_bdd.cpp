#include "bdd/cec_bdd.hpp"

#include <chrono>

#include "util/contracts.hpp"

namespace bg::bdd {

std::vector<BddManager::Ref> build_po_bdds(BddManager& mgr,
                                           const aig::Aig& g) {
    BG_EXPECTS(mgr.num_vars() >= g.num_pis(),
               "manager must have one variable per PI");
    std::vector<BddManager::Ref> node_bdd(g.num_slots(),
                                          BddManager::bdd_false);
    for (std::size_t i = 0; i < g.num_pis(); ++i) {
        node_bdd[g.pi(i)] = mgr.var(static_cast<unsigned>(i));
    }
    const auto lit_bdd = [&](aig::Lit l) {
        const auto r = node_bdd[aig::lit_var(l)];
        return aig::lit_is_compl(l) ? mgr.not_(r) : r;
    };
    const auto ref_bdd = [&](aig::NodeRef f) {
        const auto r = node_bdd[f.index()];
        return f.complemented() ? mgr.not_(r) : r;
    };
    for (const aig::Var v : g.topo_ands()) {
        const auto [f0, f1] = g.fanin_refs(v);
        node_bdd[v] = mgr.and_(ref_bdd(f0), ref_bdd(f1));
    }
    std::vector<BddManager::Ref> pos;
    pos.reserve(g.num_pos());
    for (const aig::Lit po : g.pos()) {
        pos.push_back(lit_bdd(po));
    }
    return pos;
}

BddCecResult check_equivalence_bdd_full(const aig::Aig& a, const aig::Aig& b,
                                        const BddCecOptions& opts) {
    BG_EXPECTS(a.num_pis() == b.num_pis(),
               "equivalence check requires matching PI counts");
    BG_EXPECTS(a.num_pos() == b.num_pos(),
               "equivalence check requires matching PO counts");
    using Clock = std::chrono::steady_clock;
    Clock::time_point deadline = Clock::time_point::max();
    if (opts.timeout_seconds > 0.0) {
        deadline = Clock::now() +
                   std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(opts.timeout_seconds));
    }
    const auto stop = [&opts, deadline] {
        if (opts.cancel != nullptr &&
            opts.cancel->load(std::memory_order_relaxed)) {
            return true;
        }
        return opts.timeout_seconds > 0.0 && Clock::now() >= deadline;
    };
    BddCecResult res;
    if (stop()) {
        // Pre-cancelled (e.g. another portfolio engine already won): the
        // interrupt hook fires only every 4096 ITE expansions, so small
        // designs need this upfront check to degrade deterministically.
        return res;
    }
    try {
        BddManager mgr(static_cast<unsigned>(a.num_pis()), opts.node_limit);
        // The hook polls inside ITE calls: one AND on a blown-up diagram
        // can run for seconds, so a per-gate poll would let a losing
        // build run on long after another engine won the race.
        mgr.set_interrupt(stop);
        const auto pa = build_po_bdds(mgr, a);
        const auto pb = build_po_bdds(mgr, b);
        for (std::size_t i = 0; i < pa.size(); ++i) {
            if (pa[i] != pb[i]) {  // canonical forms
                res.verdict = aig::CecVerdict::NotEquivalent;
                try {
                    res.counterexample =
                        mgr.find_satisfying(mgr.xor_(pa[i], pb[i]));
                } catch (const BddOverflow&) {
                    // Witness lost, verdict unaffected.
                } catch (const BddInterrupted&) {
                    // Likewise.
                }
                return res;
            }
        }
        res.verdict = aig::CecVerdict::Equivalent;
        return res;
    } catch (const BddOverflow&) {
        return res;
    } catch (const BddInterrupted&) {
        return res;
    }
}

aig::CecVerdict check_equivalence_bdd(const aig::Aig& a, const aig::Aig& b,
                                      const BddCecOptions& opts) {
    return check_equivalence_bdd_full(a, b, opts).verdict;
}

}  // namespace bg::bdd
