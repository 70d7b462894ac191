#include "sat/cec_sat.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <limits>
#include <unordered_map>
#include <utility>

#include "aig/simulation.hpp"
#include "util/contracts.hpp"
#include "util/rng.hpp"

namespace bg::sat {

namespace {

/// Words of fixed-seed random patterns the sweep starts from (1,024).
constexpr std::size_t kSweepWords = 16;
constexpr std::uint64_t kSweepSeed = 0x5EED'C0DE'F4A1ULL;
/// Conflicts allowed to each of a candidate pair's two assumption solves.
constexpr std::int64_t kPairConflicts = 100;
/// Refinement words (one per disproved pair) before the sweep stops
/// resimulating and just tries the remaining candidates as they are.
/// Bounds the signatures at 32 words (256 bytes) per node of each graph,
/// the order of the solver's own footprint per node.
constexpr std::size_t kMaxRefineWords = 16;

std::uint64_t mix64(std::uint64_t x) {
    x += 0x9E3779B97F4A7C15ULL;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    return x ^ (x >> 31);
}

/// Simulation signatures of every node of one graph under a growing set
/// of 64-pattern words, with a running hash of the phase-normalized
/// signature (complemented when pattern 0 is 1), so nodes equal up to
/// complement hash equal.
struct Signatures {
    Signatures(const aig::Aig& g, const aig::SimVectors& pi_words)
        : words(aig::simulate(g, pi_words)),
          flip(words.size(), 0),
          hash(words.size(), 0) {
        for (std::size_t v = 0; v < words.size(); ++v) {
            if (!words[v].empty() && (words[v][0] & 1ULL) != 0) {
                flip[v] = ~0ULL;
            }
        }
        rehash(0);
    }

    /// Simulate `pi_words` too and append them to every signature.
    void extend(const aig::Aig& g, const aig::SimVectors& pi_words) {
        const std::size_t from = words[0].size();
        const aig::SimVectors more = aig::simulate(g, pi_words);
        for (std::size_t v = 0; v < words.size(); ++v) {
            words[v].insert(words[v].end(), more[v].begin(), more[v].end());
        }
        rehash(from);
    }

    void rehash(std::size_t from) {
        for (std::size_t v = 0; v < words.size(); ++v) {
            for (std::size_t w = from; w < words[v].size(); ++w) {
                hash[v] = mix64(hash[v] ^ words[v][w] ^ flip[v]);
            }
        }
    }

    aig::SimVectors words;            ///< per var (dead slots empty)
    std::vector<std::uint64_t> flip;  ///< per var: phase mask
    std::vector<std::uint64_t> hash;  ///< per var
};

/// True when node x of `sx` and node y of `sy` simulate equal up to
/// complement on every word.
bool same_signature(const Signatures& sx, aig::Var x, const Signatures& sy,
                    aig::Var y) {
    const auto& wx = sx.words[x];
    const auto& wy = sy.words[y];
    for (std::size_t w = 0; w < wx.size(); ++w) {
        if ((wx[w] ^ sx.flip[x]) != (wy[w] ^ sy.flip[y])) {
            return false;
        }
    }
    return true;
}

/// Normalized-signature hash -> first node of `a` (constant, PIs, then
/// ANDs in topological order) carrying it.
std::unordered_map<std::uint64_t, aig::Var> index_nodes(
    const aig::Aig& a, const std::vector<aig::Var>& ands,
    const Signatures& sa) {
    std::unordered_map<std::uint64_t, aig::Var> index;
    index.reserve(a.num_pis() + ands.size() + 1);
    index.emplace(sa.hash[0], 0);
    for (std::size_t i = 0; i < a.num_pis(); ++i) {
        index.emplace(sa.hash[a.pi(i)], a.pi(i));
    }
    for (const aig::Var v : ands) {
        index.emplace(sa.hash[v], v);
    }
    return index;
}

/// SAT sweeping on the miter in `solver`: prove AND nodes of `b` equal
/// (up to complement) to simulation-equal nodes of `a`, and add x <-> y
/// for every proven pair, so the per-output solves that follow see the
/// two graphs tied together node by node.  A node whose fanins are both
/// merged already, and whose AND of their partners `a` has (strash
/// lookup), is merged without a solve.  Every other candidate gets two
/// assumption solves of at most kPairConflicts conflicts, and the sweep
/// as a whole stops at `conflict_cap` lifetime conflicts.  An unproven
/// pair is simply left unmerged.  Returns early when `stop` says so.
template <typename Stop>
void sweep(Solver& solver, const aig::Aig& a, const aig::Aig& b,
           const MiterEncoding& enc, std::int64_t conflict_cap,
           const Stop& stop, SatCecStats& stats) {
    const std::size_t n = a.num_pis();
    Rng rng(kSweepSeed);
    const aig::SimVectors patterns = aig::random_patterns(n, kSweepWords, rng);
    Signatures sa(a, patterns);
    Signatures sb(b, patterns);
    const std::vector<aig::Var> a_ands = a.topo_ands();
    auto index = index_nodes(a, a_ands, sa);
    aig::SimVectors pi_word(n, std::vector<std::uint64_t>(1));
    std::size_t refine_words = 0;

    // The literal of `a` each merged node of `b` equals; b's constant and
    // PIs are a's by construction of the miter.
    std::vector<aig::Lit> partner(b.num_slots(), aig::null_lit);
    partner[0] = aig::lit_false;
    for (std::size_t i = 0; i < n; ++i) {
        partner[b.pi(i)] = aig::make_lit(a.pi(i));
    }
    const auto merge = [&](aig::Var x, aig::Lit with) {
        const Lit lx = mk_lit(enc.map_b[x]);
        const Lit ly = lit_for(enc.map_a, with);
        (void)solver.add_clause({lit_neg(lx), ly});
        (void)solver.add_clause({lx, lit_neg(ly)});
        partner[x] = with;
        ++stats.pairs_tried;
        ++stats.pairs_proven;
    };

    const auto budget_left = [&] {
        return static_cast<std::int64_t>(solver.num_conflicts()) <
               conflict_cap;
    };
    const auto solve_pair = [&](Lit p, Lit q) {
        const std::int64_t limit = std::min(
            static_cast<std::int64_t>(solver.num_conflicts()) +
                kPairConflicts,
            conflict_cap);
        return solver.solve({p, q}, limit);
    };

    for (const aig::Var x : b.topo_ands()) {
        const auto [f0, f1] = b.fanin_refs(x);
        if (partner[f0.index()] != aig::null_lit &&
            partner[f1.index()] != aig::null_lit) {
            const aig::Lit hit = a.lookup_and(
                aig::lit_not_cond(partner[f0.index()], f0.complemented()),
                aig::lit_not_cond(partner[f1.index()], f1.complemented()));
            if (hit != aig::null_lit && enc.map_a[aig::lit_var(hit)] >= 0) {
                merge(x, hit);  // equal by the Tseitin clauses alone
                continue;
            }
        }
        // One retry: a disproof refines the signatures, which may split
        // x's old partner off and leave a new one.
        for (int attempt = 0; attempt < 2; ++attempt) {
            if (!budget_left()) {
                return;
            }
            const auto it = index.find(sb.hash[x]);
            if (it == index.end() || !same_signature(sb, x, sa, it->second)) {
                break;
            }
            const aig::Lit y =
                aig::make_lit(it->second, sb.flip[x] != sa.flip[it->second]);
            const Lit lx = mk_lit(enc.map_b[x]);
            const Lit ly = lit_for(enc.map_a, y);
            Result r = solve_pair(lx, lit_neg(ly));
            if (r == Result::Unsat) {
                r = solve_pair(lit_neg(lx), ly);
                if (r == Result::Unsat) {
                    merge(x, y);
                    break;
                }
            }
            ++stats.pairs_tried;
            if (r == Result::Unknown) {
                if (solver.memory_limit_hit() || stop()) {
                    return;
                }
                break;  // over the per-pair budget: leave it unmerged
            }
            // Disproved: resimulate with the model and 63 neighbours that
            // each flip one input, to split the remaining candidates.
            if (n == 0 || refine_words >= kMaxRefineWords) {
                break;
            }
            for (std::size_t j = 0; j < n; ++j) {
                pi_word[j][0] =
                    solver.model_value(enc.map_a[a.pi(j)]) ? ~0ULL : 0ULL;
            }
            for (unsigned bit = 1; bit < 64; ++bit) {
                pi_word[rng.next_below(n)][0] ^= 1ULL << bit;
            }
            sa.extend(a, pi_word);
            sb.extend(b, pi_word);
            index = index_nodes(a, a_ands, sa);
            ++refine_words;
        }
    }
}

}  // namespace

aig::CecVerdict resolve_sat_counterexample(const aig::Aig& a,
                                           const aig::Aig& b,
                                           const std::vector<bool>& cex) {
    // A malformed counterexample can only come from a solver bug; treat it
    // like any other spurious model instead of propagating garbage.
    if (cex.size() != a.num_pis() || a.num_pis() != b.num_pis() ||
        a.num_pos() != b.num_pos()) {
        return aig::CecVerdict::ProbablyEquivalent;
    }
    aig::SimVectors pats(a.num_pis());
    for (std::size_t i = 0; i < a.num_pis(); ++i) {
        pats[i].assign(1, cex[i] ? 1ULL : 0ULL);
    }
    const auto pa = aig::po_signatures(a, aig::simulate(a, pats));
    const auto pb = aig::po_signatures(b, aig::simulate(b, pats));
    for (std::size_t i = 0; i < pa.size(); ++i) {
        if ((pa[i][0] & 1ULL) != (pb[i][0] & 1ULL)) {
            return aig::CecVerdict::NotEquivalent;
        }
    }
    return aig::CecVerdict::ProbablyEquivalent;
}

SatCecResult check_equivalence_sat_full(const aig::Aig& a, const aig::Aig& b,
                                        const SatCecOptions& opts) {
    BG_EXPECTS(a.num_pis() == b.num_pis(),
               "SAT CEC requires matching PI counts");
    BG_EXPECTS(a.num_pos() == b.num_pos(),
               "SAT CEC requires matching PO counts");

    SatCecResult res;
    res.stats.outputs_total = a.num_pos();

    Solver solver;
    solver.set_memory_limit(opts.max_memory_bytes);
    using Clock = std::chrono::steady_clock;
    Clock::time_point deadline = Clock::time_point::max();
    if (opts.timeout_seconds > 0.0) {
        deadline = Clock::now() +
                   std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(opts.timeout_seconds));
    }
    const auto stop = [cancel = opts.cancel, deadline]() {
        if (cancel != nullptr && cancel->load(std::memory_order_relaxed)) {
            return true;
        }
        return deadline != Clock::time_point::max() &&
               Clock::now() >= deadline;
    };
    if (opts.cancel != nullptr || opts.timeout_seconds > 0.0) {
        solver.set_interrupt(stop);
    }

    const MiterEncoding enc = encode_miter(solver, a, b);
    if (enc.diff_lits.empty()) {
        // Zero POs: no observable behaviour, trivially equivalent.
        res.verdict = aig::CecVerdict::Equivalent;
        return res;
    }

    // Sweep first, on at most half of the lifetime budget, so the
    // per-output loop below always keeps the other half.
    sweep(solver, a, b, enc,
          opts.conflict_budget < 0 ? std::numeric_limits<std::int64_t>::max()
                                   : opts.conflict_budget / 2,
          stop, res.stats);

    // One solve per output on the same instance.  Learned clauses persist
    // across iterations, and conflict_budget counts lifetime conflicts, so
    // the budget is global across all outputs.
    for (const Lit diff : enc.diff_lits) {
        int retries = 0;
        while (true) {
            const Result r = solver.solve({diff}, opts.conflict_budget);
            res.stats.conflicts = solver.num_conflicts();
            res.stats.memory_bytes = solver.memory_estimate();
            res.stats.memory_limited = solver.memory_limit_hit();
            if (r == Result::Unsat) {
                ++res.stats.outputs_proven;
                break;
            }
            if (r == Result::Unknown) {
                // Budget exhausted (conflicts or memory), cancelled, or
                // timed out.
                res.verdict = aig::CecVerdict::ProbablyEquivalent;
                return res;
            }
            ++res.stats.cex_found;
            std::vector<bool> cex(a.num_pis());
            for (std::size_t j = 0; j < a.num_pis(); ++j) {
                cex[j] = solver.model_value(enc.map_a[a.pi(j)]);
            }
            // Validate against *all* output pairs — also the reuse step:
            // a pattern found for this output refutes through any output
            // it distinguishes, skipping their solves entirely.
            if (resolve_sat_counterexample(a, b, cex) ==
                aig::CecVerdict::NotEquivalent) {
                res.verdict = aig::CecVerdict::NotEquivalent;
                res.counterexample = std::move(cex);
                return res;
            }
            // Spurious: the solver produced a model simulation refutes.
            // Never throw from a verdict path — block the offending input
            // pattern (sound: simulation just proved it non-differing),
            // re-solve a bounded number of times, then degrade honestly.
            ++res.stats.spurious_cex;
            if (retries >= opts.max_spurious_retries) {
                res.verdict = aig::CecVerdict::ProbablyEquivalent;
                return res;
            }
            ++retries;
            std::vector<Lit> block;
            block.reserve(a.num_pis());
            for (std::size_t j = 0; j < a.num_pis(); ++j) {
                block.push_back(mk_lit(enc.map_a[a.pi(j)], cex[j]));
            }
            if (!solver.add_clause(std::move(block))) {
                // Blocking collapsed the instance (e.g. zero PIs); the
                // solver state is no longer trustworthy here.
                res.verdict = aig::CecVerdict::ProbablyEquivalent;
                return res;
            }
        }
    }
    res.verdict = aig::CecVerdict::Equivalent;
    return res;
}

aig::CecVerdict check_equivalence_sat(const aig::Aig& a, const aig::Aig& b,
                                      const SatCecOptions& opts) {
    return check_equivalence_sat_full(a, b, opts).verdict;
}

}  // namespace bg::sat
