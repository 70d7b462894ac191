#include "oracle.hpp"

#include <vector>

#include "util.hpp"

namespace perfbench {

using bg::aig::Aig;
using bg::aig::Lit;
using bg::aig::Var;

namespace {

/// AND nodes in the transitive fanin of the outputs, fanins first.
std::vector<Var> reachable_ands_in_order(const Aig& g) {
    std::vector<Var> order;
    std::vector<std::uint8_t> state(g.num_slots(), 0);  // 1 open, 2 done
    std::vector<Var> stack;
    for (const Lit po : g.pos()) {
        const Var root = bg::aig::lit_var(po);
        if (!g.is_and(root) || state[root] != 0) {
            continue;
        }
        stack.push_back(root);
        while (!stack.empty()) {
            const Var v = stack.back();
            if (state[v] == 0) {
                state[v] = 1;
                for (const Lit f : {g.fanin0(v), g.fanin1(v)}) {
                    const Var u = bg::aig::lit_var(f);
                    if (g.is_and(u) && state[u] == 0) {
                        stack.push_back(u);
                    }
                }
                continue;
            }
            stack.pop_back();
            if (state[v] == 1) {
                state[v] = 2;
                order.push_back(v);
            }
        }
    }
    return order;
}

/// Simulate `g` on the given PI words; returns one word block per PO.
std::vector<std::uint64_t> simulate(const Aig& g,
                                    const std::vector<std::uint64_t>& pis,
                                    std::size_t words) {
    std::vector<std::uint64_t> val(g.num_slots() * words, 0);
    for (std::size_t i = 0; i < g.num_pis(); ++i) {
        const Var v = g.pi(i);
        std::copy_n(pis.begin() + static_cast<std::ptrdiff_t>(i * words),
                    words, val.begin() + static_cast<std::ptrdiff_t>(v * words));
    }
    const auto word = [&](Lit l, std::size_t w) {
        const std::uint64_t x = val[bg::aig::lit_var(l) * words + w];
        return bg::aig::lit_is_compl(l) ? ~x : x;
    };
    for (const Var v : reachable_ands_in_order(g)) {
        const Lit f0 = g.fanin0(v);
        const Lit f1 = g.fanin1(v);
        for (std::size_t w = 0; w < words; ++w) {
            val[v * words + w] = word(f0, w) & word(f1, w);
        }
    }
    std::vector<std::uint64_t> out(g.num_pos() * words);
    for (std::size_t o = 0; o < g.num_pos(); ++o) {
        for (std::size_t w = 0; w < words; ++w) {
            out[o * words + w] = word(g.po(o), w);
        }
    }
    return out;
}

}  // namespace

OracleVerdict simulate_equal(const Aig& a, const Aig& b, std::uint64_t seed,
                             std::size_t words) {
    if (a.num_pis() != b.num_pis() || a.num_pos() != b.num_pos()) {
        return {false, "interface mismatch: " + std::to_string(a.num_pis()) +
                           "/" + std::to_string(a.num_pos()) + " vs " +
                           std::to_string(b.num_pis()) + "/" +
                           std::to_string(b.num_pos()) + " PIs/POs"};
    }
    SplitMix rng(seed);
    std::vector<std::uint64_t> pis(a.num_pis() * words);
    for (auto& w : pis) {
        w = rng.next();
    }
    const auto sa = simulate(a, pis, words);
    const auto sb = simulate(b, pis, words);
    for (std::size_t i = 0; i < sa.size(); ++i) {
        if (sa[i] != sb[i]) {
            return {false, "output " + std::to_string(i / words) +
                               " differs on a random pattern"};
        }
    }
    return {true, {}};
}

}  // namespace perfbench
