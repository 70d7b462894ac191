#pragma once

/// Test-only reference implementations of the exact-evaluation kernels,
/// kept in their original allocation-heavy form: ISOP as a recursion over
/// whole TruthTable values, and the rewrite library as one private memo
/// per instance (three hash maps).  The production kernels must agree with
/// these bit for bit (test_kernel_parity.cpp).

#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "opt/rewrite_lib.hpp"
#include "opt/transform.hpp"
#include "tt/factor.hpp"
#include "tt/npn.hpp"
#include "tt/sop.hpp"
#include "tt/truth_table.hpp"
#include "util/contracts.hpp"

namespace bg::test::reference {

using tt::Cube;
using tt::Sop;
using tt::TruthTable;

/// Minato–Morreale on full-width truth tables.  `on` must imply `on_dc`.
inline Sop isop_rec(const TruthTable& on, const TruthTable& on_dc,
                    TruthTable& cover_tt) {
    const unsigned nv = on.num_vars();
    if (on.is_const0()) {
        cover_tt = TruthTable::zeros(nv);
        return Sop(nv);
    }
    if (on_dc.is_const1()) {
        cover_tt = TruthTable::ones(nv);
        Sop s(nv);
        s.add_cube(Cube{});
        return s;
    }
    const std::uint32_t sup = on.support_mask() | on_dc.support_mask();
    BG_ASSERT(sup != 0, "non-constant interval must have support");
    const unsigned var = 31 - static_cast<unsigned>(__builtin_clz(sup));

    const TruthTable on0 = on.cofactor0(var);
    const TruthTable on1 = on.cofactor1(var);
    const TruthTable dc0 = on_dc.cofactor0(var);
    const TruthTable dc1 = on_dc.cofactor1(var);

    TruthTable tt0(nv);
    TruthTable tt1(nv);
    Sop c0 = isop_rec(on0 & ~dc1, dc0, tt0);
    Sop c1 = isop_rec(on1 & ~dc0, dc1, tt1);
    const TruthTable on_new = (on0 & ~tt0) | (on1 & ~tt1);
    TruthTable tt2(nv);
    Sop c2 = isop_rec(on_new, dc0 & dc1, tt2);

    Sop result(nv);
    for (auto cube : c0.cubes()) {
        cube.neg |= 1U << var;
        result.add_cube(cube);
    }
    for (auto cube : c1.cubes()) {
        cube.pos |= 1U << var;
        result.add_cube(cube);
    }
    for (const auto& cube : c2.cubes()) {
        result.add_cube(cube);
    }
    const TruthTable xv = TruthTable::nth_var(nv, var);
    cover_tt = (~xv & tt0) | (xv & tt1) | tt2;
    return result;
}

inline Sop isop(const TruthTable& on, const TruthTable& dc) {
    TruthTable cover_tt(on.num_vars());
    return isop_rec(on, on | dc, cover_tt);
}

inline Sop isop(const TruthTable& f) {
    return reference::isop(f, TruthTable::zeros(f.num_vars()));
}

inline Sop isop_best_phase(const TruthTable& f, bool& complemented) {
    Sop pos = reference::isop(f);
    Sop neg = reference::isop(~f);
    const auto cost = [](const Sop& s) {
        return std::make_pair(s.num_literals(), s.num_cubes());
    };
    if (cost(neg) < cost(pos)) {
        complemented = true;
        return neg;
    }
    complemented = false;
    return pos;
}

/// The rewrite library as one unsynchronized instance with hash-map memos.
class RewriteLibrary {
public:
    using Structure = opt::RewriteLibrary::Structure;

    const Structure& structure_for(std::uint16_t func) {
        if (const auto it = cache_.find(func); it != cache_.end()) {
            return it->second;
        }
        const auto canon = tt::npn_canonize(func);
        auto cit = canon_cache_.find(canon.canon);
        if (cit == canon_cache_.end()) {
            cit = canon_cache_.emplace(canon.canon, decompose(canon.canon))
                      .first;
        }
        const auto inv = tt::npn_invert(canon.to_canon);
        Structure s = cit->second;
        const auto remap = [&](aig::Lit rl) -> aig::Lit {
            const aig::Var idx = aig::lit_var(rl);
            if (idx >= 1 && idx <= 4) {
                const unsigned slot = idx - 1;
                const bool neg = ((inv.input_neg >> slot) & 1U) != 0;
                return opt::Candidate::operand_lit(
                    inv.perm[slot], aig::lit_is_compl(rl) != neg);
            }
            return rl;
        };
        for (auto& step : s.steps) {
            step.in0 = remap(step.in0);
            step.in1 = remap(step.in1);
            if (step.in0 > step.in1) {
                std::swap(step.in0, step.in1);
            }
        }
        s.out = remap(s.out);
        if (inv.output_neg) {
            s.out = aig::lit_not(s.out);
        }
        return cache_.emplace(func, std::move(s)).first->second;
    }

private:
    static constexpr std::uint16_t proj[4] = {0xAAAA, 0xCCCC, 0xF0F0,
                                              0xFF00};

    static std::uint16_t cof0(std::uint16_t f, unsigned i) {
        const auto lo = static_cast<std::uint16_t>(f & ~proj[i]);
        return static_cast<std::uint16_t>(lo | (lo << (1U << i)));
    }
    static std::uint16_t cof1(std::uint16_t f, unsigned i) {
        const auto hi = static_cast<std::uint16_t>(f & proj[i]);
        return static_cast<std::uint16_t>(hi | (hi >> (1U << i)));
    }

    static aig::Lit emit(const Structure& s, opt::RecipeBuilder& b) {
        std::vector<aig::Lit> map(5 + s.steps.size());
        map[0] = 0;
        for (std::size_t i = 0; i < 4; ++i) {
            map[1 + i] = opt::Candidate::operand_lit(i);
        }
        const auto resolve = [&](aig::Lit rl) {
            return aig::lit_not_cond(map[aig::lit_var(rl)],
                                     aig::lit_is_compl(rl));
        };
        for (std::size_t i = 0; i < s.steps.size(); ++i) {
            map[5 + i] = b.add_and(resolve(s.steps[i].in0),
                                   resolve(s.steps[i].in1));
        }
        return resolve(s.out);
    }

    static Structure from_factor_form(const tt::FactorForm& ff,
                                      bool complement_out) {
        opt::RecipeBuilder b(4);
        std::vector<aig::Lit> map(ff.nodes().size(), 0);
        for (std::size_t i = 0; i < ff.nodes().size(); ++i) {
            const auto& n = ff.nodes()[i];
            const auto l = static_cast<std::size_t>(n.left);
            const auto r = static_cast<std::size_t>(n.right);
            switch (n.kind) {
                case tt::FactorNode::Kind::Const0:
                    map[i] = 0;
                    break;
                case tt::FactorNode::Kind::Const1:
                    map[i] = 1;
                    break;
                case tt::FactorNode::Kind::Lit:
                    map[i] = opt::Candidate::operand_lit(n.var, n.negated);
                    break;
                case tt::FactorNode::Kind::And:
                    map[i] = b.add_and(map[l], map[r]);
                    break;
                case tt::FactorNode::Kind::Or:
                    map[i] = b.add_or(map[l], map[r]);
                    break;
            }
        }
        aig::Lit out =
            ff.root() >= 0 ? map[static_cast<std::size_t>(ff.root())] : 0;
        if (complement_out) {
            out = aig::lit_not(out);
        }
        opt::Candidate c = std::move(b).build({0, 0, 0, 0}, out);
        Structure s;
        s.steps = std::move(c.steps);
        s.out = c.out;
        return s;
    }

    Structure decompose(std::uint16_t f) {
        if (const auto it = decomp_cache_.find(f); it != decomp_cache_.end()) {
            return it->second;
        }
        Structure best;
        bool have_best = false;
        const auto consider = [&](Structure s) {
            if (!have_best || s.num_gates() < best.num_gates()) {
                best = std::move(s);
                have_best = true;
            }
        };
        if (f == 0x0000 || f == 0xFFFF) {
            Structure s;
            s.out = f == 0x0000 ? 0U : 1U;
            decomp_cache_.emplace(f, s);
            return s;
        }
        for (unsigned i = 0; i < 4; ++i) {
            if (f == proj[i] || f == static_cast<std::uint16_t>(~proj[i])) {
                Structure s;
                s.out = opt::Candidate::operand_lit(i, f != proj[i]);
                decomp_cache_.emplace(f, s);
                return s;
            }
        }
        for (unsigned i = 0; i < 4; ++i) {
            const std::uint16_t f0 = cof0(f, i);
            const std::uint16_t f1 = cof1(f, i);
            if (f0 == f1) {
                continue;  // not in the support
            }
            opt::RecipeBuilder b(4);
            const aig::Lit x = opt::Candidate::operand_lit(i);
            aig::Lit out = 0;
            if (f0 == 0x0000) {
                out = b.add_and(x, emit(decompose(f1), b));
            } else if (f1 == 0x0000) {
                out = b.add_and(aig::lit_not(x), emit(decompose(f0), b));
            } else if (f0 == 0xFFFF) {
                out = aig::lit_not(
                    b.add_and(x, aig::lit_not(emit(decompose(f1), b))));
            } else if (f1 == 0xFFFF) {
                out = aig::lit_not(b.add_and(
                    aig::lit_not(x), aig::lit_not(emit(decompose(f0), b))));
            } else if (f0 == static_cast<std::uint16_t>(~f1)) {
                out = b.add_xor(x, emit(decompose(f0), b));
            } else {
                const aig::Lit m1 = emit(decompose(f1), b);
                const aig::Lit m0 = emit(decompose(f0), b);
                out = b.add_or(b.add_and(x, m1),
                               b.add_and(aig::lit_not(x), m0));
            }
            opt::Candidate c = std::move(b).build({0, 0, 0, 0}, out);
            Structure s;
            s.steps = std::move(c.steps);
            s.out = c.out;
            consider(std::move(s));
        }
        const auto t = TruthTable::from_u16(f, 4);
        consider(from_factor_form(tt::factor(reference::isop(t)), false));
        consider(from_factor_form(tt::factor(reference::isop(~t)), true));
        decomp_cache_.emplace(f, best);
        return best;
    }

    std::unordered_map<std::uint16_t, Structure> cache_;
    std::unordered_map<std::uint16_t, Structure> canon_cache_;
    std::unordered_map<std::uint16_t, Structure> decomp_cache_;
};

}  // namespace bg::test::reference
