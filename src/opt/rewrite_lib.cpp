#include "opt/rewrite_lib.hpp"

#include <bit>

#include "tt/factor.hpp"
#include "tt/isop.hpp"
#include "tt/npn.hpp"
#include "tt/truth_table.hpp"
#include "util/contracts.hpp"

namespace bg::opt {

using aig::Lit;
using aig::Var;

namespace {

constexpr std::uint16_t proj[4] = {0xAAAA, 0xCCCC, 0xF0F0, 0xFF00};

std::uint16_t cof0(std::uint16_t f, unsigned i) {
    const std::uint16_t lo = f & static_cast<std::uint16_t>(~proj[i]);
    return static_cast<std::uint16_t>(lo | (lo << (1U << i)));
}

std::uint16_t cof1(std::uint16_t f, unsigned i) {
    const std::uint16_t hi = f & proj[i];
    return static_cast<std::uint16_t>(hi | (hi >> (1U << i)));
}

unsigned support_of(std::uint16_t f) {
    unsigned mask = 0;
    for (unsigned i = 0; i < 4; ++i) {
        if (cof0(f, i) != cof1(f, i)) {
            mask |= 1U << i;
        }
    }
    return mask;
}

/// Replay a sub-structure into a builder, returning the mapped output.
Lit emit(const RewriteLibrary::Structure& s, RecipeBuilder& b) {
    std::vector<Lit> map(5 + s.steps.size());
    map[0] = 0;  // const0
    for (std::size_t i = 0; i < 4; ++i) {
        map[1 + i] = Candidate::operand_lit(i);
    }
    const auto resolve = [&](Lit rl) {
        return aig::lit_not_cond(map[aig::lit_var(rl)],
                                 aig::lit_is_compl(rl));
    };
    for (std::size_t i = 0; i < s.steps.size(); ++i) {
        map[5 + i] = b.add_and(resolve(s.steps[i].in0),
                               resolve(s.steps[i].in1));
    }
    return resolve(s.out);
}

/// Convert a factored form over <= 4 variables into a structure.
RewriteLibrary::Structure from_factor_form(const tt::FactorForm& ff,
                                           bool complement_out) {
    RecipeBuilder b(4);
    std::vector<Lit> map(ff.nodes().size(), 0);
    for (std::size_t i = 0; i < ff.nodes().size(); ++i) {
        const auto& n = ff.nodes()[i];
        switch (n.kind) {
            case tt::FactorNode::Kind::Const0:
                map[i] = 0;
                break;
            case tt::FactorNode::Kind::Const1:
                map[i] = 1;
                break;
            case tt::FactorNode::Kind::Lit:
                map[i] = Candidate::operand_lit(n.var, n.negated);
                break;
            case tt::FactorNode::Kind::And:
                map[i] = b.add_and(map[static_cast<std::size_t>(n.left)],
                                   map[static_cast<std::size_t>(n.right)]);
                break;
            case tt::FactorNode::Kind::Or:
                map[i] = b.add_or(map[static_cast<std::size_t>(n.left)],
                                  map[static_cast<std::size_t>(n.right)]);
                break;
        }
    }
    Lit out = ff.root() >= 0 ? map[static_cast<std::size_t>(ff.root())] : 0;
    if (complement_out) {
        out = aig::lit_not(out);
    }
    Candidate c = std::move(b).build({0, 0, 0, 0}, out);
    RewriteLibrary::Structure s;
    s.steps = std::move(c.steps);
    s.out = c.out;
    return s;
}

}  // namespace

std::uint16_t RewriteLibrary::evaluate(const Structure& s) {
    std::vector<std::uint16_t> val(5 + s.steps.size(), 0);
    for (unsigned i = 0; i < 4; ++i) {
        val[1 + i] = proj[i];
    }
    const auto resolve = [&](Lit rl) -> std::uint16_t {
        const std::uint16_t v = val[aig::lit_var(rl)];
        return aig::lit_is_compl(rl) ? static_cast<std::uint16_t>(~v) : v;
    };
    for (std::size_t i = 0; i < s.steps.size(); ++i) {
        val[5 + i] = static_cast<std::uint16_t>(resolve(s.steps[i].in0) &
                                                resolve(s.steps[i].in1));
    }
    return resolve(s.out);
}

RewriteLibrary::RewriteLibrary()
    : slots_(std::make_unique<Slot[]>(num_functions)) {}

RewriteLibrary::~RewriteLibrary() {
    for (std::size_t f = 0; f < num_functions; ++f) {
        delete slots_[f].mapped.load(std::memory_order_relaxed);
        delete slots_[f].decomposed.load(std::memory_order_relaxed);
    }
}

RewriteLibrary& RewriteLibrary::instance() {
    static RewriteLibrary* const lib = new RewriteLibrary();
    return *lib;
}

const RewriteLibrary::Structure& RewriteLibrary::publish(
    std::atomic<const Structure*>& slot, Structure s, bool* won) {
    auto owned = std::make_unique<const Structure>(std::move(s));
    const Structure* held = nullptr;
    const bool first = slot.compare_exchange_strong(
        held, owned.get(), std::memory_order_acq_rel,
        std::memory_order_acquire);
    if (won != nullptr) {
        *won = first;
    }
    return first ? *owned.release() : *held;
}

const RewriteLibrary::Structure& RewriteLibrary::decompose(std::uint16_t f) {
    auto& slot = slots_[f].decomposed;
    if (const Structure* memo = slot.load(std::memory_order_acquire)) {
        return *memo;
    }
    Structure best;
    bool have_best = false;
    const auto consider = [&](Structure s) {
        if (!have_best || s.num_gates() < best.num_gates()) {
            best = std::move(s);
            have_best = true;
        }
    };

    // Constants and single literals.
    if (f == 0x0000 || f == 0xFFFF) {
        Structure s;
        s.out = f == 0x0000 ? 0U : 1U;
        return publish(slot, std::move(s));
    }
    for (unsigned i = 0; i < 4; ++i) {
        if (f == proj[i] ||
            f == static_cast<std::uint16_t>(~proj[i])) {
            Structure s;
            s.out = Candidate::operand_lit(i, f != proj[i]);
            return publish(slot, std::move(s));
        }
    }

    // Shannon-style decompositions on every support variable.
    const unsigned sup = support_of(f);
    for (unsigned i = 0; i < 4; ++i) {
        if (((sup >> i) & 1U) == 0) {
            continue;
        }
        const std::uint16_t f0 = cof0(f, i);
        const std::uint16_t f1 = cof1(f, i);
        RecipeBuilder b(4);
        const Lit x = Candidate::operand_lit(i);
        Lit out = 0;
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
            // f = !x f0 + x !f0 = x XOR f0.
            out = b.add_xor(x, emit(decompose(f0), b));
        } else {
            const Lit m1 = emit(decompose(f1), b);
            const Lit m0 = emit(decompose(f0), b);
            out = b.add_or(b.add_and(x, m1),
                           b.add_and(aig::lit_not(x), m0));
        }
        Candidate c = std::move(b).build({0, 0, 0, 0}, out);
        Structure s;
        s.steps = std::move(c.steps);
        s.out = c.out;
        consider(std::move(s));
    }

    // Factored-ISOP candidates in both phases.
    const auto t = tt::TruthTable::from_u16(f, 4);
    consider(from_factor_form(tt::factor(tt::isop(t)), false));
    consider(from_factor_form(tt::factor(tt::isop(~t)), true));

    BG_ASSERT(have_best, "decomposition must yield at least one structure");
    BG_ASSERT(evaluate(best) == f, "decomposed structure mis-evaluates");
    return publish(slot, std::move(best));
}

const RewriteLibrary::Structure& RewriteLibrary::structure_for(
    std::uint16_t func) {
    auto& slot = slots_[func].mapped;
    if (const Structure* cached = slot.load(std::memory_order_acquire)) {
        return *cached;
    }
    const auto canon = tt::npn_canonize(func);
    const std::uint64_t bit = 1ULL << (canon.canon & 63U);
    if ((class_seen_[canon.canon >> 6].fetch_or(
             bit, std::memory_order_relaxed) &
         bit) == 0) {
        class_count_.fetch_add(1, std::memory_order_relaxed);
    }
    const Structure& canon_struct = decompose(canon.canon);

    // func == npn_apply(canon, inverse(to_canon)); realizing `func` means
    // feeding canon's leaf slot j with x_{it.perm[j]} ^ it.neg_j and
    // complementing the output by it.output_neg.
    const auto inv = tt::npn_invert(canon.to_canon);
    Structure s = canon_struct;
    const auto remap = [&](Lit rl) -> Lit {
        const Var idx = aig::lit_var(rl);
        if (idx >= 1 && idx <= 4) {
            const unsigned slot = idx - 1;
            const unsigned new_slot = inv.perm[slot];
            const bool neg = ((inv.input_neg >> slot) & 1U) != 0;
            return Candidate::operand_lit(new_slot,
                                          aig::lit_is_compl(rl) != neg);
        }
        return rl;
    };
    for (auto& step : s.steps) {
        step.in0 = remap(step.in0);
        step.in1 = remap(step.in1);
        // Keep the in0 <= in1 normalization recipes rely upon for dedup.
        if (step.in0 > step.in1) {
            std::swap(step.in0, step.in1);
        }
    }
    s.out = remap(s.out);
    if (inv.output_neg) {
        s.out = aig::lit_not(s.out);
    }
    BG_ASSERT(evaluate(s) == func,
              "NPN-mapped rewrite structure mis-evaluates");
    bool won = false;
    const Structure& held = publish(slot, std::move(s), &won);
    if (won) {
        mapped_count_.fetch_add(1, std::memory_order_relaxed);
    }
    return held;
}

}  // namespace bg::opt
