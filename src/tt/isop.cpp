#include "tt/isop.hpp"

#include <algorithm>

#include "tt/word_ops.hpp"
#include "util/contracts.hpp"

namespace bg::tt {

namespace {

using words::Word;
using words::word_count;

/// Minato–Morreale over raw words.  Each level splits on the highest
/// support variable `var` and recurses on cofactors, which are functions
/// of `var` variables: the word count halves per level and the last six
/// levels work on single words.  Intermediate tables live in a per-thread
/// bump arena sized up front, so a call allocates nothing once warm.
class IsopKernel {
public:
    IsopKernel(Word* arena, std::vector<Cube>& cubes)
        : top_(arena), cubes_(cubes) {}

    /// Cover `on` within `ondc` (on implies ondc), both functions of `nv`
    /// variables.  Appends the cubes and writes the cover's table into
    /// `cover` (word_count(nv) words).
    void run(const Word* on, const Word* ondc, unsigned nv, Word* cover) {
        const std::size_t nw = word_count(nv);
        if (words::all_zero(on, nw)) {
            std::fill_n(cover, nw, Word{0});
            return;
        }
        if (words::all_ones(ondc, nw)) {
            std::fill_n(cover, nw, ~Word{0});
            cubes_.push_back(Cube{});  // constant-1 cube
            return;
        }

        // Split on the highest variable in the support of the bounds.
        unsigned var = nv;
        for (unsigned i = nv; i-- > 0;) {
            if (words::depends_on(on, nw, i) ||
                words::depends_on(ondc, nw, i)) {
                var = i;
                break;
            }
        }
        BG_ASSERT(var < nv, "non-constant interval must have support");

        // Cofactors as functions of `var` variables (cw words each).
        const std::size_t cw = word_count(var);
        Word* const frame = top_;
        Word* on0 = take(cw);
        Word* on1 = take(cw);
        Word* dc0 = take(cw);
        Word* dc1 = take(cw);
        Word* sub_on = take(cw);
        Word* sub_dc = take(cw);
        Word* tt0 = take(cw);
        Word* tt1 = take(cw);
        Word* tt2 = take(cw);
        cofactors(on, var, on0, on1);
        cofactors(ondc, var, dc0, dc1);

        // Cubes that must carry the literal !var / var.
        const std::size_t first0 = cubes_.size();
        for (std::size_t k = 0; k < cw; ++k) {
            sub_on[k] = on0[k] & ~dc1[k];
        }
        run(sub_on, dc0, var, tt0);
        const std::size_t first1 = cubes_.size();
        for (std::size_t k = 0; k < cw; ++k) {
            sub_on[k] = on1[k] & ~dc0[k];
        }
        run(sub_on, dc1, var, tt1);
        const std::size_t first2 = cubes_.size();

        // Remaining minterms, coverable without the split variable.
        for (std::size_t k = 0; k < cw; ++k) {
            sub_on[k] = (on0[k] & ~tt0[k]) | (on1[k] & ~tt1[k]);
            sub_dc[k] = dc0[k] & dc1[k];
        }
        run(sub_on, sub_dc, var, tt2);

        for (std::size_t c = first0; c < first1; ++c) {
            cubes_[c].neg |= 1U << var;
        }
        for (std::size_t c = first1; c < first2; ++c) {
            cubes_[c].pos |= 1U << var;
        }

        // The cover over var+1 variables, then replicated to nv.
        const std::size_t pw = word_count(var + 1);
        if (var < 6) {
            const Word m = words::var0_mask[var];
            cover[0] = (m & tt0[0]) | (~m & tt1[0]) | tt2[0];
        } else {
            for (std::size_t k = 0; k < cw; ++k) {
                cover[k] = tt0[k] | tt2[k];
                cover[cw + k] = tt1[k] | tt2[k];
            }
        }
        BG_ASSERT(words::implies(on, cover, pw),
                  "ISOP cover must include the onset");
        BG_ASSERT(words::implies(cover, ondc, pw),
                  "ISOP cover must stay within DC bound");
        for (std::size_t k = pw; k < nw; ++k) {
            cover[k] = cover[k % pw];
        }
        top_ = frame;
    }

    /// Words an arena needs for a call over `nv` variables: the caller's
    /// three inputs plus nine frames along the deepest path, whose word
    /// counts at least halve per level.
    static std::size_t arena_words(unsigned nv) {
        const std::size_t nw = word_count(nv);
        return 3 * nw + 9 * (nw + 8);
    }

private:
    Word* take(std::size_t n) {
        Word* p = top_;
        top_ += n;
        return p;
    }

    /// f|var=0 and f|var=1 for a function `f` that does not depend on any
    /// variable above `var`.
    static void cofactors(const Word* f, unsigned var, Word* f0, Word* f1) {
        if (var < 6) {
            const Word m = words::var0_mask[var];
            const unsigned shift = 1U << var;
            const Word lo = f[0] & m;
            const Word hi = f[0] & ~m;
            f0[0] = lo | (lo << shift);
            f1[0] = hi | (hi >> shift);
            return;
        }
        const std::size_t half = word_count(var);
        std::copy_n(f, half, f0);
        std::copy_n(f + half, half, f1);
    }

    Word* top_;
    std::vector<Cube>& cubes_;
};

/// ISOP of `f` (complemented when `negate`) within don't-cares `dc`
/// (nullptr = none).
Sop isop_words(const TruthTable& f, const TruthTable* dc, bool negate) {
    const unsigned nv = f.num_vars();
    const std::size_t nw = f.num_words();
    thread_local std::vector<Word> arena;
    thread_local std::vector<Cube> cubes;
    const std::size_t need = IsopKernel::arena_words(nv);
    if (arena.size() < need) {
        arena.resize(need);
    }
    cubes.clear();
    Word* on = arena.data();
    Word* ondc = on + nw;
    Word* cover = ondc + nw;
    const Word flip = negate ? ~Word{0} : Word{0};
    for (std::size_t k = 0; k < nw; ++k) {
        on[k] = f.words()[k] ^ flip;
        ondc[k] = dc != nullptr ? on[k] | dc->words()[k] : on[k];
    }
    IsopKernel(cover + nw, cubes).run(on, ondc, nv, cover);
    return Sop(nv, std::vector<Cube>(cubes.begin(), cubes.end()));
}

}  // namespace

Sop isop(const TruthTable& on, const TruthTable& dc) {
    BG_EXPECTS(on.num_vars() == dc.num_vars(), "width mismatch");
    BG_EXPECTS(on.num_vars() <= 32, "ISOP limited to 32 variables");
    bool disjoint = true;
    for (std::size_t k = 0; k < on.num_words(); ++k) {
        disjoint &= (on.words()[k] & dc.words()[k]) == 0;
    }
    BG_EXPECTS(disjoint, "onset and DC-set must be disjoint");
    return isop_words(on, &dc, false);
}

Sop isop(const TruthTable& f) { return isop_words(f, nullptr, false); }

Sop isop_best_phase(const TruthTable& f, bool& complemented) {
    Sop pos = isop_words(f, nullptr, false);
    Sop neg = isop_words(f, nullptr, true);
    // Compare by literal count, then cube count.
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

}  // namespace bg::tt
