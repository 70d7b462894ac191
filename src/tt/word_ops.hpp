#pragma once

/// \file word_ops.hpp
/// Allocation-free kernels over raw truth-table words, in the layout
/// TruthTable stores: minterm m is bit (m & 63) of word (m >> 6), and a
/// function of fewer than 6 variables fills its one word by replication.
/// A function of `nv` variables therefore spans word_count(nv) words and
/// needs no normalization: one word is a 6-variable function that does
/// not depend on the variables it lacks.  ISOP and the copy-free support
/// queries run on these.

#include <cstddef>
#include <cstdint>

namespace bg::tt::words {

using Word = std::uint64_t;

/// var0_mask[i] selects the minterms where variable i is 0 (i < 6).
inline constexpr Word var0_mask[6] = {
    0x5555555555555555ULL, 0x3333333333333333ULL, 0x0F0F0F0F0F0F0F0FULL,
    0x00FF00FF00FF00FFULL, 0x0000FFFF0000FFFFULL, 0x00000000FFFFFFFFULL,
};

/// Words spanned by a function of `nv` variables.
constexpr std::size_t word_count(unsigned nv) {
    return nv <= 6 ? 1 : (std::size_t{1} << (nv - 6));
}

/// True iff the `nw`-word function `w` changes when variable i flips.
inline bool depends_on(const Word* w, std::size_t nw, unsigned i) {
    if (i < 6) {
        const unsigned shift = 1U << i;
        for (std::size_t k = 0; k < nw; ++k) {
            if (((w[k] >> shift) ^ w[k]) & var0_mask[i]) {
                return true;
            }
        }
        return false;
    }
    const std::size_t block = std::size_t{1} << (i - 6);
    for (std::size_t k = 0; k < nw; k += 2 * block) {
        for (std::size_t j = 0; j < block; ++j) {
            if (w[k + j] != w[k + block + j]) {
                return true;
            }
        }
    }
    return false;
}

inline bool all_zero(const Word* w, std::size_t nw) {
    for (std::size_t k = 0; k < nw; ++k) {
        if (w[k] != 0) {
            return false;
        }
    }
    return true;
}

inline bool all_ones(const Word* w, std::size_t nw) {
    for (std::size_t k = 0; k < nw; ++k) {
        if (w[k] != ~Word{0}) {
            return false;
        }
    }
    return true;
}

/// True iff a implies b (a & ~b == 0) over `nw` words.
inline bool implies(const Word* a, const Word* b, std::size_t nw) {
    for (std::size_t k = 0; k < nw; ++k) {
        if ((a[k] & ~b[k]) != 0) {
            return false;
        }
    }
    return true;
}

}  // namespace bg::tt::words
