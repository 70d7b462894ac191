#pragma once

/// Shared helpers for the optimization-layer tests: constructing AIGs with
/// *semantic* redundancy (structural hashing cannot see it) so rewrite /
/// resub / refactor have something real to find.

#include <string>
#include <vector>

#include "aig/aig.hpp"
#include "util/rng.hpp"

namespace bg::test {

/// Wall-clock deadlines in tests are scaled by this factor under a
/// sanitizer, whose instrumentation slows the code under test (TSan by
/// up to ~10x, more when several instrumented processes share the cores).
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
#define BG_TEST_UNDER_SANITIZER 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
#define BG_TEST_UNDER_SANITIZER 1
#endif
#endif
#if defined(BG_TEST_UNDER_SANITIZER)
inline constexpr double kSanitizerSlowdown = 4.0;
#else
inline constexpr double kSanitizerSlowdown = 1.0;
#endif

/// Job name "<prefix><p>-<j>", built by appending.  GCC 12 at -O3 warns
/// (-Wrestrict, a false positive from inlined char_traits code) on the
/// chained `"p" + std::to_string(p) + "-" + ...` form.
inline std::string job_name(const char* prefix, std::size_t p,
                            std::size_t j) {
    std::string name = prefix;
    name += std::to_string(p);
    name += '-';
    name += std::to_string(j);
    return name;
}

using aig::Aig;
using aig::Lit;
using aig::lit_not;
using aig::lit_not_cond;

/// Random structurally-hashed AIG (little redundancy; baseline graphs).
inline Aig random_aig(unsigned num_pis, int num_nodes, unsigned num_pos,
                      std::uint64_t seed) {
    bg::Rng rng(seed);
    Aig g;
    const auto pis = g.add_pis(num_pis);
    std::vector<Lit> pool(pis.begin(), pis.end());
    for (int k = 0; k < num_nodes; ++k) {
        const Lit u =
            lit_not_cond(pool[rng.next_below(pool.size())], rng.next_bool());
        const Lit v =
            lit_not_cond(pool[rng.next_below(pool.size())], rng.next_bool());
        pool.push_back(g.and_(u, v));
    }
    for (unsigned k = 0; k < num_pos; ++k) {
        g.add_po(lit_not_cond(pool[pool.size() - 1 - k], (k & 1) != 0));
    }
    return g;
}

/// AIG with planted semantic redundancy:
///  * muxes with agreeing branches   (rw/rf food: f = xa + !xa == a)
///  * distributed products            (rf food: ab + ac vs a(b+c))
///  * re-derived signals              (rs food: two cones computing equal
///                                     functions through different shapes)
inline Aig redundant_aig(unsigned num_pis, int rounds, unsigned num_pos,
                         std::uint64_t seed) {
    bg::Rng rng(seed);
    Aig g;
    const auto pis = g.add_pis(num_pis);
    std::vector<Lit> pool(pis.begin(), pis.end());
    const auto pick = [&] {
        return lit_not_cond(pool[rng.next_below(pool.size())],
                            rng.next_bool());
    };
    for (int k = 0; k < rounds; ++k) {
        switch (rng.next_below(4)) {
            case 0: {  // mux with equal data inputs: c?a:a == a
                const Lit c = pick();
                const Lit a = pick();
                pool.push_back(g.or_(g.and_(c, a), g.and_(lit_not(c), a)));
                break;
            }
            case 1: {  // distributed product ab + ac (factorable)
                const Lit a = pick();
                const Lit b = pick();
                const Lit c = pick();
                pool.push_back(g.or_(g.and_(a, b), g.and_(a, c)));
                break;
            }
            case 2: {  // re-derived: (a&b)&c and a&(b&c) (strash-distinct)
                const Lit a = pick();
                const Lit b = pick();
                const Lit c = pick();
                const Lit left = g.and_(g.and_(a, b), c);
                const Lit right = g.and_(a, g.and_(b, c));
                pool.push_back(g.or_(g.and_(left, pick()), right));
                break;
            }
            default: {  // plain node to keep the graph growing
                pool.push_back(g.and_(pick(), pick()));
                break;
            }
        }
    }
    for (unsigned k = 0; k < num_pos && k < pool.size(); ++k) {
        g.add_po(lit_not_cond(pool[pool.size() - 1 - k], (k & 1) != 0));
    }
    return g;
}

}  // namespace bg::test
