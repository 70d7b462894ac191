#pragma once

/// \file rewrite_lib.hpp
/// Pre-computed replacement structures for 4-input cut functions, the
/// ingredient that makes `rw` fast (ABC ships an equivalent table of
/// optimized subgraphs per NPN class).
///
/// Structures are built lazily: a function is NPN-canonized, the canonical
/// class is synthesized once by a memoized decomposition search (Shannon /
/// AND / OR / XOR special cases, plus factored-ISOP candidates), and the
/// result is mapped back through the inverse transform.  Every structure
/// is verified by evaluation before being cached, so a transform-direction
/// bug cannot silently corrupt a network.
///
/// The cache is one table of 65,536 slots indexed by the function.  A slot
/// is published once with a compare-and-swap and read without a lock, so
/// every thread of the process shares one library.  Two threads racing on
/// an empty slot both build the same (deterministic) structure; the loser
/// discards its copy.

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>

#include "opt/transform.hpp"

namespace bg::opt {

class RewriteLibrary {
public:
    /// A recipe over exactly four leaf slots (operand indices 0..3).
    struct Structure {
        std::vector<Candidate::Step> steps;
        aig::Lit out = 0;

        std::size_t num_gates() const { return steps.size(); }
    };

    RewriteLibrary();
    ~RewriteLibrary();
    RewriteLibrary(const RewriteLibrary&) = delete;
    RewriteLibrary& operator=(const RewriteLibrary&) = delete;

    /// Structure computing the 4-variable function `func` over the leaf
    /// slots.  Cached; subsequent calls are one lock-free load.  Safe to
    /// call from any number of threads at once.
    const Structure& structure_for(std::uint16_t func);

    /// Number of fully cached functions (diagnostics).
    std::size_t cache_size() const {
        return mapped_count_.load(std::memory_order_relaxed);
    }
    /// Number of canonical classes synthesized so far (diagnostics).
    std::size_t classes_built() const {
        return class_count_.load(std::memory_order_relaxed);
    }

    /// The process-wide instance every rewrite check shares.  It is never
    /// destroyed, so late-exiting threads can still read it.
    static RewriteLibrary& instance();

    /// Evaluate a structure over the four projection functions; exposed
    /// for tests.
    static std::uint16_t evaluate(const Structure& s);

private:
    static constexpr std::size_t num_functions = 1U << 16;

    struct Slot {
        /// structure_for(f): the canonical structure mapped back to f.
        std::atomic<const Structure*> mapped{nullptr};
        /// decompose(f): the memoized synthesis result for f itself.
        std::atomic<const Structure*> decomposed{nullptr};
    };

    const Structure& decompose(std::uint16_t func);
    /// Publish `s` into `slot` unless another thread got there first;
    /// returns the structure the slot holds afterwards and reports in
    /// `won` whether it is `s`.
    static const Structure& publish(std::atomic<const Structure*>& slot,
                                    Structure s, bool* won = nullptr);

    std::unique_ptr<Slot[]> slots_;
    /// One bit per function: set once its NPN class has been requested.
    std::array<std::atomic<std::uint64_t>, num_functions / 64> class_seen_{};
    std::atomic<std::size_t> mapped_count_{0};
    std::atomic<std::size_t> class_count_{0};
};

}  // namespace bg::opt
