#pragma once

/// \file portfolio.hpp
/// Portfolio combinational equivalence checking: one sequential pipeline
/// on the calling thread — verdict cache, then simulation (aig/cec.hpp),
/// then SAT (sat/cec_sat.hpp) — stopping at the first *definitive*
/// verdict.
///
/// Simulation is exact up to the exhaustive PI bound and otherwise
/// refutes buggy rewrites in microseconds (counterexamples pooled from
/// earlier jobs are simulated first), but past the bound it can only say
/// "probably equivalent".  The SAT engine sweeps the miter node by node
/// before solving the outputs, which proves the optimized graphs this
/// library produces in milliseconds.  If both engines degrade within
/// their budgets the pipeline reports ProbablyEquivalent honestly (never
/// upgraded).
///
/// Verdicts for structurally identical queries are served from a small
/// FIFO cache keyed on the pair of structural fingerprints
/// (aig::structural_fingerprint), so a served flow re-verifying the same
/// design pair pays nothing.  Only definitive verdicts are cached —
/// ProbablyEquivalent depends on budgets and luck, so it is always
/// recomputed.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "aig/cec.hpp"
#include "sat/cec_sat.hpp"
#include "util/parallel.hpp"

namespace bg::verify {

/// Which engine produced a verdict.
enum class Engine {
    None,        ///< cache miss degraded / zero-engine edge cases
    Simulation,  ///< word-parallel random or exhaustive simulation
    Bdd,         ///< retired (the BDD engine is gone); never produced
    Sat,         ///< swept incremental SAT on the shared miter
    Cache,       ///< served from the result cache
};

std::string to_string(Engine e);

struct PortfolioOptions {
    /// Per-engine budgets.  A zero per-engine timeout inherits
    /// engine_timeout_seconds; a caller-set cancel pointer is honoured.
    aig::CecOptions sim;
    sat::SatCecOptions sat;
    /// Default wall-clock budget per engine, in seconds (0 = unlimited).
    double engine_timeout_seconds = 30.0;
    /// Serve repeated structural-fingerprint pairs from the cache.
    bool use_cache = true;
    /// FIFO capacity of the verdict cache.
    std::size_t cache_capacity = 4096;
    /// Per-PI-count capacity of the cross-job counterexample pool (0
    /// disables pooling).  Every definitive refutation's witness — SAT or
    /// simulation, fresh or cache-served — is pooled and fed back
    /// into the simulation engine as seed patterns on later jobs with the
    /// same PI count, so a recurring bug is refuted by simulation before
    /// any random budget is spent.
    std::size_t cex_pool_capacity = 64;
};

/// Outcome of one portfolio check.
struct VerifyReport {
    aig::CecVerdict verdict = aig::CecVerdict::ProbablyEquivalent;
    /// Engine that produced the verdict (Cache when served from cache).
    Engine engine = Engine::None;
    /// Wall-clock seconds spent inside check().
    double seconds = 0.0;
    bool from_cache = false;
    /// Differing PI assignment; non-empty exactly when the verdict is
    /// NotEquivalent and the deciding engine produced a witness (cached
    /// refutations keep the witness from the original run).
    std::vector<bool> counterexample;
};

/// Thread-safe portfolio prover.  One instance is meant to live as long
/// as the serving process (FlowService owns one); concurrent check()
/// calls are safe and share the verdict cache.
class PortfolioCec {
public:
    /// `pool` is unused: check() runs on the calling thread.  The
    /// parameter is kept for source compatibility with existing callers.
    explicit PortfolioCec(PortfolioOptions opts = {},
                          ThreadPool* pool = nullptr);

    /// Run the pipeline on the (a, b) miter.  Throws ContractViolation
    /// when the PI/PO interfaces differ; never throws from a verdict
    /// path.
    VerifyReport check(const aig::Aig& a, const aig::Aig& b);

    std::size_t cache_lookups() const {
        return cache_lookups_.load(std::memory_order_relaxed);
    }
    std::size_t cache_hits() const {
        return cache_hits_.load(std::memory_order_relaxed);
    }
    std::size_t cache_size() const;

    /// Snapshot of the pooled counterexamples for designs with `num_pis`
    /// inputs (oldest first) — the seed patterns the next check() with
    /// that PI count will simulate first.
    std::vector<std::vector<bool>> seed_patterns(std::size_t num_pis) const;

private:
    struct CacheKey {
        std::uint64_t fp_a = 0;
        std::uint64_t fp_b = 0;
        bool operator==(const CacheKey& o) const {
            return fp_a == o.fp_a && fp_b == o.fp_b;
        }
    };
    struct CacheKeyHash {
        std::size_t operator()(const CacheKey& k) const;
    };
    struct CacheEntry {
        aig::CecVerdict verdict = aig::CecVerdict::ProbablyEquivalent;
        Engine engine = Engine::None;
        std::vector<bool> counterexample;
    };

    bool cache_get(const CacheKey& key, VerifyReport& out);
    void cache_put(const CacheKey& key, const VerifyReport& report);
    void pool_counterexample(std::size_t num_pis,
                             const std::vector<bool>& cex);

    PortfolioOptions opts_;

    mutable std::mutex cache_mu_;
    std::unordered_map<CacheKey, CacheEntry, CacheKeyHash> cache_;
    std::deque<CacheKey> cache_order_;  // FIFO eviction
    std::atomic<std::size_t> cache_lookups_{0};
    std::atomic<std::size_t> cache_hits_{0};

    /// Cross-job counterexample pool, keyed by PI count (a witness is
    /// just a PI assignment, so it transfers between any designs of the
    /// same width).  FIFO-bounded per key by cex_pool_capacity.
    mutable std::mutex cex_mu_;
    std::unordered_map<std::size_t, std::deque<std::vector<bool>>> cex_pool_;
};

}  // namespace bg::verify
