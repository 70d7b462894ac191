#include "verify/portfolio.hpp"

#include <chrono>
#include <utility>

#include "util/contracts.hpp"

namespace bg::verify {

namespace {

bool is_definitive(aig::CecVerdict v) {
    return v == aig::CecVerdict::Equivalent ||
           v == aig::CecVerdict::NotEquivalent;
}

std::uint64_t mix64(std::uint64_t x) {
    x += 0x9E3779B97F4A7C15ULL;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    return x ^ (x >> 31);
}

}  // namespace

std::string to_string(Engine e) {
    switch (e) {
        case Engine::None:
            return "none";
        case Engine::Simulation:
            return "sim";
        case Engine::Bdd:
            return "bdd";
        case Engine::Sat:
            return "sat";
        case Engine::Cache:
            return "cache";
    }
    return "?";
}

std::size_t PortfolioCec::CacheKeyHash::operator()(const CacheKey& k) const {
    return static_cast<std::size_t>(mix64(k.fp_a ^ mix64(k.fp_b)));
}

PortfolioCec::PortfolioCec(PortfolioOptions opts, ThreadPool* /*pool*/)
    : opts_(std::move(opts)) {}

bool PortfolioCec::cache_get(const CacheKey& key, VerifyReport& out) {
    cache_lookups_.fetch_add(1, std::memory_order_relaxed);
    const std::lock_guard<std::mutex> lock(cache_mu_);
    auto it = cache_.find(key);
    if (it == cache_.end()) {
        // Equivalence is symmetric, and a counterexample is just a PI
        // assignment, so a hit on the swapped pair is equally valid.
        it = cache_.find(CacheKey{key.fp_b, key.fp_a});
    }
    if (it == cache_.end()) {
        return false;
    }
    cache_hits_.fetch_add(1, std::memory_order_relaxed);
    out.verdict = it->second.verdict;
    out.engine = Engine::Cache;
    out.from_cache = true;
    out.counterexample = it->second.counterexample;
    return true;
}

void PortfolioCec::cache_put(const CacheKey& key,
                             const VerifyReport& report) {
    const std::lock_guard<std::mutex> lock(cache_mu_);
    if (cache_.count(key) != 0) {
        return;
    }
    while (cache_.size() >= opts_.cache_capacity && !cache_order_.empty()) {
        cache_.erase(cache_order_.front());
        cache_order_.pop_front();
    }
    cache_.emplace(key, CacheEntry{report.verdict, report.engine,
                                   report.counterexample});
    cache_order_.push_back(key);
}

std::size_t PortfolioCec::cache_size() const {
    const std::lock_guard<std::mutex> lock(cache_mu_);
    return cache_.size();
}

std::vector<std::vector<bool>> PortfolioCec::seed_patterns(
    std::size_t num_pis) const {
    const std::lock_guard<std::mutex> lock(cex_mu_);
    const auto it = cex_pool_.find(num_pis);
    if (it == cex_pool_.end()) {
        return {};
    }
    return {it->second.begin(), it->second.end()};
}

void PortfolioCec::pool_counterexample(std::size_t num_pis,
                                       const std::vector<bool>& cex) {
    if (opts_.cex_pool_capacity == 0 || cex.size() != num_pis) {
        return;
    }
    const std::lock_guard<std::mutex> lock(cex_mu_);
    auto& pool = cex_pool_[num_pis];
    for (const auto& have : pool) {
        if (have == cex) {
            return;  // recurring witness: already pooled
        }
    }
    while (pool.size() >= opts_.cex_pool_capacity) {
        pool.pop_front();
    }
    pool.push_back(cex);
}

VerifyReport PortfolioCec::check(const aig::Aig& a, const aig::Aig& b) {
    BG_EXPECTS(a.num_pis() == b.num_pis(),
               "portfolio CEC requires matching PI counts");
    BG_EXPECTS(a.num_pos() == b.num_pos(),
               "portfolio CEC requires matching PO counts");

    using Clock = std::chrono::steady_clock;
    const auto t0 = Clock::now();
    const auto elapsed = [t0] {
        return std::chrono::duration<double>(Clock::now() - t0).count();
    };

    VerifyReport report;
    CacheKey key{};
    const bool use_cache = opts_.use_cache && opts_.cache_capacity > 0;
    if (use_cache) {
        key = CacheKey{aig::structural_fingerprint(a),
                       aig::structural_fingerprint(b)};
        if (cache_get(key, report)) {
            if (report.verdict == aig::CecVerdict::NotEquivalent &&
                !report.counterexample.empty()) {
                // Cached refutations feed the cross-job seed pool too: a
                // different-structure job with the same PI width gets the
                // witness even though its own fingerprints miss.
                pool_counterexample(a.num_pis(), report.counterexample);
            }
            report.seconds = elapsed();
            return report;
        }
    }

    const auto timeout = [this](double own) {
        return own > 0.0 ? own : opts_.engine_timeout_seconds;
    };

    // Simulation, counterexample-guided: earlier refutations with this PI
    // width are simulated before any random budget.
    const std::vector<std::vector<bool>> seeds =
        opts_.cex_pool_capacity > 0 ? seed_patterns(a.num_pis())
                                    : std::vector<std::vector<bool>>{};
    aig::CecOptions sim = opts_.sim;
    sim.timeout_seconds = timeout(sim.timeout_seconds);
    if (!seeds.empty() && sim.seed_patterns == nullptr) {
        sim.seed_patterns = &seeds;
    }
    auto sim_result = aig::check_equivalence_full(a, b, sim);
    report.verdict = sim_result.verdict;
    report.engine = Engine::Simulation;
    report.counterexample = std::move(sim_result.counterexample);

    if (!is_definitive(report.verdict)) {
        sat::SatCecOptions sat = opts_.sat;
        sat.timeout_seconds = timeout(sat.timeout_seconds);
        auto sat_result = sat::check_equivalence_sat_full(a, b, sat);
        report.verdict = sat_result.verdict;
        report.engine = Engine::Sat;
        report.counterexample = std::move(sat_result.counterexample);
    }

    if (is_definitive(report.verdict)) {
        if (use_cache) {
            cache_put(key, report);
        }
        if (report.verdict == aig::CecVerdict::NotEquivalent &&
            !report.counterexample.empty()) {
            pool_counterexample(a.num_pis(), report.counterexample);
        }
    } else {
        // Both engines degraded within their budgets: honest "probably".
        report.verdict = aig::CecVerdict::ProbablyEquivalent;
        report.engine = Engine::None;
    }
    report.seconds = elapsed();
    return report;
}

}  // namespace bg::verify
