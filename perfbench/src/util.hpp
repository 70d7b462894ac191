#pragma once

/// Small helpers shared by the perfbench sources: clocks, order
/// statistics, seeded input generation, resident-memory readout and the
/// result line.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double>(b - a).count();
}

inline double seconds_since(Clock::time_point a) {
    return seconds_between(a, Clock::now());
}

/// Linear-interpolated quantile (q in [0, 1]) of an unsorted sample.
inline double quantile(std::vector<double> v, double q) {
    if (v.empty()) {
        return 0.0;
    }
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return v[lo] + (v[hi] - v[lo]) * frac;
}

inline double median(std::vector<double> v) {
    return quantile(std::move(v), 0.5);
}

inline double geomean(const std::vector<double>& v) {
    if (v.empty()) {
        return 0.0;
    }
    double log_sum = 0.0;
    for (const double x : v) {
        log_sum += std::log(x);
    }
    return std::exp(log_sum / static_cast<double>(v.size()));
}

/// splitmix64: the benchmark's own seed expander, so the generated
/// inputs depend on --seed and nothing inside the library.
inline std::uint64_t mix64(std::uint64_t x) {
    x += 0x9E3779B97F4A7C15ULL;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    return x ^ (x >> 31);
}

class SplitMix {
public:
    explicit SplitMix(std::uint64_t seed) : state_(seed) {}
    std::uint64_t next() {
        state_ += 0x9E3779B97F4A7C15ULL;
        return mix64(state_);
    }

private:
    std::uint64_t state_;
};

/// A flow seed for (run seed, stream, index): nonzero, since a zero seed
/// on the wire means "server default".
inline std::uint64_t job_seed(std::uint64_t run_seed, std::uint64_t stream,
                              std::uint64_t index) {
    const std::uint64_t s =
        mix64(mix64(run_seed) ^ mix64(stream * 0x100000001B3ULL + index));
    return s == 0 ? 1 : s;
}

/// Peak resident set size of this process so far, in MiB.
inline double peak_rss_mb() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

struct Metric {
    double value = 0.0;
    std::string unit;
};

/// Name -> metric, printed in name order.
using Metrics = std::map<std::string, Metric>;

/// The result line: the last line of standard output.  A value that is
/// not finite is printed as 0 and makes the run incorrect.
inline void print_result(bool correct, std::size_t attempted,
                         std::size_t failed, const Metrics& metrics) {
    for (const auto& [name, m] : metrics) {
        if (!std::isfinite(m.value)) {
            std::fprintf(stderr, "perfbench: %s is not finite\n",
                         name.c_str());
            correct = false;
        }
    }
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    bool first = true;
    for (const auto& [name, m] : metrics) {
        char num[64];
        std::snprintf(num, sizeof num, "%.17g",
                      std::isfinite(m.value) ? m.value : 0.0);
        out += first ? "" : ", ";
        out += "\"" + name + "\": {\"value\": " + num + ", \"unit\": \"" +
               m.unit + "\"}";
        first = false;
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
    std::fflush(stdout);
}

}  // namespace perfbench
