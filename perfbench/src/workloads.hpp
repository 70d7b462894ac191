#pragma once

#include <cstdint>
#include <string>

namespace perfbench {

struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /// Chrome trace-event output of the traced replay (--trace 1 only).
    std::string trace_out;
};

/// Known workload names: sweep, refine, serve.
bool known_workload(const std::string& name);

/// Run one workload and print the result line; returns the exit code.
int run_workload(const Options& opts);

}  // namespace perfbench
