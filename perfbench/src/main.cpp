/// perfbench: the repository benchmark.
///
///   perfbench --workload sweep|refine|serve --seed N --seconds S
///             --trace 0|1 [--trace-out trace.json]
///
/// --trace 0 measures the end-to-end metrics; --trace 1 runs the traced
/// replay and prints the per-layer metrics.  The last line of standard
/// output is the JSON result.  perfbench/README.md describes the
/// workloads and metrics.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "workloads.hpp"

namespace {

int usage(const char* why) {
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "sweep|refine|serve --seed N --seconds S --trace 0|1 "
                 "[--trace-out FILE]\n",
                 why);
    return 2;
}

}  // namespace

int main(int argc, char** argv) {
    perfbench::Options opts;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc) {
            return usage(("missing value for " + arg).c_str());
        }
        const std::string value = argv[++i];
        char* end = nullptr;
        if (arg == "--workload") {
            opts.workload = value;
            have_workload = true;
        } else if (arg == "--seed") {
            opts.seed = std::strtoull(value.c_str(), &end, 10);
        } else if (arg == "--seconds") {
            opts.seconds = std::strtod(value.c_str(), &end);
            if (!(opts.seconds > 0.0)) {
                return usage("--seconds must be positive");
            }
        } else if (arg == "--trace") {
            if (value != "0" && value != "1") {
                return usage("--trace takes 0 or 1");
            }
            opts.trace = value == "1";
        } else if (arg == "--trace-out") {
            opts.trace_out = value;
        } else {
            return usage(("unknown argument " + arg).c_str());
        }
        if (end != nullptr && *end != '\0') {
            return usage(("bad number for " + arg).c_str());
        }
    }
    if (!have_workload || !perfbench::known_workload(opts.workload)) {
        return usage("--workload must be sweep, refine or serve");
    }
    try {
        return perfbench::run_workload(opts);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: error: %s\n", e.what());
        return 1;
    }
}
