/// \file bench_cec.cpp
/// CEC engine comparison: per-engine latency (random or exhaustive
/// simulation, swept incremental SAT) versus the portfolio pipeline on
/// every registry design, for both an equivalent pair (design vs its
/// rewritten twin) and a refuted pair (design vs a single flipped output).
/// Self-checking: SAT and the pipeline must prove every equivalent pair
/// and refute every flipped one (exit 1 otherwise).

#include <cstdio>
#include <string>
#include <vector>

#include "aig/cec.hpp"
#include "bench_common.hpp"
#include "opt/standalone.hpp"
#include "sat/cec_sat.hpp"
#include "verify/portfolio.hpp"

namespace {

using bg::aig::Aig;
using bg::aig::CecVerdict;
using bg::aig::Lit;
using bg::aig::Var;

/// Rebuild `source` with the first PO complemented: a definitively
/// inequivalent twin differing in exactly one output function.
Aig flip_first_po(const Aig& source) {
    const Aig src = source.compact();
    Aig out;
    std::vector<Lit> translate(src.num_slots(), 0);
    translate[0] = bg::aig::lit_false;
    for (std::size_t i = 0; i < src.num_pis(); ++i) {
        translate[src.pi(i)] = out.add_pi();
    }
    for (const Var v : src.topo_ands()) {
        const Lit f0 = src.fanin0(v);
        const Lit f1 = src.fanin1(v);
        translate[v] = out.and_(
            bg::aig::lit_not_cond(translate[bg::aig::lit_var(f0)],
                                  bg::aig::lit_is_compl(f0)),
            bg::aig::lit_not_cond(translate[bg::aig::lit_var(f1)],
                                  bg::aig::lit_is_compl(f1)));
    }
    for (std::size_t i = 0; i < src.num_pos(); ++i) {
        const Lit po = src.po(i);
        const Lit t = bg::aig::lit_not_cond(translate[bg::aig::lit_var(po)],
                                            bg::aig::lit_is_compl(po));
        out.add_po(i == 0 ? bg::aig::lit_not(t) : t);
    }
    return out;
}

struct Row {
    double sim_ms = 0.0;
    double sat_ms = 0.0;
    double pipeline_ms = 0.0;
    CecVerdict sat = CecVerdict::ProbablyEquivalent;
    CecVerdict verdict = CecVerdict::ProbablyEquivalent;
    bg::verify::Engine engine = bg::verify::Engine::None;
};

Row measure(const Aig& a, const Aig& b) {
    Row row;
    {
        const bg::Stopwatch t;
        (void)bg::aig::check_equivalence(a, b);
        row.sim_ms = t.seconds() * 1e3;
    }
    {
        const bg::Stopwatch t;
        row.sat = bg::sat::check_equivalence_sat(a, b);
        row.sat_ms = t.seconds() * 1e3;
    }
    {
        bg::verify::PortfolioCec prover;
        const bg::Stopwatch t;
        const auto report = prover.check(a, b);
        row.pipeline_ms = t.seconds() * 1e3;
        row.verdict = report.verdict;
        row.engine = report.engine;
    }
    return row;
}

/// Prints the row; returns false when SAT or the pipeline missed the
/// expected verdict.
bool print_row(const std::string& label, const Row& r, CecVerdict expect) {
    const bool ok = r.sat == expect && r.verdict == expect;
    const std::string note = ok ? "" : "<-- expected " + to_string(expect);
    std::printf("%-16s %9.2f %9.2f %11.2f   %-20s %-6s %s\n", label.c_str(),
                r.sim_ms, r.sat_ms, r.pipeline_ms,
                to_string(r.verdict).c_str(),
                bg::verify::to_string(r.engine).c_str(), note.c_str());
    return ok;
}

}  // namespace

int main(int argc, char** argv) {
    const auto scale = bgbench::Scale::from_args(argc, argv);
    scale.banner("CEC engines: sim vs SAT vs portfolio pipeline");

    const std::vector<std::string> names = {"b07", "b08", "b09", "b10",
                                            "b11", "b12", "c2670", "c5315"};

    std::printf("%-16s %9s %9s %11s   %-20s %s\n", "design", "sim ms",
                "sat ms", "pipeline ms", "verdict", "engine");
    bool ok = true;
    for (const auto& name : names) {
        const Aig original = scale.design(name);
        Aig rewritten = original;
        (void)bg::opt::standalone_pass(rewritten, bg::opt::OpKind::Rewrite);
        ok &= print_row(name, measure(original, rewritten),
                        CecVerdict::Equivalent);
        ok &= print_row(name + " (flip)",
                        measure(original, flip_first_po(original)),
                        CecVerdict::NotEquivalent);
    }
    if (!ok) {
        std::puts("FAIL: a verdict differs from the expected one");
        return 1;
    }
    return 0;
}
