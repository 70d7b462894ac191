/// \file boolgebra_cli.cpp
/// A small synthesis shell over the BoolGebra library — the kind of tool a
/// downstream user would actually drive in scripts.
///
/// Commands:
///   stats    <design> [--check]                print size / depth / IO;
///            --check also runs the strict structural integrity audit
///            (FanoutArena accounting, strash consistency, ref counts)
///   opt      <design> --ops rw,rs,rf[,b] [--rounds N] [-o out.{aag,aig,bench}]
///   sample   <design> [-n N] [--guided] [--seed S] [--save-best best.csv]
///   train    <design> [-n N] [--epochs E] [--seed S]
///            [--heads size,depth,luts] [--lut-k K] [-o weights.bin]
///            generate guided samples, build the dataset and train the
///            predictor; --heads picks the metric heads (multi-head
///            checkpoints let depth/LUT flows rank under the matching
///            head instead of size-as-proxy), --lut-k sets the mapping K
///            for LUT labels (measured only when the luts head is on)
///   flow     <design...>|--all [--samples N] [--top-k K] [--rounds R]
///            [--workers W] [--scale S] [--seed S]
///            [--model weights.bin] [--random] [--verify]
///            [--objective size|depth|luts[:K]|weighted:a,b]
///            batched GNN-guided flow over one or many designs; design
///            arguments may be registry globs (e.g. 'b1*'); --random
///            replaces priority-guided sampling with uniform sampling;
///            --objective picks the cost model candidates are ranked and
///            committed under (default size = AND count); the pruning
///            scores come from the model head matching the objective
///            (size stands in when the checkpoint lacks the head)
///   serve    <design...>|--all [flow flags] [--repeat N]
///            [--swap-model weights.bin|fresh] [--swap-after N]
///            long-lived FlowService demo: submits every design (repeated
///            --repeat times) to the serving queue, optionally hot-swaps
///            the model mid-stream, and reports latency percentiles and
///            throughput
///   serve    --listen PORT [--bind ADDR] [--tenant NAME[:WEIGHT[:CAP]]]...
///            [flow flags] network server mode: accept BGNP connections
///            and serve jobs on the multi-tenant FlowService until a
///            client sends shutdown (tenant names double as the Hello
///            bearer tokens; no --tenant = the default tenant only)
///   client   <host:port> flow <design...> [--samples N] [--top-k K]
///            [--rounds R] [--seed S] [--objective O] [--verify]
///            [--timeout SEC] [--token T] [--send-spec] [--progress]
///            [--scale S] submit designs over the wire and wait for the
///            results (--send-spec sends the spec string for server-side
///            resolution instead of uploading the AIGER blob)
///   client   <host:port> stats [--token T]      remote ServiceStats
///   client   <host:port> shutdown [--token T]   ask the server to exit
///   apply    <design> --decisions d.csv [-o out]
///   cec      <design1> <design2>               equivalence check (sim + SAT)
///   map      <design> [-k K]                   K-LUT technology mapping
///   convert  <in> <out>                        format conversion
///   list                                       registry designs
///
/// <design> is a registry name (b07..c5315, optionally name@scale, e.g.
/// b11@0.25) or a path ending in .aag / .aig / .bench.
///
/// Exit codes: 0 success; 1 a real failure (refuted equivalence, a
/// contract violation); 2 a usage error — unknown command or flag, a
/// numeric flag that is not wholly a non-negative number, or a design
/// spec that resolves to nothing.

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <future>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "aig/cec.hpp"
#include "circuits/design_source.hpp"
#include "circuits/registry.hpp"
#include "core/dataset.hpp"
#include "core/flow_engine.hpp"
#include "core/flow_service.hpp"
#include "core/sampling.hpp"
#include "core/trainer.hpp"
#include "io/aiger.hpp"
#include "io/bench.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "opt/balance.hpp"
#include "opt/lut_map.hpp"
#include "opt/objective.hpp"
#include "opt/orchestrate.hpp"
#include "opt/standalone.hpp"
#include "bdd/cec_bdd.hpp"
#include "sat/cec_sat.hpp"
#include "util/progress.hpp"
#include "util/stats.hpp"
#include "verify/portfolio.hpp"

using bg::aig::Aig;

namespace {

int usage() {
    std::puts(
        "usage: boolgebra_cli <command> [args]\n"
        "  stats    <design> [--check]\n"
        "  opt      <design> --ops rw,rs,rf[,b] [--rounds N] [-o out]\n"
        "  sample   <design> [-n N] [--guided] [--seed S] [--save-best f]\n"
        "  train    <design> [-n N] [--epochs E] [--seed S]\n"
        "           [--heads size,depth,luts] [--lut-k K] [-o weights.bin]\n"
        "  flow     <design...>|--all [--samples N] [--top-k K] [--rounds R]\n"
        "           [--workers W] [--scale S] [--seed S]\n"
        "           [--model f] [--random] [--verify]\n"
        "           [--objective size|depth|luts[:K]|weighted:a,b]\n"
        "  serve    <design...>|--all [flow flags] [--repeat N]\n"
        "           [--swap-model f|fresh] [--swap-after N]\n"
        "  serve    --listen PORT [--bind ADDR]\n"
        "           [--tenant NAME[:WEIGHT[:CAP]]]... [flow flags]\n"
        "  client   <host:port> flow <design...> [--samples N] [--top-k K]\n"
        "           [--rounds R] [--seed S] [--objective O] [--verify]\n"
        "           [--timeout SEC] [--token T] [--send-spec] [--progress]\n"
        "  client   <host:port> stats|shutdown [--token T]\n"
        "  apply    <design> --decisions d.csv [-o out]\n"
        "  cec      <design1> <design2> [--engine sim|bdd|sat|portfolio]\n"
        "  map      <design> [-k K]\n"
        "  convert  <in> <out>\n"
        "  list\n"
        "designs: registry names (b07..c5315, name@scale), registry globs\n"
        "         (b1?), file:<path> / file:<glob> AIGER or BENCH specs,\n"
        "         or bare .aag/.aig/.bench paths");
    return 2;
}

Aig load_design(const std::string& spec) {
    return bg::circuits::load_design_spec(spec);
}

void save_design(const Aig& g, const std::string& path) {
    if (path.ends_with(".bench")) {
        bg::io::write_bench_file(g, path);
    } else if (path.ends_with(".aig")) {
        bg::io::write_aiger_binary_file(g, path);
    } else {
        bg::io::write_aiger_file(g, path);
    }
    std::printf("wrote %s\n", path.c_str());
}

std::optional<std::string> flag_value(std::vector<std::string>& args,
                                      const char* name) {
    for (std::size_t i = 0; i + 1 < args.size(); ++i) {
        if (args[i] == name) {
            std::string value = args[i + 1];
            args.erase(args.begin() + static_cast<std::ptrdiff_t>(i),
                       args.begin() + static_cast<std::ptrdiff_t>(i) + 2);
            return value;
        }
    }
    return std::nullopt;
}

/// A malformed command line: main() prints it as a one-line `error:` and
/// exits 2, the same contract as a bad design spec.
class UsageError : public std::runtime_error {
public:
    using std::runtime_error::runtime_error;
};

/// `text` as a T, or a UsageError naming `what`.  The whole text must be
/// the number: no sign, whitespace or suffix, and no overflow of T;
/// floating-point values must also be finite and non-negative.
template <class T>
T parse_number(const std::string& text, const std::string& what) {
    T value{};
    const char* last = text.data() + text.size();
    const auto [end, ec] = std::from_chars(text.data(), last, value);
    bool ok = ec == std::errc{} && end == last;
    if constexpr (std::is_floating_point_v<T>) {
        ok = ok && std::isfinite(value) && value >= 0;
    }
    if (!ok) {
        throw UsageError(what + " expects a non-negative " +
                         (std::is_floating_point_v<T> ? "number"
                                                      : "integer") +
                         " in range, got '" + text + "'");
    }
    return value;
}

/// The value of numeric flag `name`, or `fallback` when it is absent.
template <class T>
T numeric_flag(std::vector<std::string>& args, const char* name,
               T fallback) {
    const auto value = flag_value(args, name);
    return value ? parse_number<T>(*value, name) : fallback;
}

/// Call once a command has consumed every flag it knows: anything still
/// spelled like a flag is unknown (or removed), or lacks its value.
void reject_unknown_flags(const std::vector<std::string>& args) {
    for (const auto& arg : args) {
        if (arg.size() > 1 && arg[0] == '-') {
            throw UsageError("unknown flag or missing value: " + arg);
        }
    }
}

bool flag_present(std::vector<std::string>& args, const char* name) {
    for (std::size_t i = 0; i < args.size(); ++i) {
        if (args[i] == name) {
            args.erase(args.begin() + static_cast<std::ptrdiff_t>(i));
            return true;
        }
    }
    return false;
}

int cmd_stats(Aig g, bool check) {
    std::printf("pis   : %zu\n", g.num_pis());
    std::printf("pos   : %zu\n", g.num_pos());
    std::printf("ands  : %zu\n", g.num_ands());
    std::printf("depth : %u\n", g.depth());
    if (check) {
        g.check_integrity(Aig::CheckLevel::Strict);
        std::printf("check : strict integrity OK (fanout arena, strash, "
                    "ref counts)\n");
    }
    return 0;
}

int cmd_opt(Aig g, std::vector<std::string> args) {
    const auto ops_arg = flag_value(args, "--ops");
    const auto rounds = numeric_flag<std::size_t>(args, "--rounds", 1);
    const auto out_arg = flag_value(args, "-o");
    reject_unknown_flags(args);
    const std::string ops = ops_arg.value_or("rw,rs,rf");

    std::printf("start: ands=%zu depth=%u\n", g.num_ands(), g.depth());
    for (std::size_t r = 0; r < rounds; ++r) {
        std::size_t pos = 0;
        while (pos < ops.size()) {
            auto comma = ops.find(',', pos);
            if (comma == std::string::npos) {
                comma = ops.size();
            }
            const std::string op = ops.substr(pos, comma - pos);
            pos = comma + 1;
            if (op == "rw") {
                (void)bg::opt::standalone_pass(g, bg::opt::OpKind::Rewrite);
            } else if (op == "rs") {
                (void)bg::opt::standalone_pass(g, bg::opt::OpKind::Resub);
            } else if (op == "rf") {
                (void)bg::opt::standalone_pass(g, bg::opt::OpKind::Refactor);
            } else if (op == "b") {
                (void)bg::opt::balance_in_place(g);
            } else {
                std::printf("unknown op '%s' (use rw, rs, rf, b)\n",
                            op.c_str());
                return 2;
            }
            std::printf("after %-2s: ands=%zu depth=%u\n", op.c_str(),
                        g.num_ands(), g.depth());
        }
    }
    if (out_arg) {
        save_design(g, *out_arg);
    }
    return 0;
}

int cmd_sample(Aig g, std::vector<std::string> args) {
    const auto n = numeric_flag<std::size_t>(args, "-n", 100);
    const auto seed = numeric_flag<std::uint64_t>(args, "--seed", 1);
    const auto save_arg = flag_value(args, "--save-best");
    const bool guided = flag_present(args, "--guided");
    reject_unknown_flags(args);

    const auto samples =
        guided ? bg::core::generate_guided_samples(g, n, seed)
               : bg::core::generate_random_samples(g, n, seed);
    std::vector<double> reductions;
    const bg::core::SampleRecord* best = nullptr;
    for (const auto& s : samples) {
        reductions.push_back(s.reduction);
        if (best == nullptr || s.reduction > best->reduction) {
            best = &s;
        }
    }
    const auto sum = bg::summarize(reductions);
    std::printf("%s sampling: %zu samples on %zu-node design\n",
                guided ? "guided" : "random", n, g.num_ands());
    std::printf("reduction: mean %.1f sd %.1f min %.0f max %.0f\n", sum.mean,
                sum.stddev, sum.min, sum.max);
    std::printf("density  : %s\n",
                bg::sparkline(bg::histogram(reductions, 32)).c_str());
    if (save_arg && best != nullptr) {
        bg::opt::save_decisions_csv(*save_arg, best->decisions);
        std::printf("best decision vector (reduction %d) saved to %s\n",
                    best->reduction, save_arg->c_str());
    }
    return 0;
}

/// Parse a comma-separated head list ("size,depth,luts").
std::vector<bg::core::MetricHead> parse_heads(const std::string& spec) {
    std::vector<bg::core::MetricHead> heads;
    std::size_t pos = 0;
    while (pos <= spec.size()) {
        auto comma = spec.find(',', pos);
        if (comma == std::string::npos) {
            comma = spec.size();
        }
        heads.push_back(
            bg::core::head_from_string(spec.substr(pos, comma - pos)));
        pos = comma + 1;
    }
    return heads;
}

int cmd_train(Aig g, std::vector<std::string> args) {
    const auto n = numeric_flag<std::size_t>(args, "-n", 120);
    auto tc = bg::core::TrainConfig::quick();
    tc.epochs = numeric_flag<std::size_t>(args, "--epochs", tc.epochs);
    const auto seed = numeric_flag<std::uint64_t>(args, "--seed", 7);
    const auto heads_arg = flag_value(args, "--heads");
    bg::opt::LutMapParams lut;
    lut.k = numeric_flag<unsigned>(args, "--lut-k", lut.k);
    const auto out_arg = flag_value(args, "-o");
    reject_unknown_flags(args);

    bg::core::ModelConfig mc = bg::core::ModelConfig::quick();
    if (heads_arg) {
        mc.heads = parse_heads(*heads_arg);
    }
    bg::core::BoolGebraModel model(mc);

    // LUT labels are only worth their lut_map cost when a LUT head will
    // consume them.
    const bool wants_luts = model.has_head(bg::core::MetricHead::Luts);
    std::printf("sampling %zu guided decision vectors%s...\n", n,
                wants_luts ? " (with LUT labels)" : "");
    bg::Stopwatch sw;
    const auto records = bg::core::generate_guided_samples(
        g, n, seed, {}, nullptr, wants_luts ? &lut : nullptr);
    const auto ds = bg::core::build_dataset(g, records);
    std::printf("dataset: %zu samples, best reduction %d (%.1fs)\n",
                ds.size(), ds.best_reduction(), sw.seconds());

    tc.seed = seed;
    sw.reset();
    const auto tr = bg::core::train_model(model, ds, tc);
    std::printf("trained %zu parameters for %zu epochs in %.1fs\n",
                model.num_parameters(), tc.epochs, sw.seconds());
    const auto head_losses =
        bg::core::evaluate_head_losses(model, ds, tr.split.test);
    for (std::size_t h = 0; h < head_losses.size(); ++h) {
        std::printf("  head %-5s test MSE %.5f\n",
                    bg::core::to_string(model.heads()[h]), head_losses[h]);
    }
    if (out_arg) {
        model.save(*out_arg);
        std::printf("checkpoint (%s) saved to %s\n",
                    model.num_heads() == 1 ? "v1 single-head"
                                           : "v2 multi-head",
                    out_arg->c_str());
    } else {
        std::puts("note: no -o given; weights were not saved");
    }
    return 0;
}

/// Flags shared by the `flow` and `serve` commands.
struct FlowArgs {
    bg::core::EngineConfig cfg;
    double scale = 1.0;
    bool all = false;
    std::optional<std::string> model_path;
};

FlowArgs parse_flow_args(std::vector<std::string>& args) {
    FlowArgs out;
    out.cfg.flow.num_samples =
        numeric_flag<std::size_t>(args, "--samples", 100);
    out.cfg.flow.top_k = numeric_flag<std::size_t>(args, "--top-k", 10);
    out.cfg.rounds = numeric_flag<std::size_t>(args, "--rounds", 1);
    out.cfg.workers = numeric_flag<std::size_t>(args, "--workers", 0);
    out.scale = numeric_flag<double>(args, "--scale", 1.0);
    out.cfg.flow.seed = numeric_flag<std::uint64_t>(args, "--seed", 1);
    const auto objective_arg = flag_value(args, "--objective");
    out.model_path = flag_value(args, "--model");
    out.all = flag_present(args, "--all");
    out.cfg.flow.guided = !flag_present(args, "--random");
    out.cfg.flow.verify = flag_present(args, "--verify");
    reject_unknown_flags(args);

    if (objective_arg) {
        out.cfg.flow.objective = bg::opt::make_objective(*objective_arg);
    }
    return out;
}

/// Collect jobs: --all, registry globs, registry names (name[@scale]),
/// file:<path|glob> specs and bare netlist paths all mix freely — one
/// resolution language for the whole CLI (circuits::resolve_design_specs).
/// A spec that resolves to nothing — unknown name, empty glob, missing or
/// malformed file — is an error: returns nullopt after printing it, so
/// the command exits 2 instead of "running" over zero designs.
std::optional<std::vector<bg::core::DesignJob>> collect_jobs(
    const std::vector<std::string>& specs, bool all, double scale) {
    try {
        return bg::core::jobs_from_specs(specs, all, scale);
    } catch (const bg::circuits::DesignSourceError& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return std::nullopt;
    }
}

/// Build the quick-architecture model, optionally loading weights.  The
/// checkpoint picks its own head list: v1 single-head files load as
/// size-only, v2 files restore their recorded heads.
bg::core::BoolGebraModel make_cli_model(
    const std::optional<std::string>& path) {
    if (path) {
        auto model =
            bg::core::load_checkpoint(*path, bg::core::ModelConfig::quick());
        std::string heads;
        for (const auto h : model.heads()) {
            heads += heads.empty() ? "" : ",";
            heads += bg::core::to_string(h);
        }
        std::printf("loaded %s checkpoint %s (heads: %s)\n",
                    model.num_heads() == 1 ? "v1 single-head"
                                           : "v2 multi-head",
                    path->c_str(), heads.c_str());
        return model;
    }
    std::puts("note: no --model given; ranking with untrained weights");
    return bg::core::BoolGebraModel{bg::core::ModelConfig::quick()};
}

/// Table cell for a job's verification outcome: "verdict@engine", e.g.
/// "equivalent@bdd" or "NOT-equivalent@sim".
std::string verify_cell(
    const std::optional<bg::verify::VerifyReport>& report) {
    if (!report) {
        return "-";
    }
    return bg::aig::to_string(report->verdict) + "@" +
           bg::verify::to_string(report->engine);
}

int cmd_flow(std::vector<std::string> args) {
    const FlowArgs parsed = parse_flow_args(args);
    const auto jobs = collect_jobs(args, parsed.all, parsed.scale);
    if (!jobs) {
        return 2;
    }
    if (jobs->empty()) {
        std::puts("flow requires at least one design (or --all)");
        return 2;
    }
    const bool verify = parsed.cfg.flow.verify;

    const bg::core::BoolGebraModel model = make_cli_model(parsed.model_path);
    bg::core::FlowEngine engine(parsed.cfg);
    const auto batch = engine.run(*jobs, model);

    // Size ratios (Table I), then the per-metric companions: D-* = depth
    // ratios, V-Best = the configured objective's scalar ratio.
    std::vector<std::string> headers = {"design", "ands", "depth", "BG-Mean",
                                        "BG-Best", "D-Best", "V-Best",
                                        "final", "D-final", "rounds", "sec"};
    if (verify) {
        headers.push_back("verify");
    }
    bg::TablePrinter table(headers);
    for (const auto& d : batch.designs) {
        std::vector<std::string> row = {
            d.name, std::to_string(d.original_size),
            std::to_string(d.flow.original_depth),
            bg::TablePrinter::fmt(d.flow.bg_mean_ratio),
            bg::TablePrinter::fmt(d.flow.bg_best_ratio),
            bg::TablePrinter::fmt(d.flow.bg_best_depth_ratio),
            bg::TablePrinter::fmt(d.flow.bg_best_value_ratio),
            bg::TablePrinter::fmt(d.iterated.final_ratio),
            bg::TablePrinter::fmt(d.iterated.final_depth_ratio),
            std::to_string(d.iterated.rounds()),
            bg::TablePrinter::fmt(d.seconds, 2)};
        if (verify) {
            row.push_back(verify_cell(d.verification));
        }
        table.add_row(std::move(row));
    }
    std::vector<std::string> avg = {
        "Avg.", "-", "-", bg::TablePrinter::fmt(batch.avg_bg_mean_ratio),
        bg::TablePrinter::fmt(batch.avg_bg_best_ratio),
        bg::TablePrinter::fmt(batch.avg_bg_best_depth_ratio),
        bg::TablePrinter::fmt(batch.avg_bg_best_value_ratio),
        bg::TablePrinter::fmt(batch.avg_final_ratio),
        bg::TablePrinter::fmt(batch.avg_final_depth_ratio), "-", "-"};
    if (verify) {
        avg.push_back("-");
    }
    table.add_row(std::move(avg));
    table.print();
    std::printf("\nobjective %s (ranked by %s): %zu designs, %zu samples in "
                "%.2fs on %zu workers (%.2f designs/s, %.1f samples/s)\n",
                batch.objective.c_str(), batch.ranked_by.c_str(),
                batch.designs.size(), batch.total_samples,
                batch.total_seconds, engine.workers(),
                batch.designs_per_second, batch.samples_per_second);
    if (verify) {
        std::printf("verification: %zu verified, %zu refuted, %zu unknown\n",
                    batch.jobs_verified, batch.jobs_refuted,
                    batch.jobs_unknown);
        if (batch.jobs_refuted > 0) {
            return 1;  // a committed result failed its equivalence proof
        }
    }
    return 0;
}

int cmd_serve(std::vector<std::string> args) {
    const auto swap_arg = flag_value(args, "--swap-model");
    const auto swap_after_arg = flag_value(args, "--swap-after");
    const std::size_t repeat = std::max<std::size_t>(
        1, numeric_flag<std::size_t>(args, "--repeat", 1));
    const FlowArgs parsed = parse_flow_args(args);
    const auto jobs = collect_jobs(args, parsed.all, parsed.scale);
    if (!jobs) {
        return 2;
    }
    if (jobs->empty()) {
        std::puts("serve requires at least one design (or --all)");
        return 2;
    }
    const std::size_t total = jobs->size() * repeat;
    const std::size_t swap_after =
        swap_after_arg ? parse_number<std::size_t>(*swap_after_arg,
                                                   "--swap-after")
                       : total / 2;

    auto initial = std::make_shared<bg::core::BoolGebraModel>(
        make_cli_model(parsed.model_path));
    bg::core::ServiceConfig scfg;
    scfg.workers = parsed.cfg.workers;
    scfg.rounds = parsed.cfg.rounds;
    scfg.flow = parsed.cfg.flow;
    bg::core::FlowService service(scfg, initial);
    std::printf("serving %zu jobs (%zu designs x %zu) on %zu workers\n",
                total, jobs->size(), repeat, service.workers());

    std::vector<std::future<bg::core::DesignFlowResult>> futures;
    futures.reserve(total);
    std::size_t submitted = 0;
    bool swapped = false;
    for (std::size_t r = 0; r < repeat; ++r) {
        for (const auto& job : *jobs) {
            if (swap_arg && !swapped && submitted >= swap_after) {
                // Hot-swap mid-stream: jobs already submitted keep the
                // snapshot they were bound to.  "fresh" reseeds so the
                // swapped model visibly ranks differently.
                auto swap_cfg = bg::core::ModelConfig::quick();
                if (*swap_arg == "fresh") {
                    swap_cfg.seed ^= 0x5EED;
                }
                auto next =
                    *swap_arg == "fresh"
                        ? std::make_shared<bg::core::BoolGebraModel>(
                              swap_cfg)
                        : std::make_shared<bg::core::BoolGebraModel>(
                              bg::core::load_checkpoint(*swap_arg,
                                                        swap_cfg));
                service.swap_model(std::move(next));
                swapped = true;
                std::printf("-- hot-swapped model after %zu submissions --\n",
                            submitted);
            }
            futures.push_back(service.submit(job));
            ++submitted;
        }
    }

    std::vector<std::string> headers = {"job", "design", "ands", "BG-Best",
                                        "D-Best", "V-Best", "final", "sec"};
    if (scfg.flow.verify) {
        headers.push_back("verify");
    }
    bg::TablePrinter table(headers);
    // Jobs bound to different snapshots (mid-stream --swap-model) may
    // rank differently; report every ranking seen, in encounter order.
    std::vector<std::string> rankings;
    for (std::size_t i = 0; i < futures.size(); ++i) {
        const auto d = futures[i].get();
        if (std::find(rankings.begin(), rankings.end(), d.flow.ranked_by) ==
            rankings.end()) {
            rankings.push_back(d.flow.ranked_by);
        }
        std::vector<std::string> row = {
            std::to_string(i), d.name, std::to_string(d.original_size),
            bg::TablePrinter::fmt(d.flow.bg_best_ratio),
            bg::TablePrinter::fmt(d.flow.bg_best_depth_ratio),
            bg::TablePrinter::fmt(d.flow.bg_best_value_ratio),
            bg::TablePrinter::fmt(d.iterated.final_ratio),
            bg::TablePrinter::fmt(d.seconds, 2)};
        if (scfg.flow.verify) {
            row.push_back(verify_cell(d.verification));
        }
        table.add_row(std::move(row));
    }
    service.stop();
    table.print();

    std::string ranked_by;
    for (const auto& r : rankings) {
        ranked_by += ranked_by.empty() ? "" : " -> ";
        ranked_by += r;
    }
    const auto st = service.stats();
    std::printf("\nobjective %s (ranked by %s)\n",
                bg::core::flow_objective(scfg.flow).name().c_str(),
                ranked_by.empty() ? "size" : ranked_by.c_str());
    std::printf("served %llu/%llu jobs in %.2fs uptime "
                "(%.2f jobs/s, %.1f samples/s, %llu samples)\n",
                static_cast<unsigned long long>(st.jobs_completed),
                static_cast<unsigned long long>(st.jobs_submitted),
                st.uptime_seconds, st.jobs_per_second, st.samples_per_second,
                static_cast<unsigned long long>(st.samples_run));
    std::printf("latency p50 %.3fs p95 %.3fs, busy %.2fs, "
                "model swaps %llu\n",
                st.p50_latency_seconds, st.p95_latency_seconds,
                st.busy_seconds,
                static_cast<unsigned long long>(st.model_swaps));
    if (scfg.flow.verify) {
        std::printf("verification: %llu verified, %llu refuted, "
                    "%llu unknown, %llu unverified "
                    "(cache %llu/%llu hits)\n",
                    static_cast<unsigned long long>(st.jobs_verified),
                    static_cast<unsigned long long>(st.jobs_refuted),
                    static_cast<unsigned long long>(st.jobs_unknown),
                    static_cast<unsigned long long>(st.jobs_unverified),
                    static_cast<unsigned long long>(st.verify_cache_hits),
                    static_cast<unsigned long long>(st.verify_cache_lookups));
        if (st.jobs_refuted > 0) {
            return 1;
        }
    }
    return 0;
}

/// Parse "NAME[:WEIGHT[:CAP]]" into a tenant registration.
bg::core::TenantConfig parse_tenant_spec(const std::string& spec) {
    bg::core::TenantConfig cfg;
    const auto first = spec.find(':');
    cfg.name = spec.substr(0, first);
    if (first != std::string::npos) {
        const auto second = spec.find(':', first + 1);
        cfg.weight = std::max<std::size_t>(
            1, parse_number<std::size_t>(
                   spec.substr(first + 1, second - first - 1),
                   "--tenant weight"));
        if (second != std::string::npos) {
            cfg.max_pending = parse_number<std::size_t>(
                spec.substr(second + 1), "--tenant cap");
        }
    }
    if (cfg.name.empty()) {
        throw std::invalid_argument("tenant spec '" + spec +
                                    "' has an empty name");
    }
    return cfg;
}

/// `serve --listen`: the network server mode.  Binds, prints the resolved
/// port (machine-readable first line, so scripts can grab an ephemeral
/// port), and serves until a client sends Shutdown.
int cmd_serve_listen(std::vector<std::string> args,
                     const std::string& listen_arg) {
    const auto bind_arg = flag_value(args, "--bind");
    std::vector<bg::core::TenantConfig> tenants;
    while (const auto tenant_arg = flag_value(args, "--tenant")) {
        tenants.push_back(parse_tenant_spec(*tenant_arg));
    }
    const FlowArgs parsed = parse_flow_args(args);
    if (!args.empty()) {
        std::fprintf(stderr, "serve --listen takes no design arguments "
                             "(clients submit designs); got '%s'\n",
                     args[0].c_str());
        return 2;
    }

    auto model = std::make_shared<bg::core::BoolGebraModel>(
        make_cli_model(parsed.model_path));
    bg::net::ServerConfig cfg;
    cfg.bind_address = bind_arg.value_or("127.0.0.1");
    cfg.port = parse_number<std::uint16_t>(listen_arg, "--listen");
    cfg.service.workers = parsed.cfg.workers;
    cfg.service.rounds = parsed.cfg.rounds;
    cfg.service.flow = parsed.cfg.flow;

    std::string tenant_line = "tenants: default";
    for (const auto& tenant : tenants) {
        tenant_line += ", " + tenant.name;
    }
    bg::net::FlowServer server(cfg, std::move(model), std::move(tenants));
    std::printf("listening on %s:%u\n%s\n", cfg.bind_address.c_str(),
                server.port(), tenant_line.c_str());
    std::fflush(stdout);

    server.wait_shutdown();
    const auto st = server.service().stats();
    server.stop();
    std::printf("served %llu jobs (%llu cancelled, %llu timed out, "
                "%llu rejected) in %.2fs; p50 %.3fs p95 %.3fs\n",
                static_cast<unsigned long long>(st.jobs_completed),
                static_cast<unsigned long long>(st.jobs_cancelled),
                static_cast<unsigned long long>(st.jobs_timed_out),
                static_cast<unsigned long long>(st.jobs_rejected),
                st.uptime_seconds, st.p50_latency_seconds,
                st.p95_latency_seconds);
    return 0;
}

const char* status_name(bg::net::JobStatus status) {
    switch (status) {
        case bg::net::JobStatus::Ok:
            return "ok";
        case bg::net::JobStatus::Cancelled:
            return "cancelled";
        case bg::net::JobStatus::TimedOut:
            return "timed-out";
        case bg::net::JobStatus::Rejected:
            return "rejected";
        case bg::net::JobStatus::Failed:
            return "failed";
    }
    return "?";
}

const char* verdict_name(bg::net::WireVerdict verdict) {
    switch (verdict) {
        case bg::net::WireVerdict::None:
            return "-";
        case bg::net::WireVerdict::Equivalent:
            return "equivalent";
        case bg::net::WireVerdict::NotEquivalent:
            return "NOT-equivalent";
        case bg::net::WireVerdict::ProbablyEquivalent:
            return "probably-equivalent";
    }
    return "?";
}

int cmd_client_flow(bg::net::FlowClient& client,
                    std::vector<std::string> args) {
    // Unset flags keep SubmitJobMsg's defaults.
    const bg::net::SubmitJobMsg defaults;
    const auto samples =
        numeric_flag<std::uint32_t>(args, "--samples", defaults.num_samples);
    const auto top_k =
        numeric_flag<std::uint32_t>(args, "--top-k", defaults.top_k);
    const auto rounds =
        numeric_flag<std::uint32_t>(args, "--rounds", defaults.rounds);
    const auto seed =
        numeric_flag<std::uint64_t>(args, "--seed", defaults.seed);
    const auto timeout =
        numeric_flag<double>(args, "--timeout", defaults.timeout_seconds);
    const double scale = numeric_flag<double>(args, "--scale", 1.0);
    const auto objective_arg = flag_value(args, "--objective");
    const bool verify = flag_present(args, "--verify");
    const bool send_spec = flag_present(args, "--send-spec");
    const bool progress = flag_present(args, "--progress");
    reject_unknown_flags(args);
    if (args.empty()) {
        std::puts("client flow requires at least one design");
        return 2;
    }

    auto fill = [&](bg::net::SubmitJobMsg& msg) {
        msg.num_samples = samples;
        msg.top_k = top_k;
        msg.rounds = rounds;
        msg.seed = seed;
        msg.timeout_seconds = timeout;
        if (objective_arg) {
            msg.objective = *objective_arg;
        }
        msg.verify = verify;
        msg.want_progress = progress;
    };

    // One SubmitJob per design: either resolved locally and uploaded as a
    // binary AIGER blob, or forwarded as a spec string (--send-spec) for
    // server-side registry/file resolution.
    std::vector<std::pair<std::uint64_t, std::string>> jobs;
    if (send_spec) {
        for (const auto& spec : args) {
            bg::net::SubmitJobMsg msg;
            msg.kind = bg::net::DesignKind::DesignSpec;
            msg.design = spec;
            fill(msg);
            jobs.emplace_back(client.submit(std::move(msg)), spec);
        }
    } else {
        const auto resolved =
            bg::circuits::resolve_design_specs(args, false, scale);
        for (const auto& design : resolved) {
            bg::net::SubmitJobMsg msg;
            msg.kind = bg::net::DesignKind::AigerBlob;
            msg.name = design.name;
            msg.design =
                bg::io::write_aiger_binary_string(design.load());
            fill(msg);
            jobs.emplace_back(client.submit(std::move(msg)), design.name);
        }
    }

    bg::TablePrinter table({"job", "design", "status", "ands", "final",
                            "ratio", "rounds", "verify", "sec"});
    bool any_bad = false;
    for (const auto& [job_id, name] : jobs) {
        const auto result = client.wait(
            job_id, [&](const bg::net::ProgressMsg& p) {
                if (progress) {
                    std::printf("  job %llu round %u: %llu ands\n",
                                static_cast<unsigned long long>(p.job_id),
                                p.round,
                                static_cast<unsigned long long>(p.ands));
                }
            });
        const bool ok = result.status == bg::net::JobStatus::Ok;
        const bool refuted =
            result.verdict == bg::net::WireVerdict::NotEquivalent;
        any_bad = any_bad || !ok || refuted;
        table.add_row(
            {std::to_string(job_id), name, status_name(result.status),
             ok ? std::to_string(result.original_ands) : "-",
             ok ? std::to_string(result.final_ands) : "-",
             ok ? bg::TablePrinter::fmt(result.final_ratio)
                : result.message,
             ok ? std::to_string(result.rounds_run) : "-",
             verdict_name(result.verdict),
             bg::TablePrinter::fmt(result.seconds, 2)});
    }
    table.print();
    return any_bad ? 1 : 0;
}

int cmd_client_stats(bg::net::FlowClient& client) {
    const auto st = client.stats();
    std::printf("jobs: %llu submitted, %llu completed, %llu pending, "
                "%llu cancelled, %llu timed out, %llu rejected\n",
                static_cast<unsigned long long>(st.jobs_submitted),
                static_cast<unsigned long long>(st.jobs_completed),
                static_cast<unsigned long long>(st.jobs_pending),
                static_cast<unsigned long long>(st.jobs_cancelled),
                static_cast<unsigned long long>(st.jobs_timed_out),
                static_cast<unsigned long long>(st.jobs_rejected));
    std::printf("verify: %llu verified, %llu refuted, %llu unknown; "
                "%llu samples; uptime %.2fs p50 %.3fs p95 %.3fs\n",
                static_cast<unsigned long long>(st.jobs_verified),
                static_cast<unsigned long long>(st.jobs_refuted),
                static_cast<unsigned long long>(st.jobs_unknown),
                static_cast<unsigned long long>(st.samples_run),
                st.uptime_seconds, st.p50_latency_seconds,
                st.p95_latency_seconds);
    for (const auto& t : st.tenants) {
        std::printf("tenant %-12s submitted %llu ok %llu cancelled %llu "
                    "timed-out %llu failed %llu rejected %llu pending "
                    "%llu\n",
                    t.name.empty() ? "(default)" : t.name.c_str(),
                    static_cast<unsigned long long>(t.submitted),
                    static_cast<unsigned long long>(t.ok),
                    static_cast<unsigned long long>(t.cancelled),
                    static_cast<unsigned long long>(t.timed_out),
                    static_cast<unsigned long long>(t.failed),
                    static_cast<unsigned long long>(t.rejected),
                    static_cast<unsigned long long>(t.pending));
    }
    return 0;
}

/// `client <host:port> flow|stats|shutdown ...`.  Exit codes: 0 success,
/// 1 a job failed or a verdict was refuted, 2 usage/connect errors.
int cmd_client(std::vector<std::string> args) {
    if (args.size() < 2) {
        std::puts("client requires <host:port> and a subcommand "
                  "(flow, stats, shutdown)");
        return 2;
    }
    const std::string endpoint = args[0];
    const std::string sub = args[1];
    args.erase(args.begin(), args.begin() + 2);

    bg::net::ClientConfig cfg;
    const auto colon = endpoint.rfind(':');
    if (colon == std::string::npos) {
        std::fprintf(stderr, "endpoint '%s' is not host:port\n",
                     endpoint.c_str());
        return 2;
    }
    cfg.host = endpoint.substr(0, colon);
    cfg.port = parse_number<std::uint16_t>(endpoint.substr(colon + 1),
                                           "endpoint port");
    cfg.token = flag_value(args, "--token").value_or("");

    try {
        bg::net::FlowClient client(std::move(cfg));
        if (sub == "flow") {
            return cmd_client_flow(client, std::move(args));
        }
        if (sub == "stats") {
            return cmd_client_stats(client);
        }
        if (sub == "shutdown") {
            client.request_shutdown();
            std::puts("server acknowledged shutdown");
            return 0;
        }
        std::fprintf(stderr, "unknown client subcommand '%s'\n",
                     sub.c_str());
        return 2;
    } catch (const bg::net::SocketError& e) {
        std::fprintf(stderr, "connection error: %s\n", e.what());
        return 2;
    } catch (const bg::net::RpcError& e) {
        std::fprintf(stderr, "server refused: %s\n", e.what());
        return 2;
    } catch (const bg::net::ProtocolError& e) {
        std::fprintf(stderr, "protocol error: %s\n", e.what());
        return 2;
    }
}

int cmd_apply(Aig g, std::vector<std::string> args) {
    const auto dec_arg = flag_value(args, "--decisions");
    const auto out_arg = flag_value(args, "-o");
    reject_unknown_flags(args);
    if (!dec_arg) {
        std::puts("apply requires --decisions <file.csv>");
        return 2;
    }
    auto decisions = bg::opt::load_decisions_csv(*dec_arg);
    if (decisions.size() < g.num_slots()) {
        decisions.resize(g.num_slots(), bg::opt::OpKind::None);
    }
    const auto res = bg::opt::orchestrate(g, decisions);
    std::printf("orchestrated: %zu -> %zu nodes (%d removed), depth %u -> "
                "%u, %zu ops applied\n",
                res.original_size, res.final_size, res.reduction(),
                res.original_depth, res.final_depth, res.num_applied);
    if (out_arg) {
        save_design(g, *out_arg);
    }
    return 0;
}

/// Standalone equivalence check.  Default races all three engines via the
/// portfolio; --engine pins one back end.  Exit codes: 0 = proven
/// equivalent, 1 = refuted (counterexample printed), 3 = undecided within
/// the budgets.
int cmd_cec(std::vector<std::string> args) {
    const auto engine_arg = flag_value(args, "--engine");
    if (args.size() != 2) {
        std::puts("cec requires exactly two designs");
        return 2;
    }
    const Aig a = load_design(args[0]);
    const Aig b = load_design(args[1]);
    if (a.num_pis() != b.num_pis() || a.num_pos() != b.num_pos()) {
        std::fprintf(stderr,
                     "error: %s (%zu PIs, %zu POs) and %s (%zu PIs, %zu "
                     "POs) have different interfaces\n",
                     args[0].c_str(), a.num_pis(), a.num_pos(),
                     args[1].c_str(), b.num_pis(), b.num_pos());
        return 2;
    }
    const std::string engine = engine_arg.value_or("portfolio");

    bg::verify::VerifyReport report;
    if (engine == "sim") {
        const bg::Stopwatch watch;
        auto r = bg::aig::check_equivalence_full(a, b);
        report.verdict = r.verdict;
        report.engine = bg::verify::Engine::Simulation;
        report.counterexample = std::move(r.counterexample);
        report.seconds = watch.seconds();
    } else if (engine == "bdd") {
        const bg::Stopwatch watch;
        report.verdict = bg::bdd::check_equivalence_bdd(a, b);
        report.engine = bg::verify::Engine::Bdd;
        report.seconds = watch.seconds();
    } else if (engine == "sat") {
        const bg::Stopwatch watch;
        auto r = bg::sat::check_equivalence_sat_full(a, b);
        report.verdict = r.verdict;
        report.engine = bg::verify::Engine::Sat;
        report.counterexample = std::move(r.counterexample);
        report.seconds = watch.seconds();
    } else if (engine == "portfolio") {
        bg::verify::PortfolioCec prover;
        report = prover.check(a, b);
    } else {
        std::fprintf(stderr,
                     "error: unknown engine '%s' "
                     "(sim, bdd, sat or portfolio)\n",
                     engine.c_str());
        return 2;
    }

    std::printf("%s (engine %s, %.3fs)\n",
                bg::aig::to_string(report.verdict).c_str(),
                bg::verify::to_string(report.engine).c_str(),
                report.seconds);
    if (report.verdict == bg::aig::CecVerdict::NotEquivalent &&
        !report.counterexample.empty()) {
        std::string bits;
        bits.reserve(report.counterexample.size());
        for (const bool v : report.counterexample) {
            bits += v ? '1' : '0';
        }
        std::printf("counterexample (PI order): %s\n", bits.c_str());
    }
    switch (report.verdict) {
        case bg::aig::CecVerdict::Equivalent:
            return 0;
        case bg::aig::CecVerdict::NotEquivalent:
            return 1;
        case bg::aig::CecVerdict::ProbablyEquivalent:
            return 3;
    }
    return 3;
}

}  // namespace

int main(int argc, char** argv) {
    if (argc < 2) {
        return usage();
    }
    const std::string cmd = argv[1];
    std::vector<std::string> args(argv + 2, argv + argc);
    try {
        if (cmd == "list") {
            for (const auto& info : bg::circuits::benchmark_registry()) {
                std::printf("%-7s %-10s pis=%-4u target=%zu\n",
                            info.name.c_str(),
                            info.family == bg::circuits::Family::Control
                                ? "control"
                                : "arithmetic",
                            info.num_pis, info.target_ands);
            }
            return 0;
        }
        if (cmd == "stats" && !args.empty() && args.size() <= 2) {
            const bool check =
                args.size() == 2 && args[1] == "--check";
            if (args.size() == 2 && !check) {
                std::fprintf(stderr, "unknown stats flag: %s\n",
                             args[1].c_str());
                return 2;
            }
            return cmd_stats(load_design(args[0]), check);
        }
        if (cmd == "opt" && !args.empty()) {
            Aig g = load_design(args[0]);
            args.erase(args.begin());
            return cmd_opt(std::move(g), std::move(args));
        }
        if (cmd == "sample" && !args.empty()) {
            Aig g = load_design(args[0]);
            args.erase(args.begin());
            return cmd_sample(std::move(g), std::move(args));
        }
        if (cmd == "train" && !args.empty()) {
            Aig g = load_design(args[0]);
            args.erase(args.begin());
            return cmd_train(std::move(g), std::move(args));
        }
        if (cmd == "flow") {
            return cmd_flow(std::move(args));
        }
        if (cmd == "serve") {
            if (const auto listen_arg = flag_value(args, "--listen")) {
                return cmd_serve_listen(std::move(args), *listen_arg);
            }
            return cmd_serve(std::move(args));
        }
        if (cmd == "client") {
            return cmd_client(std::move(args));
        }
        if (cmd == "apply" && !args.empty()) {
            Aig g = load_design(args[0]);
            args.erase(args.begin());
            return cmd_apply(std::move(g), std::move(args));
        }
        if (cmd == "cec" && !args.empty()) {
            return cmd_cec(std::move(args));
        }
        if (cmd == "map" && !args.empty()) {
            Aig g = load_design(args[0]);
            args.erase(args.begin());
            bg::opt::LutMapParams p;
            p.k = numeric_flag<unsigned>(args, "-k", 6);
            reject_unknown_flags(args);
            const auto m = bg::opt::map_to_luts(g, p);
            std::printf("%u-LUT mapping: %zu LUTs, depth %u "
                        "(from %zu AND nodes, depth %u)\n",
                        p.k, m.num_luts(), m.depth, g.num_ands(), g.depth());
            return 0;
        }
        if (cmd == "convert" && args.size() == 2) {
            save_design(load_design(args[0]), args[1]);
            return 0;
        }
    } catch (const bg::circuits::DesignSourceError& e) {
        // Bad design spec (unknown name, empty glob, unreadable or
        // malformed file): a usage-class failure, exit 2.
        std::fprintf(stderr, "error: %s\n", e.what());
        return 2;
    } catch (const UsageError& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 2;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
    return usage();
}
