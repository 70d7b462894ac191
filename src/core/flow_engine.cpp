#include "core/flow_engine.hpp"

#include <algorithm>

#include "circuits/design_source.hpp"
#include "circuits/registry.hpp"
#include "core/flow_service.hpp"
#include "util/contracts.hpp"
#include "util/glob.hpp"
#include "util/progress.hpp"

namespace bg::core {

using aig::Aig;

DesignFlowResult run_design_flow(const DesignJob& job,
                                 const BoolGebraModel& model,
                                 const FlowConfig& flow_cfg,
                                 std::size_t rounds, ThreadPool* pool,
                                 verify::PortfolioCec* prover,
                                 const JobControl* control) {
    BG_EXPECTS(rounds >= 1, "a design flow needs at least one round");
    const opt::Objective& obj = flow_objective(flow_cfg);
    const bg::CancelToken* cancel =
        control != nullptr ? control->cancel : nullptr;
    DesignFlowResult res;
    res.name = job.name;
    res.original_size = job.design.num_ands();
    res.iterated.original_size = res.original_size;

    const bg::Stopwatch watch;
    Aig current = job.design;
    FlowConfig round_cfg = flow_cfg;
    // Iterated flows are proven once end-to-end below (final committed
    // graph vs input design) — cheaper and strictly stronger than proving
    // each round; a single uncommitted round verifies inside run_flow.
    round_cfg.verify = flow_cfg.verify && rounds == 1;
    // The token rides OptParams into every run_flow stage and orchestrate
    // node walk; null leaves those paths bit-identical to uncontrolled
    // runs.  A provided JobControl owns the cancel decision; without one,
    // whatever the caller put in flow.opt.cancel stays in effect.
    if (control != nullptr) {
        round_cfg.opt.cancel = cancel;
    }

    bool round1_productive = false;
    for (std::size_t round = 0; round < rounds; ++round) {
        poll_cancel(cancel, "run_design_flow round boundary");
        round_cfg.seed = flow_cfg.seed + round;  // fresh samples per round
        // Per-round caches shared by every flow step of this design.
        const StaticFeatures st =
            compute_static_features(current, round_cfg.opt, pool);
        const GraphCsr csr = build_csr(current);
        FlowContext ctx;
        ctx.static_features = &st;
        ctx.csr = &csr;
        ctx.pool = pool;
        ctx.prover = prover;
        const FlowResult flow = run_flow(current, model, round_cfg, ctx);
        res.samples_run += flow.samples_evaluated;
        // Productive = the objective-best strictly improves on the round's
        // entry cost (under size: best_reduction > 0, as before).
        const bool productive =
            !flow.best_decisions.empty() &&
            obj.better(flow.best_cost, flow.original_cost);
        if (round == 0) {
            res.flow = flow;
            res.iterated.original_depth = flow.original_depth;
            round1_productive = productive;
        }
        if (!productive) {
            break;
        }
        res.iterated.per_round_reduction.push_back(flow.best_reduction);
        if (rounds == 1) {
            break;  // single-shot: nothing is committed
        }
        opt::orchestrate(current, flow.best_decisions, round_cfg.opt, obj);
        current = current.compact();
        if (control != nullptr && control->on_progress) {
            control->on_progress(round + 1, current.num_ands());
        }
    }
    if (rounds == 1) {
        // Final size/depth are the best evaluated candidate's
        // (uncommitted).
        res.iterated.final_size =
            res.original_size -
            static_cast<std::size_t>(std::max(res.flow.best_reduction, 0));
        res.iterated.final_ratio = res.flow.bg_best_ratio;
        res.iterated.final_depth = res.flow.best_cost.depth;
        res.iterated.final_depth_ratio = res.flow.bg_best_depth_ratio;
        res.verification = res.flow.verification;
        if (control != nullptr && control->on_progress) {
            control->on_progress(1, res.iterated.final_size);
        }
        if (control != nullptr && control->want_graph) {
            // Re-materialize the best candidate exactly as the verify
            // path does (deterministic re-run; the k evaluated graphs
            // were deliberately not retained).
            if (round1_productive) {
                Aig best_graph;
                (void)evaluate_decisions(job.design,
                                         res.flow.best_decisions,
                                         round_cfg.opt, obj, &best_graph);
                res.final_graph =
                    std::make_shared<const Aig>(std::move(best_graph));
            } else {
                res.final_graph = std::make_shared<const Aig>(job.design);
            }
        }
    } else {
        res.iterated.final_size = current.num_ands();
        res.iterated.final_ratio =
            static_cast<double>(res.iterated.final_size) /
            static_cast<double>(res.iterated.original_size);
        res.iterated.final_depth = current.depth();
        res.iterated.final_depth_ratio =
            res.iterated.original_depth != 0
                ? static_cast<double>(res.iterated.final_depth) /
                      static_cast<double>(res.iterated.original_depth)
                : 1.0;
        if (flow_cfg.verify) {
            // One end-to-end proof of everything that was committed.
            if (prover != nullptr) {
                res.verification = prover->check(job.design, current);
            } else {
                verify::PortfolioCec local(flow_cfg.verify_opts, pool);
                res.verification = local.check(job.design, current);
            }
        }
        if (control != nullptr && control->want_graph) {
            res.final_graph = std::make_shared<const Aig>(std::move(current));
        }
    }
    res.seconds = watch.seconds();
    return res;
}

FlowEngine::FlowEngine(EngineConfig cfg) : cfg_(cfg) {
    BG_EXPECTS(cfg_.rounds >= 1, "engine needs at least one flow round");
    ServiceConfig scfg;
    scfg.workers = cfg_.workers;
    scfg.rounds = cfg_.rounds;
    scfg.flow = cfg_.flow;
    service_ = std::make_unique<FlowService>(scfg);
}

FlowEngine::~FlowEngine() = default;

std::size_t FlowEngine::workers() const { return service_->workers(); }

DesignFlowResult FlowEngine::run_one(const DesignJob& job,
                                     const BoolGebraModel& model) {
    return run_design_flow(job, model, cfg_.flow, cfg_.rounds,
                           &service_->pool(), service_->prover());
}

BatchFlowResult FlowEngine::run(std::span<const DesignJob> jobs,
                                const BoolGebraModel& model) {
    BatchFlowResult out;
    out.designs.resize(jobs.size());
    const bg::Stopwatch watch;
    // Non-owning snapshot: `model` outlives the batch because every
    // future is waited on below, and the service's reference is dropped
    // again before returning.
    service_->swap_model(ModelSnapshot(&model, [](const BoolGebraModel*) {}));
    try {
        std::vector<std::future<DesignFlowResult>> futures;
        futures.reserve(jobs.size());
        for (const auto& job : jobs) {
            futures.push_back(service_->submit(job));
        }
        for (std::size_t j = 0; j < futures.size(); ++j) {
            out.designs[j] = futures[j].get();
        }
    } catch (...) {
        // Never keep the non-owning snapshot past this call: wait out any
        // already-submitted jobs, drop the reference, then rethrow.
        service_->drain();
        service_->swap_model(nullptr);
        throw;
    }
    service_->swap_model(nullptr);
    out.total_seconds = watch.seconds();
    out.objective = flow_objective(cfg_.flow).name();
    out.ranked_by =
        plan_ranking(model, flow_objective(cfg_.flow), cfg_.flow.ranking_head)
            .describe;

    if (!out.designs.empty()) {
        double best = 0.0;
        double mean = 0.0;
        double final_r = 0.0;
        double best_depth = 0.0;
        double best_value = 0.0;
        double final_depth = 0.0;
        for (const auto& d : out.designs) {
            best += d.flow.bg_best_ratio;
            mean += d.flow.bg_mean_ratio;
            final_r += d.iterated.final_ratio;
            best_depth += d.flow.bg_best_depth_ratio;
            best_value += d.flow.bg_best_value_ratio;
            final_depth += d.iterated.final_depth_ratio;
            out.total_samples += d.samples_run;
            if (d.verification) {
                switch (d.verification->verdict) {
                    case aig::CecVerdict::Equivalent:
                        ++out.jobs_verified;
                        break;
                    case aig::CecVerdict::NotEquivalent:
                        ++out.jobs_refuted;
                        break;
                    case aig::CecVerdict::ProbablyEquivalent:
                        ++out.jobs_unknown;
                        break;
                }
            }
        }
        const auto n = static_cast<double>(out.designs.size());
        out.avg_bg_best_ratio = best / n;
        out.avg_bg_mean_ratio = mean / n;
        out.avg_final_ratio = final_r / n;
        out.avg_bg_best_depth_ratio = best_depth / n;
        out.avg_bg_best_value_ratio = best_value / n;
        out.avg_final_depth_ratio = final_depth / n;
    }
    if (out.total_seconds > 0.0) {
        out.designs_per_second =
            static_cast<double>(out.designs.size()) / out.total_seconds;
        out.samples_per_second =
            static_cast<double>(out.total_samples) / out.total_seconds;
    }
    return out;
}

std::vector<DesignJob> jobs_from_registry(std::span<const std::string> names,
                                          double scale) {
    std::vector<DesignJob> jobs;
    jobs.reserve(names.size());
    for (const auto& name : names) {
        // One code path for every scale: make_benchmark_scaled(name, 1.0)
        // reproduces make_benchmark exactly (asserted by
        // tests/test_flow_engine.cpp), so no float-equality dispatch.
        jobs.push_back({name, circuits::make_benchmark_scaled(name, scale)});
    }
    return jobs;
}

bool glob_match(const std::string& pattern, const std::string& text) {
    return bg::glob_match(pattern, text);
}

std::vector<std::string> expand_registry_pattern(const std::string& pattern) {
    std::vector<std::string> out;
    for (const auto& info : circuits::benchmark_registry()) {
        if (glob_match(pattern, info.name)) {
            out.push_back(info.name);
        }
    }
    return out;
}

std::vector<DesignJob> jobs_from_specs(const std::vector<std::string>& specs,
                                       bool all, double scale) {
    std::vector<DesignJob> jobs;
    for (const auto& r :
         circuits::resolve_design_specs(specs, all, scale)) {
        jobs.push_back({r.name, r.load()});
    }
    return jobs;
}

}  // namespace bg::core
