#include "replay.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace perfbench {

using bg::aig::Aig;
namespace core = bg::core;
namespace opt = bg::opt;

ReplayOutcome replay_design_flow(const core::DesignJob& job,
                                 const core::BoolGebraModel& model,
                                 const core::FlowConfig& flow,
                                 std::size_t rounds, bg::ThreadPool& pool,
                                 bg::verify::PortfolioCec* prover,
                                 Tracer& tracer, std::uint64_t parent,
                                 std::uint64_t job_id) {
    if (rounds == 0 || (flow.verify && rounds == 1) ||
        flow.intra_workers >= 2 || flow.incremental_features) {
        throw std::invalid_argument("replay: unsupported flow shape");
    }
    const opt::Objective& obj = core::flow_objective(flow);
    ReplayOutcome out;
    Aig current = job.design;
    core::FlowConfig cfg = flow;
    opt::DecisionVector round1_best;

    for (std::size_t round = 0; round < rounds; ++round) {
        const Span round_span(&tracer, "round", parent, job_id);
        const std::uint64_t rs = round_span.id();
        cfg.seed = flow.seed + round;

        // run_design_flow's per-round caches.
        core::StaticFeatures st;
        {
            const Span s(&tracer, "features.static", rs, job_id);
            st = core::compute_static_features(current, cfg.opt);
        }
        core::GraphCsr csr;
        {
            const Span s(&tracer, "features.csr", rs, job_id);
            csr = core::build_csr(current);
        }

        // run_flow, step 1: sample.
        const opt::CostVector original_cost = obj.measure(current);
        std::vector<opt::DecisionVector> decisions;
        {
            const Span s(&tracer, "sampling.decisions", rs, job_id);
            decisions = core::generate_decisions(current, cfg.num_samples,
                                                 cfg.guided, cfg.seed, st);
        }

        // Step 2: estimated dynamic features into one stacked matrix.
        const std::size_t num_nodes = current.num_slots();
        const auto row_floats =
            num_nodes * static_cast<std::size_t>(core::feature_dim);
        bg::nn::Matrix stacked(decisions.size() * num_nodes,
                               static_cast<std::size_t>(core::feature_dim));
        {
            const Span s(&tracer, "features.dynamic", rs, job_id);
            pool.for_each(decisions.size(), [&](std::size_t i) {
                const auto applied =
                    core::predicted_applied(current, decisions[i], st);
                const auto dy =
                    core::compute_dynamic_features(current, applied);
                core::assemble_features_into(
                    st, dy, cfg.features,
                    {stacked.row(i * num_nodes), row_floats});
            });
        }
        std::vector<double> predictions;
        {
            const Span s(&tracer, "model.infer", rs, job_id);
            const core::RankingPlan plan =
                core::plan_ranking(model, obj, cfg.ranking_head);
            predictions =
                plan.single_head
                    ? model.predict_batch_head(
                          csr, num_nodes, stacked, *plan.single_head,
                          core::BoolGebraModel::kPredictBatch, &pool)
                    : model.predict_batch_blend(
                          csr, num_nodes, stacked, plan.weights,
                          core::BoolGebraModel::kPredictBatch, &pool);
        }
        out.samples += predictions.size();

        // Step 3: exact evaluation of the top-k.
        std::vector<std::size_t> order(decisions.size());
        std::iota(order.begin(), order.end(), std::size_t{0});
        std::stable_sort(order.begin(), order.end(),
                         [&](std::size_t a, std::size_t b) {
                             return predictions[a] < predictions[b];
                         });
        const std::size_t k = std::min(cfg.top_k, order.size());
        ReplayRound rr;
        rr.selected.assign(order.begin(),
                           order.begin() + static_cast<std::ptrdiff_t>(k));
        std::vector<core::SampleRecord> evaluated(k);
        std::vector<opt::CostVector> costs(k);
        {
            const Span s(&tracer, "opt.eval", rs, job_id);
            const std::uint64_t eval_id = s.id();
            pool.for_each(k, [&](std::size_t i) {
                const Span c(&tracer, "opt.eval.candidate", eval_id, job_id);
                Aig optimized;
                const bool keep = obj.needs_graph();
                evaluated[i] = core::evaluate_decisions(
                    current, decisions[rr.selected[i]], cfg.opt, obj,
                    keep ? &optimized : nullptr);
                const auto& rec = evaluated[i];
                costs[i] = keep ? obj.measure(optimized)
                                : opt::CostVector{
                                      obj.scalar(rec.final_size,
                                                 rec.final_depth),
                                      rec.final_size, rec.final_depth};
            });
        }
        std::size_t best = 0;
        for (std::size_t i = 1; i < k; ++i) {
            if (obj.better(costs[i], costs[best])) {
                best = i;
            }
        }
        rr.best_reduction = std::max(evaluated[best].reduction, 0);
        rr.productive = !evaluated[best].decisions.empty() &&
                        obj.better(costs[best], original_cost);
        const bool commit = rr.productive && rounds > 1;
        if (round == 0) {
            round1_best = evaluated[best].decisions;
        }
        if (commit) {
            {
                const Span s(&tracer, "opt.commit", rs, job_id);
                const auto res = opt::orchestrate(
                    current, evaluated[best].decisions, cfg.opt, obj);
                out.checked += res.num_checked;
                out.applied += res.num_applied;
            }
            const Span s(&tracer, "aig.compact", rs, job_id);
            current = current.compact();
        }
        rr.ands_after = current.num_ands();
        const bool stop = !rr.productive || rounds == 1;
        out.rounds.push_back(std::move(rr));
        if (stop) {
            break;
        }
    }

    if (rounds == 1) {
        // run_design_flow re-materializes the round-1 winner for
        // want_graph; the replay commits it on a copy, which also feeds
        // the commit/compact layers on single-round workloads.
        const ReplayRound& r1 = out.rounds.front();
        Aig g = job.design;
        if (r1.productive) {
            {
                const Span s(&tracer, "opt.commit", parent, job_id);
                const auto res =
                    opt::orchestrate(g, round1_best, cfg.opt, obj);
                out.checked += res.num_checked;
                out.applied += res.num_applied;
            }
            const Span s(&tracer, "aig.compact", parent, job_id);
            g = g.compact();
        }
        out.final_ands =
            job.design.num_ands() - static_cast<std::size_t>(r1.best_reduction);
        out.final_graph = std::make_shared<const Aig>(std::move(g));
        return out;
    }
    out.final_ands = current.num_ands();
    if (flow.verify) {
        const Span s(&tracer, "verify.check", parent, job_id);
        if (prover != nullptr) {
            out.verification = prover->check(job.design, current);
        } else {
            bg::verify::PortfolioCec local(flow.verify_opts, &pool);
            out.verification = local.check(job.design, current);
        }
    }
    out.final_graph = std::make_shared<const Aig>(std::move(current));
    return out;
}

}  // namespace perfbench
