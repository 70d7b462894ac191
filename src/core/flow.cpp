#include "core/flow.hpp"

#include <algorithm>
#include <cstdio>
#include <numeric>
#include <utility>

#include "util/contracts.hpp"
#include "util/parallel.hpp"

namespace bg::core {

using aig::Aig;
using aig::Var;
using opt::DecisionVector;
using opt::OpKind;

std::vector<OpKind> predicted_applied(const Aig& g, const DecisionVector& d,
                                      const StaticFeatures& st) {
    BG_EXPECTS(d.size() >= g.num_slots() && st.size() >= g.num_slots(),
               "decisions and features must cover every var");
    std::vector<OpKind> applied(g.num_slots(), OpKind::None);
    for (Var v = 0; v < g.num_slots(); ++v) {
        if (!g.is_and(v) || g.is_dead(v) || d[v] == OpKind::None) {
            continue;
        }
        // Feature layout: applicability flags at columns 2 (rw), 4 (rs),
        // 6 (rf).
        const int col = 2 + 2 * opt::op_index(d[v]);
        if (st[v][static_cast<std::size_t>(col)] > 0.5F) {
            applied[v] = d[v];
        }
    }
    return applied;
}

std::vector<DecisionVector> generate_decisions(const Aig& design,
                                               std::size_t n, bool guided,
                                               std::uint64_t seed,
                                               const StaticFeatures& st) {
    bg::Rng rng(seed);
    std::vector<DecisionVector> out;
    out.reserve(n);
    if (!guided) {
        for (std::size_t i = 0; i < n; ++i) {
            out.push_back(random_decisions(design, rng));
        }
        return out;
    }
    const DecisionVector base = priority_decisions(design, st, rng);
    if (n > 0) {
        out.push_back(base);
    }
    static constexpr double fractions[] = {0.1, 0.2, 0.3, 0.4, 0.5,
                                           0.6, 0.7, 0.8, 0.9};
    for (std::size_t i = 1; i < n; ++i) {
        const double frac = fractions[(i - 1) % std::size(fractions)];
        out.push_back(mutate_decisions(design, base, frac, rng));
    }
    return out;
}

const opt::Objective& flow_objective(const FlowConfig& cfg) {
    return cfg.objective != nullptr ? *cfg.objective : opt::size_objective();
}

namespace {

double weight_for(const opt::PredictionWeights& w, MetricHead head) {
    switch (head) {
        case MetricHead::Size:
            return w.size;
        case MetricHead::Depth:
            return w.depth;
        case MetricHead::Luts:
            return w.luts;
    }
    return 0.0;
}

std::string format_weight(double w) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%g", w);
    return buf;
}

}  // namespace

RankingPlan plan_ranking(const BoolGebraModel& model,
                         const opt::Objective& objective,
                         std::optional<MetricHead> override_head) {
    RankingPlan plan;
    plan.weights.assign(model.num_heads(), 0.0);
    // The size head is the universal fallback (every model carries it).
    const std::size_t size_head =
        model.head_index(MetricHead::Size).value();

    if (override_head) {
        if (const auto idx = model.head_index(*override_head)) {
            plan.single_head = *idx;
            plan.describe = to_string(*override_head);
        } else {
            plan.single_head = size_head;
            plan.describe = std::string(to_string(MetricHead::Size)) +
                            "-proxy";
        }
        plan.weights[*plan.single_head] = 1.0;
        return plan;
    }

    const opt::PredictionWeights want = objective.prediction_weights();
    std::vector<std::pair<std::size_t, double>> terms;
    bool dropped = false;
    for (const MetricHead head :
         {MetricHead::Size, MetricHead::Depth, MetricHead::Luts}) {
        const double w = weight_for(want, head);
        if (w == 0.0) {
            continue;
        }
        if (const auto idx = model.head_index(head)) {
            terms.emplace_back(*idx, w);
        } else {
            dropped = true;  // the model was not trained with this head
        }
    }
    if (terms.empty()) {
        // None of the requested heads exist: size-as-proxy, the PR-4
        // behavior on legacy single-head checkpoints.
        plan.single_head = size_head;
        plan.weights[size_head] = 1.0;
        plan.describe = std::string(to_string(MetricHead::Size)) + "-proxy";
        return plan;
    }
    if (terms.size() == 1) {
        // One head suffices: use its raw column (bit-identical to the
        // single-head predictor path — no weight multiplication).
        plan.single_head = terms.front().first;
        plan.weights[terms.front().first] = 1.0;
        plan.describe = to_string(model.heads()[terms.front().first]);
        if (dropped) {
            plan.describe += "-proxy";
        }
        return plan;
    }
    std::string name = "blend(";
    for (std::size_t t = 0; t < terms.size(); ++t) {
        plan.weights[terms[t].first] = terms[t].second;
        if (t != 0) {
            name += ',';
        }
        name += to_string(model.heads()[terms[t].first]);
        name += ':';
        name += format_weight(terms[t].second);
    }
    name += ')';
    if (dropped) {
        name += "-proxy";
    }
    plan.describe = std::move(name);
    return plan;
}

FlowResult run_flow(const Aig& design, const BoolGebraModel& model,
                    const FlowConfig& cfg) {
    return run_flow(design, model, cfg, FlowContext{});
}

FlowResult run_flow(const Aig& design, const BoolGebraModel& model,
                    const FlowConfig& cfg, const FlowContext& ctx) {
    BG_EXPECTS(cfg.num_samples > 0 && cfg.top_k > 0,
               "flow needs samples and a positive top-k");
    cfg.opt.validate();
    // Stage-boundary cancel points (the exact-evaluation and commit inner
    // loops poll the same token through OptParams inside orchestrate).
    poll_cancel(cfg.opt.cancel, "run_flow entry");
    const opt::Objective& obj = flow_objective(cfg);
    FlowResult res;
    res.original_size = design.num_ands();
    res.objective = obj.name();
    res.original_cost = obj.measure(design);  // runs lut_map for `luts`
    res.original_depth = res.original_cost.depth;

    const auto pfor = [&ctx](std::size_t n, auto&& f) {
        if (ctx.pool != nullptr) {
            ctx.pool->for_each(n, f);
        } else {
            bg::parallel_for(n, f);
        }
    };

    // Step 1: sample decision vectors (static features cached per design
    // round by callers that run many flows, e.g. the FlowEngine).
    StaticFeatures st_local;
    const StaticFeatures* st_src = ctx.static_features;
    if (st_src == nullptr) {
        st_local = compute_static_features(design, cfg.opt, ctx.pool);
        st_src = &st_local;
    }
    const StaticFeatures& st = *st_src;
    poll_cancel(cfg.opt.cancel, "run_flow sampling");
    const auto decisions = generate_decisions(design, cfg.num_samples,
                                              cfg.guided, cfg.seed, st);

    // Step 2: prune with the predictor (cheap estimated dynamic features).
    // Candidate features are assembled directly into the stacked batch
    // matrix so inference sees one contiguous block.
    GraphCsr csr_local;
    const GraphCsr* csr_src = ctx.csr;
    if (csr_src == nullptr) {
        csr_local = build_csr(design);
        csr_src = &csr_local;
    }
    const GraphCsr& csr = *csr_src;
    const std::size_t num_nodes = design.num_slots();
    nn::Matrix stacked(decisions.size() * num_nodes,
                       static_cast<std::size_t>(feature_dim));
    pfor(decisions.size(), [&](std::size_t i) {
        const auto applied = predicted_applied(design, decisions[i], st);
        const auto dy = compute_dynamic_features(design, applied);
        assemble_features_into(
            st, dy, cfg.features,
            {stacked.row(i * num_nodes),
             num_nodes * static_cast<std::size_t>(feature_dim)});
    });
    // Head selection: rank under the head(s) the objective asks for,
    // falling back to the size head when the model lacks them (legacy
    // single-head checkpoints keep the PR-4 size-as-proxy ranking bit for
    // bit — plan.single_head reads the raw column, no reweighting).
    const RankingPlan plan =
        plan_ranking(model, obj, cfg.ranking_head);
    poll_cancel(cfg.opt.cancel, "run_flow prediction");
    res.ranked_by = plan.describe;
    res.predictions =
        plan.single_head
            ? model.predict_batch_head(csr, num_nodes, stacked,
                                       *plan.single_head,
                                       BoolGebraModel::kPredictBatch,
                                       ctx.pool)
            : model.predict_batch_blend(csr, num_nodes, stacked,
                                        plan.weights,
                                        BoolGebraModel::kPredictBatch,
                                        ctx.pool);
    res.samples_evaluated = res.predictions.size();

    // Step 3: evaluate the top-k exactly (smaller score = better).
    poll_cancel(cfg.opt.cancel, "run_flow evaluation");
    std::vector<std::size_t> order(decisions.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                         return res.predictions[a] < res.predictions[b];
                     });
    const std::size_t k = std::min(cfg.top_k, order.size());
    res.selected.assign(order.begin(),
                        order.begin() + static_cast<std::ptrdiff_t>(k));

    std::vector<SampleRecord> evaluated(k);
    std::vector<opt::CostVector> costs(k);
    pfor(k, [&](std::size_t i) {
        Aig optimized;
        const bool keep_graph = obj.needs_graph();
        evaluated[i] =
            evaluate_decisions(design, decisions[res.selected[i]], cfg.opt,
                               obj, keep_graph ? &optimized : nullptr);
        const auto& rec = evaluated[i];
        costs[i] = keep_graph
                       ? obj.measure(optimized)
                       : opt::CostVector{
                             obj.scalar(rec.final_size, rec.final_depth),
                             rec.final_size, rec.final_depth};
    });
    double sum_ratio = 0.0;
    double sum_reduction = 0.0;
    double sum_depth_ratio = 0.0;
    double sum_value_ratio = 0.0;
    std::size_t best_idx = k;  // none yet; the first candidate claims it
    for (std::size_t i = 0; i < evaluated.size(); ++i) {
        const auto& rec = evaluated[i];
        res.reductions.push_back(rec.reduction);
        res.costs.push_back(costs[i]);
        // First strictly-better wins, so ties keep prediction order —
        // under size this reproduces the pre-objective "max reduction,
        // first index" selection exactly.
        if (best_idx == k || obj.better(costs[i], costs[best_idx])) {
            best_idx = i;
        }
        sum_reduction += rec.reduction;
        sum_ratio += static_cast<double>(rec.final_size) /
                     static_cast<double>(res.original_size);
        sum_depth_ratio += res.original_depth != 0
                               ? static_cast<double>(rec.final_depth) /
                                     static_cast<double>(res.original_depth)
                               : 1.0;
        sum_value_ratio += res.original_cost.value > 0.0
                               ? costs[i].value / res.original_cost.value
                               : 1.0;
    }
    res.best_cost = costs[best_idx];
    res.best_decisions = evaluated[best_idx].decisions;
    res.best_reduction =
        std::max(evaluated[best_idx].reduction, res.best_reduction);
    res.mean_reduction = sum_reduction / static_cast<double>(k);
    res.bg_mean_ratio = sum_ratio / static_cast<double>(k);
    res.bg_best_ratio =
        static_cast<double>(static_cast<int>(res.original_size) -
                            res.best_reduction) /
        static_cast<double>(res.original_size);
    res.bg_mean_depth_ratio = sum_depth_ratio / static_cast<double>(k);
    res.bg_best_depth_ratio =
        res.original_depth != 0
            ? static_cast<double>(res.best_cost.depth) /
                  static_cast<double>(res.original_depth)
            : 1.0;
    res.bg_mean_value_ratio = sum_value_ratio / static_cast<double>(k);
    res.bg_best_value_ratio = res.original_cost.value > 0.0
                                  ? res.best_cost.value /
                                        res.original_cost.value
                                  : 1.0;

    if (cfg.verify) {
        poll_cancel(cfg.opt.cancel, "run_flow verification");
        // Re-materialize the winner (deterministic re-run keeps peak
        // memory flat: no need to retain k optimized graphs above) and
        // prove it against the input design.
        Aig best_graph;
        (void)evaluate_decisions(design, decisions[res.selected[best_idx]],
                                 cfg.opt, obj, &best_graph);
        if (ctx.prover != nullptr) {
            res.verification = ctx.prover->check(design, best_graph);
        } else {
            verify::PortfolioCec prover(cfg.verify_opts, ctx.pool);
            res.verification = prover.check(design, best_graph);
        }
    }
    return res;
}

IteratedFlowResult run_iterated_flow(const Aig& design,
                                     const BoolGebraModel& model,
                                     const FlowConfig& cfg,
                                     std::size_t max_rounds,
                                     ThreadPool* pool) {
    BG_EXPECTS(max_rounds >= 1, "need at least one round");
    const opt::Objective& obj = flow_objective(cfg);
    IteratedFlowResult out;
    out.original_size = design.num_ands();
    out.original_depth = design.depth();
    Aig current = design;
    FlowConfig round_cfg = cfg;
    FlowContext ctx;
    ctx.pool = pool;

    for (std::size_t round = 0; round < max_rounds; ++round) {
        round_cfg.seed = cfg.seed + round;  // fresh samples per round
        const auto flow = run_flow(current, model, round_cfg, ctx);
        // Stop when the round's objective-best does not strictly improve
        // on the round's entry cost (under size: best_reduction <= 0,
        // exactly the pre-objective stop).
        if (flow.best_decisions.empty() ||
            !obj.better(flow.best_cost, flow.original_cost)) {
            break;
        }
        opt::orchestrate(current, flow.best_decisions, round_cfg.opt, obj);
        current = current.compact();
        out.per_round_reduction.push_back(flow.best_reduction);
    }
    out.final_size = current.num_ands();
    out.final_depth = current.depth();
    out.final_ratio = static_cast<double>(out.final_size) /
                      static_cast<double>(out.original_size);
    out.final_depth_ratio =
        out.original_depth != 0
            ? static_cast<double>(out.final_depth) /
                  static_cast<double>(out.original_depth)
            : 1.0;
    return out;
}

}  // namespace bg::core
