/// \file test_flow_service.cpp
/// The long-lived FlowService: model hot-swap binds snapshots at submit
/// time, drain/stop quiesce under concurrent producers, and the const
/// eval-mode inference path lets many threads share one model instance
/// bit-identically.  This suite runs under the TSan CI job — it is the
/// race-proof of the shared-snapshot design.

#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "circuits/registry.hpp"
#include "core/flow_service.hpp"
#include "test_helpers.hpp"

namespace {

using namespace bg::core;  // NOLINT: test brevity

ModelConfig tiny_config(std::uint64_t seed = 21) {
    ModelConfig cfg;
    cfg.sage_dims = {12, 12, 8};
    cfg.mlp_dims = {16, 8, 1};
    cfg.dropout = 0.0F;
    cfg.seed = seed;
    return cfg;
}

FlowConfig tiny_flow() {
    FlowConfig fc;
    fc.num_samples = 24;
    fc.top_k = 4;
    fc.seed = 11;
    return fc;
}

ServiceConfig tiny_service(std::size_t workers = 2) {
    ServiceConfig cfg;
    cfg.workers = workers;
    cfg.flow = tiny_flow();
    return cfg;
}

std::vector<DesignJob> tiny_jobs() {
    std::vector<DesignJob> jobs;
    for (const char* name : {"b07", "b08", "b09", "b10"}) {
        jobs.push_back({name, bg::circuits::make_benchmark_scaled(name, 0.3)});
    }
    return jobs;
}

void expect_same_flow(const FlowResult& got, const FlowResult& want) {
    EXPECT_EQ(got.predictions, want.predictions);
    EXPECT_EQ(got.selected, want.selected);
    EXPECT_EQ(got.reductions, want.reductions);
    EXPECT_EQ(got.best_reduction, want.best_reduction);
    EXPECT_EQ(got.bg_best_ratio, want.bg_best_ratio);
    EXPECT_EQ(got.bg_mean_ratio, want.bg_mean_ratio);
    EXPECT_EQ(got.best_decisions, want.best_decisions);
}

TEST(FlowService, ServesJobsBitIdenticalToSequentialFlow) {
    const auto jobs = tiny_jobs();
    const auto model =
        std::make_shared<const BoolGebraModel>(tiny_config());

    std::vector<FlowResult> reference;
    for (const auto& job : jobs) {
        reference.push_back(run_flow(job.design, *model, tiny_flow()));
    }

    FlowService service(tiny_service(), model);
    auto futures = service.submit_batch(tiny_jobs());
    ASSERT_EQ(futures.size(), jobs.size());
    for (std::size_t i = 0; i < futures.size(); ++i) {
        SCOPED_TRACE(jobs[i].name);
        const auto got = futures[i].get();
        EXPECT_EQ(got.name, jobs[i].name);
        expect_same_flow(got.flow, reference[i]);
    }
}

TEST(FlowService, HotSwapMidStreamBindsSnapshotAtSubmit) {
    const auto jobs = tiny_jobs();
    const auto model_a =
        std::make_shared<const BoolGebraModel>(tiny_config(21));
    const auto model_b =
        std::make_shared<const BoolGebraModel>(tiny_config(9177));

    std::vector<FlowResult> ref_a;
    std::vector<FlowResult> ref_b;
    for (const auto& job : jobs) {
        ref_a.push_back(run_flow(job.design, *model_a, tiny_flow()));
        ref_b.push_back(run_flow(job.design, *model_b, tiny_flow()));
    }

    FlowService service(tiny_service(), model_a);
    // First wave on A; swap while those jobs are (potentially) in flight;
    // second wave on B.  Every job must finish on the snapshot it was
    // bound to at submit time.
    auto wave_a = service.submit_batch(tiny_jobs());
    service.swap_model(model_b);
    auto wave_b = service.submit_batch(tiny_jobs());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        SCOPED_TRACE(jobs[i].name);
        expect_same_flow(wave_a[i].get().flow, ref_a[i]);
        expect_same_flow(wave_b[i].get().flow, ref_b[i]);
    }
    const auto st = service.stats();
    EXPECT_EQ(st.model_swaps, 1u);
    EXPECT_EQ(st.jobs_completed, 2 * jobs.size());
    EXPECT_EQ(service.model_snapshot(), model_b);
}

TEST(FlowService, DrainUnderConcurrentProducers) {
    const auto model =
        std::make_shared<const BoolGebraModel>(tiny_config());
    FlowService service(tiny_service(), model);

    constexpr std::size_t kProducers = 3;
    constexpr std::size_t kJobsEach = 4;
    std::vector<std::thread> producers;
    producers.reserve(kProducers);
    for (std::size_t p = 0; p < kProducers; ++p) {
        producers.emplace_back([&service, p] {
            const auto design =
                bg::circuits::make_benchmark_scaled("b09", 0.3);
            for (std::size_t j = 0; j < kJobsEach; ++j) {
                (void)service.submit(
                    {bg::test::job_name("p", p, j), design});
            }
        });
    }
    for (auto& t : producers) {
        t.join();
    }
    service.drain();

    const auto st = service.stats();
    EXPECT_EQ(st.jobs_submitted, kProducers * kJobsEach);
    EXPECT_EQ(st.jobs_completed, kProducers * kJobsEach);
    EXPECT_EQ(st.jobs_pending, 0u);
    EXPECT_EQ(st.samples_run,
              kProducers * kJobsEach * tiny_flow().num_samples);
    EXPECT_GT(st.p50_latency_seconds, 0.0);
    EXPECT_GE(st.p95_latency_seconds, st.p50_latency_seconds);
    EXPECT_GT(st.samples_per_second, 0.0);
}

TEST(FlowService, StopRejectsNewSubmissions) {
    const auto model =
        std::make_shared<const BoolGebraModel>(tiny_config());
    FlowService service(tiny_service(1), model);
    auto fut =
        service.submit({"b09", bg::circuits::make_benchmark_scaled("b09", 0.3)});
    service.stop();
    EXPECT_FALSE(service.accepting());
    (void)fut.get();  // submitted-before-stop job still completes
    EXPECT_THROW(
        (void)service.submit(
            {"b09", bg::circuits::make_benchmark_scaled("b09", 0.3)}),
        std::runtime_error);
    EXPECT_EQ(service.stats().jobs_completed, 1u);
}

TEST(FlowService, SubmitWithoutModelThrows) {
    FlowService service(tiny_service(1));
    EXPECT_THROW(
        (void)service.submit(
            {"b09", bg::circuits::make_benchmark_scaled("b09", 0.3)}),
        std::invalid_argument);
}

// ---------------------------------------------------------------------
// Tenancy: weighted-fair admission, quotas, timeouts, cancellation, and
// per-tenant model selection.

/// Submit a long-running job on a 1-worker service so everything queued
/// behind it is admitted while the worker is busy — the deterministic
/// setup for observing queue order.  Returns the blocker's cancel token;
/// cancel it to release the worker.
std::shared_ptr<bg::CancelToken> submit_blocker(
    FlowService& service, std::future<DesignFlowResult>& fut) {
    SubmitOptions opts;
    opts.cancel = std::make_shared<bg::CancelToken>();
    FlowConfig heavy = tiny_flow();
    // Long enough to outlive the submits below: exact evaluation of a
    // thousand candidates takes about a second; scoring 5000 samples
    // alone takes tens of milliseconds.
    heavy.num_samples = 5000;
    heavy.top_k = 1000;
    opts.flow = heavy;
    fut = service.submit(
        {"blocker", bg::circuits::make_benchmark_scaled("b10", 0.5)}, opts);
    return opts.cancel;
}

TEST(FlowService, WeightedRoundRobinOrdersTenantQueues) {
    const auto model = std::make_shared<const BoolGebraModel>(tiny_config());
    FlowService service(tiny_service(1), model);
    service.register_tenant({"alpha", 2, 0, nullptr});
    service.register_tenant({"beta", 1, 0, nullptr});

    std::future<DesignFlowResult> blocker;
    const auto release = submit_blocker(service, blocker);

    // Queue 3 jobs per tenant while the single worker is busy; record the
    // order the serving thread starts them in via on_complete (1 worker =>
    // execution order == completion order).
    std::mutex order_mu;
    std::vector<std::string> order;
    const auto design = bg::circuits::make_benchmark_scaled("b07", 0.3);
    std::vector<std::future<DesignFlowResult>> futures;
    for (const char* name : {"a1", "a2", "a3"}) {
        SubmitOptions opts;
        opts.tenant = "alpha";
        opts.on_complete = [&order_mu, &order, name](
                               const DesignFlowResult*, std::exception_ptr) {
            const std::lock_guard<std::mutex> lock(order_mu);
            order.emplace_back(name);
        };
        futures.push_back(service.submit({name, design}, opts));
    }
    for (const char* name : {"b1", "b2", "b3"}) {
        SubmitOptions opts;
        opts.tenant = "beta";
        opts.on_complete = [&order_mu, &order, name](
                               const DesignFlowResult*, std::exception_ptr) {
            const std::lock_guard<std::mutex> lock(order_mu);
            order.emplace_back(name);
        };
        futures.push_back(service.submit({name, design}, opts));
    }

    release->request_cancel();
    EXPECT_THROW((void)blocker.get(), bg::CancelledError);
    for (auto& f : futures) {
        (void)f.get();
    }
    // Weight 2 tenant gets two consecutive pops per cursor visit, weight 1
    // gets one: a a b a b b.
    EXPECT_EQ(order, (std::vector<std::string>{"a1", "a2", "b1", "a3", "b2",
                                               "b3"}));

    const auto st = service.stats();
    ASSERT_EQ(st.tenants.size(), 3u);
    EXPECT_EQ(st.tenants[0].name, "");
    EXPECT_EQ(st.tenants[1].name, "alpha");
    EXPECT_EQ(st.tenants[1].jobs_submitted, 3u);
    EXPECT_EQ(st.tenants[1].jobs_ok, 3u);
    EXPECT_EQ(st.tenants[2].name, "beta");
    EXPECT_EQ(st.tenants[2].jobs_ok, 3u);
    EXPECT_EQ(st.tenants[0].jobs_cancelled, 1u);  // the blocker
}

TEST(FlowService, QuotaBreachRejectsWithTypedError) {
    const auto model = std::make_shared<const BoolGebraModel>(tiny_config());
    FlowService service(tiny_service(1), model);
    service.register_tenant({"quota", 1, 2, nullptr});

    std::future<DesignFlowResult> blocker;
    const auto release = submit_blocker(service, blocker);

    const auto design = bg::circuits::make_benchmark_scaled("b07", 0.3);
    SubmitOptions opts;
    opts.tenant = "quota";
    auto f1 = service.submit({"q1", design}, opts);
    auto f2 = service.submit({"q2", design}, opts);
    try {
        (void)service.submit({"q3", design}, opts);
        FAIL() << "third job must breach max_pending=2";
    } catch (const AdmissionError& e) {
        EXPECT_EQ(e.kind(), AdmissionError::Kind::QuotaExceeded);
    }

    release->request_cancel();
    EXPECT_THROW((void)blocker.get(), bg::CancelledError);
    (void)f1.get();
    (void)f2.get();
    const auto st = service.stats();
    EXPECT_EQ(st.jobs_rejected, 1u);
    ASSERT_EQ(st.tenants.size(), 2u);
    EXPECT_EQ(st.tenants[1].jobs_rejected, 1u);
    EXPECT_EQ(st.tenants[1].jobs_ok, 2u);
    EXPECT_EQ(st.tenants[1].jobs_pending, 0u);
}

TEST(FlowService, UnknownTenantRejected) {
    const auto model = std::make_shared<const BoolGebraModel>(tiny_config());
    FlowService service(tiny_service(1), model);
    SubmitOptions opts;
    opts.tenant = "never-registered";
    try {
        (void)service.submit(
            {"x", bg::circuits::make_benchmark_scaled("b07", 0.3)}, opts);
        FAIL() << "unknown tenant must be rejected";
    } catch (const AdmissionError& e) {
        EXPECT_EQ(e.kind(), AdmissionError::Kind::UnknownTenant);
    }
    EXPECT_EQ(service.stats().jobs_rejected, 1u);
}

TEST(FlowService, QueuedJobTimesOutWithTypedReason) {
    const auto model = std::make_shared<const BoolGebraModel>(tiny_config());
    FlowService service(tiny_service(1), model);

    std::future<DesignFlowResult> blocker;
    const auto release = submit_blocker(service, blocker);

    SubmitOptions opts;
    opts.timeout_seconds = 0.02;
    // A shared_future keeps the job's shared state, and with it the stored
    // exception, alive on this thread while reason() is read.  With a
    // plain future, get() drops the state, and the worker may then free
    // the exception through the (uninstrumented) exception_ptr refcount
    // while this thread still reads it, which TSan reports as a race.
    const auto doomed =
        service
            .submit({"late", bg::circuits::make_benchmark_scaled("b07", 0.3)},
                    opts)
            .share();
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    release->request_cancel();
    EXPECT_THROW((void)blocker.get(), bg::CancelledError);
    try {
        (void)doomed.get();
        FAIL() << "queued past its deadline: must time out";
    } catch (const bg::CancelledError& e) {
        EXPECT_EQ(e.reason(), bg::CancelReason::TimedOut);
    }
    const auto st = service.stats();
    EXPECT_EQ(st.jobs_timed_out, 1u);
    EXPECT_EQ(st.jobs_cancelled, 1u);  // the blocker
}

TEST(FlowService, ExternalCancelAbortsRunningJob) {
    const auto model = std::make_shared<const BoolGebraModel>(tiny_config());
    FlowService service(tiny_service(1), model);

    SubmitOptions opts;
    opts.cancel = std::make_shared<bg::CancelToken>();
    FlowConfig heavy = tiny_flow();
    heavy.num_samples = 5000;
    opts.flow = heavy;
    auto fut = service.submit(
        {"victim", bg::circuits::make_benchmark_scaled("b10", 0.5)}, opts);
    opts.cancel->request_cancel();
    try {
        (void)fut.get();
        // A very fast machine may finish before the poll sees the flag —
        // acceptable; the assertions below only run on the cancel path.
    } catch (const bg::CancelledError& e) {
        EXPECT_EQ(e.reason(), bg::CancelReason::Cancelled);
        EXPECT_EQ(service.stats().jobs_cancelled, 1u);
    }
}

TEST(FlowService, StopNowResolvesEveryFuture) {
    const auto model = std::make_shared<const BoolGebraModel>(tiny_config());
    FlowService service(tiny_service(1), model);

    const auto design = bg::circuits::make_benchmark_scaled("b09", 0.4);
    FlowConfig heavy = tiny_flow();
    heavy.num_samples = 2000;
    std::vector<std::future<DesignFlowResult>> futures;
    for (int i = 0; i < 4; ++i) {
        SubmitOptions opts;
        opts.flow = heavy;
        futures.push_back(
            service.submit({"j" + std::to_string(i), design}, opts));
    }
    service.stop_now();
    EXPECT_FALSE(service.accepting());
    std::size_t resolved = 0;
    for (auto& f : futures) {
        try {
            (void)f.get();
            ++resolved;
        } catch (const bg::CancelledError&) {
            ++resolved;
        }
    }
    EXPECT_EQ(resolved, futures.size()) << "stop_now leaves no future hanging";
    const auto st = service.stats();
    EXPECT_EQ(st.jobs_pending, 0u);
    EXPECT_EQ(st.jobs_completed, futures.size());
}

TEST(FlowService, PerTenantModelSelection) {
    const auto model_a = std::make_shared<const BoolGebraModel>(tiny_config(21));
    const auto model_b =
        std::make_shared<const BoolGebraModel>(tiny_config(9177));
    const auto design = bg::circuits::make_benchmark_scaled("b10", 0.4);
    const FlowResult want_a = run_flow(design, *model_a, tiny_flow());
    const FlowResult want_b = run_flow(design, *model_b, tiny_flow());

    FlowService service(tiny_service(2), model_a);
    service.register_tenant({"custom", 1, 0, model_b});

    auto default_fut = service.submit({"d", design});
    SubmitOptions opts;
    opts.tenant = "custom";
    auto custom_fut = service.submit({"c", design}, opts);
    expect_same_flow(default_fut.get().flow, want_a);
    expect_same_flow(custom_fut.get().flow, want_b);

    // swap_tenant_model(nullptr) reverts the tenant to the service default.
    service.swap_tenant_model("custom", nullptr);
    auto reverted = service.submit({"r", design}, opts);
    expect_same_flow(reverted.get().flow, want_a);
}

TEST(FlowService, WantGraphAndProgressDeliverRoundTrace) {
    const auto model = std::make_shared<const BoolGebraModel>(tiny_config());
    const auto design = bg::circuits::make_benchmark_scaled("b09", 0.4);
    FlowService service(tiny_service(2), model);

    std::mutex mu;
    std::vector<std::pair<std::size_t, std::size_t>> progress;
    SubmitOptions opts;
    opts.rounds = 2;
    opts.want_graph = true;
    opts.on_progress = [&](std::size_t round, std::size_t ands) {
        const std::lock_guard<std::mutex> lock(mu);
        progress.emplace_back(round, ands);
    };
    const auto res = service.submit({"b09", design}, opts).get();
    ASSERT_NE(res.final_graph, nullptr);
    EXPECT_EQ(res.final_graph->num_ands(), res.iterated.final_size);
    ASSERT_FALSE(progress.empty());
    EXPECT_EQ(progress.front().first, 1u);
    EXPECT_EQ(progress.back().second, res.iterated.final_size);
    EXPECT_EQ(progress.size(), res.iterated.rounds());
}

// The soundness core of the shared-snapshot design: eval-mode inference
// is genuinely const, so two threads running the flow on ONE model
// instance produce the sequential results bit for bit (and TSan-clean).
TEST(FlowService, SharedModelConcurrentInferenceMatchesSequential) {
    const auto design = bg::circuits::make_benchmark_scaled("b10", 0.4);
    const BoolGebraModel model{tiny_config()};
    const FlowResult want = run_flow(design, model, tiny_flow());

    FlowResult got_a;
    FlowResult got_b;
    std::thread ta([&] { got_a = run_flow(design, model, tiny_flow()); });
    std::thread tb([&] { got_b = run_flow(design, model, tiny_flow()); });
    ta.join();
    tb.join();
    expect_same_flow(got_a, want);
    expect_same_flow(got_b, want);
}

}  // namespace
