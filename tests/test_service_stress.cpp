/// \file test_service_stress.cpp
/// TSan stress for the multi-tenant FlowService internals: the latency
/// ring behind the p50/p95 stats, the weighted admission queues, and the
/// per-tenant counters, all hammered by concurrent submit / cancel /
/// stats / model-swap / stop_now callers.  The assertions are counter
/// conservation laws; the real verdict is the TSan CI job finding no
/// data race in the interleavings this generates.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "circuits/registry.hpp"
#include "core/flow_service.hpp"
#include "test_helpers.hpp"
#include "util/cancel.hpp"

namespace {

using namespace bg::core;  // NOLINT: test brevity

ModelConfig stress_model_config(std::uint64_t seed = 21) {
    ModelConfig cfg;
    cfg.sage_dims = {12, 12, 8};
    cfg.mlp_dims = {16, 8, 1};
    cfg.dropout = 0.0F;
    cfg.seed = seed;
    return cfg;
}

ServiceConfig stress_service_config() {
    ServiceConfig cfg;
    cfg.workers = 4;
    cfg.flow.num_samples = 8;
    cfg.flow.top_k = 2;
    cfg.flow.seed = 5;
    cfg.latency_window = 16;  // tiny ring -> constant wraparound
    return cfg;
}

TEST(ServiceStress, ConcurrentSubmitCancelStatsSwap) {
    const auto model_a =
        std::make_shared<const BoolGebraModel>(stress_model_config(21));
    const auto model_b =
        std::make_shared<const BoolGebraModel>(stress_model_config(77));
    FlowService service(stress_service_config(), model_a);
    TenantConfig x;
    x.name = "x";
    x.weight = 2;
    TenantConfig y;
    y.name = "y";
    y.max_pending = 64;
    service.register_tenant(x);
    service.register_tenant(y);

    const auto design = bg::circuits::make_benchmark_scaled("b07", 0.3);
    const char* tenants[] = {"", "x", "y"};

    constexpr std::size_t kProducers = 3;
    constexpr std::size_t kJobsEach = 24;
    std::mutex mu;
    std::vector<std::future<DesignFlowResult>> futures;
    std::vector<std::shared_ptr<bg::CancelToken>> tokens;
    std::atomic<bool> producing{true};
    std::atomic<std::uint64_t> accepted{0};

    std::vector<std::thread> threads;
    for (std::size_t p = 0; p < kProducers; ++p) {
        threads.emplace_back([&, p] {
            for (std::size_t j = 0; j < kJobsEach; ++j) {
                SubmitOptions opts;
                opts.tenant = tenants[(p + j) % 3];
                opts.cancel = std::make_shared<bg::CancelToken>();
                auto fut = service.submit(
                    {bg::test::job_name("p", p, j), design},
                    opts);
                accepted.fetch_add(1, std::memory_order_relaxed);
                const std::lock_guard<std::mutex> lock(mu);
                futures.push_back(std::move(fut));
                tokens.push_back(std::move(opts.cancel));
            }
        });
    }
    // Cancel every third accepted job, racing the workers for it.
    threads.emplace_back([&] {
        std::size_t next = 0;
        while (producing.load(std::memory_order_relaxed)) {
            std::shared_ptr<bg::CancelToken> victim;
            {
                const std::lock_guard<std::mutex> lock(mu);
                if (next < tokens.size()) {
                    victim = tokens[next];
                    next += 3;
                }
            }
            if (victim) {
                victim->request_cancel();
            } else {
                std::this_thread::yield();
            }
        }
    });
    // Two readers hammering the stats snapshot (latency ring included).
    for (int r = 0; r < 2; ++r) {
        threads.emplace_back([&] {
            while (producing.load(std::memory_order_relaxed)) {
                const auto st = service.stats();
                EXPECT_LE(st.jobs_completed, st.jobs_submitted);
                EXPECT_GE(st.p95_latency_seconds, 0.0);
            }
        });
    }
    // Hot-swaps racing everything else.
    threads.emplace_back([&] {
        for (int i = 0; producing.load(std::memory_order_relaxed); ++i) {
            service.swap_model((i % 2) == 0 ? model_b : model_a);
            service.swap_tenant_model("x", (i % 2) == 0 ? model_a
                                                        : nullptr);
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
    });

    for (std::size_t p = 0; p < kProducers; ++p) {
        threads[p].join();
    }
    // Resolve every future before stopping the helper threads so the
    // stats readers also observe the draining phase.
    std::size_t ok = 0;
    std::size_t cancelled = 0;
    for (auto& fut : futures) {
        try {
            (void)fut.get();
            ++ok;
        } catch (const bg::CancelledError&) {
            ++cancelled;
        }
    }
    producing.store(false, std::memory_order_relaxed);
    for (std::size_t t = kProducers; t < threads.size(); ++t) {
        threads[t].join();
    }

    EXPECT_EQ(accepted.load(), kProducers * kJobsEach);
    EXPECT_EQ(ok + cancelled, kProducers * kJobsEach);
    const auto st = service.stats();
    EXPECT_EQ(st.jobs_submitted, kProducers * kJobsEach);
    EXPECT_EQ(st.jobs_completed, kProducers * kJobsEach);
    EXPECT_EQ(st.jobs_pending, 0u);
    EXPECT_EQ(st.jobs_cancelled, cancelled);
    std::uint64_t tenant_submitted = 0;
    std::uint64_t tenant_completed = 0;
    for (const auto& slice : st.tenants) {
        tenant_submitted += slice.jobs_submitted;
        tenant_completed += slice.jobs_completed;
        EXPECT_EQ(slice.jobs_pending, 0u) << slice.name;
    }
    EXPECT_EQ(tenant_submitted, st.jobs_submitted)
        << "per-tenant slices must conserve the global counter";
    EXPECT_EQ(tenant_completed, st.jobs_completed);
    service.stop();
}

TEST(ServiceStress, StopNowUnderConcurrentSubmitters) {
    const auto model =
        std::make_shared<const BoolGebraModel>(stress_model_config());
    FlowService service(stress_service_config(), model);
    const auto design = bg::circuits::make_benchmark_scaled("b09", 0.3);

    std::mutex mu;
    std::vector<std::future<DesignFlowResult>> futures;
    std::atomic<std::uint64_t> rejected_after_stop{0};
    constexpr std::size_t kProducers = 4;
    std::vector<std::thread> producers;
    for (std::size_t p = 0; p < kProducers; ++p) {
        producers.emplace_back([&, p] {
            for (std::size_t j = 0; j < 50; ++j) {
                try {
                    auto fut = service.submit(
                        {bg::test::job_name("s", p, j), design});
                    const std::lock_guard<std::mutex> lock(mu);
                    futures.push_back(std::move(fut));
                } catch (const AdmissionError& e) {
                    EXPECT_EQ(e.kind(), AdmissionError::Kind::Stopped);
                    rejected_after_stop.fetch_add(
                        1, std::memory_order_relaxed);
                    return;  // service is gone; this producer is done
                }
            }
        });
    }
    // Let the queues fill a little, then pull the plug mid-stream.
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    service.stop_now();
    for (auto& t : producers) {
        t.join();
    }

    // Every future the service *accepted* must resolve definitively.
    std::size_t ok = 0;
    std::size_t cancelled = 0;
    for (auto& fut : futures) {
        try {
            (void)fut.get();
            ++ok;
        } catch (const bg::CancelledError&) {
            ++cancelled;
        }
    }
    const auto st = service.stats();
    EXPECT_EQ(ok + cancelled, futures.size());
    EXPECT_EQ(st.jobs_submitted, futures.size());
    EXPECT_EQ(st.jobs_completed, futures.size());
    EXPECT_EQ(st.jobs_pending, 0u);
}

}  // namespace
