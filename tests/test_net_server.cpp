/// \file test_net_server.cpp
/// FlowServer fault injection over real loopback sockets: bit-parity of
/// served results against the in-process FlowService, multi-tenant
/// concurrency, disconnect-mid-job cancellation, stop() with jobs in
/// flight, slow-reader backpressure/eviction, and wire-observable
/// quota/timeout/cancel accounting.  Every failure mode must resolve to
/// a typed outcome — no hang, no crash, no stalled tenant.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "circuits/registry.hpp"
#include "core/flow_service.hpp"
#include "io/aiger.hpp"
#include "net/client.hpp"
#include "net/protocol.hpp"
#include "net/server.hpp"
#include "test_helpers.hpp"

namespace {

using namespace bg::net;  // NOLINT: test brevity
using bg::core::BoolGebraModel;
using bg::core::FlowService;
using bg::core::ModelConfig;
using bg::core::ServiceConfig;
using bg::core::SubmitOptions;
using bg::core::TenantConfig;

ModelConfig tiny_model_config(std::uint64_t seed = 21) {
    ModelConfig cfg;
    cfg.sage_dims = {12, 12, 8};
    cfg.mlp_dims = {16, 8, 1};
    cfg.dropout = 0.0F;
    cfg.seed = seed;
    return cfg;
}

ServiceConfig tiny_service(std::size_t workers = 2) {
    ServiceConfig cfg;
    cfg.workers = workers;
    cfg.flow.num_samples = 24;
    cfg.flow.top_k = 4;
    cfg.flow.seed = 11;
    return cfg;
}

ServerConfig tiny_server(std::size_t workers = 2) {
    ServerConfig cfg;
    cfg.port = 0;  // ephemeral
    cfg.service = tiny_service(workers);
    return cfg;
}

std::string blob_of(const char* name, double scale) {
    return bg::io::write_aiger_binary_string(
        bg::circuits::make_benchmark_scaled(name, scale));
}

SubmitJobMsg blob_job(const std::string& name, const std::string& blob) {
    SubmitJobMsg msg;
    msg.kind = DesignKind::AigerBlob;
    msg.name = name;
    msg.design = blob;
    return msg;
}

/// A job heavy enough that disconnect / cancel / stop always lands while
/// it is queued or running: thousands of scored samples, a thousand of
/// them evaluated exactly (about a second on one core; scoring alone
/// takes tens of milliseconds).  The flow polls its CancelToken inside
/// the sample loops and every orchestrate pass, so cancellation is
/// observed promptly regardless.
SubmitJobMsg heavy_job(const std::string& name, const std::string& blob) {
    SubmitJobMsg msg = blob_job(name, blob);
    msg.num_samples = 5000;
    msg.top_k = 1000;
    return msg;
}

bool eventually(const std::function<bool()>& pred, double seconds = 20.0) {
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(seconds *
                                          bg::test::kSanitizerSlowdown));
    while (std::chrono::steady_clock::now() < deadline) {
        if (pred()) {
            return true;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return pred();
}

/// Raw-socket loopback connect with the receive buffer clamped *before*
/// connect, so the advertised TCP window is small from the first byte —
/// the slow-reader test needs the server's writer to block after a few
/// kilobytes, deterministically.
TcpStream raw_connect(std::uint16_t port, int rcvbuf_bytes = 0) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
        throw SocketError("socket");
    }
    if (rcvbuf_bytes > 0) {
        (void)::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf_bytes,
                           sizeof rcvbuf_bytes);
    }
    sockaddr_in sa{};
    sa.sin_family = AF_INET;
    sa.sin_port = htons(port);
    sa.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&sa), sizeof sa) !=
        0) {
        (void)::close(fd);
        throw SocketError("connect");
    }
    return TcpStream(fd);
}

Frame raw_read_frame(TcpStream& stream, FrameDecoder& decoder) {
    while (true) {
        if (auto frame = decoder.next()) {
            return std::move(*frame);
        }
        std::uint8_t buf[4096];
        const std::size_t got = stream.read_some(buf, sizeof buf);
        if (got == 0) {
            throw SocketError("eof");
        }
        decoder.feed(buf, got);
    }
}

void raw_send(TcpStream& stream, MsgType type,
              const std::vector<std::uint8_t>& payload) {
    const auto wire = encode_frame(type, payload);
    stream.write_all(wire.data(), wire.size());
}

// ---------------------------------------------------------------------

TEST(NetServer, LoopbackJobsMatchInProcessService) {
    const auto model =
        std::make_shared<const BoolGebraModel>(tiny_model_config());
    const std::vector<std::string> names = {"b07", "b08", "b09"};
    std::vector<std::string> blobs;
    for (const auto& name : names) {
        blobs.push_back(blob_of(name.c_str(), 0.3));
    }

    // In-process reference on the *round-tripped* graphs — the server
    // parses the submitted AIGER bytes, so parity must too.
    struct Ref {
        std::size_t original = 0;
        std::size_t final = 0;
        double final_ratio = 1.0;
        std::string optimized;
    };
    std::vector<Ref> refs;
    {
        FlowService service(tiny_service(), model);
        for (std::size_t i = 0; i < names.size(); ++i) {
            SubmitOptions opts;
            opts.want_graph = true;
            auto fut = service.submit(
                {names[i], bg::io::read_aiger_binary_string(blobs[i])},
                std::move(opts));
            const auto res = fut.get();
            ASSERT_NE(res.final_graph, nullptr);
            refs.push_back({res.original_size, res.iterated.final_size,
                            res.iterated.final_ratio,
                            bg::io::write_aiger_binary_string(
                                *res.final_graph)});
        }
        service.stop();
    }

    FlowServer server(tiny_server(), model);
    FlowClient client({.host = "127.0.0.1", .port = server.port(), .token = ""});
    EXPECT_EQ(client.session().tenant, "");
    std::vector<std::uint64_t> ids;
    for (std::size_t i = 0; i < names.size(); ++i) {
        ids.push_back(client.submit(blob_job(names[i], blobs[i])));
    }
    for (std::size_t i = 0; i < names.size(); ++i) {
        SCOPED_TRACE(names[i]);
        const ResultMsg res = client.wait(ids[i]);
        EXPECT_EQ(res.status, JobStatus::Ok) << res.message;
        EXPECT_EQ(res.original_ands, refs[i].original);
        EXPECT_EQ(res.final_ands, refs[i].final);
        EXPECT_EQ(res.final_ratio, refs[i].final_ratio);
        EXPECT_EQ(res.optimized, refs[i].optimized)
            << "served graph must be bit-identical to the in-process run";
    }
    server.stop();
}

TEST(NetServer, ConcurrentTenantsBitIdenticalAndAccounted) {
    const auto model =
        std::make_shared<const BoolGebraModel>(tiny_model_config());
    const std::vector<std::string> names = {"b07", "b09"};
    std::vector<std::string> blobs;
    for (const auto& name : names) {
        blobs.push_back(blob_of(name.c_str(), 0.3));
    }

    std::vector<std::string> ref_optimized;
    {
        FlowService service(tiny_service(3), model);
        for (std::size_t i = 0; i < names.size(); ++i) {
            SubmitOptions opts;
            opts.want_graph = true;
            const auto res =
                service
                    .submit({names[i],
                             bg::io::read_aiger_binary_string(blobs[i])},
                            std::move(opts))
                    .get();
            ASSERT_NE(res.final_graph, nullptr);
            ref_optimized.push_back(
                bg::io::write_aiger_binary_string(*res.final_graph));
        }
        service.stop();
    }

    constexpr std::size_t kTenants = 3;
    std::vector<TenantConfig> tenants;
    for (std::size_t t = 0; t < kTenants; ++t) {
        TenantConfig tc;
        tc.name = "t" + std::to_string(t);
        tc.weight = 1 + t;
        tenants.push_back(tc);
    }
    FlowServer server(tiny_server(3), model, tenants);

    // One client per tenant, all submitting concurrently; every result
    // must be bit-identical to the sequential in-process reference.
    std::vector<std::vector<ResultMsg>> got(kTenants);
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kTenants; ++t) {
        threads.emplace_back([&, t] {
            FlowClient client({.host = "127.0.0.1",
                               .port = server.port(),
                               .token = "t" + std::to_string(t)});
            std::vector<std::uint64_t> ids;
            for (std::size_t i = 0; i < names.size(); ++i) {
                ids.push_back(client.submit(blob_job(names[i], blobs[i])));
            }
            for (const auto id : ids) {
                got[t].push_back(client.wait(id));
            }
        });
    }
    for (auto& th : threads) {
        th.join();
    }
    for (std::size_t t = 0; t < kTenants; ++t) {
        for (std::size_t i = 0; i < names.size(); ++i) {
            SCOPED_TRACE("tenant " + std::to_string(t) + " " + names[i]);
            EXPECT_EQ(got[t][i].status, JobStatus::Ok)
                << got[t][i].message;
            EXPECT_EQ(got[t][i].optimized, ref_optimized[i]);
        }
    }

    // The per-tenant accounting is visible over the wire.
    FlowClient observer(
        {.host = "127.0.0.1", .port = server.port(), .token = "t0"});
    const StatsReplyMsg stats = observer.stats();
    EXPECT_EQ(stats.jobs_submitted, kTenants * names.size());
    EXPECT_EQ(stats.jobs_completed, kTenants * names.size());
    EXPECT_EQ(stats.jobs_pending, 0u);
    ASSERT_EQ(stats.tenants.size(), kTenants + 1);  // + default tenant
    for (const auto& slice : stats.tenants) {
        if (slice.name.empty()) {
            EXPECT_EQ(slice.submitted, 0u);
            continue;
        }
        EXPECT_EQ(slice.submitted, names.size()) << slice.name;
        EXPECT_EQ(slice.ok, names.size()) << slice.name;
        EXPECT_EQ(slice.pending, 0u) << slice.name;
    }
    server.stop();
}

TEST(NetServer, UnknownTokenRefusedAtHello) {
    const auto model =
        std::make_shared<const BoolGebraModel>(tiny_model_config());
    FlowServer server(tiny_server(1), model);
    try {
        FlowClient client({.host = "127.0.0.1",
                           .port = server.port(),
                           .token = "no-such-tenant"});
        FAIL() << "handshake with an unknown token must not succeed";
    } catch (const RpcError& e) {
        EXPECT_EQ(e.code(), ErrCode::UnknownTenant);
    }
    // The refusal is connection-local: the server still serves.
    FlowClient ok({.host = "127.0.0.1", .port = server.port(), .token = ""});
    EXPECT_EQ(ok.stats().jobs_submitted, 0u);
    server.stop();
}

TEST(NetServer, GarbageBytesGetTypedErrorAndServerSurvives) {
    const auto model =
        std::make_shared<const BoolGebraModel>(tiny_model_config());
    FlowServer server(tiny_server(1), model);

    // Raw garbage never matches the frame magic: the reader must answer
    // with a BadFrame error, flush it, and drop the connection.
    TcpStream raw = raw_connect(server.port());
    const char garbage[] = "GET / HTTP/1.1\r\n\r\n";
    raw.write_all(garbage, sizeof garbage - 1);
    FrameDecoder decoder;
    const Frame reply = raw_read_frame(raw, decoder);
    ASSERT_EQ(reply.type, MsgType::Error);
    EXPECT_EQ(ErrorMsg::decode(reply.payload).code,
              static_cast<std::uint32_t>(ErrCode::BadFrame));
    std::uint8_t byte = 0;
    EXPECT_EQ(raw.read_some(&byte, 1), 0u) << "connection must be closed";

    // A well-formed frame with a garbage AIGER payload is a *job* level
    // failure: typed Rejected result, connection stays up.
    FlowClient client({.host = "127.0.0.1", .port = server.port(), .token = ""});
    SubmitJobMsg bad = blob_job("junk", "this is not an AIGER file");
    const auto id = client.submit(bad);
    const ResultMsg res = client.wait(id);
    EXPECT_EQ(res.status, JobStatus::Rejected);
    EXPECT_FALSE(res.message.empty());
    EXPECT_EQ(client.stats().jobs_pending, 0u)
        << "a rejected job must not leak into the queues";
    server.stop();
}

TEST(NetServer, DisconnectMidJobCancelsInFlight) {
    const auto model =
        std::make_shared<const BoolGebraModel>(tiny_model_config());
    FlowServer server(tiny_server(2), model);
    const std::string blob = blob_of("b10", 0.5);
    {
        FlowClient client({.host = "127.0.0.1", .port = server.port(), .token = ""});
        (void)client.submit(heavy_job("doomed", blob));
        std::this_thread::sleep_for(std::chrono::milliseconds(150));
        client.close();  // vanish with the job still in flight
    }
    // The reader observes the disconnect and cancels the orphaned job
    // cooperatively; the service accounts it and fully drains.
    EXPECT_TRUE(eventually([&] {
        const auto st = server.service().stats();
        return st.jobs_cancelled >= 1 && st.jobs_pending == 0;
    })) << "orphaned job was not cancelled";
    const auto st = server.service().stats();
    EXPECT_EQ(st.jobs_submitted, 1u);
    EXPECT_EQ(st.jobs_completed, 1u);
    server.stop();
}

TEST(NetServer, CancelTimeoutQuotaObservableInWireStats) {
    const auto model =
        std::make_shared<const BoolGebraModel>(tiny_model_config());
    TenantConfig wide;
    wide.name = "wide";
    wide.max_pending = 8;
    TenantConfig narrow;
    narrow.name = "narrow";
    narrow.max_pending = 1;
    FlowServer server(tiny_server(1), model, {wide, narrow});
    const std::string blob = blob_of("b10", 0.5);

    FlowClient client(
        {.host = "127.0.0.1", .port = server.port(), .token = "wide"});
    const auto blocker = client.submit(heavy_job("blocker", blob));
    SubmitJobMsg timed = heavy_job("timed", blob);
    timed.timeout_seconds = 0.02;
    const auto doomed = client.submit(timed);
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
    client.cancel(blocker);

    const ResultMsg cancelled = client.wait(blocker);
    EXPECT_EQ(cancelled.status, JobStatus::Cancelled) << cancelled.message;
    const ResultMsg expired = client.wait(doomed);
    EXPECT_EQ(expired.status, JobStatus::TimedOut) << expired.message;

    // Quota breach: second pending job on a max_pending=1 tenant comes
    // back Rejected without ever entering the queues.
    FlowClient narrow_client(
        {.host = "127.0.0.1", .port = server.port(), .token = "narrow"});
    const auto held = narrow_client.submit(heavy_job("held", blob));
    const auto over = narrow_client.submit(heavy_job("over", blob));
    const ResultMsg rejected = narrow_client.wait(over);
    EXPECT_EQ(rejected.status, JobStatus::Rejected) << rejected.message;
    narrow_client.cancel(held);
    EXPECT_EQ(narrow_client.wait(held).status, JobStatus::Cancelled);

    const StatsReplyMsg stats = client.stats();
    EXPECT_EQ(stats.jobs_cancelled, 2u);
    EXPECT_EQ(stats.jobs_timed_out, 1u);
    EXPECT_EQ(stats.jobs_rejected, 1u);
    EXPECT_EQ(stats.jobs_pending, 0u);
    for (const auto& slice : stats.tenants) {
        if (slice.name == "wide") {
            EXPECT_EQ(slice.cancelled, 1u);
            EXPECT_EQ(slice.timed_out, 1u);
            EXPECT_EQ(slice.rejected, 0u);
        } else if (slice.name == "narrow") {
            EXPECT_EQ(slice.cancelled, 1u);
            EXPECT_EQ(slice.rejected, 1u);
        }
    }
    server.stop();
}

TEST(NetServer, StopResolvesInFlightJobsDefinitively) {
    const auto model =
        std::make_shared<const BoolGebraModel>(tiny_model_config());
    auto server = std::make_unique<FlowServer>(tiny_server(1), model);
    const std::uint16_t port = server->port();
    const std::string blob = blob_of("b10", 0.5);

    FlowClient client({.host = "127.0.0.1", .port = port, .token = ""});
    for (int i = 0; i < 3; ++i) {
        (void)client.submit(heavy_job("j" + std::to_string(i), blob));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    server->stop();  // returns only once every job reached an outcome

    const auto st = server->service().stats();
    EXPECT_EQ(st.jobs_submitted, 3u);
    EXPECT_EQ(st.jobs_completed, 3u)
        << "stop() must resolve every accepted job";
    EXPECT_EQ(st.jobs_pending, 0u);
    EXPECT_GE(st.jobs_cancelled, 2u) << "the queued jobs were flushed";

    // The client's connection is gone; any further wait fails fast with
    // a transport error rather than hanging.
    try {
        const ResultMsg res = client.wait(1);
        EXPECT_NE(res.status, JobStatus::Ok);
    } catch (const SocketError&) {
    } catch (const ProtocolError&) {
    }
    server.reset();
}

TEST(NetServer, SlowReaderEvictedWithoutStallingOtherTenants) {
    const auto model =
        std::make_shared<const BoolGebraModel>(tiny_model_config());
    ServerConfig cfg = tiny_server(2);
    cfg.outbound_capacity = 2;       // evict after two undeliverable results
    cfg.socket_send_buffer = 4096;   // writer blocks after a few KiB
    TenantConfig fast;
    fast.name = "fast";
    fast.weight = 4;
    FlowServer server(cfg, model, {fast});

    // A reader that Hellos, floods jobs, and then never reads: its
    // results pile up in the clamped kernel buffers, then in the bounded
    // outbound queue, and the connection must be evicted — without any
    // serving worker blocking on it.
    const std::string big_blob = blob_of("b11", 0.8);
    TcpStream slow = raw_connect(server.port(), /*rcvbuf_bytes=*/1024);
    FrameDecoder decoder;
    raw_send(slow, MsgType::Hello, HelloMsg{}.encode());
    ASSERT_EQ(raw_read_frame(slow, decoder).type, MsgType::HelloAck);
    constexpr std::uint64_t kSlowJobs = 16;
    for (std::uint64_t i = 1; i <= kSlowJobs; ++i) {
        SubmitJobMsg msg = blob_job("slow" + std::to_string(i), big_blob);
        msg.job_id = i;
        raw_send(slow, MsgType::SubmitJob, msg.encode());
    }

    // Meanwhile the other tenant gets served promptly.
    FlowClient fast_client(
        {.host = "127.0.0.1", .port = server.port(), .token = "fast"});
    const auto id = fast_client.submit(blob_job("fast", blob_of("b07", 0.3)));
    EXPECT_EQ(fast_client.wait(id).status, JobStatus::Ok);

    EXPECT_TRUE(eventually(
        [&] { return server.slow_consumer_evictions() >= 1; }))
        << "slow consumer was never evicted";
    EXPECT_TRUE(eventually([&] {
        return server.service().stats().jobs_pending == 0;
    })) << "eviction must resolve the slow connection's jobs";
    server.stop();
}

}  // namespace
