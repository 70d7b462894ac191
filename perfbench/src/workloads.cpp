#include "workloads.hpp"

#include <poll.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <future>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "circuits/registry.hpp"
#include "core/flow_service.hpp"
#include "io/aiger.hpp"
#include "net/client.hpp"
#include "net/protocol.hpp"
#include "net/server.hpp"
#include "net/socket.hpp"
#include "opt/transform.hpp"
#include "oracle.hpp"
#include "replay.hpp"
#include "trace.hpp"
#include "util.hpp"

namespace perfbench {

namespace core = bg::core;
namespace net = bg::net;
namespace opt = bg::opt;
using bg::aig::Aig;

namespace {

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

/// One workload.  Sizes were chosen so a 4-core machine spends about
/// --seconds in the timed region (see perfbench/README.md for why each
/// workload exists and which layers it stresses).
struct Spec {
    const char* name;
    double scale;             ///< registry design scale
    /// Wire loop: every design is also built at `variants` scales spread
    /// evenly from `scale` to `scale_max`, each variant one distinct job,
    /// so job sizes form a spread rather than eight fixed points.
    double scale_max;
    std::size_t variants;
    std::size_t samples;      ///< decision vectors sampled per round
    std::size_t top_k;        ///< candidates evaluated exactly per round
    std::size_t rounds;       ///< flow rounds (> 1 commits and compacts)
    bool verify;              ///< portfolio CEC of the final graph
    std::size_t passes;       ///< batch: jobs per design in one batch
    bool fresh_seeds;         ///< batch: new seeds in every batch
    double latency_limit_s;   ///< serve_ok_share limit
    /// Wire loop: jobs kept in flight per pool worker; 0 = closed batch
    /// through the FlowService.
    std::size_t wire_depth;
};

const Spec kSpecs[] = {
    // Inference-heavy: the paper's 600-sample budget, read-only flow.
    {"sweep", 1.0, 1.0, 1, 600, 4, 1, false, 2, false, 30.0, 0},
    // Evaluation/commit/verify-heavy: few samples, many rounds, unique
    // jobs so the verdict cache never hits.
    {"refine", 1.0, 1.0, 1, 48, 10, 4, true, 2, true, 60.0, 0},
    // Many small jobs over loopback BGNP, two per pool worker in flight.
    {"serve", 0.10, 0.20, 8, 32, 10, 1, false, 0, false, 3.0, 2},
};

// Independent seed streams derived from --seed.
constexpr std::uint64_t kWarmStream = 1;
constexpr std::uint64_t kBatchStream = 2;
constexpr std::uint64_t kServeStream = 3;
constexpr std::uint64_t kOracleStream = 4;
constexpr std::uint64_t kOrderStream = 5;

constexpr std::size_t kSetupRepeats = 5;
/// How long every core spins before set-up (see warm_cpus).
constexpr double kCpuWarmS = 1.5;
/// Wire loop: how long to wait for the jobs in flight after the last send.
constexpr double kDrainLimitS = 60.0;
constexpr std::uint64_t kWarmJobIdBase = 1000000;

const Spec* find_spec(const std::string& name) {
    for (const Spec& s : kSpecs) {
        if (name == s.name) {
            return &s;
        }
    }
    return nullptr;
}

std::size_t nproc() { return bg::default_worker_count(); }

core::FlowConfig flow_config(const Spec& w, std::uint64_t seed) {
    core::FlowConfig f;
    f.num_samples = w.samples;
    f.top_k = w.top_k;
    f.verify = w.verify;
    f.seed = seed;
    return f;
}

std::uint64_t serve_seed(std::uint64_t run_seed, std::size_t design) {
    return job_seed(run_seed, kServeStream, design);
}

net::SubmitJobMsg submit_msg(const Spec& w, std::uint64_t job_id,
                             const core::DesignJob& design,
                             const std::string& blob, std::uint64_t seed) {
    net::SubmitJobMsg m;
    m.job_id = job_id;
    m.kind = net::DesignKind::AigerBlob;
    m.name = design.name;
    m.design = blob;
    m.num_samples = static_cast<std::uint32_t>(w.samples);
    m.top_k = static_cast<std::uint32_t>(w.top_k);
    m.rounds = static_cast<std::uint32_t>(w.rounds);
    m.seed = seed;
    m.verify = w.verify;
    return m;
}

// ---------------------------------------------------------------------------
// Raw BGNP load connection.  One thread drives it with poll(), so sends
// stay on schedule while results stream back; FlowClient is not used here
// because its submit/wait share one stream and are not documented as safe
// for concurrent use.
// ---------------------------------------------------------------------------

class WireConn {
public:
    explicit WireConn(std::uint16_t port)
        : stream_(net::TcpStream::connect("127.0.0.1", port)) {
        send(net::encode_frame(net::MsgType::Hello, net::HelloMsg{}.encode()));
        std::vector<net::Frame> frames;
        const auto t0 = Clock::now();
        while (frames.empty()) {
            if (!poll(1.0, frames) || seconds_since(t0) > 10.0) {
                throw std::runtime_error("no HelloAck from the server");
            }
        }
        if (frames.front().type != net::MsgType::HelloAck) {
            throw std::runtime_error("expected HelloAck, got " +
                                     net::to_string(frames.front().type));
        }
        (void)net::HelloAckMsg::decode(frames.front().payload);
    }

    void send(const std::vector<std::uint8_t>& frame) {
        stream_.write_all(frame.data(), frame.size());
    }

    /// Wait up to `timeout_s` for input and append every complete frame
    /// to `out`; false once the server closed the connection.
    bool poll(double timeout_s, std::vector<net::Frame>& out) {
        pollfd p{stream_.fd(), POLLIN, 0};
        timespec ts{};
        const double t = std::max(timeout_s, 0.0);
        ts.tv_sec = static_cast<time_t>(t);
        ts.tv_nsec = static_cast<long>((t - std::floor(t)) * 1e9);
        const int rc = ::ppoll(&p, 1, &ts, nullptr);
        if (rc < 0 && errno != EINTR) {
            throw net::SocketError(std::string("ppoll: ") +
                                   std::strerror(errno));
        }
        bool open = true;
        if (rc > 0) {
            const std::size_t got = stream_.read_some(buf_.data(), buf_.size());
            open = got != 0;
            decoder_.feed(buf_.data(), got);
        }
        while (auto f = decoder_.next()) {
            out.push_back(std::move(*f));
        }
        return open;
    }

private:
    net::TcpStream stream_;
    net::FrameDecoder decoder_;
    std::vector<std::uint8_t> buf_ = std::vector<std::uint8_t>(1 << 16);
};

/// Polls FlowClient::stats on its own connection while a load runs.
class StatsPoller {
public:
    StatsPoller(std::uint16_t port, bool enabled) {
        if (enabled) {
            thread_ = std::thread([this, port] { run(port); });
        }
    }
    ~StatsPoller() { join(); }
    StatsPoller(const StatsPoller&) = delete;
    StatsPoller& operator=(const StatsPoller&) = delete;

    /// Stop and join; returns the round-trip times in ms.
    std::vector<double> stop() {
        join();
        if (!error_.empty()) {
            throw std::runtime_error("stats poller: " + error_);
        }
        return rtt_ms_;
    }

private:
    void join() {
        stop_ = true;
        if (thread_.joinable()) {
            thread_.join();
        }
    }

    void run(std::uint16_t port) {
        try {
            net::ClientConfig cfg;
            cfg.port = port;
            net::FlowClient client(cfg);
            while (!stop_) {
                const auto t0 = Clock::now();
                (void)client.stats();
                rtt_ms_.push_back(seconds_since(t0) * 1000.0);
                std::this_thread::sleep_for(std::chrono::milliseconds(50));
            }
        } catch (const std::exception& e) {
            error_ = e.what();
        }
    }

    std::atomic<bool> stop_{false};
    std::vector<double> rtt_ms_;
    std::string error_;
    std::thread thread_;
};

// ---------------------------------------------------------------------------
// Set-up: inputs, model, server, warm-up.
// ---------------------------------------------------------------------------

/// Spin every core for `seconds`.  On the virtual machines this benchmark
/// was tuned on, vCPUs that sat idle run several times slower for about a
/// second once work arrives; spinning first keeps that ramp out of the
/// set-up and load timings.  It runs no library code.
void warm_cpus(double seconds) {
    std::vector<std::thread> spinners;
    for (std::size_t i = 0; i < nproc(); ++i) {
        spinners.emplace_back([seconds] {
            const auto t0 = Clock::now();
            volatile std::uint64_t x = 1;
            while (seconds_since(t0) < seconds) {
                for (int k = 0; k < 4096; ++k) {
                    x = x * 6364136223846793005ULL + 1;
                }
            }
        });
    }
    for (auto& t : spinners) {
        t.join();
    }
}

struct Env {
    std::vector<core::DesignJob> designs;
    core::ModelSnapshot model;
    std::unique_ptr<net::FlowServer> server;
    std::vector<Aig> sources;        ///< wire loop: the client's designs
    std::vector<std::string> blobs;  ///< wire loop: binary AIGER per design
    std::unique_ptr<WireConn> conn;  ///< wire loop: the load connection

    core::FlowService& service() { return server->service(); }
};

std::size_t smallest_design(const Env& env) {
    std::size_t best = 0;
    for (std::size_t i = 1; i < env.designs.size(); ++i) {
        if (env.designs[i].design.num_ands() <
            env.designs[best].design.num_ands()) {
            best = i;
        }
    }
    return best;
}

/// Build everything the timed region needs and run one warm-up job per
/// pool worker, so pool threads and their thread_local rewrite libraries
/// exist.  compute_static_features spawns fresh threads on every call;
/// that cost is left in the timed region, as every job pays it.
Env make_env(const Spec& w, std::uint64_t seed) {
    Env env;
    const auto names = bg::circuits::benchmark_names();
    for (std::size_t v = 0; v < w.variants; ++v) {
        const double scale =
            w.variants == 1 ? w.scale
                            : w.scale + (w.scale_max - w.scale) *
                                            static_cast<double>(v) /
                                            static_cast<double>(w.variants - 1);
        for (auto& job : core::jobs_from_registry(names, scale)) {
            if (w.variants > 1) {
                char tag[16];
                std::snprintf(tag, sizeof tag, "@%.3f", scale);
                job.name += tag;
            }
            env.designs.push_back(std::move(job));
        }
    }
    env.model = std::make_shared<const core::BoolGebraModel>(
        core::ModelConfig::quick());
    net::ServerConfig sc;
    sc.service.workers = nproc();
    sc.service.rounds = w.rounds;
    sc.service.flow = flow_config(w, 1);
    env.server = std::make_unique<net::FlowServer>(sc, env.model);

    const std::size_t warm = smallest_design(env);
    const std::size_t workers = env.service().workers();
    if (w.wire_depth > 0) {
        // The server flows what it decodes from the blob, so in-process
        // references and replays use that decoded graph too.
        for (auto& d : env.designs) {
            env.blobs.push_back(bg::io::write_aiger_binary_string(d.design));
            Aig decoded = bg::io::read_aiger_binary_string(env.blobs.back());
            if (!simulate_equal(d.design, decoded, seed).equal) {
                throw std::runtime_error("AIGER round trip changed " + d.name);
            }
            env.sources.push_back(std::exchange(d.design, std::move(decoded)));
        }
        env.conn = std::make_unique<WireConn>(env.server->port());
        for (std::size_t i = 0; i < workers; ++i) {
            const auto msg =
                submit_msg(w, kWarmJobIdBase + i, env.designs[warm],
                           env.blobs[warm], job_seed(seed, kWarmStream, i));
            env.conn->send(
                net::encode_frame(net::MsgType::SubmitJob, msg.encode()));
        }
        std::size_t done = 0;
        const auto t0 = Clock::now();
        while (done < workers) {
            std::vector<net::Frame> frames;
            if (!env.conn->poll(1.0, frames) || seconds_since(t0) > 60.0) {
                throw std::runtime_error("warm-up jobs did not complete");
            }
            for (const auto& f : frames) {
                if (f.type != net::MsgType::Result ||
                    net::ResultMsg::decode(f.payload).status !=
                        net::JobStatus::Ok) {
                    throw std::runtime_error("warm-up job failed");
                }
                ++done;
            }
        }
    } else {
        std::vector<std::future<core::DesignFlowResult>> futures;
        for (std::size_t i = 0; i < workers; ++i) {
            core::SubmitOptions so;
            so.flow = flow_config(w, job_seed(seed, kWarmStream, i));
            futures.push_back(env.service().submit(env.designs[warm], so));
        }
        for (auto& f : futures) {
            (void)f.get();
        }
    }
    return env;
}

// ---------------------------------------------------------------------------
// Load runs
// ---------------------------------------------------------------------------

struct JobRecord {
    std::size_t batch = 0;    ///< closed batch it ran in; 0 for the wire loop
    std::size_t design = 0;
    std::uint64_t seed = 0;
    double due_s = 0.0;       ///< since the load started (wire loop: when
                              ///< its slot in flight opened)
    double late_s = 0.0;      ///< send (or submit return) minus due
    double latency_s = -1.0;  ///< due -> result; negative = no result
    double exec_s = 0.0;      ///< execution time the service reports
    bool status_ok = false;   ///< the job itself finished Ok
    std::string failure;      ///< first failed check; empty = passed
    std::optional<core::DesignFlowResult> result;  ///< closed batch
    std::vector<std::size_t> progress;  ///< AND count after each round
    std::optional<net::ResultMsg> wire;             ///< wire loop
    double encode_us = 0.0;
    double decode_us = 0.0;
    std::size_t wire_bytes = 0;

    void fail(const std::string& why) {
        if (failure.empty()) {
            failure = why;
        }
    }
};

struct LoadRun {
    std::vector<JobRecord> jobs;
    std::size_t distinct = 0;  ///< jobs[0, distinct) are distinct jobs
    double wall_s = 0.0;
    std::vector<double> batch_s;  ///< wall time of each batch (wire loop: 1)
    std::vector<double> stats_rtt_ms;
    core::ServiceStats stats;
};

/// Closed batches through the FlowService until `seconds` have passed
/// (at least one, at most `max_batches`), skipping a batch that would
/// likely end past 1.25 * `seconds`.  Every job of a batch is due at the
/// batch start.
LoadRun run_batches(Env& env, const Spec& w, std::uint64_t seed,
                    double seconds, std::size_t max_batches, bool poll_stats) {
    LoadRun out;
    const std::size_t n = w.passes * env.designs.size();
    out.distinct = n;
    // Largest designs first in every pass: the batch then ends with small
    // jobs instead of a lone straggler, which keeps its length steady.
    std::vector<std::size_t> order(env.designs.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                         return env.designs[a].design.num_ands() >
                                env.designs[b].design.num_ands();
                     });
    StatsPoller poller(env.server->port(), poll_stats);
    const auto t0 = Clock::now();
    for (std::size_t b = 0; b < max_batches; ++b) {
        const std::size_t base = out.jobs.size();
        out.jobs.resize(base + n);
        std::vector<Clock::time_point> done(n);
        std::vector<std::future<core::DesignFlowResult>> futures;
        const auto batch_start = Clock::now();
        const double due = seconds_between(t0, batch_start);
        for (std::size_t i = 0; i < n; ++i) {
            JobRecord& rec = out.jobs[base + i];
            rec.batch = b;
            rec.design = order[i % order.size()];
            rec.seed = job_seed(seed, kBatchStream,
                                (w.fresh_seeds ? b : 0) * n + i);
            rec.due_s = due;
            core::SubmitOptions so;
            so.rounds = w.rounds;
            so.flow = flow_config(w, rec.seed);
            so.want_graph = w.rounds > 1;
            auto* progress = &rec.progress;
            so.on_progress = [progress](std::size_t, std::size_t ands) {
                progress->push_back(ands);
            };
            auto* done_at = &done[i];
            so.on_complete = [done_at](const core::DesignFlowResult*,
                                       std::exception_ptr) {
                *done_at = Clock::now();
            };
            futures.push_back(
                env.service().submit(env.designs[rec.design], so));
            rec.late_s = seconds_since(batch_start);
        }
        for (std::size_t i = 0; i < n; ++i) {
            JobRecord& rec = out.jobs[base + i];
            try {
                rec.result = futures[i].get();
                rec.status_ok = true;
                rec.exec_s = rec.result->seconds;
                rec.latency_s = seconds_between(batch_start, done[i]);
            } catch (const std::exception& e) {
                rec.fail(std::string("job error: ") + e.what());
            }
        }
        out.batch_s.push_back(seconds_since(batch_start));
        const double elapsed = seconds_since(t0);
        if (elapsed >= seconds ||
            elapsed + out.batch_s.back() > 1.25 * seconds) {
            break;
        }
    }
    out.wall_s = seconds_since(t0);
    out.stats = env.service().stats();
    out.stats_rtt_ms = poller.stop();
    return out;
}

/// Seeded job order of the wire loop: registry designs in shuffled blocks
/// that hold each design once, the scale variant advancing with every
/// block.  The first `variants` blocks hold every distinct job once.
class WireOrder {
public:
    WireOrder(std::size_t variants, std::uint64_t seed)
        : perm_(bg::circuits::benchmark_names().size()),
          variants_(variants),
          rng_(job_seed(seed, kOrderStream, 0)) {}

    /// Index into Env::designs of the next job.
    std::size_t next() {
        const std::size_t n = perm_.size();
        if (i_ % n == 0) {
            std::iota(perm_.begin(), perm_.end(), std::size_t{0});
            for (std::size_t j = n - 1; j > 0; --j) {
                std::swap(perm_[j], perm_[rng_.next() % (j + 1)]);
            }
        }
        const std::size_t variant = (i_ / n) % variants_;
        const std::size_t design = variant * n + perm_[i_ % n];
        ++i_;
        return design;
    }

private:
    std::vector<std::size_t> perm_;
    std::size_t variants_;
    SplitMix rng_;
    std::size_t i_ = 0;
};

/// Closed loop over the load connection: keep `wire_depth` jobs per pool
/// worker in flight, sending the next job as soon as a result frees its
/// slot, until `seconds` have passed; then wait for the jobs in flight.
/// A job is due when its slot opens, so its latency includes the wait in
/// the server's queue.
LoadRun run_wire_loop(Env& env, const Spec& w, std::uint64_t seed,
                      double seconds, bool poll_stats) {
    LoadRun out;
    out.distinct = env.designs.size();
    const std::size_t depth = w.wire_depth * env.service().workers();
    WireOrder order(w.variants, seed);
    StatsPoller poller(env.server->port(), poll_stats);
    const auto t0 = Clock::now();
    const double deadline = seconds + kDrainLimitS;
    std::size_t outstanding = 0;
    double last_result = 0.0;
    double slot_open = 0.0;  ///< when the last result freed a slot
    bool open = true;
    while (open) {
        const double now = seconds_between(t0, Clock::now());
        const bool sending = now < seconds;
        if ((!sending && outstanding == 0) || now > deadline) {
            break;
        }
        if (sending && outstanding < depth) {
            JobRecord rec;
            rec.design = order.next();
            rec.seed = serve_seed(seed, rec.design);
            rec.due_s = slot_open;
            const auto e0 = Clock::now();
            const auto msg =
                submit_msg(w, out.jobs.size() + 1, env.designs[rec.design],
                           env.blobs[rec.design], rec.seed);
            const auto frame =
                net::encode_frame(net::MsgType::SubmitJob, msg.encode());
            rec.encode_us = seconds_since(e0) * 1e6;
            env.conn->send(frame);
            rec.wire_bytes = frame.size();
            rec.late_s = seconds_between(t0, Clock::now()) - rec.due_s;
            out.jobs.push_back(std::move(rec));
            ++outstanding;
            continue;
        }
        std::vector<net::Frame> frames;
        const double wait = sending ? seconds - now : deadline - now;
        open = env.conn->poll(wait, frames);
        for (const auto& f : frames) {
            if (f.type != net::MsgType::Result) {
                throw std::runtime_error("unexpected frame " +
                                         net::to_string(f.type));
            }
            const auto d0 = Clock::now();
            net::ResultMsg res = net::ResultMsg::decode(f.payload);
            const auto d1 = Clock::now();
            if (res.job_id == 0 || res.job_id > out.jobs.size()) {
                throw std::runtime_error("result for an unknown job id");
            }
            JobRecord& rec = out.jobs[res.job_id - 1];
            rec.decode_us = seconds_between(d0, d1) * 1e6;
            rec.wire_bytes += f.payload.size() + net::kHeaderSize;
            last_result = seconds_between(t0, d1);
            slot_open = last_result;
            rec.latency_s = last_result - rec.due_s;
            rec.exec_s = res.seconds;
            rec.status_ok = res.status == net::JobStatus::Ok;
            if (!rec.status_ok) {
                rec.fail("job status " +
                         std::to_string(static_cast<int>(res.status)) +
                         ": " + res.message);
            }
            rec.wire = std::move(res);
            --outstanding;
        }
    }
    for (auto& rec : out.jobs) {
        if (!rec.wire) {
            rec.fail("no result before the drain limit");
        }
    }
    out.wall_s = last_result;
    out.batch_s = {last_result};
    out.stats = env.service().stats();
    out.stats_rtt_ms = poller.stop();
    return out;
}

// ---------------------------------------------------------------------------
// Output checks (outside the timed region)
// ---------------------------------------------------------------------------

/// Reference results of the distinct wire-loop jobs, computed in-process.
struct Reference {
    core::DesignFlowResult result;
    std::vector<std::size_t> progress;
};

void check_graph(JobRecord& rec, const Aig& design, const Aig& out,
                 std::size_t reported_ands, std::uint64_t oracle_seed) {
    if (out.num_ands() != reported_ands) {
        rec.fail("reported " + std::to_string(reported_ands) +
                 " ANDs, graph has " + std::to_string(out.num_ands()));
    }
    const OracleVerdict v = simulate_equal(design, out, oracle_seed);
    if (!v.equal) {
        rec.fail("oracle: " + v.why);
    }
}

void check_batches(Env& env, const Spec& w, std::uint64_t seed,
                   LoadRun& run) {
    for (std::size_t i = 0; i < run.jobs.size(); ++i) {
        JobRecord& rec = run.jobs[i];
        if (!rec.status_ok) {
            continue;
        }
        const core::DesignFlowResult& r = *rec.result;
        const Aig& design = env.designs[rec.design].design;
        if (i >= run.distinct && !w.fresh_seeds) {
            // A repeat of a batch-0 job must reproduce it exactly.
            const JobRecord& first = run.jobs[i % run.distinct];
            if (!first.result || r.flow.selected != first.result->flow.selected ||
                r.iterated.final_size != first.result->iterated.final_size) {
                rec.fail("repeated job differs from its first run");
            }
            continue;
        }
        Aig out;
        if (w.rounds > 1) {
            if (r.final_graph == nullptr) {
                rec.fail("no final graph");
                continue;
            }
            out = *r.final_graph;
        } else if (!r.iterated.per_round_reduction.empty()) {
            // Re-materialize the winner from its decision vector.
            const core::FlowConfig cfg = flow_config(w, rec.seed);
            (void)core::evaluate_decisions(design, r.flow.best_decisions,
                                           cfg.opt, core::flow_objective(cfg),
                                           &out);
        } else {
            out = design;
        }
        check_graph(rec, design, out, r.iterated.final_size,
                    job_seed(seed, kOracleStream, i));
        if (w.verify &&
            (!r.verification ||
             r.verification->verdict != bg::aig::CecVerdict::Equivalent)) {
            rec.fail("verdict is not Equivalent");
        }
    }
}

/// In-process run_design_flow of every distinct wire-loop job, through
/// the same service the server uses.
std::map<std::size_t, Reference> reference_runs(Env& env, const Spec& w,
                                           std::uint64_t seed,
                                           const LoadRun& run) {
    std::map<std::size_t, Reference> refs;  ///< by design
    for (const auto& rec : run.jobs) {
        refs.try_emplace(rec.design);
    }
    std::vector<std::pair<Reference*, std::future<core::DesignFlowResult>>>
        futures;
    for (auto& [design, ref] : refs) {
        core::SubmitOptions so;
        so.rounds = w.rounds;
        so.flow = flow_config(w, serve_seed(seed, design));
        auto* progress = &ref.progress;
        so.on_progress = [progress](std::size_t, std::size_t ands) {
            progress->push_back(ands);
        };
        futures.emplace_back(&ref,
                             env.service().submit(env.designs[design], so));
    }
    for (auto& [ref, fut] : futures) {
        ref->result = fut.get();
    }
    return refs;
}

void check_wire_loop(Env& env, std::uint64_t seed, LoadRun& run,
                     const std::map<std::size_t, Reference>& refs) {
    for (std::size_t i = 0; i < run.jobs.size(); ++i) {
        JobRecord& rec = run.jobs[i];
        if (!rec.status_ok) {
            continue;
        }
        const net::ResultMsg& m = *rec.wire;
        const Aig& design = env.designs[rec.design].design;
        try {
            const Aig out = bg::io::read_aiger_binary_string(m.optimized);
            check_graph(rec, design, out, m.final_ands,
                        job_seed(seed, kOracleStream, i));
        } catch (const std::exception& e) {
            rec.fail(std::string("returned AIGER: ") + e.what());
        }
        const core::DesignFlowResult& ref =
            refs.at(rec.design).result;
        if (m.final_ands != ref.iterated.final_size ||
            m.bg_best_ratio != ref.flow.bg_best_ratio ||
            m.final_ratio != ref.iterated.final_ratio) {
            rec.fail("loopback result differs from in-process run");
        }
    }
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

struct Tally {
    std::size_t attempted = 0;
    std::size_t failed = 0;
    bool correct = true;  ///< no output failed a check
};

Tally tally(const LoadRun& run) {
    Tally t;
    t.attempted = run.jobs.size();
    for (const auto& rec : run.jobs) {
        if (!rec.failure.empty()) {
            ++t.failed;
            if (rec.status_ok) {
                t.correct = false;  // it ran, and its output is wrong
            }
            std::fprintf(stderr, "perfbench: job failed: %s\n",
                         rec.failure.c_str());
        }
    }
    return t;
}

/// Throughput and latency percentiles are taken per batch and reported
/// as the median over batches, so one batch hit by outside load does not
/// set the figure.  The wire loop is a single batch.
void end_to_end_metrics(const Spec& w, const LoadRun& run, const Tally& t,
                        const std::vector<double>& setup_s, Metrics& m) {
    const std::size_t batches = run.batch_s.size();
    std::vector<std::vector<double>> latencies(batches);
    std::vector<double> completed(batches, 0.0);
    std::vector<double> ratios;
    std::size_t within = 0;
    for (std::size_t i = 0; i < run.jobs.size(); ++i) {
        const JobRecord& rec = run.jobs[i];
        if (!rec.status_ok) {
            continue;
        }
        completed[rec.batch] += 1.0;
        latencies[rec.batch].push_back(rec.latency_s);
        if (rec.latency_s <= w.latency_limit_s) {
            ++within;
        }
        if (i < run.distinct) {
            const double original =
                rec.result ? static_cast<double>(rec.result->original_size)
                           : static_cast<double>(rec.wire->original_ands);
            const double final_ands =
                rec.result
                    ? static_cast<double>(rec.result->iterated.final_size)
                    : static_cast<double>(rec.wire->final_ands);
            ratios.push_back(final_ands / original);
        }
    }
    const auto attempted = static_cast<double>(t.attempted);
    std::vector<double> rate;
    std::vector<double> p50;
    std::vector<double> p95;
    std::size_t samples = 0;
    for (std::size_t b = 0; b < batches; ++b) {
        rate.push_back(completed[b] / run.batch_s[b]);
        p50.push_back(quantile(latencies[b], 0.50));
        p95.push_back(quantile(latencies[b], 0.95));
        samples += latencies[b].size();
    }
    m["setup_s"] = {median(setup_s), "s"};
    m["designs_per_s"] = {median(rate), "1/s"};
    m["and_ratio"] = {geomean(ratios), "ratio"};
    m["serve_p50_s"] = {median(p50), "s"};
    m["serve_p95_s"] = {median(p95), "s"};
    m["serve_ok_share"] = {static_cast<double>(within) / attempted, "share"};
    m["peak_rss_mb"] = {peak_rss_mb(), "MB"};
    m["success_share"] = {1.0 - static_cast<double>(t.failed) / attempted,
                          "share"};
    std::printf("%s: %zu jobs in %zu batch(es), %.3f s; latency samples "
                "%zu, limit %.1f s; and_ratio over %zu jobs\n",
                w.name, run.jobs.size(), batches, run.wall_s, samples,
                w.latency_limit_s, ratios.size());
}

double mean(const std::vector<double>& v) {
    return v.empty() ? 0.0
                     : std::accumulate(v.begin(), v.end(), 0.0) /
                           static_cast<double>(v.size());
}

void load_layer_metrics(const LoadRun& run, std::size_t workers,
                        Metrics& m) {
    std::vector<double> queue_ms;
    std::vector<double> exec_ms;
    std::vector<double> late_ms;
    double busy = 0.0;
    for (const auto& rec : run.jobs) {
        late_ms.push_back(rec.late_s * 1000.0);
        if (rec.status_ok) {
            queue_ms.push_back((rec.latency_s - rec.exec_s) * 1000.0);
            exec_ms.push_back(rec.exec_s * 1000.0);
            busy += rec.exec_s;
        }
    }
    m["service.queue_p50_ms"] = {quantile(queue_ms, 0.50), "ms"};
    m["service.queue_p95_ms"] = {quantile(queue_ms, 0.95), "ms"};
    m["service.exec_p50_ms"] = {quantile(exec_ms, 0.50), "ms"};
    m["service.exec_p95_ms"] = {quantile(exec_ms, 0.95), "ms"};
    m["service.busy_share"] = {
        busy / (static_cast<double>(workers) * run.wall_s), "share"};
    m["net.stats_rtt_ms"] = {median(run.stats_rtt_ms), "ms"};
    m["loadgen.late_p95_ms"] = {quantile(late_ms, 0.95), "ms"};
}

// ---------------------------------------------------------------------------
// Traced replay and layer probes (--trace 1)
// ---------------------------------------------------------------------------

struct ReplayJob {
    std::size_t design = 0;
    std::uint64_t seed = 0;
    const core::DesignFlowResult* ref = nullptr;
    const std::vector<std::size_t>* ref_progress = nullptr;
    const net::ResultMsg* wire = nullptr;  ///< wire loop: a wire result
};

/// Why a replay differs from the library's run of the same job; empty
/// when it reproduces selected indices, best reductions, per-round AND
/// counts and the final AND count exactly.
std::string replay_mismatch(const ReplayOutcome& r, const ReplayJob& job,
                            std::size_t rounds) {
    const core::DesignFlowResult& ref = *job.ref;
    if (r.rounds.empty() || r.rounds.front().selected != ref.flow.selected) {
        return "round-1 selected indices differ";
    }
    if (r.rounds.front().best_reduction != ref.flow.best_reduction) {
        return "round-1 best reduction differs";
    }
    std::vector<int> reductions;
    std::vector<std::size_t> ands;
    for (const auto& round : r.rounds) {
        if (round.productive) {
            reductions.push_back(round.best_reduction);
            ands.push_back(round.ands_after);
        }
    }
    if (reductions != ref.iterated.per_round_reduction) {
        return "per-round best reductions differ";
    }
    if (rounds > 1 && ands != *job.ref_progress) {
        return "per-round AND counts differ";
    }
    if (r.final_ands != ref.iterated.final_size) {
        return "final AND count differs";
    }
    return {};
}

struct WireLeg {
    std::size_t bytes = 0;
    std::string failure;
};

/// The client side of one job on the wire.  The wire loop sends it to the
/// server through FlowClient; batch workloads, which bypass the network,
/// run the same AIGER and codec calls locally on the replayed result.
WireLeg wire_leg(const Spec& w, const core::DesignJob& design,
                 const Aig& source, std::uint64_t seed,
                 const ReplayOutcome& r, net::FlowClient* client,
                 Tracer& tracer, std::uint64_t parent, std::uint64_t job_id) {
    WireLeg leg;
    std::string blob;
    {
        const Span s(&tracer, "io.aiger_write", parent, job_id);
        blob = bg::io::write_aiger_binary_string(source);
    }
    const net::SubmitJobMsg msg = submit_msg(w, job_id, design, blob, seed);
    net::ResultMsg result;
    if (client != nullptr) {
        const Span s(&tracer, "net.rpc", parent, job_id);
        result = client->wait(client->submit(msg));
    } else {
        std::vector<std::uint8_t> frame;
        {
            const Span s(&tracer, "net.encode", parent, job_id);
            frame = net::encode_frame(net::MsgType::SubmitJob, msg.encode());
        }
        leg.bytes += frame.size();
        net::ResultMsg sent;
        sent.job_id = job_id;
        sent.status = net::JobStatus::Ok;
        sent.original_ands = design.design.num_ands();
        sent.final_ands = r.final_ands;
        sent.optimized = bg::io::write_aiger_binary_string(*r.final_graph);
        const auto reply =
            net::encode_frame(net::MsgType::Result, sent.encode());
        leg.bytes += reply.size();
        const Span s(&tracer, "net.decode", parent, job_id);
        net::FrameDecoder decoder;
        decoder.feed(reply.data(), reply.size());
        result = net::ResultMsg::decode(decoder.next().value().payload);
    }
    if (result.status != net::JobStatus::Ok) {
        leg.failure = "wire job failed: " + result.message;
        return leg;
    }
    Aig out;
    {
        const Span s(&tracer, "io.aiger_read", parent, job_id);
        out = bg::io::read_aiger_binary_string(result.optimized);
    }
    if (result.final_ands != r.final_ands || out.num_ands() != r.final_ands) {
        leg.failure = "wire result differs from the replay";
    }
    return leg;
}

struct ReplayPass {
    std::vector<ReplayOutcome> outcomes;
    double seconds = 0.0;
    std::size_t wire_bytes = 0;
    std::vector<std::string> failures;
};

ReplayPass replay_all(Env& env, const Spec& w,
                      const std::vector<ReplayJob>& jobs,
                      net::FlowClient* client, Tracer& tracer) {
    ReplayPass pass;
    // A fresh prover per pass: the load run already proved these pairs,
    // and its verdict cache would otherwise answer for the replay.
    bg::verify::PortfolioCec prover(flow_config(w, 1).verify_opts,
                                    &env.service().pool());
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const ReplayJob& job = jobs[i];
        const std::uint64_t job_id = i + 1;
        const Span span(&tracer, "job", 0, job_id);
        const core::DesignJob& design = env.designs[job.design];
        ReplayOutcome r = replay_design_flow(
            design, *env.model, flow_config(w, job.seed), w.rounds,
            env.service().pool(), &prover, tracer, span.id(), job_id);
        // The wire-loop client writes its own copy of the design; the
        // server (and so the replay) flows what that blob decodes to.
        const Aig& source =
            env.sources.empty() ? design.design : env.sources[job.design];
        const WireLeg leg = wire_leg(w, design, source, job.seed, r, client,
                                     tracer, span.id(), job_id);
        pass.wire_bytes += leg.bytes;
        std::string why = replay_mismatch(r, job, w.rounds);
        if (why.empty() && !leg.failure.empty()) {
            why = leg.failure;
        }
        if (why.empty() && job.wire != nullptr &&
            job.wire->final_ands != r.final_ands) {
            why = "wire-loop result differs from the replay";
        }
        if (why.empty() && w.verify &&
            (!r.verification ||
             r.verification->verdict != bg::aig::CecVerdict::Equivalent)) {
            why = "replay verdict is not Equivalent";
        }
        if (!why.empty()) {
            pass.failures.push_back(design.name + ": " + why);
        }
        pass.outcomes.push_back(std::move(r));
    }
    pass.seconds = seconds_since(t0);
    return pass;
}

/// check_op over every AND node of every design, per operation: mean
/// time per check and the share of checks that found an applicable
/// transformation.  The calling thread's rewrite library is built before
/// timing.
void check_op_probe(const Env& env, Tracer& tracer, Metrics& m) {
    const opt::OptParams params;
    const Aig& first = env.designs.front().design;
    for (bg::aig::Var v = 0; v < first.num_slots(); ++v) {
        if (first.is_and(v)) {
            (void)opt::check_op(first, v, opt::OpKind::Rewrite, params);
            break;
        }
    }
    const std::pair<opt::OpKind, const char*> ops[] = {
        {opt::OpKind::Rewrite, "rw"},
        {opt::OpKind::Resub, "rs"},
        {opt::OpKind::Refactor, "rf"}};
    for (const auto& [op, tag] : ops) {
        std::size_t checked = 0;
        std::size_t hits = 0;
        double seconds = 0.0;
        for (const auto& d : env.designs) {
            const Span s(&tracer, std::string("opt.check_") + tag, 0, 0);
            const auto t0 = Clock::now();
            for (bg::aig::Var v = 0; v < d.design.num_slots(); ++v) {
                if (!d.design.is_and(v) || d.design.is_dead(v)) {
                    continue;
                }
                hits += opt::check_op(d.design, v, op, params).applicable;
                ++checked;
            }
            seconds += seconds_since(t0);
        }
        const auto n = static_cast<double>(std::max<std::size_t>(checked, 1));
        m[std::string("opt.check_") + tag + "_us"] = {seconds * 1e6 / n, "us"};
        m[std::string("opt.") + tag + "_hit"] = {
            static_cast<double>(hits) / n, "ratio"};
    }
}

void replay_layer_metrics(const ReplayPass& traced,
                          const Tracer& tracer, Metrics& m) {
    const auto jobs = static_cast<double>(traced.outcomes.size());
    const auto per_job = [&](const char* span) {
        return tracer.total_ms(span) / jobs;
    };
    m["features.static_ms"] = {per_job("features.static"), "ms"};
    m["features.dynamic_ms"] = {per_job("features.dynamic"), "ms"};
    m["features.csr_ms"] = {per_job("features.csr"), "ms"};
    m["sampling.decisions_ms"] = {per_job("sampling.decisions"), "ms"};
    m["model.infer_ms"] = {per_job("model.infer"), "ms"};
    m["opt.eval_ms"] = {per_job("opt.eval"), "ms"};
    m["opt.commit_ms"] = {per_job("opt.commit"), "ms"};
    m["aig.compact_ms"] = {per_job("aig.compact"), "ms"};
    double samples = 0.0;
    double checked = 0.0;
    double applied = 0.0;
    for (const auto& r : traced.outcomes) {
        samples += static_cast<double>(r.samples);
        checked += static_cast<double>(r.checked);
        applied += static_cast<double>(r.applied);
    }
    m["model.samples_per_s"] = {
        samples / (tracer.total_ms("model.infer") / 1000.0), "1/s"};
    m["opt.checked"] = {checked / jobs, "count"};
    m["opt.applied"] = {applied / jobs, "count"};
    m["opt.apply_ratio"] = {checked > 0.0 ? applied / checked : 0.0, "ratio"};
    const double io_jobs = std::max(1.0, jobs);
    m["io.aiger_write_ms"] = {tracer.total_ms("io.aiger_write") / io_jobs,
                              "ms"};
    m["io.aiger_read_ms"] = {tracer.total_ms("io.aiger_read") / io_jobs,
                             "ms"};
}

double hit_ratio(std::uint64_t hits, std::uint64_t lookups) {
    return lookups > 0 ? static_cast<double>(hits) /
                             static_cast<double>(lookups)
                       : 0.0;
}

void verify_metrics(const std::vector<bg::verify::VerifyReport>& reports,
                    double cache_hit_ratio, const Tracer& tracer,
                    Metrics& m) {
    double sim = 0.0;
    double bdd = 0.0;
    double sat = 0.0;
    for (const auto& r : reports) {
        sim += r.engine == bg::verify::Engine::Simulation ? 1.0 : 0.0;
        bdd += r.engine == bg::verify::Engine::Bdd ? 1.0 : 0.0;
        sat += r.engine == bg::verify::Engine::Sat ? 1.0 : 0.0;
    }
    m["verify.check_ms"] = {mean(tracer.durations_ms("verify.check")), "ms"};
    m["verify.sim_wins"] = {sim, "count"};
    m["verify.bdd_wins"] = {bdd, "count"};
    m["verify.sat_wins"] = {sat, "count"};
    m["verify.cache_hit_ratio"] = {cache_hit_ratio, "ratio"};
}

int run_traced(const Spec& w, const Options& opts) {
    warm_cpus(kCpuWarmS);
    Env env = make_env(w, opts.seed);
    const bool wire_loop = w.wire_depth > 0;
    LoadRun load = wire_loop
                       ? run_wire_loop(env, w, opts.seed, opts.seconds, true)
                       : run_batches(env, w, opts.seed, opts.seconds, 1, true);
    std::map<std::size_t, Reference> refs;
    std::vector<ReplayJob> jobs;
    if (wire_loop) {
        refs = reference_runs(env, w, opts.seed, load);
        check_wire_loop(env, opts.seed, load, refs);
        for (const auto& [design, ref] : refs) {
            ReplayJob job;
            job.design = design;
            job.seed = serve_seed(opts.seed, design);
            job.ref = &ref.result;
            job.ref_progress = &ref.progress;
            for (const auto& rec : load.jobs) {
                if (rec.design == design && rec.status_ok) {
                    job.wire = &*rec.wire;
                    break;
                }
            }
            jobs.push_back(job);
        }
    } else {
        check_batches(env, w, opts.seed, load);
        // The first pass of the batch: one job per design.
        for (std::size_t i = 0; i < env.designs.size(); ++i) {
            const JobRecord& rec = load.jobs[i];
            if (rec.status_ok) {
                jobs.push_back({rec.design, rec.seed, &*rec.result,
                                &rec.progress, nullptr});
            }
        }
    }
    Tally t = tally(load);

    std::unique_ptr<net::FlowClient> client;
    if (wire_loop) {
        net::ClientConfig cfg;
        cfg.port = env.server->port();
        client = std::make_unique<net::FlowClient>(cfg);
    }
    Tracer untraced(false);
    Tracer tracer(true);
    const ReplayPass base = replay_all(env, w, jobs, client.get(), untraced);
    const ReplayPass traced = replay_all(env, w, jobs, client.get(), tracer);
    for (const auto* pass : {&base, &traced}) {
        for (const auto& why : pass->failures) {
            std::fprintf(stderr, "perfbench: replay failed: %s\n",
                         why.c_str());
        }
        t.attempted += jobs.size();
        t.failed += pass->failures.size();
        t.correct = t.correct && pass->failures.empty();
    }

    Metrics m;
    load_layer_metrics(load, env.service().workers(), m);
    replay_layer_metrics(traced, tracer, m);
    check_op_probe(env, tracer, m);

    // Verification: the replay's own checks (already counted above) where
    // the workload verifies, with the cache ratio of the loaded pass's
    // service prover; else a probe proving each replayed output against
    // its input.
    std::vector<bg::verify::VerifyReport> reports;
    if (w.verify) {
        for (const auto& r : traced.outcomes) {
            reports.push_back(*r.verification);
        }
        verify_metrics(reports,
                       hit_ratio(load.stats.verify_cache_hits,
                                 load.stats.verify_cache_lookups),
                       tracer, m);
    } else {
        bg::verify::PortfolioCec probe(flow_config(w, 1).verify_opts,
                                       &env.service().pool());
        for (std::size_t i = 0; i < traced.outcomes.size(); ++i) {
            const Span s(&tracer, "verify.check", 0, i + 1);
            reports.push_back(probe.check(env.designs[jobs[i].design].design,
                                          *traced.outcomes[i].final_graph));
            ++t.attempted;
            if (reports.back().verdict != bg::aig::CecVerdict::Equivalent) {
                ++t.failed;
                t.correct = false;
                std::fprintf(stderr, "perfbench: %s: probe verdict is not "
                             "Equivalent\n",
                             env.designs[jobs[i].design].name.c_str());
            }
        }
        verify_metrics(reports,
                       hit_ratio(probe.cache_hits(), probe.cache_lookups()),
                       tracer, m);
    }

    std::vector<double> encode_us;
    std::vector<double> decode_us;
    std::size_t bytes = 0;
    if (wire_loop) {
        for (const auto& rec : load.jobs) {
            if (rec.status_ok) {
                encode_us.push_back(rec.encode_us);
                decode_us.push_back(rec.decode_us);
                bytes += rec.wire_bytes;
            }
        }
    } else {
        for (const double ms : tracer.durations_ms("net.encode")) {
            encode_us.push_back(ms * 1000.0);
        }
        for (const double ms : tracer.durations_ms("net.decode")) {
            decode_us.push_back(ms * 1000.0);
        }
        bytes = traced.wire_bytes;
    }
    m["net.encode_us"] = {mean(encode_us), "us"};
    m["net.decode_us"] = {mean(decode_us), "us"};
    m["net.bytes_per_job"] = {
        static_cast<double>(bytes) /
            static_cast<double>(std::max<std::size_t>(encode_us.size(), 1)),
        "B"};
    m["trace.overhead_share"] = {(traced.seconds - base.seconds) / base.seconds,
                                 "share"};

    if (!opts.trace_out.empty() && !tracer.write_chrome_json(opts.trace_out)) {
        std::fprintf(stderr, "perfbench: cannot write %s\n",
                     opts.trace_out.c_str());
        return 1;
    }
    std::printf("%s traced: %zu jobs replayed, %zu spans, untraced %.3f s, "
                "traced %.3f s\n",
                w.name, jobs.size(), tracer.size(), base.seconds,
                traced.seconds);
    print_result(t.correct, t.attempted, t.failed, m);
    return 0;
}

int run_measured(const Spec& w, const Options& opts) {
    std::vector<double> setup_s;
    std::optional<Env> env;
    warm_cpus(kCpuWarmS);
    for (std::size_t i = 0; i < kSetupRepeats; ++i) {
        env.reset();  // tear the previous instance down outside the timing
        const auto t0 = Clock::now();
        env.emplace(make_env(w, opts.seed));
        setup_s.push_back(seconds_since(t0));
    }
    const bool wire_loop = w.wire_depth > 0;
    LoadRun load =
        wire_loop ? run_wire_loop(*env, w, opts.seed, opts.seconds, false)
                  : run_batches(*env, w, opts.seed, opts.seconds,
                                static_cast<std::size_t>(-1), false);
    if (wire_loop) {
        check_wire_loop(*env, opts.seed, load,
                        reference_runs(*env, w, opts.seed, load));
    } else {
        check_batches(*env, w, opts.seed, load);
    }
    const Tally t = tally(load);
    Metrics m;
    end_to_end_metrics(w, load, t, setup_s, m);
    print_result(t.correct, t.attempted, t.failed, m);
    return 0;
}

}  // namespace

bool known_workload(const std::string& name) {
    return find_spec(name) != nullptr;
}

int run_workload(const Options& opts) {
    const Spec* w = find_spec(opts.workload);
    if (w == nullptr) {
        std::fprintf(stderr, "perfbench: unknown workload %s\n",
                     opts.workload.c_str());
        return 2;
    }
    return opts.trace ? run_traced(*w, opts) : run_measured(*w, opts);
}

}  // namespace perfbench
