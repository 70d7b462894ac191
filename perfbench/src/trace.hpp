#pragma once

/// In-memory span recorder for the traced replay.  Spans are recorded by
/// the benchmark around its calls into each library layer (name, start,
/// end, parent span, job id), kept in memory, and written once at the end
/// as Chrome trace-event JSON (viewable in Perfetto or chrome://tracing).
/// A disabled tracer records nothing, so the same replay code serves the
/// untraced baseline.

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "util.hpp"

namespace perfbench {

struct SpanRecord {
    std::string name;
    std::uint64_t id = 0;
    std::uint64_t parent = 0;  ///< 0 = root span
    std::uint64_t job = 0;
    std::uint64_t thread = 0;
    double start_us = 0.0;  ///< since the tracer's epoch
    double end_us = 0.0;
};

class Tracer {
public:
    explicit Tracer(bool enabled) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }

    std::uint64_t begin(const std::string& name, std::uint64_t parent,
                        std::uint64_t job);
    void end(std::uint64_t id);

    /// Total duration in ms of every span with this name.
    double total_ms(const std::string& name) const;
    /// Duration in ms of each span with this name, in start order.
    std::vector<double> durations_ms(const std::string& name) const;
    std::size_t size() const;

    /// Write every span as a Chrome trace-event JSON array; false on I/O
    /// failure.
    bool write_chrome_json(const std::string& path) const;

private:
    bool enabled_;
    Clock::time_point epoch_ = Clock::now();
    mutable std::mutex mu_;
    std::vector<SpanRecord> spans_;
};

/// RAII span; a no-op on a null or disabled tracer.
class Span {
public:
    Span(Tracer* tracer, const std::string& name, std::uint64_t parent,
         std::uint64_t job)
        : tracer_(tracer != nullptr && tracer->enabled() ? tracer : nullptr),
          id_(tracer_ != nullptr ? tracer_->begin(name, parent, job) : 0) {}
    ~Span() {
        if (tracer_ != nullptr) {
            tracer_->end(id_);
        }
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

    std::uint64_t id() const { return id_; }

private:
    Tracer* tracer_;
    std::uint64_t id_;
};

}  // namespace perfbench
