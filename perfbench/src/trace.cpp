#include "trace.hpp"

#include <cstdio>
#include <functional>
#include <map>
#include <thread>

namespace perfbench {

namespace {

double micros(Clock::time_point epoch) {
    return std::chrono::duration<double, std::micro>(Clock::now() - epoch)
        .count();
}

}  // namespace

std::uint64_t Tracer::begin(const std::string& name, std::uint64_t parent,
                            std::uint64_t job) {
    SpanRecord s;
    s.name = name;
    s.parent = parent;
    s.job = job;
    s.thread = std::hash<std::thread::id>{}(std::this_thread::get_id());
    s.start_us = micros(epoch_);
    const std::lock_guard<std::mutex> lock(mu_);
    s.id = spans_.size() + 1;  // ids are 1-based positions in spans_
    spans_.push_back(std::move(s));
    return spans_.back().id;
}

void Tracer::end(std::uint64_t id) {
    const double now = micros(epoch_);
    const std::lock_guard<std::mutex> lock(mu_);
    spans_.at(id - 1).end_us = now;
}

double Tracer::total_ms(const std::string& name) const {
    double sum = 0.0;
    for (const double d : durations_ms(name)) {
        sum += d;
    }
    return sum;
}

std::vector<double> Tracer::durations_ms(const std::string& name) const {
    const std::lock_guard<std::mutex> lock(mu_);
    std::vector<double> out;
    for (const auto& s : spans_) {
        if (s.name == name) {
            out.push_back((s.end_us - s.start_us) / 1000.0);
        }
    }
    return out;
}

std::size_t Tracer::size() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return spans_.size();
}

bool Tracer::write_chrome_json(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        return false;
    }
    const std::lock_guard<std::mutex> lock(mu_);
    // Compact thread ids for the viewer.
    std::map<std::uint64_t, int> tids;
    std::fprintf(f, "{\"traceEvents\": [\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const auto& s = spans_[i];
        const int tid = tids.emplace(s.thread, static_cast<int>(tids.size()))
                            .first->second;
        std::fprintf(f,
                     "{\"name\": \"%s\", \"cat\": \"perfbench\", \"ph\": "
                     "\"X\", \"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, "
                     "\"tid\": %d, \"args\": {\"id\": %llu, \"parent\": "
                     "%llu, \"job\": %llu}}%s\n",
                     s.name.c_str(), s.start_us, s.end_us - s.start_us, tid,
                     static_cast<unsigned long long>(s.id),
                     static_cast<unsigned long long>(s.parent),
                     static_cast<unsigned long long>(s.job),
                     i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "], \"displayTimeUnit\": \"ms\"}\n");
    return std::fclose(f) == 0;
}

}  // namespace perfbench
