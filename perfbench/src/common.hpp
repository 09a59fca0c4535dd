#pragma once
// Shared pieces of the benchmark: clocks, order statistics, the seeded RNG,
// the benchmark's own span recorder and a minimal JSON object writer.
//
// Every workload is a closed loop on one caller thread; library workers are
// capped at kWorkers (OpenMP team size for the mf::blas view kernels, the
// GemmConfig worker cap for gemm_packed).

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <random>
#include <string>
#include <vector>

#include <telemetry/registry.hpp>

namespace perfbench {

inline constexpr unsigned kWorkers = 2;

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Nanoseconds on the telemetry registry's clock, so the benchmark's spans
/// and the library's own spans share one trace epoch.
[[nodiscard]] inline std::uint64_t now_ns() {
    return mf::telemetry::Registry::instance().now_ns();
}

/// Median of sorted values (mean of the two middle values for even counts).
[[nodiscard]] inline double sorted_median(const std::vector<double>& v) {
    if (v.empty()) return 0.0;
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

[[nodiscard]] inline double median(std::vector<double> v) {
    std::sort(v.begin(), v.end());
    return sorted_median(v);
}

/// The highest percentile with at least ten samples beyond it: the 11th
/// largest sample, at level 100 * (n - 10) / n. With fewer than 11 samples
/// the maximum is reported at level 100.
struct Tail {
    double value = 0.0;
    double level = 0.0;  ///< percentile, 0..100
    std::size_t samples = 0;
    std::size_t windows = 1;
};
[[nodiscard]] inline Tail sorted_tail(const std::vector<double>& v) {
    Tail t;
    t.samples = v.size();
    if (v.empty()) return t;
    const std::size_t n = v.size();
    if (n < 11) {
        t.value = v.back();
        t.level = 100.0;
    } else {
        t.value = v[n - 11];
        t.level = 100.0 * static_cast<double>(n - 10) / static_cast<double>(n);
    }
    return t;
}

[[nodiscard]] inline Tail tail(std::vector<double> v) {
    std::sort(v.begin(), v.end());
    return sorted_tail(v);
}

/// call_us_tail: the run's samples, in time order, are cut into windows of
/// kTailWindow samples (a run with fewer than two windows' worth keeps one
/// window), and the reported tail is the median over windows of each
/// window's tail(), i.e. about p99.8 per window. A stall rate above ten per
/// window moves it. A deeper level would track how many stalls one process
/// happened to hit: measured across processes, the spread of the per-window
/// 11th-largest call grew from about 0.1 at 5000 samples to 0.23 at 25000.
inline constexpr std::size_t kTailWindow = 5000;

[[nodiscard]] inline Tail windowed_tail(const std::vector<double>& v) {
    const std::size_t windows = std::max<std::size_t>(1, v.size() / kTailWindow);
    std::vector<double> values, levels;
    for (std::size_t w = 0; w < windows; ++w) {
        const std::size_t lo = v.size() * w / windows;
        const std::size_t hi = v.size() * (w + 1) / windows;
        const Tail t = tail(std::vector<double>(v.begin() + static_cast<std::ptrdiff_t>(lo),
                                                v.begin() + static_cast<std::ptrdiff_t>(hi)));
        values.push_back(t.value);
        levels.push_back(t.level);
    }
    return Tail{median(values), median(levels), v.size(), windows};
}

/// Median of `reps` timings of f(), in seconds per call of f.
template <typename F>
[[nodiscard]] double time_median(int reps, F&& f) {
    std::vector<double> t;
    t.reserve(static_cast<std::size_t>(reps));
    for (int r = 0; r < reps; ++r) {
        const auto t0 = Clock::now();
        f();
        t.push_back(seconds_since(t0));
    }
    return median(t);
}

using Rng = std::mt19937_64;

/// Independent generator for one named input stream of a seeded run, so
/// adding a stream never shifts the values of another.
[[nodiscard]] inline Rng make_rng(std::uint64_t seed, std::uint64_t stream) {
    std::seed_seq seq{static_cast<std::uint32_t>(seed), static_cast<std::uint32_t>(seed >> 32),
                      static_cast<std::uint32_t>(stream), 0x9e3779b9u};
    return Rng(seq);
}

/// Stratified sample of `count` values in [0, 1): one jittered draw per
/// equal-width stratum, shuffled. Keeps the mix of problem sizes the same
/// from seed to seed while the individual sizes and their order change.
[[nodiscard]] inline std::vector<double> stratified(Rng& rng, std::size_t count) {
    std::uniform_real_distribution<double> u(0.0, 1.0);
    std::vector<double> v(count);
    for (std::size_t i = 0; i < count; ++i) {
        v[i] = (static_cast<double>(i) + u(rng)) / static_cast<double>(count);
    }
    std::shuffle(v.begin(), v.end(), rng);
    return v;
}

/// Spans recorded from the benchmark's own files around calls into each
/// layer (trace mode only). Kept in memory, written when the run ends.
class Spans {
public:
    struct Span {
        const char* name;
        std::uint64_t id;
        std::uint64_t parent;  ///< 0 = root
        std::uint64_t begin_ns;
        std::uint64_t end_ns;
    };

    bool enabled = false;

    /// Open a span; returns its id (0 when disabled).
    std::uint64_t open(const char* name, std::uint64_t parent = 0) {
        if (!enabled) return 0;
        open_.push_back(Span{name, ++next_id_, parent, now_ns(), 0});
        return next_id_;
    }
    void close(std::uint64_t id) {
        if (!enabled || id == 0) return;
        for (std::size_t i = open_.size(); i-- > 0;) {
            if (open_[i].id == id) {
                open_[i].end_ns = now_ns();
                done_.push_back(open_[i]);
                open_.erase(open_.begin() + static_cast<std::ptrdiff_t>(i));
                return;
            }
        }
    }
    [[nodiscard]] const std::vector<Span>& done() const { return done_; }

private:
    std::vector<Span> open_;
    std::vector<Span> done_;
    std::uint64_t next_id_ = 0;
};

/// One flat JSON object, printed on one line.
class Json {
public:
    Json& num(const std::string& key, double v) {
        char buf[64];
        if (std::isfinite(v)) {
            std::snprintf(buf, sizeof buf, "%.17g", v);
        } else {
            std::snprintf(buf, sizeof buf, "null");
        }
        return raw(key, buf);
    }
    Json& str(const std::string& key, const std::string& v) {
        std::string q = "\"";
        for (char c : v) {
            if (c == '"' || c == '\\') q += '\\';
            if (static_cast<unsigned char>(c) < 0x20) continue;
            q += c;
        }
        q += '"';
        return raw(key, q);
    }
    [[nodiscard]] std::string text() const { return "{" + body_ + "}"; }

private:
    Json& raw(const std::string& key, const std::string& v) {
        body_ += (body_.empty() ? "" : ", ") + ("\"" + key + "\": ") + v;
        return *this;
    }

    std::string body_;
};

/// Peak resident set of this process, in MiB.
double rss_peak_mb();

}  // namespace perfbench
