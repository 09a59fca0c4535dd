#pragma once
// Error-bound telemetry output: one self-describing JSON document per
// mf_fuzz run, in the same committed-artifact style as the BENCH_*.json
// performance trajectories (bench/harness.hpp). CHECK_conformance.json at
// the repo root is the tracked instance; CI-style runs diff it for trend
// regressions in worst-case slack.

#include <cstdint>
#include <string>
#include <vector>

#include "conformance.hpp"
#include "differ.hpp"

namespace mf::check {

/// Everything one fuzzing session learned, serializable.
struct ConformanceReport {
    std::uint64_t seed = 0;
    std::uint64_t iters_per_run = 0;
    std::string backend;  ///< simd::native_isa of the build
    std::vector<RunStats> runs;
    std::vector<DiffRecord> diffs;

    [[nodiscard]] bool clean() const noexcept {
        for (const RunStats& r : runs) {
            if (!r.clean()) return false;
        }
        for (const DiffRecord& d : diffs) {
            if (d.mismatches != 0) return false;
        }
        return true;
    }

    /// Write {"check": "conformance", ...} to `path`. Returns false (and
    /// prints to stderr) if the file cannot be written.
    bool write(const std::string& path) const;

    /// Human-readable per-run summary table to stdout.
    void print() const;
};

}  // namespace mf::check
