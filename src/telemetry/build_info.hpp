#pragma once
// Build/run provenance for stamping exported artifacts: every BENCH_*.json,
// CHECK_*.json and metrics exposition carries enough context to reproduce
// the measurement -- which commit, which compiler, whether telemetry is
// compiled in, how many threads, and which SIMD ISA fixes the pack width.

#include <string>

#include "../guard/fp_env.hpp"
#include "../simd/pack.hpp"
#include "events.hpp"

#if defined(_OPENMP)
#include <omp.h>
#endif

// Stamped by CMake (git rev-parse --short HEAD at configure time); builds
// from a tarball or an uncommitted tree fall back to "unknown".
#ifndef MF_GIT_SHA
#define MF_GIT_SHA "unknown"
#endif

namespace mf::telemetry {

struct BuildInfo {
    std::string git_sha;
    std::string compiler;
    std::string telemetry;  ///< "on" or "off": MF_TELEMETRY_ENABLED in the
                            ///< translation unit that stamped the record
    int threads = 1;      ///< worker threads a parallel region would use
                          ///< (1 without OpenMP)
    std::string backend;  ///< simd::native_isa: the ISA the pack width is
                          ///< compiled for
    std::string fp_env;   ///< probed FP environment, e.g. "rn" or "rz+ftz"
                          ///< (guard::fp_env_string -- nominal is "rn")
};

[[nodiscard]] inline BuildInfo build_info() {
    BuildInfo b;
    b.git_sha = MF_GIT_SHA;
#if defined(__clang__)
    b.compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
    b.compiler = std::string("gcc ") + __VERSION__;
#else
    b.compiler = "unknown";
#endif
    b.telemetry = MF_TELEMETRY_ENABLED ? "on" : "off";
#if defined(_OPENMP)
    b.threads = omp_get_max_threads();
#endif
    b.backend = simd::native_isa;
    b.fp_env = guard::fp_env_string();
    return b;
}

}  // namespace mf::telemetry
