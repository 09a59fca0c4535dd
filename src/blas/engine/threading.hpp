#pragma once
// Static owner-computes parallelism for mf::blas (DESIGN.md §11, §12).
//
// parallel_blocks_slots is the one place in mf::blas that opens a parallel
// region. gemm_packed hands it macro-panels (contiguous mc-row blocks of C);
// the L1/L2 kernels of kernels.hpp hand it element chunks or rows above
// their size thresholds. Each worker owns a contiguous range of whole blocks
// ("owner-computes"), so every output element is written by exactly one
// thread and its update order is untouched -- the result is bit-identical
// to the sequential run for ANY worker count, which is what the conformance
// differ enforces (check::diff_gemm_packed).
//
// One substrate: an OpenMP parallel region per call when OpenMP is compiled
// in, a serial loop otherwise (planned_workers is then always 1). Called
// from inside an existing parallel region, planned_workers plans one worker,
// so the call runs serially instead of oversubscribing with a nested team.
//
// FP environment: the caller's environment is the sentinel's business
// (guard/policy.hpp); an OpenMP worker keeps whatever environment it was
// left in by earlier regions. Under MF_GUARD_POLICY=enforce every non-caller
// worker therefore runs its blocks under a guard::ScopedFpEnv, counting
// mf_guard_enforced_total when its environment was hostile on entry.

#include <cstddef>
#include <optional>

#if defined(_OPENMP)
#include <omp.h>
#endif

#include "../../guard/policy.hpp"
#include "../../telemetry/events.hpp"

namespace mf::blas::engine {

/// How parallel_blocks_slots executes its workers.
enum class ThreadMode {
    automatic,  ///< an OpenMP team when compiled in and not nested
    serial,     ///< no worker threads at all
};

/// True when already executing inside an OpenMP parallel region; consulted
/// by planned_workers to run serially instead of nesting a team.
inline bool in_parallel() noexcept {
#if defined(_OPENMP)
    return omp_in_parallel() != 0;
#else
    return false;
#endif
}

/// Worker count parallel_blocks_slots would PLAN for this call (max_threads,
/// or OpenMP's max_threads when 0, capped at nblocks) -- an upper
/// bound on the slot index fn will ever see, so callers can pre-size
/// per-slot scratch before entering the parallel region. (The granted team
/// can be smaller; slots are always < the planned count.) Inside an
/// enclosing OpenMP parallel region, and without OpenMP, the plan is always
/// one worker.
[[nodiscard]] inline unsigned planned_workers(std::size_t nblocks,
                                              ThreadMode mode = ThreadMode::automatic,
                                              unsigned max_threads = 0) noexcept {
#if defined(_OPENMP)
    unsigned nw = max_threads ? max_threads : static_cast<unsigned>(omp_get_max_threads());
    if (nw > nblocks) nw = static_cast<unsigned>(nblocks);
    if (mode == ThreadMode::serial || in_parallel() || nw <= 1) return 1;
    return nw;
#else
    (void)nblocks, (void)mode, (void)max_threads;
    return 1;
#endif
}

/// Run fn(block, slot) for every block in [0, nblocks), statically
/// partitioned over up to max_threads workers (0 = runtime default): worker
/// w of a team of t owns blocks [nblocks*w/t, nblocks*(w+1)/t). `slot`
/// identifies the executing worker, 0 <= slot < planned_workers(...):
/// stable per worker within one call, so fn can index pre-allocated
/// per-worker scratch. Slot 0 is the calling thread.
template <typename F>
void parallel_blocks_slots(std::size_t nblocks, F&& fn,
                           ThreadMode mode = ThreadMode::automatic,
                           unsigned max_threads = 0) {
    const unsigned nw = planned_workers(nblocks, mode, max_threads);
    if (nw <= 1) {
        for (std::size_t blk = 0; blk < nblocks; ++blk) fn(blk, 0u);
        return;
    }
#if defined(_OPENMP)
    const bool enforce = guard::policy() == guard::Policy::enforce;
#pragma omp parallel num_threads(static_cast<int>(nw))
    {
        // Partition by the team size actually granted (can be < nw); the
        // result does not depend on it -- only the work assignment does.
        const auto team = static_cast<unsigned>(omp_get_num_threads());
        const auto w = static_cast<unsigned>(omp_get_thread_num());
        std::optional<guard::ScopedFpEnv> repaired;
        if (enforce && w != 0) {
            if (!guard::env_nominal(guard::fp_env_snapshot())) {
                MF_TELEM_COUNT("mf_guard_enforced_total");
            }
            repaired.emplace();
        }
        const std::size_t lo = nblocks * w / team;
        const std::size_t hi = nblocks * (w + 1) / team;
        for (std::size_t blk = lo; blk < hi; ++blk) fn(blk, w);
    }
#endif
}

}  // namespace mf::blas::engine
