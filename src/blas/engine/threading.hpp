#pragma once
// Static owner-computes parallelism for the packed GEMM engine
// (DESIGN.md §11), with graceful degradation (DESIGN.md §12).
//
// gemm_packed parallelizes over macro-panels: contiguous mc-row blocks of C.
// Each worker owns a contiguous range of whole blocks ("owner-computes"), so
// every C element is written by exactly one thread and the kk-ascending
// update order per element is untouched -- the result is bit-identical to
// the sequential run for ANY worker count, which is what the conformance
// differ enforces (check::diff_gemm_packed).
//
// Two execution substrates behind one entry point:
//   * OpenMP (when compiled in): one parallel region per call, same
//     omp_in_parallel() guard discipline as every other parallel region in
//     this codebase -- called from inside an existing region we run serially
//     instead of oversubscribing with nested teams;
//   * a std::thread fallback pool, used when OpenMP is not compiled in, or
//     on request (ThreadMode::pool) so OpenMP builds can still exercise and
//     differential-test the fallback path.
// Workers are forked per call. gemm_packed forks only above its serial
// floor (plan_gemm in gemm_packed.hpp), where each worker's share is at
// least about ten microseconds of FPAN work; a persistent pool would be one
// more global to tear down.
//
// Degradation contract: a std::thread construction that throws
// std::system_error (pthread limit, cgroup cap, or an injected fault) is
// ABSORBED, never propagated -- already-spawned workers keep their ranges,
// the calling thread picks up every unowned block, and a
// mf_guard_degraded_total{path="thread"} counter records the event. Because
// ownership stays a partition of [0, nblocks) and per-block work is
// unchanged, the degraded run is bit-identical to the healthy one.

#include <cstddef>
#include <system_error>
#include <thread>
#include <utility>
#include <vector>

#if defined(_OPENMP)
#include <omp.h>
#endif

#include "../../guard/inject.hpp"
#include "../../telemetry/events.hpp"

namespace mf::blas::engine {

/// How parallel_blocks_slots executes its workers.
enum class ThreadMode {
    automatic,  ///< OpenMP when compiled in, std::thread pool otherwise
    pool,       ///< force the std::thread pool (testable in OpenMP builds)
    serial,     ///< no worker threads at all
};

/// True when already executing inside an OpenMP parallel region. Every
/// parallel region in mf::blas (this engine and the L1/L2 kernels of
/// kernels.hpp) consults it to run serially instead of nesting a team.
inline bool in_parallel() noexcept {
#if defined(_OPENMP)
    return omp_in_parallel() != 0;
#else
    return false;
#endif
}

/// Worker count the runtime would grant right now (OpenMP's max_threads or
/// hardware_concurrency).
[[nodiscard]] inline unsigned default_threads() noexcept {
#if defined(_OPENMP)
    return static_cast<unsigned>(omp_get_max_threads());
#else
    const unsigned hc = std::thread::hardware_concurrency();
    return hc ? hc : 1u;
#endif
}

/// Worker count parallel_blocks_slots would PLAN for this call -- an upper
/// bound on the slot index fn will ever see, so callers can pre-size
/// per-slot scratch before entering the parallel region. (The granted team
/// can be smaller; slots are always < the planned count.) Inside an
/// enclosing OpenMP parallel region the plan is always one worker.
[[nodiscard]] inline unsigned planned_workers(std::size_t nblocks,
                                              ThreadMode mode = ThreadMode::automatic,
                                              unsigned max_threads = 0) noexcept {
    unsigned nw = max_threads ? max_threads : default_threads();
    if (nw > nblocks) nw = static_cast<unsigned>(nblocks);
    if (mode == ThreadMode::serial || in_parallel() || nw <= 1) return 1;
    return nw;
}

namespace detail {

/// Blocks owned by worker `w` of `nw`: the contiguous range
/// [nblocks*w/nw, nblocks*(w+1)/nw) -- the same static partition for both
/// substrates, so OpenMP and pool runs even share their work assignment.
///
/// Spawn failure is absorbed here: if constructing worker `w` throws
/// std::system_error, workers [1, w) run their ranges as planned and the
/// calling thread (slot 0) covers its own range plus everything from w's
/// range onward. Join-before-return holds on every path.
template <typename F>
void run_pool(unsigned nw, std::size_t nblocks, F&& fn) {
    std::vector<std::thread> workers;
    workers.reserve(nw - 1);
    unsigned spawned = nw;  // workers with a live owner, caller included
    try {
        for (unsigned w = 1; w < nw; ++w) {
            if (guard::inject::should_fail_spawn()) {
                throw std::system_error(
                    std::make_error_code(std::errc::resource_unavailable_try_again),
                    "mf::guard injected thread-spawn fault");
            }
            workers.emplace_back([&fn, w, nw, nblocks] {
                const std::size_t lo = nblocks * w / nw;
                const std::size_t hi = nblocks * (w + 1) / nw;
                for (std::size_t blk = lo; blk < hi; ++blk) fn(blk, w);
            });
        }
    } catch (const std::system_error&) {
        spawned = static_cast<unsigned>(workers.size()) + 1;
        MF_TELEM_COUNT_N("mf_guard_degraded_total{path=\"thread\"}", 1);
    }
    const std::size_t hi0 = nblocks / nw;  // worker 0 = the calling thread
    for (std::size_t blk = 0; blk < hi0; ++blk) fn(blk, 0u);
    // Orphaned ranges (spawn failed): run on the calling thread, slot 0 --
    // its scratch is free again once its own range is done.
    for (std::size_t blk = nblocks * spawned / nw; blk < nblocks; ++blk) {
        fn(blk, 0u);
    }
    for (auto& t : workers) t.join();
}

}  // namespace detail

/// Run fn(block, slot) for every block in [0, nblocks), statically
/// partitioned over up to max_threads workers (0 = runtime default). `slot`
/// identifies the executing worker, 0 <= slot < planned_workers(...): stable
/// per worker within one call, so fn can index pre-allocated per-worker
/// scratch. Serializes when nested inside an existing OpenMP parallel
/// region; absorbs thread-spawn failure by running orphaned blocks on the
/// calling thread (see run_pool).
template <typename F>
void parallel_blocks_slots(std::size_t nblocks, F&& fn,
                           ThreadMode mode = ThreadMode::automatic,
                           unsigned max_threads = 0) {
    const unsigned nw = planned_workers(nblocks, mode, max_threads);
    if (nw <= 1) {
        for (std::size_t blk = 0; blk < nblocks; ++blk) fn(blk, 0u);
        return;
    }
    if (mode == ThreadMode::pool) {
        detail::run_pool(nw, nblocks, std::forward<F>(fn));
        return;
    }
#if defined(_OPENMP)
#pragma omp parallel num_threads(static_cast<int>(nw))
    {
        // Partition by the team size actually granted (can be < nw); the
        // result does not depend on it -- only the work assignment does.
        const auto team = static_cast<unsigned>(omp_get_num_threads());
        const auto w = static_cast<unsigned>(omp_get_thread_num());
        const std::size_t lo = nblocks * w / team;
        const std::size_t hi = nblocks * (w + 1) / team;
        for (std::size_t blk = lo; blk < hi; ++blk) fn(blk, w);
    }
#else
    detail::run_pool(nw, nblocks, std::forward<F>(fn));
#endif
}

}  // namespace mf::blas::engine
