#pragma once
// BLIS-style packed cache-blocked GEMM engine (DESIGN.md §11).
//
// C += A B with A (n x k), B (k x m), C (n x m), all row-major views in one
// layout -- planar (one plane per limb) or AoS (MultiFloat<T, N> elements,
// the layout blas::gemm serves) -- with the accumulate contract of
// planar::gemm. Layout touches only packing (A and B) and the C micro-tile
// load/store (on_c_tile); every loop in between is shared.
//
// Loop structure (outside in), following the classical
// Goto/BLIS decomposition:
//
//   jc over m in nc columns     B column-panel        (L3-resident packed)
//    pc over k in kc rows       pack B(pc, jc) once   (ascending: kk order)
//     ic over n in mc rows      macro-panels, parallel (owner-computes)
//       pack A(ic, pc)          per-worker scratch     (L2-resident packed)
//       jr over nc in NR cols   packed-B micro-panel   (L1-resident)
//        ir over mc in MR rows  register micro-kernel  (microkernel.hpp)
//
// Block sizes mc/kc/nc are selected per pack width and expansion length
// (auto_blocks below; both set the micro-tile footprint) and can be pinned
// via GemmConfig for experiments. plan_gemm then fits the row partition to
// the call: small calls run serially, and an auto mc shrinks so every
// planned worker owns a row block.
//
// Determinism/bit-identity: the pc loop ascends and the micro-kernel ascends
// kk within each pc block, so every C element sees its k updates in exactly
// planar::gemm's order, each update being the identical add(mul(.,.),.)
// FPAN sequence; macro-panels partition whole C row blocks per worker
// (owner-computes, threading.hpp), so no element is touched by two threads.
// Result: bit-identical to sequential planar::gemm for every pack width and
// thread count -- enforced by check::diff_gemm_packed and the fuzz-smoke
// conformance tier.

#include <algorithm>
#include <cstddef>
#include <memory>
#include <new>
#include <type_traits>

#include "../../guard/guard.hpp"
#include "../../simd/kernels.hpp"
#include "../../telemetry/events.hpp"
#include "../planar.hpp"
#include "../views.hpp"
#include "microkernel.hpp"
#include "packing.hpp"
#include "threading.hpp"

namespace mf::blas {

/// Cache-block sizes for gemm_packed; 0 = select per pack width.
struct BlockShape {
    std::size_t mc = 0;  ///< rows of a packed A block (L2 target)
    std::size_t kc = 0;  ///< k-extent of packed A/B blocks (L1 target)
    std::size_t nc = 0;  ///< columns of a packed B panel (L3 target)
};

/// Execution knobs for gemm_packed.
struct GemmConfig {
    BlockShape blocks{};  ///< 0-fields auto-selected per pack width
    unsigned max_threads = 0;  ///< worker cap; 0 = runtime default, 1 = serial
};

namespace engine {

/// Fill the zero fields of `req` with per-width defaults. The micro-tile
/// geometry (mr x nr, from the pack width W and expansion length N)
/// sets the footprints: kc so a packed B micro-panel (kc x nr x N limbs)
/// stays L1-resident under the A rows streaming through, mc so the packed A
/// block (mc x kc) stays L2-resident, nc so the packed B panel (kc x nc)
/// stays L3-resident. Cache targets are conservative fixed budgets (24 KiB /
/// 192 KiB / 2 MiB) rather than probed sizes: the blocks only need to be
/// comfortably inside each level, and fixed budgets keep runs reproducible
/// across machines.
template <std::floating_point T, int N>
[[nodiscard]] inline BlockShape auto_blocks(int mr, int nr, BlockShape req) {
    const std::size_t elem = sizeof(T) * static_cast<std::size_t>(N);
    BlockShape bs = req;
    if (bs.kc == 0) {
        const std::size_t kc = (24u * 1024u) / (static_cast<std::size_t>(nr) * elem);
        bs.kc = std::clamp<std::size_t>(kc, 32, 512);
    }
    if (bs.mc == 0) {
        std::size_t mc = (192u * 1024u) / (bs.kc * elem);
        mc -= mc % static_cast<std::size_t>(mr);
        bs.mc = std::clamp<std::size_t>(mc, static_cast<std::size_t>(mr), 512);
    }
    if (bs.nc == 0) {
        std::size_t nc = (2u * 1024u * 1024u) / (bs.kc * elem);
        nc -= nc % static_cast<std::size_t>(nr);
        bs.nc = std::clamp<std::size_t>(nc, static_cast<std::size_t>(nr), 8192);
    }
    return bs;
}

/// Below this many limb products (n*m*k*N^2, the work measure both the
/// packed and the FPAN costs scale with) an auto-planned call runs on the
/// calling thread with no parallel region: a 2-worker fork/join costs more
/// than it saves. Measured crossover: DESIGN.md §11.
inline constexpr double kSerialFloor = 1.0e5;

/// What one gemm call will do: its cache blocks, its row-block count, and the
/// workers that share those blocks.
struct GemmPlan {
    BlockShape blocks;
    std::size_t nblocks = 0;
    ThreadMode threads = ThreadMode::automatic;
    unsigned workers = 1;
};

/// Plan a (n x k) * (k x m) call on pack width W. With an auto mc (the
/// caller did not pin cfg.blocks.mc) the engine owns the row partition:
///  * below kSerialFloor the call is serial;
///  * when ceil(n / mc) row blocks cannot feed every planned worker, mc
///    shrinks to ceil(n / workers) rounded up to MR -- one block per worker.
/// A pinned mc is honoured as given, threaded as cfg asks.
template <std::floating_point T, int N, int W>
[[nodiscard]] inline GemmPlan plan_gemm(std::size_t n, std::size_t m, std::size_t k,
                                        const GemmConfig& cfg) {
    using MK = MicroKernel<T, N, W>;
    constexpr auto mr = static_cast<std::size_t>(MK::MR);
    GemmPlan plan;
    plan.blocks = auto_blocks<T, N>(MK::MR, MK::NR, cfg.blocks);
    if (cfg.blocks.mc == 0) {
        const double work = static_cast<double>(n) * static_cast<double>(m) *
                            static_cast<double>(k) * N * N;
        if (work < kSerialFloor) plan.threads = ThreadMode::serial;
        const unsigned want =
            planned_workers((n + mr - 1) / mr, plan.threads, cfg.max_threads);
        if ((n + plan.blocks.mc - 1) / plan.blocks.mc < want) {
            const std::size_t share = (n + want - 1) / want;
            plan.blocks.mc = (share + mr - 1) / mr * mr;
        }
    }
    plan.nblocks = (n + plan.blocks.mc - 1) / plan.blocks.mc;
    plan.workers = planned_workers(plan.nblocks, plan.threads, cfg.max_threads);
    return plan;
}

namespace detail {

/// Sequential unpacked fallback over AoS views: planar::gemm's exact ikj
/// order (planar views fall back to planar::gemm itself). Bit-identical to
/// the packed path for every pack width, because each C element sees its k
/// updates kk-ascending and every update is the same lane-independent FPAN
/// sequence -- which is why the engine may switch to it when panel scratch
/// cannot be allocated without changing a single result bit.
template <FloatingPoint T, int N, int W>
void gemm_unpacked(const ConstMatrixView<MultiFloat<T, N>>& a,
                   const ConstMatrixView<MultiFloat<T, N>>& b,
                   const MatrixView<MultiFloat<T, N>>& c) {
    for (std::size_t i = 0; i < c.rows; ++i) {
        for (std::size_t kk = 0; kk < a.cols; ++kk) {
            simd::kernels::axpy_aos<T, N, W>(a(i, kk), b.row(kk), c.row(i), c.cols);
        }
    }
}

/// Run f(tile, ldc) on the (rows x cols) micro-tile of C at (i, j), where
/// tile[p] points at limb plane p. Planar C is updated in place.
template <int MR, int NR, FloatingPoint T, int N, typename F>
MF_ALWAYS_INLINE void on_c_tile(const planar::MatrixView<T, N>& c, std::size_t i,
                                std::size_t j, std::size_t, std::size_t, F&& f) {
    T* tile[N];
    for (int p = 0; p < N; ++p) tile[p] = c.row(p, i) + j;
    f(tile, c.stride);
}

/// AoS C is transposed into a planar MR x NR staging tile, updated there by
/// the same micro-kernel, and transposed back: one round trip per kc block,
/// against kc FPAN updates per element in between.
template <int MR, int NR, FloatingPoint T, int N, typename F>
MF_ALWAYS_INLINE void on_c_tile(const MatrixView<MultiFloat<T, N>>& c, std::size_t i,
                                std::size_t j, std::size_t rows, std::size_t cols,
                                F&& f) {
    alignas(64) T stage[N][MR * NR];
    T* tile[N];
    for (int p = 0; p < N; ++p) tile[p] = stage[p];
    for (std::size_t r = 0; r < rows; ++r) {
        const MultiFloat<T, N>* src = c.row(i + r) + j;
        for (std::size_t jj = 0; jj < cols; ++jj) {
            for (int p = 0; p < N; ++p) stage[p][r * NR + jj] = src[jj].limb[p];
        }
    }
    f(tile, static_cast<std::size_t>(NR));
    for (std::size_t r = 0; r < rows; ++r) {
        MultiFloat<T, N>* dst = c.row(i + r) + j;
        for (std::size_t jj = 0; jj < cols; ++jj) {
            for (int p = 0; p < N; ++p) dst[jj].limb[p] = stage[p][r * NR + jj];
        }
    }
}

/// C += A B through packed panels and the register-blocked micro-kernel at
/// pack width W, for planar or AoS views (A, B and C in the same layout).
/// No sentinel: the public entry points (gemm_packed, blas::gemm) carry one
/// each and run the build's native width; check::diff_gemm_packed runs
/// every width.
///
/// ALL panel scratch -- the shared B panel plus one A block per worker slot
/// -- is reserved before any C element is written, and reservation failure
/// degrades to the sequential ikj loop: planar::gemm, or gemm_unpacked for
/// AoS views (bit-identical, counted as mf_guard_degraded_total{path=
/// "alloc"}). After the up-front reserve, the
/// in-loop ensure() calls are guaranteed allocation-free: every block
/// extent is bounded by the reserved worst case.
template <FloatingPoint T, int N, int W, typename AView, typename CView>
void gemm(const AView& a, const AView& b, const CView& c, const GemmConfig& cfg) {
    const std::size_t n = c.rows;
    const std::size_t m = c.cols;
    const std::size_t k = a.cols;
    if (n == 0 || m == 0 || k == 0) return;
    MF_TELEM_COUNT_N("mf_simd_kernel_ops_total{kernel=\"gemm_packed\"}", n * m * k);
    using MK = MicroKernel<T, N, W>;
    const GemmPlan plan = plan_gemm<T, N, W>(n, m, k, cfg);
    const BlockShape& bs = plan.blocks;
    MF_TELEM_HIST("mf_gemm_workers", plan.workers);
    AlignedBuffer<T> bbuf;
    std::unique_ptr<AlignedBuffer<T>[]> abufs;
    try {
        // Reserve the worst-case panel footprint up front: the shared B
        // panel and one A block per worker slot. C is untouched until
        // this succeeds, so a bad_alloc here (real or injected) can
        // still choose a different execution strategy.
        abufs.reset(new AlignedBuffer<T>[plan.workers]);
        bbuf.ensure(static_cast<std::size_t>(N) * std::min(bs.kc, k) *
                    std::min(bs.nc, m));
        for (unsigned s = 0; s < plan.workers; ++s) {
            abufs[s].ensure(static_cast<std::size_t>(N) *
                            std::min(bs.mc, n) * std::min(bs.kc, k));
        }
    } catch (const std::bad_alloc&) {
        MF_TELEM_COUNT_N("mf_guard_degraded_total{path=\"alloc\"}", 1);
        if constexpr (std::is_same_v<CView, planar::MatrixView<T, N>>) {
            planar::gemm<T, N>(a, b, c);
        } else {
            gemm_unpacked<T, N, W>(a, b, c);
        }
        return;
    }
    const T* bpk[N];
    for (std::size_t jc = 0; jc < m; jc += bs.nc) {
        const std::size_t ncb = std::min(bs.nc, m - jc);
        for (std::size_t pc = 0; pc < k; pc += bs.kc) {
            const std::size_t kcb = std::min(bs.kc, k - pc);
            // Packed once, read-only for every worker of the ic loop.
            pack_b<T, N>(b, pc, jc, kcb, ncb, bbuf, bpk);
            // Fault-injection checkpoint: a mid-call environment flip
            // lands here; the sentinel's exit probe must notice it.
            guard::inject::maybe_perturb_env();
            parallel_blocks_slots(
                plan.nblocks,
                [&](std::size_t ib, unsigned slot) {
                    MF_TELEM_SPAN_TIMED("gemm_macro_panel",
                                        "mf_gemm_macro_panel_ns");
                    const std::size_t ic = ib * bs.mc;
                    const std::size_t mcb = std::min(bs.mc, n - ic);
                    // Pre-reserved per-slot scratch: allocation-free.
                    AlignedBuffer<T>& abuf = abufs[slot];
                    const T* apk[N];
                    pack_a<T, N>(a, ic, pc, mcb, kcb, abuf, apk);
                    for (std::size_t jr = 0; jr < ncb; jr += MK::NR) {
                        const std::size_t nrb = std::min<std::size_t>(
                            static_cast<std::size_t>(MK::NR), ncb - jr);
                        const T* bpt[N];
                        for (int p = 0; p < N; ++p) bpt[p] = bpk[p] + jr;
                        for (std::size_t ir = 0; ir < mcb; ir += MK::MR) {
                            const std::size_t mrb = std::min<std::size_t>(
                                static_cast<std::size_t>(MK::MR), mcb - ir);
                            const T* apt[N];
                            for (int p = 0; p < N; ++p) apt[p] = apk[p] + ir * kcb;
                            MF_TELEM_COUNT("mf_gemm_microkernel_total");
                            on_c_tile<MK::MR, MK::NR>(
                                c, ic + ir, jc + jr, mrb, nrb,
                                [&](T* const (&cpt)[N], std::size_t ldc) {
                                    if (mrb == static_cast<std::size_t>(MK::MR) &&
                                        nrb == static_cast<std::size_t>(MK::NR)) {
                                        MK::full(apt, kcb, bpt, ncb, cpt, ldc, kcb);
                                    } else {
                                        MK::edge(apt, kcb, bpt, ncb, cpt, ldc, kcb,
                                                 mrb, nrb);
                                    }
                                });
                        }
                    }
                },
                plan.threads, cfg.max_threads);
        }
    }
}

}  // namespace detail
}  // namespace engine

/// C += A B through packed panels and the register-blocked micro-kernel.
/// Bit-identical to planar::gemm (see file header); degenerate shapes
/// (any zero dimension) are no-ops.
///
/// Robustness (DESIGN.md §12): the entry point carries an FP-environment
/// sentinel (MF_GUARD_POLICY decides detect/enforce behavior); scratch
/// reservation failure degrades bit-identically (engine::detail::gemm).
template <FloatingPoint T, int N>
void gemm_packed(planar::ConstMatrixView<T, N> a, planar::ConstMatrixView<T, N> b,
                 planar::MatrixView<T, N> c, const GemmConfig& cfg = {}) {
    MF_GUARD_SENTINEL("blas.gemm_packed");
    engine::detail::gemm<T, N, simd::native_width<T>>(a, b, c, cfg);
}

/// All-mutable-view overload: template deduction cannot cross the
/// MatrixView -> ConstMatrixView conversion, so the common case of freshly
/// built (mutable) views gets its own forwarder.
template <FloatingPoint T, int N>
void gemm_packed(planar::MatrixView<T, N> a, planar::MatrixView<T, N> b,
                 planar::MatrixView<T, N> c, const GemmConfig& cfg = {}) {
    gemm_packed<T, N>(planar::ConstMatrixView<T, N>(a),
                      planar::ConstMatrixView<T, N>(b), c, cfg);
}

/// C += A B over AoS views of MultiFloat<T, N>: the same engine, packing
/// straight from the interleaved limbs (blas::gemm is this on a zeroed C).
template <FloatingPoint T, int N>
void gemm_packed(ConstMatrixView<MultiFloat<T, N>> a, ConstMatrixView<MultiFloat<T, N>> b,
                 MatrixView<MultiFloat<T, N>> c, const GemmConfig& cfg = {}) {
    MF_GUARD_SENTINEL("blas.gemm_packed");
    engine::detail::gemm<T, N, simd::native_width<T>>(a, b, c, cfg);
}

}  // namespace mf::blas
