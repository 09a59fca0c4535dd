#pragma once
// Cross-width differential checker: the scalar FPAN kernels are the
// reference semantics; every pack width and every parallel schedule must
// reproduce them bit-for-bit (DESIGN.md §8's bit-exactness rationale,
// checked here over the same structure-aware corpus the conformance runner
// fuzzes with). Every build diffs every width W in {1, 2, 4, 8, 16} with
// W * sizeof(T) <= 64 (simd::for_each_width): widths the build has
// intrinsics for run them, the others run the portable Pack, so a runner
// without AVX-512 still covers widths 8 and 16.
//
// Four surfaces are diffed:
//   * elementwise kernels at each width vs. the scalar MultiFloat networks:
//     planar add_range / fma_range, and axpy_aos on AoS spans (its loads
//     and stores transpose packs in registers);
//   * the dot reductions (planar dot, AoS dot_aos) vs. a scalar loop with
//     max(8, W) accumulators, which pins the merge order: the historical
//     eight-accumulator order for widths <= 8, sixteen accumulators at
//     W = 16;
//   * the packed cache-blocked GEMM engine (blas/engine) at each width vs.
//     sequential planar::gemm across every thread count, including
//     deliberately tiny cache blocks so pack edges are exercised;
//   * the AoS front end of the same engine on strided sub-views vs.
//     planar::gemm: the engine at each width, and blas::gemm itself at the
//     native width, across the same thread-cap sweep.
// Both GEMM surfaces are also run from inside an enclosing OpenMP parallel
// region (a "nested" record), where the engine must plan a single worker
// instead of forking a nested team.
//
// Comparison is raw bit identity per limb, except that any-NaN == any-NaN:
// lanes that produce NaN must agree on NaN-ness, not on payload bits. So the
// reductions and the GEMMs run on finite operands: one Inf or NaN element
// turns a whole sum, or a whole row or column of C, into NaN, which then
// matches whatever the order of its updates. Each GEMM surface keeps one
// "specials" record on the caller's corpus for NaN/Inf propagation, and a
// "cancel" record per width on operands whose k-terms cancel in pairs: the
// ladder corpus rounds the same whatever order a C element's updates come
// in, so only near-equal, opposite-sign terms expose an update-order bug.

#include <bit>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "../blas/engine/gemm_packed.hpp"
#include "../blas/kernels.hpp"
#include "../blas/planar.hpp"
#include "../simd/simd.hpp"
#include "generators.hpp"

#if defined(_OPENMP)
#include <omp.h>
#endif

namespace mf::check {

/// One diffed (kernel, width/schedule) combination.
struct DiffRecord {
    std::string kernel;   ///< "add_range" | "fma_range" | "dot" | "axpy_aos" |
                          ///< "dot_aos" | "gemm_packed" | "gemm_aos"
    std::string type;     ///< "double" | "float"
    int limbs = 0;
    std::string backend;  ///< "w<W>"; for gemm "w<W>/threads=K" (gemm_aos:
                          ///< + "/gemm" or "/gemm_packed"), "w<W>/specials",
                          ///< "w<W>/cancel" or "nested"
    int width = 0;        ///< pack lanes under test
    std::uint64_t elements = 0;
    std::uint64_t mismatches = 0;
};

namespace detail {

template <typename T>
using Bits = std::conditional_t<sizeof(T) == 8, std::uint64_t, std::uint32_t>;

/// Bit identity with NaN-payload tolerance.
template <typename T>
[[nodiscard]] inline bool same_bits(T a, T b) noexcept {
    if (std::isnan(a) || std::isnan(b)) return std::isnan(a) && std::isnan(b);
    return std::bit_cast<Bits<T>>(a) == std::bit_cast<Bits<T>>(b);
}

/// Some limb of a and b differs under same_bits.
template <std::floating_point T, int N>
[[nodiscard]] bool differs(const MultiFloat<T, N>& a, const MultiFloat<T, N>& b) noexcept {
    for (int k = 0; k < N; ++k) {
        if (!same_bits(a.limb[k], b.limb[k])) return true;
    }
    return false;
}

/// `cfg` without specials: the corpus of the reductions and the GEMMs.
[[nodiscard]] inline GenConfig finite(GenConfig cfg) noexcept {
    cfg.specials = false;
    return cfg;
}

/// Record label of pack width W.
[[nodiscard]] inline std::string width_label(int w) { return "w" + std::to_string(w); }

/// Scalar <x, y> with `blk` accumulators: accumulator j takes element j of
/// every whole blk-block, the accumulators merge in order, the tail comes
/// last. simd::dot at width W promises this order with blk = max(8, W).
template <std::floating_point T, int N>
[[nodiscard]] MultiFloat<T, N> blocked_dot(const planar::Vector<T, N>& x,
                                           const planar::Vector<T, N>& y,
                                           std::size_t blk) {
    const std::size_t n = x.size();
    std::vector<MultiFloat<T, N>> part(blk);
    for (std::size_t i = 0; i + blk <= n; i += blk) {
        for (std::size_t j = 0; j < blk; ++j) {
            part[j] = add(part[j], mul(x.get(i + j), y.get(i + j)));
        }
    }
    MultiFloat<T, N> acc{};
    for (const MultiFloat<T, N>& p : part) acc = add(acc, p);
    for (std::size_t i = n - n % blk; i < n; ++i) acc = add(acc, mul(x.get(i), y.get(i)));
    return acc;
}

template <std::floating_point T, int N>
void fill_vectors(std::mt19937_64& rng, std::size_t n, const GenConfig& cfg,
                  planar::Vector<T, N>& v) {
    v.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
        const Category cat = pick_category(rng, cfg);
        v.set(i, gen<T, N>(rng, cat == Category::cancellation ? Category::ladder : cat, cfg));
    }
}

/// Finite GEMM operands (A n x k, B k x m) whose k-terms cancel in pairs:
/// B row kk + 1 repeats row kk and A(i, kk + 1) is the cancellation partner
/// of A(i, kk), for every even kk. Each C element then sums near-equal,
/// opposite-sign products, so its rounding depends on the order of its k
/// updates.
template <std::floating_point T, int N>
void fill_cancelling(std::mt19937_64& rng, std::size_t n, std::size_t k, std::size_t m,
                     const GenConfig& cfg, planar::Vector<T, N>& a,
                     planar::Vector<T, N>& b) {
    fill_vectors(rng, n * k, finite(cfg), a);
    fill_vectors(rng, k * m, finite(cfg), b);
    for (std::size_t kk = 0; kk + 1 < k; kk += 2) {
        for (std::size_t i = 0; i < n; ++i) {
            a.set(i * k + kk + 1, cancellation_partner(a.get(i * k + kk), rng));
        }
        for (std::size_t j = 0; j < m; ++j) b.set((kk + 1) * m + j, b.get(kk * m + j));
    }
}

template <std::floating_point T, int N>
[[nodiscard]] std::uint64_t count_mismatches(const planar::Vector<T, N>& a,
                                             const planar::Vector<T, N>& b,
                                             std::size_t n) {
    std::uint64_t bad = 0;
    for (std::size_t i = 0; i < n; ++i) bad += differs(a.get(i), b.get(i));
    return bad;
}

template <std::floating_point T, int N>
[[nodiscard]] std::uint64_t count_mismatches(const planar::Vector<T, N>& a,
                                             const std::vector<MultiFloat<T, N>>& b,
                                             std::size_t n) {
    std::uint64_t bad = 0;
    for (std::size_t i = 0; i < n; ++i) bad += differs(a.get(i), b[i]);
    return bad;
}

/// The elements of a planar vector as an AoS array.
template <std::floating_point T, int N>
[[nodiscard]] std::vector<MultiFloat<T, N>> to_aos(const planar::Vector<T, N>& v) {
    std::vector<MultiFloat<T, N>> out(v.size());
    for (std::size_t i = 0; i < v.size(); ++i) out[i] = v.get(i);
    return out;
}

#if defined(_OPENMP)
/// Nested-region guard check. Each thread of an enclosing 2-thread OpenMP
/// region calls gemm(id) -- one engine call into its own C, id in {0, 1} --
/// and inside that region engine::planned_workers must plan one worker, so
/// the call runs serially instead of forking a nested team. `rec` gains
/// mismatches(id) over `per_c` elements for every C computed, plus one
/// mismatch per thread that would have planned more than one worker for
/// `rows` row blocks. A runtime that grants no real team relabels the
/// record "nested(no-omp)".
template <typename Gemm, typename Mismatches>
[[nodiscard]] DiffRecord diff_nested(DiffRecord rec, std::size_t rows,
                                     std::uint64_t per_c, Gemm&& gemm,
                                     Mismatches&& mismatches) {
    bool ran[2] = {false, false};
    bool nested = false;
#pragma omp parallel num_threads(2)
    {
        const int id = omp_get_thread_num();
        const bool inside = blas::engine::in_parallel();
        const unsigned planned = blas::engine::planned_workers(
            rows, blas::engine::ThreadMode::automatic, 2);
        gemm(id);
#pragma omp critical
        {
            nested = nested || inside;
            if (inside && planned != 1) ++rec.mismatches;
            ran[id] = true;
        }
    }
    for (int id = 0; id < 2; ++id) {
        if (!ran[id]) continue;
        rec.elements += per_c;
        rec.mismatches += mismatches(id);
    }
    if (!nested) rec.backend = "nested(no-omp)";
    return rec;
}
#endif

}  // namespace detail

/// Diff the elementwise kernels and the dot reductions, planar and AoS, at
/// every pack width against the scalar networks over `rounds` corpora of `n`
/// elements each (sizes are perturbed per round to exercise tails). The AoS
/// kernels run on the same values as the planar ones.
template <std::floating_point T, int N>
[[nodiscard]] std::vector<DiffRecord> diff_backends(std::uint64_t seed, std::size_t n,
                                                    int rounds, const GenConfig& cfg = {}) {
    const char* type = sizeof(T) == 8 ? "double" : "float";
    std::vector<DiffRecord> out;
    simd::for_each_width<T>([&](auto w) {
        constexpr int W = w();
        const std::string label = detail::width_label(W);
        DiffRecord add_rec{"add_range", type, N, label, W, 0, 0};
        DiffRecord fma_rec{"fma_range", type, N, label, W, 0, 0};
        DiffRecord dot_rec{"dot", type, N, label, W, 0, 0};
        DiffRecord axpy_aos_rec{"axpy_aos", type, N, label, W, 0, 0};
        DiffRecord dot_aos_rec{"dot_aos", type, N, label, W, 0, 0};
        std::mt19937_64 rng(seed);  // same corpus for every width
        for (int r = 0; r < rounds; ++r) {
            const std::size_t len = n + static_cast<std::size_t>(rng() % 17);
            planar::Vector<T, N> x, y, z_ref(len), z_got(len), fma_ref(len);
            detail::fill_vectors(rng, len, cfg, x);
            detail::fill_vectors(rng, len, cfg, y);
            const MultiFloat<T, N> alpha = gen<T, N>(rng, Category::ladder, cfg);
            // The reductions get a corpus without specials: one NaN or Inf
            // element makes the whole sum NaN, and NaN matches NaN whatever
            // the merge order.
            planar::Vector<T, N> dx, dy;
            detail::fill_vectors(rng, len, detail::finite(cfg), dx);
            detail::fill_vectors(rng, len, detail::finite(cfg), dy);
            // Reference: the scalar networks, element by element.
            for (std::size_t i = 0; i < len; ++i) {
                z_ref.set(i, add(x.get(i), y.get(i)));
                fma_ref.set(i, add(mul(alpha, x.get(i)), y.get(i)));
            }
            const MultiFloat<T, N> dot_ref =
                detail::blocked_dot(dx, dy, static_cast<std::size_t>(W > 8 ? W : 8));

            planar::Vector<T, N> y2 = y;
            const T* xp[N];
            const T* yp[N];
            const T* dxp[N];
            const T* dyp[N];
            T* gp[N];
            T* y2p[N];
            for (int k = 0; k < N; ++k) {
                xp[k] = x.plane(k);
                yp[k] = y.plane(k);
                dxp[k] = dx.plane(k);
                dyp[k] = dy.plane(k);
                gp[k] = z_got.plane(k);
                y2p[k] = y2.plane(k);
            }
            simd::add_range<T, N, W>(xp, yp, gp, 0, len);
            add_rec.elements += len;
            add_rec.mismatches += detail::count_mismatches(z_ref, z_got, len);

            simd::fma_range<T, N, W>(alpha, xp, y2p, 0, len);
            fma_rec.elements += len;
            fma_rec.mismatches += detail::count_mismatches(fma_ref, y2, len);

            const MultiFloat<T, N> dot_got = simd::dot<T, N, W>(dxp, dyp, len);
            ++dot_rec.elements;
            dot_rec.mismatches += detail::differs(dot_got, dot_ref);

            const std::vector<MultiFloat<T, N>> xa = detail::to_aos(x);
            std::vector<MultiFloat<T, N>> ya = detail::to_aos(y);
            simd::axpy_aos<T, N, W>(alpha, xa.data(), ya.data(), len);
            axpy_aos_rec.elements += len;
            axpy_aos_rec.mismatches += detail::count_mismatches(fma_ref, ya, len);

            const MultiFloat<T, N> dot_aos_got = simd::dot_aos<T, N, W>(
                detail::to_aos(dx).data(), detail::to_aos(dy).data(), len);
            ++dot_aos_rec.elements;
            dot_aos_rec.mismatches += detail::differs(dot_aos_got, dot_ref);
        }
        out.push_back(std::move(add_rec));
        out.push_back(std::move(fma_rec));
        out.push_back(std::move(dot_rec));
        out.push_back(std::move(axpy_aos_rec));
        out.push_back(std::move(dot_aos_rec));
    });
    return out;
}

/// Diff the packed GEMM engine against sequential planar::gemm at every pack
/// width x worker count, on finite operands. `blocks` pins the cache blocks
/// -- pass deliberately tiny ones (e.g. {8, 8, 16}) to force many pack edges
/// and remainder micro-tiles; the default auto-selects per width. A
/// "specials" record reruns the native width on the `cfg` corpus with
/// specials on (NaN/Inf propagation), a "cancel" record per width runs one
/// worker on fill_cancelling operands, and under OpenMP a final "nested"
/// record runs blas::gemm_packed from inside an enclosing region.
template <std::floating_point T, int N>
[[nodiscard]] std::vector<DiffRecord> diff_gemm_packed(
    std::uint64_t seed, std::size_t n, std::size_t k, std::size_t m,
    const std::vector<int>& thread_counts, const GenConfig& cfg = {},
    blas::BlockShape blocks = {}) {
    const char* type = sizeof(T) == 8 ? "double" : "float";
    std::mt19937_64 rng(seed);
    planar::Vector<T, N> a, b;
    detail::fill_vectors(rng, n * k, detail::finite(cfg), a);
    detail::fill_vectors(rng, k * m, detail::finite(cfg), b);
    planar::Vector<T, N> want(n * m);
    planar::gemm(a, b, want, n, k, m);

    // C = A B through the engine at width W under a `threads` cap: the
    // number of elements that differ from planar::gemm's `ref`.
    const auto run = [&]<int W>(const planar::Vector<T, N>& x, const planar::Vector<T, N>& y,
                                const planar::Vector<T, N>& ref, int threads) {
        planar::Vector<T, N> c(n * m);
        blas::GemmConfig pcfg;
        pcfg.blocks = blocks;
        pcfg.max_threads = static_cast<unsigned>(threads);
        blas::engine::detail::gemm<T, N, W>(planar::matrix_view(x, n, k),
                                            planar::matrix_view(y, k, m),
                                            planar::matrix_view(c, n, m), pcfg);
        return detail::count_mismatches(c, ref, n * m);
    };

    std::vector<DiffRecord> out;
    simd::for_each_width<T>([&](auto w) {
        constexpr int W = w();
        for (int t : thread_counts) {
            out.push_back(DiffRecord{
                "gemm_packed", type, N,
                detail::width_label(W) + "/threads=" + std::to_string(t), W, n * m,
                run.template operator()<W>(a, b, want, t)});
        }
    });
    {
        GenConfig scfg = cfg;
        scfg.specials = true;
        planar::Vector<T, N> sa, sb;
        detail::fill_vectors(rng, n * k, scfg, sa);
        detail::fill_vectors(rng, k * m, scfg, sb);
        planar::Vector<T, N> sref(n * m);
        planar::gemm(sa, sb, sref, n, k, m);
        constexpr int W = simd::native_width<T>;
        out.push_back(DiffRecord{"gemm_packed", type, N, detail::width_label(W) + "/specials",
                                 W, n * m, run.template operator()<W>(sa, sb, sref, 1)});
    }
    {
        planar::Vector<T, N> ca, cb;
        detail::fill_cancelling(rng, n, k, m, cfg, ca, cb);
        planar::Vector<T, N> cref(n * m);
        planar::gemm(ca, cb, cref, n, k, m);
        simd::for_each_width<T>([&](auto w) {
            constexpr int W = w();
            out.push_back(DiffRecord{"gemm_packed", type, N, detail::width_label(W) + "/cancel",
                                     W, n * m, run.template operator()<W>(ca, cb, cref, 1)});
        });
    }
#if defined(_OPENMP)
    // Nested, at the native width, under a 2-worker cap it would use alone.
    planar::Vector<T, N> cn[2] = {planar::Vector<T, N>(n * m),
                                  planar::Vector<T, N>(n * m)};
    blas::GemmConfig ncfg;
    ncfg.blocks = blocks;
    ncfg.max_threads = 2;
    out.push_back(detail::diff_nested(
        DiffRecord{"gemm_packed", type, N, "nested", simd::native_width<T>, 0, 0}, n,
        n * m,
        [&](int id) {
            blas::gemm_packed(planar::matrix_view(a, n, k), planar::matrix_view(b, k, m),
                              planar::matrix_view(cn[id], n, m), ncfg);
        },
        [&](int id) { return detail::count_mismatches(cn[id], want, n * m); }));
#endif
    return out;
}

/// Diff the AoS GEMM front end against sequential planar::gemm at every pack
/// width x thread cap, on finite operands. Operands are strided sub-views
/// (row stride cols + 3) whose padding holds NaN sentinels. "/gemm_packed"
/// records run the engine on the AoS views at each width (C += A B on a
/// zeroed C, cap in GemmConfig); at the native width a "/gemm" record per
/// cap also runs blas::gemm (C <- A B over a garbage C, worker cap set
/// through the OpenMP runtime), a "specials" record runs the engine on the
/// `cfg` corpus with specials on, a "cancel" record per width runs it on
/// fill_cancelling operands, and the nested record runs blas::gemm. A
/// record's mismatches count wrong C elements plus clobbered padding
/// elements.
template <std::floating_point T, int N>
[[nodiscard]] std::vector<DiffRecord> diff_gemm_aos(
    std::uint64_t seed, std::size_t n, std::size_t k, std::size_t m,
    const std::vector<int>& thread_counts, const GenConfig& cfg = {}) {
    using V = MultiFloat<T, N>;
    const char* type = sizeof(T) == 8 ? "double" : "float";
    constexpr std::size_t pad = 3;
    std::mt19937_64 rng(seed);
    planar::Vector<T, N> a, b;
    detail::fill_vectors(rng, n * k, detail::finite(cfg), a);
    detail::fill_vectors(rng, k * m, detail::finite(cfg), b);
    planar::Vector<T, N> want(n * m);
    planar::gemm(a, b, want, n, k, m);

    const V sentinel(std::numeric_limits<T>::quiet_NaN());
    const auto strided = [&](const planar::Vector<T, N>& src, std::size_t rows,
                             std::size_t cols) {
        std::vector<V> out(rows * (cols + pad), sentinel);
        for (std::size_t i = 0; i < rows; ++i) {
            for (std::size_t j = 0; j < cols; ++j) {
                out[i * (cols + pad) + j] = src.get(i * cols + j);
            }
        }
        return out;
    };
    const std::vector<V> as = strided(a, n, k);
    const std::vector<V> bs = strided(b, k, m);
    const blas::ConstMatrixView<V> av{as.data(), n, k, k + pad};
    const blas::ConstMatrixView<V> bv{bs.data(), k, m, m + pad};
    const auto mismatches = [&](const std::vector<V>& c, const planar::Vector<T, N>& ref) {
        std::uint64_t bad = 0;
        for (std::size_t i = 0; i < n; ++i) {
            for (std::size_t j = 0; j < m + pad; ++j) {
                bad += detail::differs(c[i * (m + pad) + j],
                                       j < m ? ref.get(i * m + j) : sentinel);
            }
        }
        return bad;
    };

    // A strided C holding `fill`, its padding holding the sentinel.
    const auto fresh_c = [&](const V& fill) {
        std::vector<V> c(n * (m + pad), sentinel);
        for (std::size_t i = 0; i < n; ++i) {
            for (std::size_t j = 0; j < m; ++j) c[i * (m + pad) + j] = fill;
        }
        return c;
    };

    // C += A B through the engine at width W on a zeroed strided C, capped
    // at `threads` through GemmConfig.
    const auto packed = [&]<int W>(blas::ConstMatrixView<V> x, blas::ConstMatrixView<V> y,
                                   int threads) {
        std::vector<V> c = fresh_c(V{});
        blas::GemmConfig pcfg;
        pcfg.max_threads = static_cast<unsigned>(threads);
        blas::engine::detail::gemm<T, N, W>(x, y, blas::MatrixView<V>{c.data(), n, m, m + pad},
                                            pcfg);
        return c;
    };

    std::vector<DiffRecord> out;
#if defined(_OPENMP)
    const int saved_threads = omp_get_max_threads();
#endif
    simd::for_each_width<T>([&](auto w) {
        constexpr int W = w();
        for (int t : thread_counts) {
            const std::string label =
                detail::width_label(W) + "/threads=" + std::to_string(t);
            if constexpr (W == simd::native_width<T>) {
                // C <- A B over garbage.
                std::vector<V> c = fresh_c(V(T(7)));
#if defined(_OPENMP)
                omp_set_num_threads(t);
#endif
                blas::gemm<V>(av, bv, blas::MatrixView<V>{c.data(), n, m, m + pad});
#if defined(_OPENMP)
                omp_set_num_threads(saved_threads);
#endif
                out.push_back(DiffRecord{"gemm_aos", type, N, label + "/gemm", W, n * m,
                                         mismatches(c, want)});
            }

            out.push_back(DiffRecord{"gemm_aos", type, N, label + "/gemm_packed", W, n * m,
                                     mismatches(packed.template operator()<W>(av, bv, t), want)});
        }
    });
    {
        GenConfig scfg = cfg;
        scfg.specials = true;
        planar::Vector<T, N> sa, sb;
        detail::fill_vectors(rng, n * k, scfg, sa);
        detail::fill_vectors(rng, k * m, scfg, sb);
        planar::Vector<T, N> sref(n * m);
        planar::gemm(sa, sb, sref, n, k, m);
        const std::vector<V> sas = strided(sa, n, k);
        const std::vector<V> sbs = strided(sb, k, m);
        constexpr int W = simd::native_width<T>;
        const std::vector<V> c = packed.template operator()<W>(
            {sas.data(), n, k, k + pad}, {sbs.data(), k, m, m + pad}, 1);
        out.push_back(DiffRecord{"gemm_aos", type, N, detail::width_label(W) + "/specials", W,
                                 n * m, mismatches(c, sref)});
    }
    {
        planar::Vector<T, N> ca, cb;
        detail::fill_cancelling(rng, n, k, m, cfg, ca, cb);
        planar::Vector<T, N> cref(n * m);
        planar::gemm(ca, cb, cref, n, k, m);
        const std::vector<V> cas = strided(ca, n, k);
        const std::vector<V> cbs = strided(cb, k, m);
        simd::for_each_width<T>([&](auto w) {
            constexpr int W = w();
            const std::vector<V> c = packed.template operator()<W>(
                {cas.data(), n, k, k + pad}, {cbs.data(), k, m, m + pad}, 1);
            out.push_back(DiffRecord{"gemm_aos", type, N, detail::width_label(W) + "/cancel", W,
                                     n * m, mismatches(c, cref)});
        });
    }
#if defined(_OPENMP)
    // Nested, at the native width: blas::gemm from a user's own region.
    std::vector<V> cn[2] = {fresh_c(V(T(7))), fresh_c(V(T(7)))};
    out.push_back(detail::diff_nested(
        DiffRecord{"gemm_aos", type, N, "nested", simd::native_width<T>, 0, 0}, n,
        n * m,
        [&](int id) {
            blas::gemm<V>(av, bv, blas::MatrixView<V>{cn[id].data(), n, m, m + pad});
        },
        [&](int id) { return mismatches(cn[id], want); }));
#endif
    return out;
}

}  // namespace mf::check
