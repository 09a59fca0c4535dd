#pragma once
// Cross-backend differential checker: the scalar FPAN kernels are the
// reference semantics; every compiled SIMD backend, every pack width, and
// every parallel schedule must reproduce them bit-for-bit (DESIGN.md §8's
// bit-exactness rationale, checked here over the same structure-aware corpus
// the conformance runner fuzzes with).
//
// Four surfaces are diffed:
//   * elementwise planar kernels (add_range / fma_range) dispatched per
//     runtime backend vs. the width-1 scalar kernel;
//   * the dot reduction, which additionally pins the historical
//     eight-accumulator merge order for widths <= 8;
//   * gemm_packed (the blas/engine packed cache-blocked GEMM) vs. sequential
//     planar::gemm across every available backend and thread count,
//     including deliberately tiny cache blocks so pack edges are exercised;
//   * the AoS front end of the same engine (blas::gemm and the AoS
//     gemm_packed overload) on strided sub-views vs. planar::gemm, across
//     the same backend x thread-cap sweep.
// Both GEMM surfaces are also run from inside an enclosing OpenMP parallel
// region (a "nested" record), where the engine must plan a single worker
// instead of forking a nested team.
//
// Comparison is raw bit identity per limb, except that any-NaN == any-NaN:
// lanes that produce NaN must agree on NaN-ness, not on payload bits.

#include <bit>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
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

/// One diffed (kernel, backend/schedule) combination.
struct DiffRecord {
    std::string kernel;   ///< "add_range" | "fma_range" | "dot" | "gemm_packed" |
                          ///< "gemm_aos"
    std::string type;     ///< "double" | "float"
    int limbs = 0;
    std::string backend;  ///< backend name; for gemm "<backend>/threads=K"
                          ///< (gemm_aos: + "/gemm" or "/gemm_packed") or
                          ///< "nested"
    int width = 0;        ///< pack lanes of the backend under test
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

/// RAII backend save/restore.
class BackendGuard {
public:
    BackendGuard() : saved_(simd::active_backend()) {}
    ~BackendGuard() { simd::set_backend(saved_); }
    BackendGuard(const BackendGuard&) = delete;
    BackendGuard& operator=(const BackendGuard&) = delete;

private:
    simd::Backend saved_;
};

template <std::floating_point T, int N>
void fill_vectors(std::mt19937_64& rng, std::size_t n, const GenConfig& cfg,
                  planar::Vector<T, N>& v) {
    v.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
        const Category cat = pick_category(rng, cfg);
        v.set(i, gen<T, N>(rng, cat == Category::cancellation ? Category::ladder : cat, cfg));
    }
}

template <std::floating_point T, int N>
[[nodiscard]] std::uint64_t count_mismatches(const planar::Vector<T, N>& a,
                                             const planar::Vector<T, N>& b,
                                             std::size_t n) {
    std::uint64_t bad = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const MultiFloat<T, N> va = a.get(i);
        const MultiFloat<T, N> vb = b.get(i);
        for (int k = 0; k < N; ++k) {
            if (!same_bits(va.limb[k], vb.limb[k])) {
                ++bad;
                break;
            }
        }
    }
    return bad;
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

/// Diff every available backend's elementwise kernels and dot reduction
/// against the scalar width-1 reference over `rounds` corpora of `n`
/// elements each (sizes are perturbed per round to exercise tails).
/// A non-empty `only` restricts the sweep to that one backend by name.
template <std::floating_point T, int N>
[[nodiscard]] std::vector<DiffRecord> diff_backends(std::uint64_t seed, std::size_t n,
                                                    int rounds, const GenConfig& cfg = {},
                                                    std::string_view only = {}) {
    const char* type = sizeof(T) == 8 ? "double" : "float";
    std::vector<DiffRecord> out;
    detail::BackendGuard guard;
    for (simd::Backend b : {simd::Backend::scalar, simd::Backend::sse2,
                            simd::Backend::avx2, simd::Backend::avx512,
                            simd::Backend::neon}) {
        if (!simd::backend_available(b)) continue;
        if (!only.empty() && only != simd::backend_name(b)) continue;
        DiffRecord add_rec{"add_range", type, N, simd::backend_name(b),
                           simd::backend_width<T>(b), 0, 0};
        DiffRecord fma_rec{"fma_range", type, N, simd::backend_name(b),
                           simd::backend_width<T>(b), 0, 0};
        DiffRecord dot_rec{"dot", type, N, simd::backend_name(b),
                           simd::backend_width<T>(b), 0, 0};
        std::mt19937_64 rng(seed);  // same corpus for every backend
        for (int r = 0; r < rounds; ++r) {
            const std::size_t len = n + static_cast<std::size_t>(rng() % 17);
            planar::Vector<T, N> x, y, y2, z_ref, z_got;
            detail::fill_vectors(rng, len, cfg, x);
            detail::fill_vectors(rng, len, cfg, y);
            const MultiFloat<T, N> alpha =
                gen<T, N>(rng, Category::ladder, cfg);
            z_ref.resize(len);
            z_got.resize(len);
            const T* xp[N];
            const T* yp[N];
            T* rp[N];
            T* gp[N];
            for (int k = 0; k < N; ++k) {
                xp[k] = x.plane(k);
                yp[k] = y.plane(k);
                rp[k] = z_ref.plane(k);
                gp[k] = z_got.plane(k);
            }
            // Reference: explicit width-1 scalar kernels.
            simd::kernels::add_range<T, N, 1>(xp, yp, rp, 0, len);
            const MultiFloat<T, N> dot_ref = simd::kernels::dot<T, N, 1>(xp, yp, len);
            planar::Vector<T, N> fma_ref = y;
            T* frp[N];
            for (int k = 0; k < N; ++k) frp[k] = fma_ref.plane(k);
            simd::kernels::fma_range<T, N, 1>(alpha, xp, frp, 0, len);

            // Under test: the dispatched path on backend b.
            simd::set_backend(b);
            simd::add_range<T, N>(xp, yp, gp, 0, len);
            add_rec.elements += len;
            add_rec.mismatches += detail::count_mismatches(z_ref, z_got, len);

            y2 = y;
            T* y2p[N];
            for (int k = 0; k < N; ++k) y2p[k] = y2.plane(k);
            simd::fma_range<T, N>(alpha, xp, y2p, 0, len);
            fma_rec.elements += len;
            fma_rec.mismatches += detail::count_mismatches(fma_ref, y2, len);

            const MultiFloat<T, N> dot_got = simd::dot<T, N>(xp, yp, len);
            ++dot_rec.elements;
            // The eight-accumulator merge order is pinned for widths <= 8;
            // wider backends legitimately reassociate the reduction.
            if (simd::backend_width<T>(b) <= 8) {
                for (int k = 0; k < N; ++k) {
                    if (!detail::same_bits(dot_got.limb[k], dot_ref.limb[k])) {
                        ++dot_rec.mismatches;
                        break;
                    }
                }
            }
        }
        out.push_back(std::move(add_rec));
        out.push_back(std::move(fma_rec));
        out.push_back(std::move(dot_rec));
    }
    return out;
}

/// Diff gemm_packed against sequential planar::gemm across every available
/// backend x worker count. `blocks` pins the cache blocks -- pass deliberately
/// tiny ones (e.g. {8, 8, 16}) to force many pack edges and remainder
/// micro-tiles; the default auto-selects per backend. Under OpenMP a final
/// "nested" record runs the same call from inside an enclosing region.
template <std::floating_point T, int N>
[[nodiscard]] std::vector<DiffRecord> diff_gemm_packed(
    std::uint64_t seed, std::size_t n, std::size_t k, std::size_t m,
    const std::vector<int>& thread_counts, const GenConfig& cfg = {},
    blas::BlockShape blocks = {}) {
    const char* type = sizeof(T) == 8 ? "double" : "float";
    std::mt19937_64 rng(seed);
    planar::Vector<T, N> a, b;
    detail::fill_vectors(rng, n * k, cfg, a);
    detail::fill_vectors(rng, k * m, cfg, b);
    planar::Vector<T, N> want(n * m);
    planar::gemm(a, b, want, n, k, m);

    std::vector<DiffRecord> out;
    detail::BackendGuard guard;
    for (simd::Backend bk : {simd::Backend::scalar, simd::Backend::sse2,
                             simd::Backend::avx2, simd::Backend::avx512,
                             simd::Backend::neon}) {
        if (!simd::backend_available(bk)) continue;
        simd::set_backend(bk);
        for (int t : thread_counts) {
            planar::Vector<T, N> c(n * m);
            blas::GemmConfig pcfg;
            pcfg.blocks = blocks;
            pcfg.max_threads = static_cast<unsigned>(t);
            blas::gemm_packed(planar::matrix_view(a, n, k), planar::matrix_view(b, k, m),
                              planar::matrix_view(c, n, m), pcfg);
            out.push_back(DiffRecord{
                "gemm_packed", type, N,
                std::string(simd::backend_name(bk)) + "/threads=" + std::to_string(t),
                simd::backend_width<T>(bk), n * m, detail::count_mismatches(c, want, n * m)});
        }
    }
#if defined(_OPENMP)
    // Nested, on the widest backend, under a 2-worker cap it would use alone.
    planar::Vector<T, N> cn[2] = {planar::Vector<T, N>(n * m),
                                  planar::Vector<T, N>(n * m)};
    blas::GemmConfig ncfg;
    ncfg.blocks = blocks;
    ncfg.max_threads = 2;
    out.push_back(detail::diff_nested(
        DiffRecord{"gemm_packed", type, N, "nested", simd::active_width<T>(), 0, 0}, n,
        n * m,
        [&](int id) {
            blas::gemm_packed(planar::matrix_view(a, n, k), planar::matrix_view(b, k, m),
                              planar::matrix_view(cn[id], n, m), ncfg);
        },
        [&](int id) { return detail::count_mismatches(cn[id], want, n * m); }));
#endif
    return out;
}

/// Diff the AoS GEMM front end against sequential planar::gemm across every
/// available backend x thread cap. Operands are strided sub-views (row
/// stride cols + 3) whose padding holds NaN sentinels. Each cap gets two
/// records: "/gemm" runs blas::gemm (C <- A B over a garbage C, worker cap
/// set through the OpenMP runtime), "/gemm_packed" the AoS gemm_packed
/// overload (C += A B on a zeroed C, cap in GemmConfig); the nested record
/// runs blas::gemm. A record's mismatches count wrong C elements plus
/// clobbered padding elements.
template <std::floating_point T, int N>
[[nodiscard]] std::vector<DiffRecord> diff_gemm_aos(
    std::uint64_t seed, std::size_t n, std::size_t k, std::size_t m,
    const std::vector<int>& thread_counts, const GenConfig& cfg = {}) {
    using V = MultiFloat<T, N>;
    const char* type = sizeof(T) == 8 ? "double" : "float";
    constexpr std::size_t pad = 3;
    std::mt19937_64 rng(seed);
    planar::Vector<T, N> a, b;
    detail::fill_vectors(rng, n * k, cfg, a);
    detail::fill_vectors(rng, k * m, cfg, b);
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
    const auto mismatches = [&](const std::vector<V>& c) {
        std::uint64_t bad = 0;
        for (std::size_t i = 0; i < n; ++i) {
            for (std::size_t j = 0; j < m + pad; ++j) {
                const V got = c[i * (m + pad) + j];
                const V ref = j < m ? want.get(i * m + j) : sentinel;
                for (int p = 0; p < N; ++p) {
                    if (!detail::same_bits(got.limb[p], ref.limb[p])) {
                        ++bad;
                        break;
                    }
                }
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

    std::vector<DiffRecord> out;
    detail::BackendGuard guard;
#if defined(_OPENMP)
    const int saved_threads = omp_get_max_threads();
#endif
    for (simd::Backend bk : {simd::Backend::scalar, simd::Backend::sse2,
                             simd::Backend::avx2, simd::Backend::avx512,
                             simd::Backend::neon}) {
        if (!simd::backend_available(bk)) continue;
        simd::set_backend(bk);
        for (int t : thread_counts) {
            const std::string label = std::string(simd::backend_name(bk)) +
                                      "/threads=" + std::to_string(t);
            // C <- A B over garbage.
            std::vector<V> c = fresh_c(V(T(7)));
#if defined(_OPENMP)
            omp_set_num_threads(t);
#endif
            blas::gemm<V>(av, bv, blas::MatrixView<V>{c.data(), n, m, m + pad});
#if defined(_OPENMP)
            omp_set_num_threads(saved_threads);
#endif
            out.push_back(DiffRecord{"gemm_aos", type, N, label + "/gemm",
                                     simd::backend_width<T>(bk), n * m, mismatches(c)});

            // C += A B on a zeroed C, capped through GemmConfig.
            std::vector<V> cp = fresh_c(V{});
            blas::GemmConfig pcfg;
            pcfg.max_threads = static_cast<unsigned>(t);
            blas::gemm_packed<T, N>(av, bv, blas::MatrixView<V>{cp.data(), n, m, m + pad},
                                    pcfg);
            out.push_back(DiffRecord{"gemm_aos", type, N, label + "/gemm_packed",
                                     simd::backend_width<T>(bk), n * m, mismatches(cp)});
        }
    }
#if defined(_OPENMP)
    // Nested, on the widest backend: blas::gemm from a user's own region.
    std::vector<V> cn[2] = {fresh_c(V(T(7))), fresh_c(V(T(7)))};
    out.push_back(detail::diff_nested(
        DiffRecord{"gemm_aos", type, N, "nested", simd::active_width<T>(), 0, 0}, n,
        n * m,
        [&](int id) {
            blas::gemm<V>(av, bv, blas::MatrixView<V>{cn[id].data(), n, m, m + pad});
        },
        [&](int id) { return mismatches(cn[id]); }));
#endif
    return out;
}

}  // namespace mf::check
