#pragma once
// Extended-precision BLAS kernels (paper §5): AXPY, DOT, GEMV, GEMM,
// templated over the number type so that every library under evaluation
// (MultiFloat, QD, CAMPARY, BigFloat/PrecFloat, GMP, __float128, plain
// double/float) runs the IDENTICAL kernel code.
//
// The public signatures take the typed views of views.hpp -- a vector view
// carries (data, size), a matrix view carries (data, rows, cols, stride) --
// so shapes travel with the data and sub-matrix blocks (stride > cols) work
// without copying.
//
// MultiFloat views additionally take an explicit-SIMD fast path: the loop
// bodies run on mf::simd packs (at the build's native pack width, scalar
// tail loops for remainders) instead of relying on the
// auto-vectorizer. The `if constexpr` split keeps a single kernel entry
// point per operation, so all existing call sites -- including ones that
// pass the element type explicitly, e.g. dot<Float64x2>(...) -- get the
// pack path for free.
//
// Only GEMM forks. MultiFloat GEMM (N >= 2) is a front end over the packed
// engine (engine/gemm_packed.hpp, DESIGN.md §11), which packs straight from
// the AoS views and plans its own threads: serial below a measured work
// floor, one row block per worker above it. The generic GEMM loop (N = 1
// and the baseline libraries) hands rows to engine::parallel_blocks_slots
// above 16 rows. AXPY, DOT, SCAL, GEMV and GER run their loop, or call the
// pack kernel, on the calling thread: at BLAS-call sizes a fork costs more
// than it saves, and DOT then returns the same bits at every worker count.
// GEMV finds its parallelism on that thread instead: simd::gemv_aos reduces
// W independent rows at once, one per pack lane, so the merge and tail steps
// that a one-row dot runs as a scalar dependent chain run as pack ops.
//
// Robustness (DESIGN.md §12): every view entry point carries an
// MF_GUARD_SENTINEL (FP-environment probe, MF_GUARD_POLICY-driven) and
// MF_BLAS_REQUIRE shape/stride validation (compiled in under the
// MF_BOUNDS_CHECK CMake option only).

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdlib>

#include "../guard/policy.hpp"
#include "../mf/multifloat.hpp"
#include "../simd/kernels.hpp"
#include "engine/gemm_packed.hpp"
#include "views.hpp"

namespace mf::blas {

namespace detail {

/// Is V a MultiFloat over a *scalar* base type (the pack-kernel fast path)?
template <typename V>
inline constexpr bool is_multifloat_v = false;
template <typename T, int N>
inline constexpr bool is_multifloat_v<MultiFloat<T, N>> = std::floating_point<T>;

/// ... with at least two limbs (the packed GEMM engine's domain)?
template <typename V>
inline constexpr bool is_multilimb_v = false;
template <typename T, int N>
inline constexpr bool is_multilimb_v<MultiFloat<T, N>> = std::floating_point<T> && N >= 2;

}  // namespace detail

/// y <- alpha * x + y
template <typename V>
void axpy(const V& alpha, ConstVectorView<V> x, VectorView<V> y) {
    MF_GUARD_SENTINEL("blas.axpy");
    MF_BLAS_REQUIRE(x.size == y.size, "blas.axpy", "x.size == y.size");
    if constexpr (detail::is_multifloat_v<V>) {
        simd::axpy_aos<typename V::value_type, V::num_limbs>(alpha, x.data, y.data, x.size);
    } else {
        for (std::size_t i = 0; i < x.size; ++i) y[i] += alpha * x[i];
    }
}

/// <x, y>
///
/// Eight (or pack-width) independent partial accumulators break the
/// loop-carried dependence so the (branch-free) per-element work pipelines
/// and vectorizes -- the SIMD-reduction structure the paper credits for
/// MultiFloats' DOT advantage over libraries whose operations cannot be
/// interleaved.
template <typename V>
[[nodiscard]] V dot(ConstVectorView<V> x, ConstVectorView<V> y) {
    MF_GUARD_SENTINEL("blas.dot");
    MF_BLAS_REQUIRE(x.size == y.size, "blas.dot", "x.size == y.size");
    if constexpr (detail::is_multifloat_v<V>) {
        return simd::dot_aos<typename V::value_type, V::num_limbs>(x.data, y.data, x.size);
    } else {
        // Accumulator k takes element k of every whole K-block; the tail
        // after the last whole block is added last.
        constexpr std::size_t K = 8;
        const std::size_t n = x.size;
        V part[K]{};
        for (std::size_t blk = 0; blk < n / K; ++blk) {
            for (std::size_t k = 0; k < K; ++k) {
                part[k] += x[blk * K + k] * y[blk * K + k];
            }
        }
        V acc{};
        for (std::size_t k = 0; k < K; ++k) acc += part[k];
        for (std::size_t i = n - n % K; i < n; ++i) {
            acc += x[i] * y[i];
        }
        return acc;
    }
}

/// y <- A x  (A row-major rows x cols). MultiFloat views run
/// simd::gemv_aos, which reduces W rows at once (W lanes, one row each) and
/// returns for every row the bits of one dot_aos over it; other types take
/// the ij loop with a 4-way unrolled inner dot.
template <typename V>
void gemv(ConstMatrixView<V> a, ConstVectorView<V> x, VectorView<V> y) {
    MF_GUARD_SENTINEL("blas.gemv");
    MF_BLAS_REQUIRE(a.cols == x.size, "blas.gemv", "a.cols == x.size");
    MF_BLAS_REQUIRE(a.rows == y.size, "blas.gemv", "a.rows == y.size");
    MF_BLAS_REQUIRE(a.stride >= a.cols, "blas.gemv", "a.stride >= a.cols");
    const std::size_t m = a.cols;
    if constexpr (detail::is_multifloat_v<V>) {
        simd::gemv_aos<typename V::value_type, V::num_limbs>(a.data, a.stride, a.rows, m, x.data,
                                                            y.data);
    } else {
        for (std::size_t i = 0; i < a.rows; ++i) {
            constexpr std::size_t K = 4;
            const V* arow = a.row(i);
            V part[K]{};
            for (std::size_t blk = 0; blk < m / K; ++blk) {
                for (std::size_t k = 0; k < K; ++k) {
                    part[k] += arow[blk * K + k] * x[blk * K + k];
                }
            }
            V acc{};
            for (std::size_t k = 0; k < K; ++k) acc += part[k];
            for (std::size_t j = m - m % K; j < m; ++j) {
                acc += arow[j] * x[j];
            }
            y[i] = acc;
        }
    }
}

/// x <- alpha * x
template <typename V>
void scal(const V& alpha, VectorView<V> x) {
    MF_GUARD_SENTINEL("blas.scal");
    for (std::size_t i = 0; i < x.size; ++i) x[i] *= alpha;
}

/// sum_i |x_i|  (abs is found by ADL for expansions, std::abs for scalars)
template <typename V>
[[nodiscard]] V asum(ConstVectorView<V> x) {
    MF_GUARD_SENTINEL("blas.asum");
    using std::abs;
    V acc{};
    for (std::size_t i = 0; i < x.size; ++i) acc += abs(x[i]);
    return acc;
}

/// sqrt(<x, x>)  (sqrt found by ADL for expansions)
template <typename V>
[[nodiscard]] V nrm2(ConstVectorView<V> x) {
    using std::sqrt;
    return sqrt(dot<V>(x, x));
}

/// Index of the element with the largest magnitude (0 for empty input).
template <typename V>
[[nodiscard]] std::size_t iamax(ConstVectorView<V> x) {
    MF_GUARD_SENTINEL("blas.iamax");
    using std::abs;
    std::size_t best = 0;
    for (std::size_t i = 1; i < x.size; ++i) {
        if (abs(x[best]) < abs(x[i])) best = i;
    }
    return best;
}

/// A <- A + alpha * x y^T  (rank-1 update; A row-major x.size x y.size)
template <typename V>
void ger(const V& alpha, ConstVectorView<V> x, ConstVectorView<V> y,
         MatrixView<V> a) {
    MF_GUARD_SENTINEL("blas.ger");
    MF_BLAS_REQUIRE(a.rows == x.size, "blas.ger", "a.rows == x.size");
    MF_BLAS_REQUIRE(a.cols == y.size, "blas.ger", "a.cols == y.size");
    MF_BLAS_REQUIRE(a.stride >= a.cols, "blas.ger", "a.stride >= a.cols");
    const std::size_t m = y.size;
    for (std::size_t i = 0; i < x.size; ++i) {
        const V ax = alpha * x[i];
        if constexpr (detail::is_multifloat_v<V>) {
            simd::axpy_aos<typename V::value_type, V::num_limbs>(ax, y.data, a.row(i), m);
        } else {
            V* arow = a.row(i);
            for (std::size_t j = 0; j < m; ++j) {
                arow[j] += ax * y[j];
            }
        }
    }
}

/// C <- A B  (row-major; C is n x m, A is n x k, B is k x m). MultiFloat
/// views with N >= 2 zero C and run the packed engine's C += A B on the AoS
/// views, bit-identical to planar::gemm; other types (N = 1 included) take
/// the ikj loop below, threaded by rows above 16 rows.
template <typename V>
void gemm(ConstMatrixView<V> a, ConstMatrixView<V> b, MatrixView<V> c) {
    MF_GUARD_SENTINEL("blas.gemm");
    MF_BLAS_REQUIRE(a.rows == c.rows, "blas.gemm", "a.rows == c.rows");
    MF_BLAS_REQUIRE(a.cols == b.rows, "blas.gemm", "a.cols == b.rows");
    MF_BLAS_REQUIRE(b.cols == c.cols, "blas.gemm", "b.cols == c.cols");
    MF_BLAS_REQUIRE(a.stride >= a.cols, "blas.gemm", "a.stride >= a.cols");
    MF_BLAS_REQUIRE(b.stride >= b.cols, "blas.gemm", "b.stride >= b.cols");
    MF_BLAS_REQUIRE(c.stride >= c.cols, "blas.gemm", "c.stride >= c.cols");
    const std::size_t n = c.rows;
    const std::size_t m = c.cols;
    const std::size_t k = a.cols;
    if constexpr (detail::is_multilimb_v<V>) {
        for (std::size_t i = 0; i < n; ++i) std::fill_n(c.row(i), m, V{});
        using T = typename V::value_type;
        engine::detail::gemm<T, V::num_limbs, simd::native_width<T>>(a, b, c, {});
    } else {
        const auto row = [&](std::size_t i, unsigned) {
            V* crow = c.row(i);
            const V* arow = a.row(i);
            for (std::size_t j = 0; j < m; ++j) crow[j] = V{};
            for (std::size_t kk = 0; kk < k; ++kk) {
                const V aik = arow[kk];
                const V* brow = b.row(kk);
                for (std::size_t j = 0; j < m; ++j) {
                    crow[j] += aik * brow[j];
                }
            }
        };
        // One row per block: every C row is computed whole by one worker,
        // so the result does not depend on the worker count. 16 rows or
        // fewer stay on the calling thread.
        engine::parallel_blocks_slots(
            n, row, n <= 16 ? engine::ThreadMode::serial : engine::ThreadMode::automatic);
    }
}

}  // namespace mf::blas
