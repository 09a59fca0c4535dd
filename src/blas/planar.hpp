#pragma once
// Planar (structure-of-arrays) extended-precision kernels.
//
// The FPAN kernels are branch-free straight-line code, so applying one gate
// sequence to MANY elements at once is a perfectly vectorizable loop -- this
// is the data-parallel property the paper's evaluation exploits (§5: the
// competing libraries "do not provide SIMD reduction operators and their
// code is too complex to automatically vectorize").
//
// An array-of-structs MultiFloat<double, N> vector interleaves limbs in
// memory, which blocks the loop vectorizer. PlanarVector stores limb k of
// every element contiguously ("planes"), so the elementwise loops below have
// unit-stride accesses and no cross-iteration dependences: the compiler
// vectorizes the entire network across elements.
//
// The arithmetic performed is IDENTICAL to mf::add / mf::mul (same gate
// sequences); tests/planar_test.cpp checks bit-for-bit agreement with the
// scalar kernels.
//
// The elementwise ranges and the dot reduction are executed by the explicit
// pack kernels of mf::simd (at the build's native pack width, scalar tail
// loop for the remainder) instead of relying on the auto-vectorizer; see
// src/simd/ and DESIGN.md "SIMD backend".

#include <cstddef>
#include <vector>

#include "../mf/multifloats.hpp"
#include "../simd/kernels.hpp"

namespace mf::planar {

/// SoA vector of N-term expansions: plane k holds limb k of every element.
template <FloatingPoint T, int N>
class Vector {
public:
    Vector() = default;
    explicit Vector(std::size_t n) { resize(n); }

    void resize(std::size_t n) {
        for (int k = 0; k < N; ++k) plane_[k].assign(n, T(0));
        size_ = n;
    }

    [[nodiscard]] std::size_t size() const noexcept { return size_; }

    [[nodiscard]] T* plane(int k) noexcept { return plane_[k].data(); }
    [[nodiscard]] const T* plane(int k) const noexcept { return plane_[k].data(); }

    [[nodiscard]] MultiFloat<T, N> get(std::size_t i) const {
        MultiFloat<T, N> x;
        for (int k = 0; k < N; ++k) x.limb[k] = plane_[k][i];
        return x;
    }

    void set(std::size_t i, const MultiFloat<T, N>& x) {
        for (int k = 0; k < N; ++k) plane_[k][i] = x.limb[k];
    }

private:
    std::vector<T> plane_[N];
    std::size_t size_ = 0;
};

/// Read-only row-major matrix view over planar storage: one base pointer per
/// limb plane plus (rows, cols, stride), where `stride` is the element
/// distance between consecutive row starts within each plane (>= cols;
/// defaults to cols). This is the matrix argument type of the planar GEMMs
/// (planar::gemm, blas::gemm_packed): shapes travel with the data, and a
/// sub-block of a larger planar matrix is just a view with offset plane
/// pointers and the parent's stride.
template <FloatingPoint T, int N>
struct ConstMatrixView {
    const T* planes[N] = {};
    std::size_t rows = 0;
    std::size_t cols = 0;
    std::size_t stride = 0;

    constexpr ConstMatrixView() = default;
    ConstMatrixView(const Vector<T, N>& v, std::size_t r, std::size_t c,
                    std::size_t ld = 0) noexcept
        : rows(r), cols(c), stride(ld ? ld : c) {
        for (int k = 0; k < N; ++k) planes[k] = v.plane(k);
    }
    constexpr ConstMatrixView(const T* const (&p)[N], std::size_t r, std::size_t c,
                              std::size_t ld = 0) noexcept
        : rows(r), cols(c), stride(ld ? ld : c) {
        for (int k = 0; k < N; ++k) planes[k] = p[k];
    }

    /// Base pointer of row i in plane k.
    [[nodiscard]] constexpr const T* row(int k, std::size_t i) const noexcept {
        return planes[k] + i * stride;
    }
    [[nodiscard]] MultiFloat<T, N> get(std::size_t i, std::size_t j) const noexcept {
        MultiFloat<T, N> x;
        for (int k = 0; k < N; ++k) x.limb[k] = planes[k][i * stride + j];
        return x;
    }
};

/// Mutable flavor of ConstMatrixView; converts implicitly to it.
template <FloatingPoint T, int N>
struct MatrixView {
    T* planes[N] = {};
    std::size_t rows = 0;
    std::size_t cols = 0;
    std::size_t stride = 0;

    constexpr MatrixView() = default;
    MatrixView(Vector<T, N>& v, std::size_t r, std::size_t c,
               std::size_t ld = 0) noexcept
        : rows(r), cols(c), stride(ld ? ld : c) {
        for (int k = 0; k < N; ++k) planes[k] = v.plane(k);
    }
    constexpr MatrixView(T* const (&p)[N], std::size_t r, std::size_t c,
                         std::size_t ld = 0) noexcept
        : rows(r), cols(c), stride(ld ? ld : c) {
        for (int k = 0; k < N; ++k) planes[k] = p[k];
    }

    constexpr operator ConstMatrixView<T, N>() const noexcept {
        ConstMatrixView<T, N> cv;
        for (int k = 0; k < N; ++k) cv.planes[k] = planes[k];
        cv.rows = rows;
        cv.cols = cols;
        cv.stride = stride;
        return cv;
    }

    [[nodiscard]] constexpr T* row(int k, std::size_t i) const noexcept {
        return planes[k] + i * stride;
    }
    [[nodiscard]] MultiFloat<T, N> get(std::size_t i, std::size_t j) const noexcept {
        MultiFloat<T, N> x;
        for (int k = 0; k < N; ++k) x.limb[k] = planes[k][i * stride + j];
        return x;
    }
    void set(std::size_t i, std::size_t j, const MultiFloat<T, N>& x) const noexcept {
        for (int k = 0; k < N; ++k) planes[k][i * stride + j] = x.limb[k];
    }
};

/// View a planar Vector as a rows x cols row-major matrix.
template <FloatingPoint T, int N>
[[nodiscard]] ConstMatrixView<T, N> matrix_view(const Vector<T, N>& v,
                                                std::size_t rows, std::size_t cols,
                                                std::size_t stride = 0) noexcept {
    return ConstMatrixView<T, N>(v, rows, cols, stride);
}
template <FloatingPoint T, int N>
[[nodiscard]] MatrixView<T, N> matrix_view(Vector<T, N>& v, std::size_t rows,
                                           std::size_t cols,
                                           std::size_t stride = 0) noexcept {
    return MatrixView<T, N>(v, rows, cols, stride);
}

/// y <- alpha * x + y.
template <FloatingPoint T, int N>
void axpy(const MultiFloat<T, N>& alpha, const Vector<T, N>& x, Vector<T, N>& y) {
    const T* xp[N];
    T* yp[N];
    for (int k = 0; k < N; ++k) {
        xp[k] = x.plane(k);
        yp[k] = y.plane(k);
    }
    simd::fma_range<T, N>(alpha, xp, yp, 0, x.size());
}

/// <x, y> with (at least) eight independent accumulators kept in pack lanes
/// -- the SIMD-reduction operator the paper says competing libraries lack.
/// For pack widths <= 8 the accumulation order matches the historical
/// eight-accumulator loop exactly, so the result is the same on every
/// target except float on AVX-512 (W = 16, sixteen accumulators).
template <FloatingPoint T, int N>
[[nodiscard]] MultiFloat<T, N> dot(const Vector<T, N>& x, const Vector<T, N>& y) {
    const T* xp[N];
    const T* yp[N];
    for (int k = 0; k < N; ++k) {
        xp[k] = x.plane(k);
        yp[k] = y.plane(k);
    }
    return simd::dot<T, N>(xp, yp, x.size());
}

/// y <- A x (A row-major n x m, planar): each output element is a planar
/// dot product over the contiguous row slice.
template <FloatingPoint T, int N>
void gemv(const Vector<T, N>& a, std::size_t n, std::size_t m,
          const Vector<T, N>& x, Vector<T, N>& y) {
    const T* ap[N];
    const T* xp[N];
    for (int p = 0; p < N; ++p) {
        ap[p] = a.plane(p);
        xp[p] = x.plane(p);
    }
    for (std::size_t i = 0; i < n; ++i) {
        const T* arow[N];
        for (int p = 0; p < N; ++p) arow[p] = ap[p] + i * m;
        y.set(i, simd::dot<T, N>(arow, xp, m));
    }
}

/// C += A B, all planar views (A n x k, B k x m, C n x m), ikj order: the
/// inner j-loop is an elementwise fused multiply-add sweep over contiguous
/// plane rows (vectorizes). This is the sequential reference every GEMM
/// engine is bit-identical to, and the packed engine's fallback when its
/// panel scratch cannot be allocated.
template <FloatingPoint T, int N>
void gemm(ConstMatrixView<T, N> a, ConstMatrixView<T, N> b, MatrixView<T, N> c) {
    for (std::size_t i = 0; i < c.rows; ++i) {
        for (std::size_t kk = 0; kk < a.cols; ++kk) {
            const MultiFloat<T, N> aik = a.get(i, kk);
            // c[i, :] += aik * b[kk, :]
            const T* brow[N];
            T* crow[N];
            for (int p = 0; p < N; ++p) {
                brow[p] = b.row(p, kk);
                crow[p] = c.row(p, i);
            }
            simd::fma_range<T, N>(aik, brow, crow, 0, c.cols);
        }
    }
}

/// Positional form over whole contiguous Vectors: C (n x m) += A (n x k) B (k x m).
template <FloatingPoint T, int N>
void gemm(const Vector<T, N>& a, const Vector<T, N>& b, Vector<T, N>& c,
          std::size_t n, std::size_t k, std::size_t m) {
    gemm<T, N>(matrix_view(a, n, k), matrix_view(b, k, m), matrix_view(c, n, m));
}

}  // namespace mf::planar
