#pragma once
// Pack-level FPAN kernels: the scalar accumulation networks of mf/add.hpp
// and mf/mul.hpp instantiated over MultiFloat<Pack<T, W>, N> -- W elements
// march through the SAME gate sequence in lock-step, one lane each. Every
// kernel processes the bulk in W-wide steps and finishes with an explicit
// scalar tail loop running the ordinary MultiFloat<T, N> network, so the
// result is bit-identical to the scalar kernel for every element, including
// the tail (tests/simd_kernel_test.cpp).
//
// Two memory layouts are served:
//  * planar (SoA) raw plane pointers, as used by mf::planar::Vector -- packs
//    load W consecutive elements of one limb with a single unaligned load;
//  * AoS spans of MultiFloat<T, N>, as used by mf::blas -- limbs are
//    interleaved, so W elements are read with N full-width loads and
//    transposed into N limb packs by in-register lane permutes (and back
//    for stores; simd::load_aos / store_aos in pack.hpp). Only data moves:
//    the lanes run the same networks on the same limbs as the planar path.
//
// The kernels live in mf::simd and take the pack width W as their last
// template parameter, defaulting to the build's native_width<T>: mf::blas
// and mf::planar call simd::dot_aos<T, N>(...) and so on, while the tests,
// the differential checker and the benchmarks pass every other W
// explicitly. The load/store/broadcast/lane helpers they share are in
// mf::simd::kernels.

#include <cstddef>

#include "../mf/add.hpp"
#include "../mf/mul.hpp"
#include "../telemetry/events.hpp"
#include "pack.hpp"

namespace mf::simd::kernels {

/// Load lanes [i, i+W) of an N-limb planar range into a pack MultiFloat.
template <typename P, std::floating_point T, int N>
MF_ALWAYS_INLINE MultiFloat<P, N> load_planar(const T* const* planes, std::size_t i) noexcept {
    MultiFloat<P, N> r;
    for (int k = 0; k < N; ++k) r.limb[k] = P::load(planes[k] + i);
    return r;
}

template <typename P, std::floating_point T, int N>
MF_ALWAYS_INLINE void store_planar(const MultiFloat<P, N>& v, T* const* planes,
                                   std::size_t i) noexcept {
    for (int k = 0; k < N; ++k) v.limb[k].store(planes[k] + i);
}

/// Broadcast one scalar expansion across all W lanes.
template <typename P, std::floating_point T, int N>
MF_ALWAYS_INLINE MultiFloat<P, N> broadcast(const MultiFloat<T, N>& x) noexcept {
    MultiFloat<P, N> r;
    for (int k = 0; k < N; ++k) r.limb[k] = P::broadcast(x.limb[k]);
    return r;
}

/// Transpose W consecutive AoS elements into a pack MultiFloat
/// (simd::load_aos): the W elements are W * N contiguous limbs.
template <typename P, std::floating_point T, int N>
MF_ALWAYS_INLINE MultiFloat<P, N> load_aos(const MultiFloat<T, N>* p) noexcept {
    static_assert(sizeof(MultiFloat<T, N>) == N * sizeof(T));
    MultiFloat<P, N> r;
    r.limb = simd::load_aos<P, N>(p);
    return r;
}

/// Inverse of load_aos: writes exactly the W elements at p.
template <typename P, std::floating_point T, int N>
MF_ALWAYS_INLINE void store_aos(const MultiFloat<P, N>& v, MultiFloat<T, N>* p) noexcept {
    static_assert(sizeof(MultiFloat<T, N>) == N * sizeof(T));
    simd::store_aos<P, N>(v.limb, p);
}

/// Extract lane j of a pack expansion as a scalar expansion.
template <std::floating_point T, int N, typename P>
MF_ALWAYS_INLINE MultiFloat<T, N> lane(const MultiFloat<P, N>& v, int j) noexcept {
    MultiFloat<T, N> r;
    for (int k = 0; k < N; ++k) r.limb[k] = v.limb[k][j];
    return r;
}

}  // namespace mf::simd::kernels

namespace mf::simd {

// ---------------------------------------------------------------------------
// Planar (SoA) kernels
// ---------------------------------------------------------------------------

/// z[i] = x[i] + y[i] over planes, for i in [i0, i1).
template <std::floating_point T, int N, int W = native_width<T>>
void add_range(const T* const* xp, const T* const* yp, T* const* zp,
               std::size_t i0, std::size_t i1) {
    MF_TELEM_COUNT_N("mf_simd_kernel_ops_total{kernel=\"add_range\"}", i1 - i0);
    using P = Pack<T, W>;
    std::size_t i = i0;
    for (; i + W <= i1; i += W) {
        const MultiFloat<P, N> x = kernels::load_planar<P, T, N>(xp, i);
        const MultiFloat<P, N> y = kernels::load_planar<P, T, N>(yp, i);
        kernels::store_planar<P, T, N>(add(x, y), zp, i);
    }
    for (; i < i1; ++i) {  // scalar tail: same network, one lane
        MultiFloat<T, N> x;
        MultiFloat<T, N> y;
        for (int k = 0; k < N; ++k) {
            x.limb[k] = xp[k][i];
            y.limb[k] = yp[k][i];
        }
        const MultiFloat<T, N> z = add(x, y);
        for (int k = 0; k < N; ++k) zp[k][i] = z.limb[k];
    }
}

/// y[i] = alpha * x[i] + y[i] over planes, for i in [i0, i1).
template <std::floating_point T, int N, int W = native_width<T>>
void fma_range(const MultiFloat<T, N>& alpha, const T* const* xp, T* const* yp,
               std::size_t i0, std::size_t i1) {
    MF_TELEM_COUNT_N("mf_simd_kernel_ops_total{kernel=\"fma_range\"}", i1 - i0);
    using P = Pack<T, W>;
    const MultiFloat<P, N> av = kernels::broadcast<P, T, N>(alpha);
    std::size_t i = i0;
    for (; i + W <= i1; i += W) {
        const MultiFloat<P, N> x = kernels::load_planar<P, T, N>(xp, i);
        const MultiFloat<P, N> y = kernels::load_planar<P, T, N>(yp, i);
        kernels::store_planar<P, T, N>(add(mul(av, x), y), yp, i);
    }
    for (; i < i1; ++i) {
        MultiFloat<T, N> x;
        MultiFloat<T, N> y;
        for (int k = 0; k < N; ++k) {
            x.limb[k] = xp[k][i];
            y.limb[k] = yp[k][i];
        }
        const MultiFloat<T, N> z = add(mul(alpha, x), y);
        for (int k = 0; k < N; ++k) yp[k][i] = z.limb[k];
    }
}

/// <x, y> over planes. Accumulator layout: BLK = max(8, W) independent
/// accumulator lanes held in BLK/W packs. For W <= 8 this reproduces the
/// seed planar::dot exactly -- eight accumulators, lane j of each 8-block
/// feeding accumulator j, final merge in lane order then a scalar tail --
/// so the result is bit-identical to the pre-SIMD path.
template <std::floating_point T, int N, int W = native_width<T>>
[[nodiscard]] MultiFloat<T, N> dot(const T* const* xp, const T* const* yp, std::size_t n) {
    MF_TELEM_COUNT_N("mf_simd_kernel_ops_total{kernel=\"dot\"}", n);
    using P = Pack<T, W>;
    constexpr std::size_t BLK = W > 8 ? W : 8;
    constexpr std::size_t A = BLK / W;
    MultiFloat<P, N> part[A];
    for (std::size_t blk = 0; blk + BLK <= n; blk += BLK) {
        for (std::size_t a = 0; a < A; ++a) {
            const std::size_t i = blk + a * W;
            const MultiFloat<P, N> x = kernels::load_planar<P, T, N>(xp, i);
            const MultiFloat<P, N> y = kernels::load_planar<P, T, N>(yp, i);
            part[a] = add(part[a], mul(x, y));
        }
    }
    MultiFloat<T, N> acc{};
    for (std::size_t j = 0; j < BLK; ++j) {
        acc = add(acc, kernels::lane<T, N>(part[j / W], static_cast<int>(j % W)));
    }
    for (std::size_t i = n - n % BLK; i < n; ++i) {
        MultiFloat<T, N> x;
        MultiFloat<T, N> y;
        for (int k = 0; k < N; ++k) {
            x.limb[k] = xp[k][i];
            y.limb[k] = yp[k][i];
        }
        acc = add(acc, mul(x, y));
    }
    return acc;
}

// ---------------------------------------------------------------------------
// AoS (interleaved MultiFloat span) kernels for mf::blas
// ---------------------------------------------------------------------------

/// y[i] = alpha * x[i] + y[i] over AoS arrays of n elements.
template <std::floating_point T, int N, int W = native_width<T>>
void axpy_aos(const MultiFloat<T, N>& alpha, const MultiFloat<T, N>* x,
              MultiFloat<T, N>* y, std::size_t n) {
    MF_TELEM_COUNT_N("mf_simd_kernel_ops_total{kernel=\"axpy_aos\"}", n);
    using P = Pack<T, W>;
    const MultiFloat<P, N> av = kernels::broadcast<P, T, N>(alpha);
    std::size_t i = 0;
    for (; i + W <= n; i += W) {
        const MultiFloat<P, N> xv = kernels::load_aos<P, T, N>(x + i);
        const MultiFloat<P, N> yv = kernels::load_aos<P, T, N>(y + i);
        kernels::store_aos<P, T, N>(add(mul(av, xv), yv), y + i);
    }
    for (; i < n; ++i) y[i] = add(mul(alpha, x[i]), y[i]);
}

/// <x, y> over AoS arrays; same BLK-accumulator discipline as planar dot.
template <std::floating_point T, int N, int W = native_width<T>>
[[nodiscard]] MultiFloat<T, N> dot_aos(const MultiFloat<T, N>* x,
                                       const MultiFloat<T, N>* y, std::size_t n) {
    MF_TELEM_COUNT_N("mf_simd_kernel_ops_total{kernel=\"dot_aos\"}", n);
    using P = Pack<T, W>;
    constexpr std::size_t BLK = W > 8 ? W : 8;
    constexpr std::size_t A = BLK / W;
    MultiFloat<P, N> part[A];
    for (std::size_t blk = 0; blk + BLK <= n; blk += BLK) {
        for (std::size_t a = 0; a < A; ++a) {
            const std::size_t i = blk + a * W;
            part[a] = add(part[a], mul(kernels::load_aos<P, T, N>(x + i),
                                       kernels::load_aos<P, T, N>(y + i)));
        }
    }
    MultiFloat<T, N> acc{};
    for (std::size_t j = 0; j < BLK; ++j) {
        acc = add(acc, kernels::lane<T, N>(part[j / W], static_cast<int>(j % W)));
    }
    for (std::size_t i = n - n % BLK; i < n; ++i) {
        acc = add(acc, mul(x[i], y[i]));
    }
    return acc;
}

}  // namespace mf::simd
