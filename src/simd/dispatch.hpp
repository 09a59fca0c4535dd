#pragma once
// The kernels at the build's native pack width.
//
// The width is a compile-time constant (native_width in pack.hpp), so each
// entry point below is a direct call into one kernels:: instantiation: no
// runtime switch, no global state, no per-call counter. Tests and the
// differential checker reach the other widths through for_each_width and
// the width-templated kernels:: entry points.

#include <cstddef>
#include <type_traits>
#include <utility>

#include "kernels.hpp"

namespace mf::simd {

/// Pack width the kernels below run at for base type T.
template <std::floating_point T>
[[nodiscard]] constexpr int active_width() noexcept {
    return native_width<T>;
}

/// Run f(integral_constant<int, W>) at the native width W. Callers issuing
/// many short kernel calls (e.g. a GEMM's per-row fma sweeps) call the
/// width-templated kernels:: entry points directly inside f.
template <std::floating_point T, typename F>
MF_ALWAYS_INLINE decltype(auto) with_active_width(F&& f) {
    return std::forward<F>(f)(std::integral_constant<int, native_width<T>>{});
}

/// Run f(integral_constant<int, W>) for every pack width W in {1, 2, 4, 8,
/// 16} that fits one 64-byte register (W * sizeof(T) <= 64), narrowest
/// first, whatever this build's native width. Widths without an intrinsic
/// specialization run the portable Pack, so every build checks every width.
template <std::floating_point T, typename F>
void for_each_width(F&& f) {
    [&]<int... L>(std::integer_sequence<int, L...>) {
        ([&] {
            if constexpr ((1 << L) * sizeof(T) <= 64) {
                f(std::integral_constant<int, 1 << L>{});
            }
        }(), ...);
    }(std::make_integer_sequence<int, 5>{});
}

/// Planar z = x + y elementwise.
template <std::floating_point T, int N>
void add_range(const T* const* xp, const T* const* yp, T* const* zp,
               std::size_t i0, std::size_t i1) {
    kernels::add_range<T, N, native_width<T>>(xp, yp, zp, i0, i1);
}

/// Planar y = alpha * x + y elementwise.
template <std::floating_point T, int N>
void fma_range(const MultiFloat<T, N>& alpha, const T* const* xp, T* const* yp,
               std::size_t i0, std::size_t i1) {
    kernels::fma_range<T, N, native_width<T>>(alpha, xp, yp, i0, i1);
}

/// Planar <x, y>.
template <std::floating_point T, int N>
[[nodiscard]] MultiFloat<T, N> dot(const T* const* xp, const T* const* yp,
                                   std::size_t n) {
    return kernels::dot<T, N, native_width<T>>(xp, yp, n);
}

/// AoS y = alpha * x + y.
template <std::floating_point T, int N>
void axpy_aos(const MultiFloat<T, N>& alpha, const MultiFloat<T, N>* x,
              MultiFloat<T, N>* y, std::size_t n) {
    kernels::axpy_aos<T, N, native_width<T>>(alpha, x, y, n);
}

/// AoS <x, y>.
template <std::floating_point T, int N>
[[nodiscard]] MultiFloat<T, N> dot_aos(const MultiFloat<T, N>* x,
                                       const MultiFloat<T, N>* y, std::size_t n) {
    return kernels::dot_aos<T, N, native_width<T>>(x, y, n);
}

}  // namespace mf::simd
