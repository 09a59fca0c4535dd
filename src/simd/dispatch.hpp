#pragma once
// The build's pack width, and a way to reach every other one.
//
// The width is a compile-time constant (native_width in pack.hpp), and it is
// the default W of every kernel in kernels.hpp, so simd::axpy_aos<T, N>(...)
// is a direct call into the native instantiation: no runtime switch, no
// global state, no per-call counter. Tests and the differential checker
// reach the other widths through for_each_width, passing W explicitly.

#include <type_traits>
#include <utility>

#include "kernels.hpp"

namespace mf::simd {

/// Pack width the kernels of kernels.hpp run at by default for base type T.
template <std::floating_point T>
[[nodiscard]] constexpr int active_width() noexcept {
    return native_width<T>;
}

/// Run f(integral_constant<int, W>) at the native width W, for code that
/// names W itself (e.g. to pick a micro-kernel instantiation).
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

}  // namespace mf::simd
