#pragma once
// Branch-free addition and subtraction of nonoverlapping floating-point
// expansions (paper §4.1, Figures 2-4).
//
// The kernels load the wires and run the gate tables of networks.hpp
// (fpan::add_table, fpan::add_scalar_table): the same tables fpan::Network
// copies, checks and draws. Every network begins with a layer of TwoSum
// gates pairing corresponding terms (x_i, y_i); TwoSum is commutative, so
// the sum is bit-identical under swapping x and y. N = 2 is the provably
// optimal 6-gate network of Figure 2 (relative error <= 2^-(2p-1) |x + y|);
// N = 3, 4 are distillation sweeps reconstructed from the paper's
// description, whose bounds 2^-(3p-3) and 2^-(4p-4) the test suite enforces
// against an exact BigFloat oracle (DESIGN.md §2).

#include <utility>

#include "eft.hpp"
#include "multifloat.hpp"
#include "networks.hpp"

namespace mf {

namespace detail {

// The wires are loaded by pack expansion, not by a loop: constant indices
// let the compiler keep every wire in a register from the start.

template <FloatingPoint T, int N, std::size_t... I>
MF_ALWAYS_INLINE constexpr MultiFloat<T, N> add_network(const MultiFloat<T, N>& x,
                                                        const MultiFloat<T, N>& y,
                                                        std::index_sequence<I...>) noexcept {
    T w[] = {(I % 2 == 0 ? x : y).limb[I / 2]...};  // [x0, y0, x1, y1, ...]
    return MultiFloat<T, N>(fpan::run<fpan::add_table<N>>(w));
}

template <FloatingPoint T, int N, std::size_t... I>
MF_ALWAYS_INLINE constexpr MultiFloat<T, N> add_scalar_network(const MultiFloat<T, N>& x, T y,
                                                               std::index_sequence<I...>) noexcept {
    T w[] = {x.limb[I]..., y};
    return MultiFloat<T, N>(fpan::run<fpan::add_scalar_table<N>>(w));
}

}  // namespace detail

/// Expansion addition: runs the N-term addition table fpan::add_table<N>.
template <FloatingPoint T, int N>
[[nodiscard]] MF_ALWAYS_INLINE constexpr MultiFloat<T, N> add(const MultiFloat<T, N>& x,
                                             const MultiFloat<T, N>& y) noexcept {
    if constexpr (N == 1) {
        return MultiFloat<T, 1>(x.limb[0] + y.limb[0]);
    } else {
        return detail::add_network(x, y, std::make_index_sequence<2 * N>{});
    }
}

/// Expansion subtraction: x + (-y) (the sign flip is exact).
template <FloatingPoint T, int N>
[[nodiscard]] MF_ALWAYS_INLINE constexpr MultiFloat<T, N> sub(const MultiFloat<T, N>& x,
                                             const MultiFloat<T, N>& y) noexcept {
    return add(x, -y);
}

/// Mixed expansion-scalar addition: cheaper than widening the scalar and
/// running the full network (the scalar contributes a single input wire).
template <FloatingPoint T, int N>
[[nodiscard]] MF_ALWAYS_INLINE constexpr MultiFloat<T, N> add(const MultiFloat<T, N>& x, T y) noexcept {
    if constexpr (N == 1) {
        return MultiFloat<T, 1>(x.limb[0] + y);
    } else {
        return detail::add_scalar_network(x, y, std::make_index_sequence<N>{});
    }
}

// The operator surface inlines like the kernels it forwards to (eft.hpp).

template <FloatingPoint T, int N>
[[nodiscard]] MF_ALWAYS_INLINE constexpr MultiFloat<T, N> operator+(
    const MultiFloat<T, N>& x, const MultiFloat<T, N>& y) noexcept {
    return add(x, y);
}

template <FloatingPoint T, int N>
[[nodiscard]] MF_ALWAYS_INLINE constexpr MultiFloat<T, N> operator-(
    const MultiFloat<T, N>& x, const MultiFloat<T, N>& y) noexcept {
    return sub(x, y);
}

template <FloatingPoint T, int N>
[[nodiscard]] MF_ALWAYS_INLINE constexpr MultiFloat<T, N> operator+(const MultiFloat<T, N>& x,
                                                                    T y) noexcept {
    return add(x, y);
}

template <FloatingPoint T, int N>
[[nodiscard]] MF_ALWAYS_INLINE constexpr MultiFloat<T, N> operator+(
    T x, const MultiFloat<T, N>& y) noexcept {
    return add(y, x);
}

template <FloatingPoint T, int N>
[[nodiscard]] MF_ALWAYS_INLINE constexpr MultiFloat<T, N> operator-(const MultiFloat<T, N>& x,
                                                                    T y) noexcept {
    return add(x, -y);
}

template <FloatingPoint T, int N>
[[nodiscard]] MF_ALWAYS_INLINE constexpr MultiFloat<T, N> operator-(
    T x, const MultiFloat<T, N>& y) noexcept {
    return add(-y, x);
}

template <FloatingPoint T, int N>
MF_ALWAYS_INLINE constexpr MultiFloat<T, N>& operator+=(MultiFloat<T, N>& x,
                                                        const MultiFloat<T, N>& y) noexcept {
    x = add(x, y);
    return x;
}

template <FloatingPoint T, int N>
MF_ALWAYS_INLINE constexpr MultiFloat<T, N>& operator-=(MultiFloat<T, N>& x,
                                                        const MultiFloat<T, N>& y) noexcept {
    x = sub(x, y);
    return x;
}

template <FloatingPoint T, int N>
MF_ALWAYS_INLINE constexpr MultiFloat<T, N>& operator+=(MultiFloat<T, N>& x, T y) noexcept {
    x = add(x, y);
    return x;
}

template <FloatingPoint T, int N>
MF_ALWAYS_INLINE constexpr MultiFloat<T, N>& operator-=(MultiFloat<T, N>& x, T y) noexcept {
    x = add(x, -y);
    return x;
}

}  // namespace mf
