#pragma once
// Branch-free addition and subtraction of nonoverlapping floating-point
// expansions (paper §4.1, Figures 2-4).
//
// Every network begins with a layer of TwoSum gates pairing corresponding
// terms (x_i, y_i) of the two input expansions. Because TwoSum is
// commutative, the computed sum is bit-identical under swapping x and y.
//
// N = 2 uses the provably optimal 6-gate, depth-4 network of Figure 2
// (the same gate sequence as the AccurateDWPlusDW double-word algorithm,
// relative error <= 2^-(2p-1) |x + y|).
//
// N = 3, 4 use distillation-sweep networks (renorm.hpp) reconstructed from
// the paper's description; the 4-term sweep matches the paper's gate count
// (26 TwoSum-equivalent gates before final renormalization). Error bounds
// 2^-(3p-3) and 2^-(4p-4) are enforced empirically by the test suite against
// an exact BigFloat oracle; see DESIGN.md §2 for the substitution rationale.

#include "eft.hpp"
#include "multifloat.hpp"
#include "renorm.hpp"

namespace mf {

namespace detail {

/// Figure 2: provably optimal 2-term addition network (size 6, depth 4).
template <FloatingPoint T>
MF_ALWAYS_INLINE constexpr MultiFloat<T, 2> add2(const MultiFloat<T, 2>& x,
                                const MultiFloat<T, 2>& y) noexcept {
    const auto [s0, e0] = two_sum(x.limb[0], y.limb[0]);  // gate 1 (TwoSum)
    const auto [s1, e1] = two_sum(x.limb[1], y.limb[1]);  // gate 2 (TwoSum)
    const T c = s1 + e0;                                  // gate 3 (sum)
    const auto [v0, v1] = fast_two_sum(s0, c);            // gate 4 (FastTwoSum)
    const T w = e1 + v1;                                  // gate 5 (sum)
    const auto [z0, z1] = fast_two_sum(v0, w);            // gate 6 (FastTwoSum)
    return MultiFloat<T, 2>({z0, z1});
}

/// Generic N-term addition: pairing layer + distillation sweep.
/// The 2N intermediate values are ordered by expected magnitude:
/// [s0, s1, e0, s2, e1, ..., s_{N-1}, e_{N-2}, e_{N-1}].
template <FloatingPoint T, int N>
MF_ALWAYS_INLINE constexpr MultiFloat<T, N> add_sweep(const MultiFloat<T, N>& x,
                                     const MultiFloat<T, N>& y) noexcept {
    T v[2 * N];
    {
        const auto [s, e] = two_sum(x.limb[0], y.limb[0]);
        v[0] = s;
        T carry = e;
        for (int i = 1; i < N; ++i) {
            const auto [si, ei] = two_sum(x.limb[i], y.limb[i]);
            v[2 * i - 1] = si;
            v[2 * i] = carry;
            carry = ei;
        }
        v[2 * N - 1] = carry;
    }
    detail::accumulate<N>(v);
    MultiFloat<T, N> z;
    for (int i = 0; i < N; ++i) z.limb[i] = v[i];
    return z;
}

}  // namespace detail

/// Expansion addition: dispatches to the optimal fixed network for N = 1, 2
/// and to the sweep network for larger N.
template <FloatingPoint T, int N>
[[nodiscard]] MF_ALWAYS_INLINE constexpr MultiFloat<T, N> add(const MultiFloat<T, N>& x,
                                             const MultiFloat<T, N>& y) noexcept {
    if constexpr (N == 1) {
        return MultiFloat<T, 1>(x.limb[0] + y.limb[0]);
    } else if constexpr (N == 2) {
        return detail::add2(x, y);
    } else {
        return detail::add_sweep(x, y);
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
        T v[N + 1];
        const auto [s0, e0] = two_sum(x.limb[0], y);
        v[0] = s0;
        T carry = e0;
        for (int i = 1; i < N; ++i) {
            const auto [si, ei] = two_sum(x.limb[i], carry);
            v[i] = si;
            carry = ei;
        }
        v[N] = carry;
        detail::accumulate<N, 1>(v);
        MultiFloat<T, N> z;
        for (int i = 0; i < N; ++i) z.limb[i] = v[i];
        return z;
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
