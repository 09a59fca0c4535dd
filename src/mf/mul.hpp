#pragma once
// Branch-free multiplication of nonoverlapping floating-point expansions
// (paper §4.2, Figures 5-7).
//
// By distributivity, x*y is the exact sum of the n^2 pairwise limb
// products, which TwoProd makes exact. The kernel is that TwoProd expansion
// step alone: it writes the wires in fpan::mul_terms<N> order (the discard
// optimization keeps n^2 of the 2n^2 terms) and runs the gate table
// fpan::mul_table<N> (networks.hpp), whose commutativity layer makes
// mul(x, y) and mul(y, x) bit-identical. N = 2 is the provably optimal
// 3-gate network of Figure 5 (error <= 2^-(2p-3)|xy|); the N = 3, 4
// reconstructions' bounds (2^-(3p-3), 2^-(4p-4)) are enforced empirically
// by the test suite against the exact BigFloat oracle.

#include <utility>

#include "eft.hpp"
#include "multifloat.hpp"
#include "networks.hpp"

namespace mf {
namespace detail {

/// One wire of the expansion step: p_ij = RN(x_i * y_j) or its TwoProd
/// error e_ij (the compiler forms the product it shares with p_ij once).
template <fpan::Term t, FloatingPoint T, int N>
MF_ALWAYS_INLINE T mul_term(const MultiFloat<T, N>& x, const MultiFloat<T, N>& y) noexcept {
    if constexpr (t.err) {
        return two_prod(x.limb[t.i], y.limb[t.j]).err;
    } else {
        return x.limb[t.i] * y.limb[t.j];
    }
}

template <FloatingPoint T, int N, std::size_t... K>
MF_ALWAYS_INLINE MultiFloat<T, N> mul_network(const MultiFloat<T, N>& x, const MultiFloat<T, N>& y,
                                              std::index_sequence<K...>) noexcept {
    T w[] = {mul_term<fpan::mul_terms<N>[K]>(x, y)...};
    return MultiFloat<T, N>(fpan::run<fpan::mul_table<N>>(w));
}

/// Non-commutative 2-term multiplication (DWTimesDW-style FMA chain).
/// Slightly cheaper than mul<T, 2>, but mul2_noncommutative(x, y) !=
/// mul2_noncommutative(y, x) in general; kept for the §4.2 commutativity
/// ablation.
template <FloatingPoint T>
MultiFloat<T, 2> mul2_noncommutative(const MultiFloat<T, 2>& x,
                                     const MultiFloat<T, 2>& y) noexcept {
    using std::fma;  // ADL: pack-level fma for SIMD value types
    const auto [p00, e00] = two_prod(x.limb[0], y.limb[0]);
    const T t = fma(x.limb[0], y.limb[1], x.limb[1] * y.limb[0]);
    const T s = t + e00;
    const auto [z0, z1] = fast_two_sum(p00, s);
    return MultiFloat<T, 2>({z0, z1});
}

}  // namespace detail

/// Expansion multiplication.
template <FloatingPoint T, int N>
[[nodiscard]] MF_ALWAYS_INLINE MultiFloat<T, N> mul(const MultiFloat<T, N>& x,
                                   const MultiFloat<T, N>& y) noexcept {
    static_assert(N <= 4, "mul: expansion lengths 1-4 are supported");
    if constexpr (N == 1) {
        return MultiFloat<T, 1>(x.limb[0] * y.limb[0]);
    } else {
        return detail::mul_network(x, y, std::make_index_sequence<N * N>{});
    }
}

/// Mixed expansion-scalar multiplication: N TwoProds + accumulation.
template <FloatingPoint T, int N>
[[nodiscard]] MF_ALWAYS_INLINE MultiFloat<T, N> mul(const MultiFloat<T, N>& x, T y) noexcept {
    if constexpr (N == 1) {
        return MultiFloat<T, 1>(x.limb[0] * y);
    } else {
        // (p_i, e_i) = TwoProd(x_i, y); p_i sits at level i, e_i at level
        // i+1. The last error is below the discard threshold.
        T w[2 * N - 1];
        T carry{};
        for (int i = 0; i < N; ++i) {
            if (i < N - 1) {
                const auto [p, e] = two_prod(x.limb[i], y);
                if (i == 0) {
                    w[0] = p;
                } else {
                    w[2 * i - 1] = p;
                    w[2 * i] = carry;
                }
                carry = e;
            } else {
                w[2 * i - 1] = x.limb[i] * y;
                w[2 * i] = carry;
            }
        }
        return MultiFloat<T, N>(fpan::run<fpan::mul_scalar_table<N>>(w));
    }
}

/// Exact multiplication by a power of two: applied limb-wise, never rounds.
template <FloatingPoint T, int N>
[[nodiscard]] MultiFloat<T, N> ldexp(const MultiFloat<T, N>& x, int e) noexcept {
    MultiFloat<T, N> r;
    for (int i = 0; i < N; ++i) r.limb[i] = std::ldexp(x.limb[i], e);
    return r;
}

// The operator surface inlines like the kernels it forwards to (eft.hpp).

template <FloatingPoint T, int N>
[[nodiscard]] MF_ALWAYS_INLINE MultiFloat<T, N> operator*(const MultiFloat<T, N>& x,
                                                          const MultiFloat<T, N>& y) noexcept {
    return mul(x, y);
}

template <FloatingPoint T, int N>
[[nodiscard]] MF_ALWAYS_INLINE MultiFloat<T, N> operator*(const MultiFloat<T, N>& x, T y) noexcept {
    return mul(x, y);
}

template <FloatingPoint T, int N>
[[nodiscard]] MF_ALWAYS_INLINE MultiFloat<T, N> operator*(T x, const MultiFloat<T, N>& y) noexcept {
    return mul(y, x);
}

template <FloatingPoint T, int N>
MF_ALWAYS_INLINE MultiFloat<T, N>& operator*=(MultiFloat<T, N>& x,
                                              const MultiFloat<T, N>& y) noexcept {
    x = mul(x, y);
    return x;
}

template <FloatingPoint T, int N>
MF_ALWAYS_INLINE MultiFloat<T, N>& operator*=(MultiFloat<T, N>& x, T y) noexcept {
    x = mul(x, y);
    return x;
}

}  // namespace mf
