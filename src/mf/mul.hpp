#pragma once
// Branch-free multiplication of nonoverlapping floating-point expansions
// (paper §4.2, Figures 5-7).
//
// Strategy: by distributivity, x*y is the exact sum of the n^2 pairwise limb
// products. TwoProd makes each pairwise product exact. Two optimizations from
// the paper are applied:
//
//  * Discard optimization: writing e_x, e_y for the exponents of x0, y0, any
//    term with exponent below e_x + e_y - n(p+1) cannot affect an n-term
//    result. Hence p_ij is dropped for i+j >= n and the TwoProd error e_ij is
//    dropped for i+j+1 >= n: only n(n-1)/2 TwoProds and n plain products are
//    needed, and the accumulation network has n^2 inputs instead of 2n^2.
//
//  * Commutativity layer: the symmetric pairs (p_ij, p_ji) and (e_ij, e_ji)
//    are first combined with commutative gates so that mul(x, y) and
//    mul(y, x) are bit-identical -- the property §4.2 highlights for complex
//    conjugate products.
//
// N = 2 is the provably optimal 3-gate, depth-3 network of Figure 5 (error
// <= 2^-(2p-3)|xy|). N = 3, 4 are reconstructions with the same structure
// (commutativity layer + level-pooled accumulation); their error bounds
// (2^-(3p-3), 2^-(4p-4)) are enforced empirically by the test suite against
// the exact BigFloat oracle.

#include "eft.hpp"
#include "multifloat.hpp"
#include "renorm.hpp"

namespace mf {
namespace detail {

/// Figure 5: optimal commutative 2-term multiplication (size 3, depth 3).
template <FloatingPoint T>
MF_ALWAYS_INLINE MultiFloat<T, 2> mul2(const MultiFloat<T, 2>& x, const MultiFloat<T, 2>& y) noexcept {
    const auto [p00, e00] = two_prod(x.limb[0], y.limb[0]);
    const T p01 = x.limb[0] * y.limb[1];  // error below threshold: discarded
    const T p10 = x.limb[1] * y.limb[0];  // error below threshold: discarded
    // (x1*y1 falls entirely below the threshold and is never formed.)
    const T t = p01 + p10;                       // gate 1 (commutative sum)
    const T s = t + e00;                         // gate 2 (sum)
    const auto [z0, z1] = fast_two_sum(p00, s);  // gate 3 (FastTwoSum)
    return MultiFloat<T, 2>({z0, z1});
}

/// 3-term commutative multiplication (cf. Figure 6).
template <FloatingPoint T>
MF_ALWAYS_INLINE MultiFloat<T, 3> mul3(const MultiFloat<T, 3>& x, const MultiFloat<T, 3>& y) noexcept {
    // Expansion step: 3 TwoProds (i+j <= 1) + 3 plain products (i+j == 2).
    const auto [p00, e00] = two_prod(x.limb[0], y.limb[0]);
    const auto [p01, e01] = two_prod(x.limb[0], y.limb[1]);
    const auto [p10, e10] = two_prod(x.limb[1], y.limb[0]);
    const T p02 = x.limb[0] * y.limb[2];
    const T p20 = x.limb[2] * y.limb[0];
    const T p11 = x.limb[1] * y.limb[1];

    // Commutativity layer on symmetric pairs.
    const auto [t1, u1] = two_sum(p01, p10);  // level 1 + error into level 2
    const T f1 = e01 + e10;                   // level 2 (error discardable)
    const T g1 = p02 + p20;                   // level 2 (error discardable)

    // Level pooling. Level 1: {t1, e00}; level 2: {u1, f1, g1, p11, carry}.
    const auto [w1, c1] = two_sum(t1, e00);
    T h = u1 + f1;
    h = h + g1;
    h = h + p11;
    h = h + c1;

    T v[3] = {p00, w1, h};
    accumulate<3, 1>(v);
    return MultiFloat<T, 3>({v[0], v[1], v[2]});
}

/// 4-term commutative multiplication (cf. Figure 7).
template <FloatingPoint T>
MF_ALWAYS_INLINE MultiFloat<T, 4> mul4(const MultiFloat<T, 4>& x, const MultiFloat<T, 4>& y) noexcept {
    // Expansion step: 6 TwoProds (i+j <= 2) + 4 plain products (i+j == 3).
    const auto [p00, e00] = two_prod(x.limb[0], y.limb[0]);
    const auto [p01, e01] = two_prod(x.limb[0], y.limb[1]);
    const auto [p10, e10] = two_prod(x.limb[1], y.limb[0]);
    const auto [p02, e02] = two_prod(x.limb[0], y.limb[2]);
    const auto [p20, e20] = two_prod(x.limb[2], y.limb[0]);
    const auto [p11, e11] = two_prod(x.limb[1], y.limb[1]);
    const T p03 = x.limb[0] * y.limb[3];
    const T p30 = x.limb[3] * y.limb[0];
    const T p12 = x.limb[1] * y.limb[2];
    const T p21 = x.limb[2] * y.limb[1];

    // Commutativity layer.
    const auto [t1, u1] = two_sum(p01, p10);  // level 1; u1 -> level 2
    const auto [t2, u2] = two_sum(p02, p20);  // level 2; u2 -> level 3
    const auto [f1, g1] = two_sum(e01, e10);  // level 2; g1 -> level 3
    const T q1 = p03 + p30;                   // level 3 (errors discardable)
    const T q2 = p12 + p21;                   // level 3
    const T q3 = e02 + e20;                   // level 3

    // Level 1 pool: {t1, e00}.
    const auto [w1, c1] = two_sum(t1, e00);  // c1 -> level 2

    // Level 2 pool: {t2, f1, p11, u1, c1}; keep every rounding error (they
    // land at level 3, still above the discard threshold for N = 4).
    auto [a, d1] = two_sum(t2, f1);
    const auto [a2, d2] = two_sum(a, p11);
    const auto [a3, d3] = two_sum(a2, u1);
    const auto [a4, d4] = two_sum(a3, c1);

    // Level 3 pool: plain sums; rounding errors fall below the threshold.
    T h = u2 + g1;
    h = h + q1;
    h = h + q2;
    h = h + q3;
    h = h + e11;
    h = h + d1;
    h = h + d2;
    h = h + d3;
    h = h + d4;

    T v[4] = {p00, w1, a4, h};
    accumulate<4, 1>(v);
    return MultiFloat<T, 4>({v[0], v[1], v[2], v[3]});
}

/// Non-commutative 2-term multiplication (DWTimesDW-style FMA chain).
/// Slightly cheaper than mul2 but mul_fast2(x, y) != mul_fast2(y, x) in
/// general; kept for the §4.2 commutativity ablation.
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
    if constexpr (N == 1) {
        return MultiFloat<T, 1>(x.limb[0] * y.limb[0]);
    } else if constexpr (N == 2) {
        return detail::mul2(x, y);
    } else if constexpr (N == 3) {
        return detail::mul3(x, y);
    } else {
        static_assert(N == 4, "mul: expansion lengths 1-4 are supported");
        return detail::mul4(x, y);
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
        T v[2 * N - 1];
        T carry{};
        for (int i = 0; i < N; ++i) {
            if (i < N - 1) {
                const auto [p, e] = two_prod(x.limb[i], y);
                if (i == 0) {
                    v[0] = p;
                } else {
                    v[2 * i - 1] = p;
                    v[2 * i] = carry;
                }
                carry = e;
            } else {
                v[2 * i - 1] = x.limb[i] * y;
                v[2 * i] = carry;
            }
        }
        detail::accumulate<N, 1>(v);
        MultiFloat<T, N> z;
        for (int i = 0; i < N; ++i) z.limb[i] = v[i];
        return z;
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
