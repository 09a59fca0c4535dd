#pragma once
// Division and square root via division-free Newton-Raphson iteration
// (paper §4.3), with progressively widening iterates.
//
// The reciprocal iterate  r <- r + r*(1 - a*r)  and the inverse-square-root
// iterate  r <- r + (r/2)*(1 - a*r^2)  double the number of correct bits per
// step (multiplication by 1/2 is exact). The k-th iterate carries only about
// 2^k * p correct bits, so the early iterates need not be computed at full
// width. Schedule:
//
//   N = 1     the machine operation itself (1/a, 1/sqrt(a)): p bits;
//   N = 2     the machine seed, then two 2-limb steps (about 4p bits, capped
//             at the expansion's 2p);
//   N = 3, 4  the N = 2 result for a's two leading limbs (ceil(N/2) limbs,
//             about 2p bits), widened, then one N-limb step (about 4p bits).
//
// A final Karp-Markstein-style correction in div() and sqrt() fuses the last
// refinement with the multiplication by the dividend / radicand, fixing the
// trailing bits at the cost of one extra multiply-add. At N <= 2 there is no
// narrower width to iterate at, so N = 2 is plain full-width iteration.
//
// The schedule is validated against the exact BigFloat oracle within
// Np - N - 4 bits (tests/divsqrt_test.cpp, CHECK_conformance.json);
// bench/ablation_divsqrt compares it with full-width iteration.
//
// Every entry point here, operators included, is MF_ALWAYS_INLINE: see
// eft.hpp for why the operator surface must inline.

#include <cmath>

#include "add.hpp"
#include "mul.hpp"
#include "multifloat.hpp"

namespace mf {
namespace detail {

/// x/2 limb by limb. The product with 1/2 is the same correctly rounded
/// result as ldexp(x, -1), without a libm call per limb.
template <FloatingPoint T, int N>
[[nodiscard]] MF_ALWAYS_INLINE MultiFloat<T, N> half(const MultiFloat<T, N>& x) noexcept {
    MultiFloat<T, N> r;
    for (int i = 0; i < N; ++i) r.limb[i] = x.limb[i] * T(0.5);
    return r;
}

}  // namespace detail

/// Reciprocal 1/a of an expansion, full target precision.
template <FloatingPoint T, int N>
[[nodiscard]] MF_ALWAYS_INLINE MultiFloat<T, N> recip(const MultiFloat<T, N>& a) noexcept {
    if constexpr (N == 1) {
        return MultiFloat<T, 1>(T(1) / a.limb[0]);
    } else {
        const MultiFloat<T, N> one(T(1));
        MultiFloat<T, N> r;
        if constexpr (N == 2) {
            r = MultiFloat<T, 2>(T(1) / a.limb[0]);
            r = r + r * (one - a * r);
        } else {
            r = recip(a.template resize<(N + 1) / 2>()).template resize<N>();
        }
        return r + r * (one - a * r);
    }
}

/// Quotient b/a with a Karp-Markstein correction step.
template <FloatingPoint T, int N>
[[nodiscard]] MF_ALWAYS_INLINE MultiFloat<T, N> div(const MultiFloat<T, N>& b,
                                                    const MultiFloat<T, N>& a) noexcept {
    if constexpr (N == 1) {
        return MultiFloat<T, 1>(b.limb[0] / a.limb[0]);
    } else {
        const MultiFloat<T, N> r = recip(a);
        MultiFloat<T, N> q = b * r;
        q = q + r * (b - a * q);  // correction: fixes the trailing bits
        return q;
    }
}

/// Inverse square root 1/sqrt(a) for a > 0.
template <FloatingPoint T, int N>
[[nodiscard]] MF_ALWAYS_INLINE MultiFloat<T, N> rsqrt(const MultiFloat<T, N>& a) noexcept {
    if constexpr (N == 1) {
        return MultiFloat<T, 1>(T(1) / std::sqrt(a.limb[0]));
    } else {
        const MultiFloat<T, N> one(T(1));
        MultiFloat<T, N> r;
        if constexpr (N == 2) {
            r = MultiFloat<T, 2>(T(1) / std::sqrt(a.limb[0]));
            r = r + detail::half(r * (one - a * (r * r)));
        } else {
            r = rsqrt(a.template resize<(N + 1) / 2>()).template resize<N>();
        }
        return r + detail::half(r * (one - a * (r * r)));
    }
}

/// Square root for a >= 0 (a == 0 returns 0; negative a yields NaN limbs,
/// matching the base type's sqrt semantics).
template <FloatingPoint T, int N>
[[nodiscard]] MF_ALWAYS_INLINE MultiFloat<T, N> sqrt(const MultiFloat<T, N>& a) noexcept {
    if constexpr (N == 1) {
        return MultiFloat<T, 1>(std::sqrt(a.limb[0]));
    } else {
        if (a.is_zero()) return MultiFloat<T, N>(std::sqrt(a.limb[0]));
        const MultiFloat<T, N> r = rsqrt(a);
        MultiFloat<T, N> s = a * r;
        // Karp-Markstein correction: s <- s + (r/2) * (a - s^2).
        s = s + detail::half(r) * (a - s * s);
        return s;
    }
}

template <FloatingPoint T, int N>
[[nodiscard]] MF_ALWAYS_INLINE MultiFloat<T, N> operator/(const MultiFloat<T, N>& b,
                                                          const MultiFloat<T, N>& a) noexcept {
    return div(b, a);
}

template <FloatingPoint T, int N>
[[nodiscard]] MF_ALWAYS_INLINE MultiFloat<T, N> operator/(const MultiFloat<T, N>& b, T a) noexcept {
    return div(b, MultiFloat<T, N>(a));
}

template <FloatingPoint T, int N>
[[nodiscard]] MF_ALWAYS_INLINE MultiFloat<T, N> operator/(T b, const MultiFloat<T, N>& a) noexcept {
    return div(MultiFloat<T, N>(b), a);
}

template <FloatingPoint T, int N>
MF_ALWAYS_INLINE MultiFloat<T, N>& operator/=(MultiFloat<T, N>& x,
                                              const MultiFloat<T, N>& y) noexcept {
    x = div(x, y);
    return x;
}

template <FloatingPoint T, int N>
MF_ALWAYS_INLINE MultiFloat<T, N>& operator/=(MultiFloat<T, N>& x, T y) noexcept {
    x = x / y;
    return x;
}

}  // namespace mf
