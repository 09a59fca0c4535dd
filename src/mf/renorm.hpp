#pragma once
// Branch-free renormalization passes over fixed-size arrays of limbs.
//
// These are the "sweep" building blocks from which our accumulation networks
// are assembled:
//
//  * distill_pass:  bottom-up chain of TwoSum gates. After the pass, v[lo]
//    holds the (chained-)rounded sum of v[lo..hi] and the rounding errors are
//    redistributed into v[lo+1..hi]. Safe for any input magnitudes.
//
//  * renorm_pass:   top-down chain of FastTwoSum gates. Requires each v[i]
//    to dominate v[i+1] (up to a few ulps), which holds after distillation;
//    tightens the expansion toward the strict nonoverlapping invariant.
//
// All loops below have compile-time trip counts and unroll completely; the
// generated code is straight-line with no branches.

#include <cstddef>

#include "eft.hpp"

namespace mf {
namespace detail {

/// Bottom-up TwoSum distillation over v[lo..hi] (inclusive).
template <FloatingPoint T, std::size_t K>
MF_ALWAYS_INLINE constexpr void distill_pass(T (&v)[K], int lo, int hi) noexcept {
#pragma GCC unroll 16
    for (int i = hi - 1; i >= lo; --i) {
        const auto [s, e] = two_sum(v[i], v[i + 1]);
        v[i] = s;
        v[i + 1] = e;
    }
}

/// Top-down FastTwoSum renormalization over v[lo..hi] (inclusive).
template <FloatingPoint T, std::size_t K>
MF_ALWAYS_INLINE constexpr void renorm_pass(T (&v)[K], int lo, int hi) noexcept {
#pragma GCC unroll 16
    for (int i = lo; i < hi; ++i) {
        const auto [s, e] = fast_two_sum(v[i], v[i + 1]);
        v[i] = s;
        v[i + 1] = e;
    }
}

/// Full accumulation network over K arbitrary-magnitude values: N bottom-up
/// distillation passes (pass j fixes v[j]) followed by `renorms` top-down
/// FastTwoSum passes over the leading N+1 slots. Returns with the result in
/// v[0..N-1].
///
/// This is the generic engine behind the 3- and 4-term networks; see
/// DESIGN.md for the relationship to the paper's (figure-only) FPANs and
/// fpan/library.cpp for the checkable mirror of each instantiation.
///
/// RENORMS = 1 is the verified default: with zero renorm passes the
/// exhaustive small-p checker finds rare 1-bit nonoverlap violations for
/// n = 3 (invisible to 400k randomized double-precision trials!), while one
/// pass survives 37M+ exhaustive cases; see tests/fpan_verify_test.cpp.
template <int N, int RENORMS = 1, FloatingPoint T, std::size_t K>
MF_ALWAYS_INLINE constexpr void accumulate(T (&v)[K]) noexcept {
    static_assert(N <= static_cast<int>(K));
    // No telemetry here: a counter inside the innermost network defeats
    // autovectorization of every scalar N >= 3 loop. Work is counted at the
    // BLAS call boundaries instead (mf_simd_kernel_ops_total).
#pragma GCC unroll 8
    for (int pass = 0; pass < N; ++pass) {
        distill_pass(v, pass, static_cast<int>(K) - 1);
    }
    constexpr int top = (N < static_cast<int>(K) - 1) ? N : static_cast<int>(K) - 1;
#pragma GCC unroll 4
    for (int r = 0; r < RENORMS; ++r) {
        renorm_pass(v, 0, top);
    }
}

}  // namespace detail
}  // namespace mf
