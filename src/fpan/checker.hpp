#pragma once
// Empirical FPAN verifier.
//
// The paper proves network correctness for ALL inputs with an SMT encoding
// (Ref. [53]); offline we substitute two complementary procedures:
//
//  * Exhaustive small-p verification: enumerate EVERY pair of nonoverlapping
//    p-bit input expansions within an exponent window (exploiting the scale
//    invariance of FPANs to pin the leading exponent of x) and check the
//    nonoverlap + error-bound contract on each. This covers the full
//    combinatorial space of rounding-error patterns at that p -- the same
//    case explosion the SMT proof reasons about -- and the algorithms are
//    p-generic by construction.
//
//  * Large randomized/adversarial campaigns at machine precision against the
//    exact BigFloat oracle.
//
// Both report the worst observed relative error (as log2) and the worst
// nonoverlap violation, so they double as measurement tools for the paper's
// per-figure error bounds.

#include <cstdint>
#include <string>

#include "network.hpp"

namespace mf::fpan {

struct CheckResult {
    bool pass = true;
    long long cases = 0;
    /// log2 of the worst |result - exact| / |exact| seen (-inf if all exact).
    double worst_err_log2 = -1e9;
    /// Worst violation of the nonoverlap invariant, in bits (0 = none).
    int worst_overlap_bits = 0;
    std::string note;
};

/// Error bound exponent the paper claims for an n-term addition/multiplication
/// network at precision p (Figures 2-7): add2 2p-1, mul2 2p-3, and np-n for
/// the rest.
[[nodiscard]] int paper_add_bound_bits(int n, int p);
[[nodiscard]] int paper_mul_bound_bits(int n, int p);

/// Randomized check of an addition network (wires [x0, y0, x1, y1, ...]) at
/// double precision against the BigFloat oracle. Inputs include adversarial
/// cancellation cases. Fails if any case exceeds 2^-bound_bits relative error
/// or violates nonoverlap. Stops at the first failure.
[[nodiscard]] CheckResult check_add_random(const Network& net, int n, long long trials,
                                           std::uint64_t seed, int bound_bits);

/// Like check_add_random but never stops early: always runs all trials and
/// reports the worst error/overlap observed. This continuous signal is what
/// the annealing search optimizes (a pass/fail bit has no gradient).
[[nodiscard]] CheckResult measure_add_random(const Network& net, int n, long long trials,
                                             std::uint64_t seed, int bound_bits);

/// Randomized check of a multiplication accumulation network. The checker
/// performs the TwoProd expansion step per mul_network_labels(n) layout.
[[nodiscard]] CheckResult check_mul_random(const Network& net, int n, long long trials,
                                           std::uint64_t seed, int bound_bits);

/// Exhaustive check of an addition network at small precision p: every
/// nonoverlapping n-term expansion pair with x's leading exponent fixed at 0
/// (scale invariance), y's leading exponent in [-y_exp_range, +y_exp_range],
/// and tails extending tail_depth extra exponent slots below the minimum.
/// Practical for n = 2 with p <= 4.
[[nodiscard]] CheckResult check_add_exhaustive(const Network& net, int n, int p,
                                               int y_exp_range, int tail_depth);

/// Exhaustive check of a multiplication accumulation network at small p
/// (n = 2 practical).
[[nodiscard]] CheckResult check_mul_exhaustive(const Network& net, int n, int p,
                                               int y_exp_range, int tail_depth);

/// Exhaustive checks of the mixed expansion-scalar networks at small p
/// (make_add_scalar_network / make_mul_scalar_network wire layouts): every
/// n-term x enumerated as in check_add_exhaustive against every p-bit
/// scalar y, zero included, with exponent in [-y_exp_range, +y_exp_range].
/// The bounds are the full networks' (paper_add_bound_bits,
/// paper_mul_bound_bits).
[[nodiscard]] CheckResult check_add_scalar_exhaustive(const Network& net, int n, int p,
                                                      int y_exp_range, int tail_depth);
[[nodiscard]] CheckResult check_mul_scalar_exhaustive(const Network& net, int n, int p,
                                                      int y_exp_range, int tail_depth);

}  // namespace mf::fpan
