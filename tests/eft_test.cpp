// Error-free transformations: exactness of TwoSum / FastTwoSum / TwoProd for
// all input classes, verified against the exact BigFloat oracle.

#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "support.hpp"

namespace {

using mf::big::BigFloat;
using mf::fast_two_sum;
using mf::two_prod;
using mf::two_sum;

BigFloat bf(double x) { return BigFloat::from_double(x); }

TEST(TwoSum, SumIsCorrectlyRounded) {
    std::mt19937_64 rng(1);
    std::uniform_real_distribution<double> u(-1e10, 1e10);
    for (int i = 0; i < 20000; ++i) {
        const double a = u(rng);
        const double b = u(rng);
        const auto [s, e] = two_sum(a, b);
        EXPECT_EQ(s, a + b);
        // s + e == a + b exactly.
        EXPECT_EQ(BigFloat::cmp(bf(s) + bf(e), bf(a) + bf(b)), 0)
            << a << " + " << b;
    }
}

TEST(TwoSum, ExactAcrossExponentGaps) {
    std::mt19937_64 rng(2);
    std::uniform_real_distribution<double> u(1.0, 2.0);
    for (int gap = 0; gap <= 120; ++gap) {
        for (int rep = 0; rep < 50; ++rep) {
            const double a = u(rng) * (rng() % 2 ? 1 : -1);
            const double b = std::ldexp(u(rng) * (rng() % 2 ? 1 : -1), -gap);
            const auto [s, e] = two_sum(a, b);
            EXPECT_EQ(BigFloat::cmp(bf(s) + bf(e), bf(a) + bf(b)), 0)
                << "gap=" << gap;
        }
    }
}

TEST(TwoSum, IsCommutative) {
    std::mt19937_64 rng(3);
    std::uniform_real_distribution<double> u(-1.0, 1.0);
    for (int i = 0; i < 10000; ++i) {
        const double a = std::ldexp(u(rng), static_cast<int>(rng() % 40) - 20);
        const double b = std::ldexp(u(rng), static_cast<int>(rng() % 40) - 20);
        const auto [s1, e1] = two_sum(a, b);
        const auto [s2, e2] = two_sum(b, a);
        EXPECT_EQ(s1, s2);
        EXPECT_EQ(e1, e2);
    }
}

TEST(TwoSum, ZeroInputs) {
    const auto [s1, e1] = two_sum(0.0, 0.0);
    EXPECT_EQ(s1, 0.0);
    EXPECT_EQ(e1, 0.0);
    const auto [s2, e2] = two_sum(1.5, 0.0);
    EXPECT_EQ(s2, 1.5);
    EXPECT_EQ(e2, 0.0);
}

TEST(TwoSum, KnuthCancellationPattern) {
    // Classic demonstration pair: rounding error equals the low operand.
    const double a = 1.0;
    const double b = 0x1p-53 + 0x1p-105;
    const auto [s, e] = two_sum(a, b);
    EXPECT_EQ(BigFloat::cmp(bf(s) + bf(e), bf(a) + bf(b)), 0);
    EXPECT_NE(e, 0.0);  // the error term is genuinely needed here
}

TEST(FastTwoSum, ExactWhenOrdered) {
    std::mt19937_64 rng(4);
    std::uniform_real_distribution<double> u(1.0, 2.0);
    for (int gap = 0; gap <= 120; ++gap) {
        for (int rep = 0; rep < 50; ++rep) {
            const double a = u(rng) * (rng() % 2 ? 1 : -1);
            const double b = std::ldexp(u(rng) * (rng() % 2 ? 1 : -1), -gap);
            // exponent(a) >= exponent(b): precondition satisfied.
            const auto [s, e] = fast_two_sum(a, b);
            EXPECT_EQ(s, a + b);
            EXPECT_EQ(BigFloat::cmp(bf(s) + bf(e), bf(a) + bf(b)), 0)
                << "gap=" << gap;
        }
    }
}

TEST(FastTwoSum, ZeroOperands) {
    const auto [s1, e1] = fast_two_sum(0.0, 3.25);  // a == 0 allowed
    EXPECT_EQ(s1, 3.25);
    EXPECT_EQ(e1, 0.0);
    const auto [s2, e2] = fast_two_sum(3.25, 0.0);
    EXPECT_EQ(s2, 3.25);
    EXPECT_EQ(e2, 0.0);
}

TEST(FastTwoSum, AgreesWithTwoSumWhenOrdered) {
    std::mt19937_64 rng(5);
    std::uniform_real_distribution<double> u(1.0, 2.0);
    for (int i = 0; i < 20000; ++i) {
        double a = u(rng) * (rng() % 2 ? 1 : -1);
        double b = u(rng) * (rng() % 2 ? 1 : -1);
        if (std::fabs(b) > std::fabs(a)) std::swap(a, b);
        const auto [s1, e1] = two_sum(a, b);
        const auto [s2, e2] = fast_two_sum(a, b);
        EXPECT_EQ(s1, s2);
        EXPECT_EQ(e1, e2);
    }
}

TEST(TwoProd, ProductIsExact) {
    std::mt19937_64 rng(6);
    std::uniform_real_distribution<double> u(-1e5, 1e5);
    for (int i = 0; i < 20000; ++i) {
        const double a = u(rng);
        const double b = u(rng);
        const auto [p, e] = two_prod(a, b);
        EXPECT_EQ(p, a * b);
        EXPECT_EQ(BigFloat::cmp(bf(p) + bf(e), bf(a) * bf(b)), 0)
            << a << " * " << b;
    }
}

TEST(TwoProd, ExactForExactProducts) {
    // Products of small integers and powers of two round exactly: e == 0.
    const auto [p1, e1] = two_prod(3.0, 0.125);
    EXPECT_EQ(p1, 0.375);
    EXPECT_EQ(e1, 0.0);
    const auto [p2, e2] = two_prod(-0x1p30, 0x1p-40);
    EXPECT_EQ(p2, -0x1p-10);
    EXPECT_EQ(e2, 0.0);
}

TEST(TwoProd, DekkerHardCase) {
    // Full-width mantissas force a nonzero error term.
    const double a = 1.0 + 0x1p-52;
    const double b = 1.0 + 0x1p-52;
    const auto [p, e] = two_prod(a, b);
    EXPECT_EQ(BigFloat::cmp(bf(p) + bf(e), bf(a) * bf(b)), 0);
    EXPECT_NE(e, 0.0);
}

TEST(EftFloat, WorksAtSinglePrecision) {
    std::mt19937_64 rng(8);
    std::uniform_real_distribution<float> u(-1e4f, 1e4f);
    for (int i = 0; i < 20000; ++i) {
        const float a = u(rng);
        const float b = u(rng);
        const auto [s, e] = two_sum(a, b);
        EXPECT_EQ(BigFloat::cmp(bf(s) + bf(e), bf(a) + bf(b)), 0);
        const auto [p, f] = two_prod(a, b);
        EXPECT_EQ(BigFloat::cmp(bf(p) + bf(f), bf(a) * bf(b)), 0);
    }
}

}  // namespace
