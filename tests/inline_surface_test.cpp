// The arithmetic operators and recip/div/rsqrt/sqrt are force-inlined
// (eft.hpp, MF_ALWAYS_INLINE), so user loops written with them reach the
// loop vectorizer. DESIGN.md §6 records a GCC optimizer that changed values
// of an inlined FPAN; this test guards the inlined surface against the same
// hazard. Each loop below is written as user code would write it, over
// ragged lengths that exercise the vector body and its scalar epilogue, and
// must be bit-identical to element-wise calls through out-of-line wrappers.

#include <gtest/gtest.h>

#include <cstring>
#include <random>
#include <vector>

#include "support.hpp"

namespace {

using namespace mf;

template <typename MF>
[[gnu::noinline]] MF mul_call(const MF& x, const MF& y) {
    return mul(x, y);
}

template <typename MF>
[[gnu::noinline]] MF sub_call(const MF& x, const MF& y) {
    return sub(x, y);
}

template <typename MF>
[[gnu::noinline]] MF div_call(const MF& x, const MF& y) {
    return div(x, y);
}

template <typename MF>
[[gnu::noinline]] MF sqrt_call(const MF& x) {
    return mf::sqrt(x);
}

/// Launder a length through a volatile so loops cannot specialize on it.
std::size_t runtime_size(std::size_t n) {
    volatile std::size_t v = n;
    return v;
}

template <typename MF>
bool same_bits(const MF& a, const MF& b) {
    return std::memcmp(a.limb.data(), b.limb.data(), sizeof(a.limb)) == 0;
}

template <typename MF>
class InlineSurface : public ::testing::Test {};

using Types = ::testing::Types<MultiFloat<double, 2>, MultiFloat<double, 3>,
                               MultiFloat<double, 4>, MultiFloat<float, 2>,
                               MultiFloat<float, 3>, MultiFloat<float, 4>>;
TYPED_TEST_SUITE(InlineSurface, Types);

TYPED_TEST(InlineSurface, VectorizableLoopsMatchOutOfLineCalls) {
    using MF = TypeParam;
    using T = typename MF::value_type;
    constexpr int N = MF::num_limbs;
    std::mt19937_64 rng(31 + N + std::numeric_limits<T>::digits);
    for (const std::size_t len : {1, 7, 8, 9, 33, 100}) {
        const std::size_t n = runtime_size(len);
        std::vector<MF> x(n), y(n), z0(n);
        for (std::size_t i = 0; i < n; ++i) {
            x[i] = abs(mf::test::adversarial<T, N>(rng, -10, 10));
            y[i] = mf::test::adversarial<T, N>(rng, -10, 10);
            z0[i] = mf::test::adversarial<T, N>(rng, -10, 10);
            if (x[i].is_zero()) x[i] = MF(T(3));
            if (y[i].is_zero()) y[i] = MF(T(-5));
        }
        const MF a = mf::test::adversarial<T, N>(rng, -4, 4);

        std::vector<MF> prod(n), axpy(z0), quot(n), root(n);
        for (std::size_t i = 0; i < n; ++i) prod[i] = x[i] * y[i];
        for (std::size_t i = 0; i < n; ++i) axpy[i] -= a * x[i];
        for (std::size_t i = 0; i < n; ++i) quot[i] = x[i] / y[i];
        for (std::size_t i = 0; i < n; ++i) root[i] = mf::sqrt(x[i]);

        for (std::size_t i = 0; i < n; ++i) {
            EXPECT_TRUE(same_bits(prod[i], mul_call(x[i], y[i]))) << "mul n=" << n << " i=" << i;
            EXPECT_TRUE(same_bits(axpy[i], sub_call(z0[i], mul_call(a, x[i]))))
                << "sub n=" << n << " i=" << i;
            EXPECT_TRUE(same_bits(quot[i], div_call(x[i], y[i]))) << "div n=" << n << " i=" << i;
            EXPECT_TRUE(same_bits(root[i], sqrt_call(x[i]))) << "sqrt n=" << n << " i=" << i;
        }
    }
}

}  // namespace
