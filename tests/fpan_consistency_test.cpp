// The add/mul kernels in mf/ run the compile-time gate tables of
// mf/networks.hpp; fpan/library.cpp copies the same tables, the mixed
// expansion-scalar ones included, into Network data. Here the independent executor (textbook gate bodies, one gate at a
// time) runs each copy on the kernels' inputs, and the results must agree
// bit for bit: a fault in the compile-time runner, in the kernels' wire
// loading or in the copy would show as a mismatch.

#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <span>
#include <vector>

#include "fpan/executor.hpp"
#include "fpan/library.hpp"
#include "support.hpp"

namespace {

using namespace mf;
using namespace mf::fpan;
using mf::test::adversarial;

template <typename T, int N>
void check_add_consistency(std::uint64_t seed, int iters) {
    const Network net = make_add_network(N);
    std::mt19937_64 rng(seed);
    for (int t = 0; t < iters; ++t) {
        const auto x = adversarial<T, N>(rng);
        const auto y = (t % 4 == 1) ? mf::test::cancellation_partner(x, rng)
                                    : adversarial<T, N>(rng);
        T w[2 * N];
        for (int i = 0; i < N; ++i) {
            w[2 * i] = x.limb[i];
            w[2 * i + 1] = y.limb[i];
        }
        execute(net, std::span<T>(w, 2 * N));
        const auto z = add(x, y);
        for (int k = 0; k < N; ++k) {
            ASSERT_EQ(w[net.outputs[static_cast<std::size_t>(k)]], z.limb[k])
                << "N=" << N << " case " << t << " limb " << k;
        }
    }
}

template <typename T, int N>
void check_mul_consistency(std::uint64_t seed, int iters) {
    const Network net = make_mul_network(N);
    const auto labels = mul_network_labels(N);
    std::mt19937_64 rng(seed);
    for (int t = 0; t < iters; ++t) {
        const auto x = adversarial<T, N>(rng, -12, 12);
        const auto y = adversarial<T, N>(rng, -12, 12);
        std::vector<T> w(labels.size());
        for (std::size_t k = 0; k < labels.size(); ++k) {
            const auto i = static_cast<std::size_t>(labels[k][1] - '0');
            const auto j = static_cast<std::size_t>(labels[k][2] - '0');
            if (labels[k][0] == 'p') {
                w[k] = x.limb[i] * y.limb[j];
            } else {
                w[k] = std::fma(x.limb[i], y.limb[j], -(x.limb[i] * y.limb[j]));
            }
        }
        execute(net, std::span<T>(w));
        const auto z = mul(x, y);
        for (int k = 0; k < N; ++k) {
            ASSERT_EQ(w[static_cast<std::size_t>(net.outputs[static_cast<std::size_t>(k)])],
                      z.limb[k])
                << "N=" << N << " case " << t << " limb " << k;
        }
    }
}

/// A scalar operand for x: a random magnitude near or far from x's limbs,
/// or (one case in four) a nudged -x0, which cancels x's leading limb.
template <typename T, int N>
T scalar_operand(const MultiFloat<T, N>& x, std::mt19937_64& rng, int t) {
    if (t % 4 == 1) return std::nextafter(-x.limb[0], rng() % 2 ? T(1) : T(-1));
    const auto x0 = static_cast<double>(x.limb[0]);
    const double s = std::ldexp(std::uniform_real_distribution<double>(1.0, 2.0)(rng),
                                std::ilogb(x0 == 0.0 ? 1.0 : x0) +
                                    static_cast<int>(rng() % 80) - 60);
    return static_cast<T>(rng() % 2 ? s : -s);
}

template <typename T, int N>
void check_add_scalar_consistency(std::uint64_t seed, int iters) {
    const Network net = make_add_scalar_network(N);
    std::mt19937_64 rng(seed);
    for (int t = 0; t < iters; ++t) {
        const auto x = adversarial<T, N>(rng);
        const T y = scalar_operand(x, rng, t);
        T w[N + 1];
        for (int i = 0; i < N; ++i) w[i] = x.limb[i];
        w[N] = y;
        execute(net, std::span<T>(w, N + 1));
        const auto z = add(x, y);
        for (int k = 0; k < N; ++k) {
            ASSERT_EQ(w[net.outputs[static_cast<std::size_t>(k)]], z.limb[k])
                << "N=" << N << " case " << t << " limb " << k;
        }
    }
}

template <typename T, int N>
void check_mul_scalar_consistency(std::uint64_t seed, int iters) {
    const Network net = make_mul_scalar_network(N);
    std::mt19937_64 rng(seed);
    for (int t = 0; t < iters; ++t) {
        const auto x = adversarial<T, N>(rng, -12, 12);
        const T y = scalar_operand(x, rng, t);
        // [p0, p1, e0, p2, e1, ..., p_{N-1}, e_{N-2}] from TwoProd(x_i, y).
        T w[2 * N - 1];
        for (int i = 0; i < N; ++i) {
            const T prod = x.limb[i] * y;
            w[i == 0 ? 0 : 2 * i - 1] = prod;
            if (i < N - 1) w[2 * i + 2] = std::fma(x.limb[i], y, -prod);
        }
        execute(net, std::span<T>(w, 2 * N - 1));
        const auto z = mul(x, y);
        for (int k = 0; k < N; ++k) {
            ASSERT_EQ(w[net.outputs[static_cast<std::size_t>(k)]], z.limb[k])
                << "N=" << N << " case " << t << " limb " << k;
        }
    }
}

TEST(FpanConsistency, Add2) { check_add_consistency<double, 2>(11, 20000); }
TEST(FpanConsistency, Add3) { check_add_consistency<double, 3>(22, 20000); }
TEST(FpanConsistency, Add4) { check_add_consistency<double, 4>(33, 20000); }
TEST(FpanConsistency, Mul2) { check_mul_consistency<double, 2>(44, 20000); }
TEST(FpanConsistency, Mul3) { check_mul_consistency<double, 3>(55, 20000); }
TEST(FpanConsistency, Mul4) { check_mul_consistency<double, 4>(66, 20000); }
TEST(FpanConsistency, Add2Float) { check_add_consistency<float, 2>(111, 20000); }
TEST(FpanConsistency, Add3Float) { check_add_consistency<float, 3>(122, 20000); }
TEST(FpanConsistency, Add4Float) { check_add_consistency<float, 4>(133, 20000); }
TEST(FpanConsistency, Mul2Float) { check_mul_consistency<float, 2>(144, 20000); }
TEST(FpanConsistency, Mul3Float) { check_mul_consistency<float, 3>(155, 20000); }
TEST(FpanConsistency, Mul4Float) { check_mul_consistency<float, 4>(166, 20000); }

TEST(FpanConsistency, AddScalar2) { check_add_scalar_consistency<double, 2>(211, 20000); }
TEST(FpanConsistency, AddScalar3) { check_add_scalar_consistency<double, 3>(222, 20000); }
TEST(FpanConsistency, AddScalar4) { check_add_scalar_consistency<double, 4>(233, 20000); }
TEST(FpanConsistency, MulScalar2) { check_mul_scalar_consistency<double, 2>(244, 20000); }
TEST(FpanConsistency, MulScalar3) { check_mul_scalar_consistency<double, 3>(255, 20000); }
TEST(FpanConsistency, MulScalar4) { check_mul_scalar_consistency<double, 4>(266, 20000); }
TEST(FpanConsistency, AddScalar3Float) { check_add_scalar_consistency<float, 3>(322, 20000); }
TEST(FpanConsistency, MulScalar3Float) { check_mul_scalar_consistency<float, 3>(355, 20000); }

TEST(FpanExecutor, RunsOverFloat) {
    // The executor is value-type generic: float wires behave like the
    // float-based kernels.
    const Network net = make_add_network(2);
    std::mt19937_64 rng(77);
    for (int t = 0; t < 5000; ++t) {
        const auto x = adversarial<float, 2>(rng);
        const auto y = adversarial<float, 2>(rng);
        float w[4] = {x.limb[0], y.limb[0], x.limb[1], y.limb[1]};
        execute(net, std::span<float>(w, 4));
        const auto z = add(x, y);
        EXPECT_EQ(w[net.outputs[0]], z.limb[0]);
        EXPECT_EQ(w[net.outputs[1]], z.limb[1]);
    }
}

TEST(FpanExecutor, AddGateDiscardsAndKillsWire) {
    Network n;
    n.num_wires = 2;
    n.gates = {{GateKind::Add, 0, 1}};
    n.outputs = {0};
    double w[2] = {1.0, 0x1p-80};
    execute(n, std::span<double>(w, 2));
    EXPECT_EQ(w[0], 1.0);  // rounding discarded the tiny addend
    EXPECT_EQ(w[1], 0.0);  // dead wire zeroed
}

}  // namespace
