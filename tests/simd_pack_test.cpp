// mf::simd::Pack: every backend's pack must be a lane-wise clone of the
// scalar IEEE arithmetic -- load/store/broadcast and AoS-transpose
// round-trips, the five arithmetic operations, and the EFT gates
// instantiated over packs must be bit-for-bit identical to the scalar
// results in every lane, including for
// special values (signed zeros, infinities, subnormals) and misaligned
// loads. Every build instantiates every width (simd::for_each_width): the
// widths the compiler enabled intrinsics for (see MF_SIMD_HAVE_* in
// pack.hpp) run them, the rest run the portable fallback, and the same
// assertions hold for both.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <string>
#include <type_traits>
#include <vector>

#include "simd/simd.hpp"
#include "telemetry/build_info.hpp"

namespace {

using mf::simd::for_each_width;
using mf::simd::Pack;

template <typename T>
using Bits = std::conditional_t<sizeof(T) == 8, std::uint64_t, std::uint32_t>;

template <typename T>
Bits<T> bits(T x) {
    return std::bit_cast<Bits<T>>(x);
}

/// Interesting scalar values: specials plus adversarially scaled randoms.
template <typename T>
std::vector<T> sample_values(std::size_t n, std::uint64_t seed) {
    std::vector<T> v = {T(0),
                        -T(0),
                        T(1),
                        T(-1),
                        std::numeric_limits<T>::infinity(),
                        -std::numeric_limits<T>::infinity(),
                        std::numeric_limits<T>::denorm_min(),
                        -std::numeric_limits<T>::denorm_min(),
                        std::numeric_limits<T>::min(),
                        std::numeric_limits<T>::max() / T(4)};
    std::mt19937_64 rng(seed);
    std::uniform_real_distribution<T> u(T(-2), T(2));
    std::uniform_int_distribution<int> e(-40, 40);
    while (v.size() < n) v.push_back(std::ldexp(u(rng), e(rng)));
    return v;
}

template <typename T>
class PackTyped : public ::testing::Test {};

using BaseTypes = ::testing::Types<float, double>;
TYPED_TEST_SUITE(PackTyped, BaseTypes);

TYPED_TEST(PackTyped, LoadStoreBroadcastRoundTrip) {
    using T = TypeParam;
    for_each_width<T>([](auto w) {
        constexpr int W = w();
        using P = Pack<T, W>;
        static_assert(P::width == W);
        const auto vals = sample_values<T>(64, 100 + W);
        // Misaligned offsets 0..W-1 into the buffer.
        for (int off = 0; off < W; ++off) {
            for (std::size_t i = 0; off + i + W <= vals.size(); i += W) {
                const P p = P::load(vals.data() + off + i);
                T out[W];
                p.store(out);
                for (int j = 0; j < W; ++j) {
                    ASSERT_EQ(bits(out[j]), bits(vals[off + i + j])) << "W=" << W;
                    ASSERT_EQ(bits(p[j]), bits(vals[off + i + j])) << "W=" << W;
                }
            }
        }
        const P b = P::broadcast(T(1.5));
        for (int j = 0; j < W; ++j) ASSERT_EQ(b[j], T(1.5));
        const P z;  // default = all lanes zero
        for (int j = 0; j < W; ++j) ASSERT_EQ(bits(z[j]), bits(T(0)));
    });
}

TYPED_TEST(PackTyped, ArithmeticBitExactPerLane) {
    using T = TypeParam;
    for_each_width<T>([](auto w) {
        constexpr int W = w();
        using P = Pack<T, W>;
        const auto as = sample_values<T>(16 * W, 7);
        const auto bs = sample_values<T>(16 * W, 8);
        const auto cs = sample_values<T>(16 * W, 9);
        for (std::size_t i = 0; i + W <= as.size(); i += W) {
            const P a = P::load(as.data() + i);
            const P b = P::load(bs.data() + i);
            const P c = P::load(cs.data() + i);
            const P sum = a + b;
            const P dif = a - b;
            const P prd = a * b;
            const P neg = -a;
            const P fm = fma(a, b, c);
            for (int j = 0; j < W; ++j) {
                const T x = as[i + j];
                const T y = bs[i + j];
                const T z = cs[i + j];
                // NaN results (inf - inf etc.) compare by classification, not
                // payload: payload propagation is not pinned down by IEEE.
                const auto check = [&](T got, T want, const char* op) {
                    if (std::isnan(want)) {
                        ASSERT_TRUE(std::isnan(got)) << op << " W=" << W;
                    } else {
                        ASSERT_EQ(bits(got), bits(want)) << op << " W=" << W << " lane=" << j;
                    }
                };
                check(sum[j], x + y, "add");
                check(dif[j], x - y, "sub");
                check(prd[j], x * y, "mul");
                check(neg[j], -x, "neg");
                check(fm[j], std::fma(x, y, z), "fma");
            }
        }
    });
}

TYPED_TEST(PackTyped, EftGatesBitExactPerLane) {
    using T = TypeParam;
    for_each_width<T>([](auto w) {
        constexpr int W = w();
        using P = Pack<T, W>;
        // Finite values only: the gate algebra assumes no intermediate
        // overflow, exactly as for the scalar kernels.
        std::mt19937_64 rng(17);
        std::uniform_real_distribution<T> u(T(-2), T(2));
        std::uniform_int_distribution<int> e(-30, 30);
        for (int rep = 0; rep < 64; ++rep) {
            T xs[W], ys[W];
            for (int j = 0; j < W; ++j) {
                xs[j] = std::ldexp(u(rng), e(rng));
                ys[j] = std::ldexp(u(rng), e(rng));
            }
            const P x = P::load(xs);
            const P y = P::load(ys);
            const auto [s, err] = mf::two_sum(x, y);
            const auto [p, perr] = mf::two_prod(x, y);
            for (int j = 0; j < W; ++j) {
                const auto [ss, se] = mf::two_sum(xs[j], ys[j]);
                ASSERT_EQ(bits(s[j]), bits(ss)) << "two_sum W=" << W;
                ASSERT_EQ(bits(err[j]), bits(se)) << "two_sum err W=" << W;
                const auto [pp, pe] = mf::two_prod(xs[j], ys[j]);
                ASSERT_EQ(bits(p[j]), bits(pp)) << "two_prod W=" << W;
                ASSERT_EQ(bits(perr[j]), bits(pe)) << "two_prod err W=" << W;
            }
            // FastTwoSum needs |a| >= |b|: order the operands per lane first.
            T hs[W], ls[W];
            for (int j = 0; j < W; ++j) {
                hs[j] = std::abs(xs[j]) >= std::abs(ys[j]) ? xs[j] : ys[j];
                ls[j] = std::abs(xs[j]) >= std::abs(ys[j]) ? ys[j] : xs[j];
            }
            const auto [f, ferr] = mf::fast_two_sum(P::load(hs), P::load(ls));
            for (int j = 0; j < W; ++j) {
                const auto [fs, fe] = mf::fast_two_sum(hs[j], ls[j]);
                ASSERT_EQ(bits(f[j]), bits(fs)) << "fast_two_sum W=" << W;
                ASSERT_EQ(bits(ferr[j]), bits(fe)) << "fast_two_sum err W=" << W;
            }
        }
    });
}

/// Limb bit patterns an AoS transpose must carry through untouched: quiet
/// and signalling NaNs with payloads, signed zeros, subnormals, infinities,
/// then random bits up to n patterns.
template <typename T>
std::vector<Bits<T>> limb_patterns(std::mt19937_64& rng, std::size_t n) {
    using B = Bits<T>;
    constexpr int mant = std::numeric_limits<T>::digits - 1;
    constexpr B sign = B(1) << (8 * sizeof(T) - 1);
    constexpr B inf = (sign - 1) & ~((B(1) << mant) - 1);
    constexpr B quiet = B(1) << (mant - 1);
    std::vector<B> v = {inf | quiet | B(5),         // quiet NaN, payload 5
                        sign | inf | quiet | B(42),  // negative quiet NaN
                        inf | B(1),                  // signalling NaN, payload 1
                        sign | inf | (quiet - 1),    // signalling NaN, full payload
                        inf,
                        sign | inf,
                        sign,                        // -0.0
                        B(0),
                        B(1),                        // denorm_min
                        sign | (quiet | B(3)),       // negative subnormal
                        (B(1) << mant) - 1};         // largest subnormal
    while (v.size() < n) v.push_back(static_cast<B>(rng()));
    return v;
}

/// W N-limb elements through kernels::load_aos then kernels::store_aos, at
/// a base one element past the start of their arrays: every loaded lane is
/// its element's limb, the stored elements reproduce every source bit, and
/// the guard elements on both sides of the W stored ones keep theirs.
template <typename T, int W, int N>
void aos_round_trip(std::mt19937_64& rng) {
    using P = Pack<T, W>;
    using E = mf::MultiFloat<T, N>;
    constexpr std::size_t guard = 2;
    const auto pool = limb_patterns<T>(rng, 64);
    const auto pick = [&] { return std::bit_cast<T>(pool[rng() % pool.size()]); };
    const T guard_limb = std::bit_cast<T>(static_cast<Bits<T>>(0x5a5a5a5a5a5a5a5aull));
    for (int rep = 0; rep < 16; ++rep) {
        std::vector<E> src(1 + W + guard);
        std::vector<E> dst(1 + W + guard);
        for (E& e : src) {
            for (int k = 0; k < N; ++k) e.limb[k] = pick();
        }
        for (E& e : dst) {
            for (int k = 0; k < N; ++k) e.limb[k] = guard_limb;
        }
        const mf::MultiFloat<P, N> m = mf::simd::kernels::load_aos<P, T, N>(src.data() + 1);
        for (int j = 0; j < W; ++j) {
            for (int k = 0; k < N; ++k) {
                ASSERT_EQ(bits(m.limb[k][j]), bits(src[1 + j].limb[k]))
                    << "load W=" << W << " N=" << N << " lane=" << j << " limb=" << k;
            }
        }
        mf::simd::kernels::store_aos<P, T, N>(m, dst.data() + 1);
        for (std::size_t i = 0; i < dst.size(); ++i) {
            const bool stored = i >= 1 && i < 1 + W;
            for (int k = 0; k < N; ++k) {
                ASSERT_EQ(bits(dst[i].limb[k]), stored ? bits(src[i].limb[k]) : bits(guard_limb))
                    << "store W=" << W << " N=" << N << " element=" << i << " limb=" << k;
            }
        }
    }
}

// The AoS transposes (simd::load_aos / store_aos) at every width and
// N = 1..4: an in-register permute with a wrong lane index shows up here as
// a misplaced bit pattern.
TYPED_TEST(PackTyped, AosTransposeRoundTripEveryBit) {
    using T = TypeParam;
    std::mt19937_64 rng(31);
    for_each_width<T>([&](auto w) {
        constexpr int W = w();
        aos_round_trip<T, W, 1>(rng);
        aos_round_trip<T, W, 2>(rng);
        aos_round_trip<T, W, 3>(rng);
        aos_round_trip<T, W, 4>(rng);
    });
}

// The pack width is a build constant: the widest ISA the target macros
// enable. At that width Pack must be the intrinsic specialization -- one
// register, aligned to all of its bytes -- and never the lane-loop template,
// which runs the packed GEMM up to 7x slower (EXPERIMENTS.md).
TEST(NativeWidth, MatchesTargetIsaAndIntrinsicPack) {
    using namespace mf::simd;
#if defined(__AVX512F__)
    constexpr int bytes = 64;
    const std::string isa = "avx512";
#elif defined(__AVX2__)
    constexpr int bytes = 32;
    const std::string isa = "avx2";
#elif defined(__SSE2__)
    constexpr int bytes = 16;
    const std::string isa = "sse2";
#elif defined(__aarch64__)
    constexpr int bytes = 16;
    const std::string isa = "neon";
#else
    constexpr int bytes = 0;
    const std::string isa = "scalar";
#endif
    EXPECT_EQ(native_bytes, bytes);
    EXPECT_EQ(native_isa, isa);
    EXPECT_EQ(mf::telemetry::build_info().backend, isa);
    EXPECT_EQ(native_width<double>, bytes == 0 ? 1 : bytes / 8);
    EXPECT_EQ(native_width<float>, bytes == 0 ? 1 : bytes / 4);
    EXPECT_EQ(active_width<double>(), native_width<double>);
    EXPECT_EQ(active_width<float>(), native_width<float>);
    if constexpr (bytes > 0) {
        EXPECT_EQ(alignof(Pack<double, native_width<double>>), std::size_t{bytes});
        EXPECT_EQ(alignof(Pack<float, native_width<float>>), std::size_t{bytes});
    }
}

}  // namespace
