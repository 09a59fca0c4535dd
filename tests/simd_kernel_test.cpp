// Pack-level FPAN kernels at every pack width W in {1, 2, 4, 8, 16} with
// W * sizeof(T) <= 64, in every build: each must be bit-for-bit identical to
// the scalar mf::add / mf::mul kernels on the elementwise paths -- including
// empty, sub-width, and W+-1 tail sizes and misaligned range starts -- and
// the reductions must match the scalar loop with max(8, W) accumulators
// (the historical eight-accumulator order for widths <= 8); the row-blocked
// gemv_aos must match one dot_aos per row. Mirrors tests/planar_test.cpp on
// the explicit SIMD path.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <type_traits>
#include <utility>
#include <vector>

#include "blas/kernels.hpp"
#include "blas/planar.hpp"
#include "simd/simd.hpp"
#include "support.hpp"

namespace {

using namespace mf;
using mf::big::BigFloat;
using mf::test::adversarial;
using mf::test::exact;

template <typename T>
using Bits = std::conditional_t<sizeof(T) == 8, std::uint64_t, std::uint32_t>;

template <typename T>
Bits<T> bits(T x) {
    return std::bit_cast<Bits<T>>(x);
}

template <typename MF>
class SimdKernelTyped : public ::testing::Test {};

using Types = ::testing::Types<MultiFloat<double, 2>, MultiFloat<double, 3>,
                               MultiFloat<double, 4>, MultiFloat<float, 2>,
                               MultiFloat<float, 4>>;
TYPED_TEST_SUITE(SimdKernelTyped, Types);

/// Fill planar + reference AoS vectors with adversarial expansions.
template <typename T, int N>
void fill(std::mt19937_64& rng, std::size_t n, planar::Vector<T, N>& v,
          std::vector<MultiFloat<T, N>>& ref) {
    v.resize(n);
    ref.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
        ref[i] = adversarial<T, N>(rng, -6, 6);
        v.set(i, ref[i]);
    }
}

TYPED_TEST(SimdKernelTyped, AddRangeEveryWidthBitExact) {
    using T = typename TypeParam::value_type;
    constexpr int N = TypeParam::num_limbs;
    std::mt19937_64 rng(21);
    simd::for_each_width<T>([&](auto w) {
        constexpr int W = w();
        for (std::size_t n : {std::size_t(0), std::size_t(1), std::size_t(W - 1),
                              std::size_t(W), std::size_t(W + 1),
                              std::size_t(2 * W + 3), std::size_t(257)}) {
            planar::Vector<T, N> x, y, z;
            std::vector<TypeParam> xa, ya;
            fill(rng, n, x, xa);
            fill(rng, n, y, ya);
            z.resize(n);
            const T* xp[N];
            const T* yp[N];
            T* zp[N];
            for (int k = 0; k < N; ++k) {
                xp[k] = x.plane(k);
                yp[k] = y.plane(k);
                zp[k] = z.plane(k);
            }
            // Misaligned start: begin at element 1 when there is one.
            const std::size_t i0 = n > 4 ? 1 : 0;
            simd::add_range<T, N, W>(xp, yp, zp, i0, n);
            for (std::size_t i = i0; i < n; ++i) {
                const TypeParam want = add(xa[i], ya[i]);
                const TypeParam got = z.get(i);
                for (int k = 0; k < N; ++k) {
                    ASSERT_EQ(bits(got.limb[k]), bits(want.limb[k]))
                        << "W=" << W << " n=" << n << " i=" << i;
                }
            }
        }
    });
}

TYPED_TEST(SimdKernelTyped, FmaRangeEveryWidthBitExact) {
    using T = typename TypeParam::value_type;
    constexpr int N = TypeParam::num_limbs;
    std::mt19937_64 rng(22);
    simd::for_each_width<T>([&](auto w) {
        constexpr int W = w();
        const TypeParam alpha = adversarial<T, N>(rng, -2, 2);
        for (std::size_t n : {std::size_t(0), std::size_t(1), std::size_t(W - 1),
                              std::size_t(W), std::size_t(W + 1),
                              std::size_t(3 * W + 1), std::size_t(129)}) {
            planar::Vector<T, N> x, y;
            std::vector<TypeParam> xa, ya;
            fill(rng, n, x, xa);
            fill(rng, n, y, ya);
            const T* xp[N];
            T* yp[N];
            for (int k = 0; k < N; ++k) {
                xp[k] = x.plane(k);
                yp[k] = y.plane(k);
            }
            simd::fma_range<T, N, W>(alpha, xp, yp, 0, n);
            for (std::size_t i = 0; i < n; ++i) {
                const TypeParam want = add(mul(alpha, xa[i]), ya[i]);
                const TypeParam got = y.get(i);
                for (int k = 0; k < N; ++k) {
                    ASSERT_EQ(bits(got.limb[k]), bits(want.limb[k]))
                        << "W=" << W << " n=" << n << " i=" << i;
                }
            }
        }
    });
}

/// Reference for the reduction, written out scalar: K accumulators, K =
/// max(8, W). K = 8 is the historical eight-accumulator planar dot (seed
/// planar.hpp).
template <std::size_t K, typename T, int N>
MultiFloat<T, N> dot_ref(const std::vector<MultiFloat<T, N>>& x,
                         const std::vector<MultiFloat<T, N>>& y) {
    const std::size_t n = x.size();
    MultiFloat<T, N> part[K]{};
    for (std::size_t blk = 0; blk + K <= n; blk += K) {
        for (std::size_t j = 0; j < K; ++j) {
            part[j] = add(part[j], mul(x[blk + j], y[blk + j]));
        }
    }
    MultiFloat<T, N> acc{};
    for (std::size_t j = 0; j < K; ++j) acc = add(acc, part[j]);
    for (std::size_t i = n - n % K; i < n; ++i) acc = add(acc, mul(x[i], y[i]));
    return acc;
}

TYPED_TEST(SimdKernelTyped, DotEveryWidthMatchesReference) {
    using T = typename TypeParam::value_type;
    constexpr int N = TypeParam::num_limbs;
    std::mt19937_64 rng(23);
    simd::for_each_width<T>([&](auto w) {
        constexpr int W = w();
        for (std::size_t n : {std::size_t(0), std::size_t(1), std::size_t(W + 1),
                              std::size_t(65), std::size_t(256)}) {
            planar::Vector<T, N> x, y;
            std::vector<TypeParam> xa, ya;
            fill(rng, n, x, xa);
            fill(rng, n, y, ya);
            const T* xp[N];
            const T* yp[N];
            for (int k = 0; k < N; ++k) {
                xp[k] = x.plane(k);
                yp[k] = y.plane(k);
            }
            const TypeParam got = simd::dot<T, N, W>(xp, yp, n);
            const TypeParam want = dot_ref<(W > 8 ? W : 8)>(xa, ya);
            for (int k = 0; k < N; ++k) {
                ASSERT_EQ(bits(got.limb[k]), bits(want.limb[k])) << "W=" << W << " n=" << n;
            }
            // AoS kernel: identical accumulator discipline, identical result.
            const TypeParam got_aos =
                simd::dot_aos<T, N, W>(xa.data(), ya.data(), n);
            for (int k = 0; k < N; ++k) {
                ASSERT_EQ(bits(got_aos.limb[k]), bits(got.limb[k])) << "W=" << W;
            }
        }
    });
}

/// A gemv operand: an adversarial expansion, subnormal tails included, or,
/// when `specials` is set, about one time in six a qNaN, +-Inf, -0.0 or a
/// subnormal lead.
template <typename T, int N>
MultiFloat<T, N> gemv_entry(std::mt19937_64& rng, bool specials) {
    using MF = MultiFloat<T, N>;
    using lim = std::numeric_limits<T>;
    switch (specials ? rng() % 30 : 30) {
        case 0: return MF(lim::quiet_NaN());
        case 1: return MF(lim::infinity());
        case 2: return MF(-lim::infinity());
        case 3: {
            MF z;
            for (int k = 0; k < N; ++k) z.limb[k] = T(-0.0);
            return z;
        }
        case 4: return MF(lim::denorm_min() * static_cast<T>(rng() % 1000 + 1));
        default: return adversarial<T, N>(rng, -6, 6, /*subnormals=*/true);
    }
}

/// simd::gemv_aos<T, N, W> at every width against one dot_aos<T, N, W> per
/// row, bit for bit, on strided rows (lda > cols, the padding holding qNaN)
/// and with the elements past y[rows) left untouched. Every third row, and
/// x at one row count per shape, carry specials. A NaN limb must be NaN on
/// both sides, whatever its sign and payload: the compiler may commute the
/// operands of an IEEE add, and x86 returns the first operand's NaN.
template <typename T, int N>
void gemv_aos_matches_row_dots(std::mt19937_64& rng) {
    using MF = MultiFloat<T, N>;
    simd::for_each_width<T>([&](auto w) {
        constexpr std::size_t W = w();
        constexpr std::size_t BLK = W > 8 ? W : 8;
        for (std::size_t rows : {std::size_t(0), std::size_t(1), W - 1, W, W + 1, 2 * W + 3}) {
            for (std::size_t cols : {std::size_t(0), std::size_t(1), std::size_t(7), BLK,
                                     BLK + 3, 3 * BLK + 5}) {
                const std::size_t lda = cols + 2;
                const MF pad(std::numeric_limits<T>::quiet_NaN());
                std::vector<MF> a(rows * lda, pad);
                for (std::size_t r = 0; r < rows; ++r) {
                    for (std::size_t j = 0; j < cols; ++j) {
                        a[r * lda + j] = gemv_entry<T, N>(rng, r % 3 == 2);
                    }
                }
                std::vector<MF> x(cols);
                for (MF& v : x) v = gemv_entry<T, N>(rng, rows == W + 1);
                const MF guard(T(-7.25));
                std::vector<MF> y(rows + 3, guard);
                simd::gemv_aos<T, N, static_cast<int>(W)>(a.data(), lda, rows, cols, x.data(),
                                                          y.data());
                for (std::size_t r = 0; r < rows + 3; ++r) {
                    const MF want =
                        r < rows ? simd::dot_aos<T, N, static_cast<int>(W)>(a.data() + r * lda,
                                                                            x.data(), cols)
                                 : guard;
                    for (int k = 0; k < N; ++k) {
                        if (std::isnan(want.limb[k])) {
                            ASSERT_TRUE(std::isnan(y[r].limb[k]))
                                << "N=" << N << " W=" << W << " rows=" << rows
                                << " cols=" << cols << " r=" << r << " limb " << k;
                            continue;
                        }
                        ASSERT_EQ(bits(y[r].limb[k]), bits(want.limb[k]))
                            << "N=" << N << " W=" << W << " rows=" << rows << " cols=" << cols
                            << " r=" << r << " limb " << k;
                    }
                }
            }
        }
    });
}

TYPED_TEST(SimdKernelTyped, GemvAosEveryWidthMatchesRowDots) {
    using T = typename TypeParam::value_type;
    constexpr int N = TypeParam::num_limbs;
    std::mt19937_64 rng(27);
    gemv_aos_matches_row_dots<T, N>(rng);
    // The type list has no N = 1 and no float N = 3: the N = 2 instances
    // also run N = 1, and the float N = 4 instance runs float N = 3.
    if constexpr (N == 2) gemv_aos_matches_row_dots<T, 1>(rng);
    if constexpr (std::is_same_v<T, float> && N == 4) gemv_aos_matches_row_dots<float, 3>(rng);
}

// The AoS axpy kernel at every width, and planar::axpy at the native width.
TYPED_TEST(SimdKernelTyped, DispatchedAxpyBitExactOnEveryBackend) {
    using T = typename TypeParam::value_type;
    constexpr int N = TypeParam::num_limbs;
    std::mt19937_64 rng(24);
    const std::size_t n = 173;
    planar::Vector<T, N> x, y;
    std::vector<TypeParam> xa, ya;
    fill(rng, n, x, xa);
    fill(rng, n, y, ya);
    const TypeParam alpha = adversarial<T, N>(rng, -2, 2);
    std::vector<TypeParam> want(n);
    for (std::size_t i = 0; i < n; ++i) want[i] = add(mul(alpha, xa[i]), ya[i]);
    simd::for_each_width<T>([&](auto w) {
        constexpr int W = w();
        std::vector<TypeParam> got = ya;
        simd::axpy_aos<T, N, W>(alpha, xa.data(), got.data(), n);
        for (std::size_t i = 0; i < n; ++i) {
            for (int k = 0; k < N; ++k) {
                ASSERT_EQ(bits(got[i].limb[k]), bits(want[i].limb[k]))
                    << "W=" << W << " i=" << i;
            }
        }
    });
    planar::axpy(alpha, x, y);
    for (std::size_t i = 0; i < n; ++i) {
        const TypeParam got = y.get(i);
        for (int k = 0; k < N; ++k) {
            ASSERT_EQ(bits(got.limb[k]), bits(want[i].limb[k])) << "planar i=" << i;
        }
    }
}

// The packed engine's cache blocks are its tiles: ragged blocks, unit
// blocks, and blocks larger than the problem must all reproduce the
// untiled ikj result exactly, at every pack width (the only engine coverage
// at float N = 4).
TYPED_TEST(SimdKernelTyped, TiledGemmBitIdenticalToPlanarGemm) {
    using T = typename TypeParam::value_type;
    constexpr int N = TypeParam::num_limbs;
    std::mt19937_64 rng(25);
    struct Shape {
        std::size_t n, k, m;
    };
    for (const Shape sh : {Shape{13, 11, 17}, Shape{2, 2, 2}}) {
        planar::Vector<T, N> a, b;
        std::vector<TypeParam> aa, ba;
        fill(rng, sh.n * sh.k, a, aa);
        fill(rng, sh.k * sh.m, b, ba);
        planar::Vector<T, N> want(sh.n * sh.m);
        planar::gemm(a, b, want, sh.n, sh.k, sh.m);
        simd::for_each_width<T>([&](auto w) {
            constexpr int W = w();
            for (const blas::BlockShape blocks :
                 {blas::BlockShape{4, 8, 3}, blas::BlockShape{1, 1, 1},
                  blas::BlockShape{64, 64, 512}, blas::BlockShape{13, 11, 17},
                  blas::BlockShape{1024, 1024, 1024}}) {
                planar::Vector<T, N> c(sh.n * sh.m);
                blas::GemmConfig cfg;
                cfg.blocks = blocks;
                blas::engine::detail::gemm<T, N, W>(
                    planar::matrix_view(std::as_const(a), sh.n, sh.k),
                    planar::matrix_view(std::as_const(b), sh.k, sh.m),
                    planar::matrix_view(c, sh.n, sh.m), cfg);
                for (std::size_t i = 0; i < sh.n * sh.m; ++i) {
                    const TypeParam got = c.get(i);
                    const TypeParam ref = want.get(i);
                    for (int p = 0; p < N; ++p) {
                        ASSERT_EQ(bits(got.limb[p]), bits(ref.limb[p]))
                            << "W=" << W << " " << sh.n << "x" << sh.k
                            << "x" << sh.m << " blocks{" << blocks.mc << ","
                            << blocks.kc << "," << blocks.nc << "} i=" << i;
                    }
                }
            }
        });
    }
}

TYPED_TEST(SimdKernelTyped, BlasKernelsUseBitExactPackPath) {
    using T = typename TypeParam::value_type;
    constexpr int N = TypeParam::num_limbs;
    constexpr int p = std::numeric_limits<T>::digits;
    std::mt19937_64 rng(26);
    const std::size_t n = 97;
    std::vector<TypeParam> x(n), y(n), y0(n);
    for (std::size_t i = 0; i < n; ++i) {
        x[i] = adversarial<T, N>(rng, -4, 4);
        y[i] = y0[i] = adversarial<T, N>(rng, -4, 4);
    }
    const TypeParam alpha = adversarial<T, N>(rng, -2, 2);
    blas::axpy<TypeParam>(alpha, blas::view(x), blas::view(y));
    for (std::size_t i = 0; i < n; ++i) {
        const TypeParam want = add(mul(alpha, x[i]), y0[i]);
        for (int k = 0; k < N; ++k) {
            ASSERT_EQ(bits(y[i].limb[k]), bits(want.limb[k])) << i;
        }
    }
    const TypeParam d = blas::dot<TypeParam>(blas::view(x), blas::view(y));
    BigFloat want_d;
    for (std::size_t i = 0; i < n; ++i) want_d = want_d + exact(x[i]) * exact(y[i]);
    if (!want_d.is_zero()) {
        MF_EXPECT_REL_BOUND(d, want_d, N * p - N - 16);
    }
    // gemm: pack path must equal the scalar ikj fused-update reference.
    const std::size_t gn = 6, gk = 5, gm = 7;
    std::vector<TypeParam> ga(gn * gk), gb(gk * gm), gc(gn * gm), gref(gn * gm);
    for (auto& v : ga) v = adversarial<T, N>(rng, -4, 4);
    for (auto& v : gb) v = adversarial<T, N>(rng, -4, 4);
    blas::gemm<TypeParam>(blas::view(ga, gn, gk), blas::view(gb, gk, gm),
                          blas::view(gc, gn, gm));
    for (std::size_t i = 0; i < gn; ++i) {
        for (std::size_t j = 0; j < gm; ++j) gref[i * gm + j] = TypeParam{};
        for (std::size_t kk = 0; kk < gk; ++kk) {
            for (std::size_t j = 0; j < gm; ++j) {
                gref[i * gm + j] =
                    add(mul(ga[i * gk + kk], gb[kk * gm + j]), gref[i * gm + j]);
            }
        }
    }
    for (std::size_t i = 0; i < gn * gm; ++i) {
        for (int k = 0; k < N; ++k) {
            ASSERT_EQ(bits(gc[i].limb[k]), bits(gref[i].limb[k])) << i;
        }
    }
}

}  // namespace
