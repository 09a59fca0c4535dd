// Thread-count invariance of mf::blas (satellite of the mf::check
// conformance layer). gemm_packed must be bit-identical to the sequential
// planar GEMM no matter how many threads execute it -- workers own whole C
// row blocks, never a dot product, so no reduction is ever reassociated --
// and must serialize itself when called from inside an enclosing parallel
// region instead of oversubscribing (the "nested" record). It is swept
// across every pack width; the AoS front end (blas::gemm) gets the same
// sweep on strided sub-views. The engine::parallel_blocks_slots partition,
// and the worker-count invariance of the L1/L2 kernels (which run on the
// calling thread) and of the generic GEMM loop, are checked at the end.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <random>
#include <set>
#include <vector>

#if defined(_OPENMP)
#include <omp.h>
#endif

#include "check/differ.hpp"

namespace {

using namespace mf;
using namespace mf::check;

// diff_gemm_packed / diff_gemm_aos sweep pack widths x thread counts, plus
// the nested record under OpenMP; every record must be clean (0 mismatches
// against sequential planar::gemm), and every width W in {1, 2, 4, 8, 16}
// with W * sizeof(T) <= 64 must have run, whatever this build's native one.
void expect_packed_clean(const std::vector<DiffRecord>& diffs) {
    ASSERT_FALSE(diffs.empty());
    bool nested_seen = false;
    std::set<int> widths;
    for (const DiffRecord& d : diffs) {
        EXPECT_EQ(d.mismatches, 0u)
            << d.kernel << " " << d.type << " N=" << d.limbs << " [" << d.backend << "]";
        if (d.backend.rfind("nested", 0) == 0) {
            nested_seen = true;
        } else {
            widths.insert(d.width);
        }
    }
    const std::set<int> all =
        diffs[0].type == "float" ? std::set<int>{1, 2, 4, 8, 16} : std::set<int>{1, 2, 4, 8};
    EXPECT_EQ(widths, all);
#if defined(_OPENMP)
    EXPECT_TRUE(nested_seen);
#else
    (void)nested_seen;
#endif
}

// Prime dims (none divides MR, NR, or any cache block) with auto blocks.
TEST(GemmPacked, BitIdenticalAcrossBackendsAndThreadsDouble2) {
    expect_packed_clean(diff_gemm_packed<double, 2>(31, 23, 17, 19, {1, 2, 8}));
}

TEST(GemmPacked, BitIdenticalAcrossBackendsAndThreadsDouble3) {
    expect_packed_clean(diff_gemm_packed<double, 3>(32, 13, 11, 9, {1, 2, 8}));
}

TEST(GemmPacked, BitIdenticalAcrossBackendsAndThreadsDouble4) {
    expect_packed_clean(diff_gemm_packed<double, 4>(33, 11, 7, 9, {1, 2, 8}));
}

TEST(GemmPacked, BitIdenticalAcrossBackendsAndThreadsFloat2) {
    expect_packed_clean(diff_gemm_packed<float, 2>(34, 15, 9, 14, {1, 2, 8}));
}

TEST(GemmPacked, BitIdenticalAcrossBackendsAndThreadsFloat3) {
    expect_packed_clean(diff_gemm_packed<float, 3>(23, 15, 9, 14, {1, 2, 7, 16}));
}

// Thread counts that divide no dimension (7) or exceed the row count (16).
TEST(GemmThreads, BitIdenticalAcrossThreadCountsDouble2) {
    expect_packed_clean(diff_gemm_packed<double, 2>(21, 23, 17, 19, {1, 2, 7, 16}));
}

TEST(GemmThreads, BitIdenticalAcrossThreadCountsDouble4) {
    expect_packed_clean(diff_gemm_packed<double, 4>(22, 13, 11, 9, {1, 2, 7, 16}));
}

// Ragged problem sizes, down to a single element, under thread caps larger
// than the row count.
TEST(GemmPacked, RaggedShapesOversubscribed) {
    expect_packed_clean(diff_gemm_packed<double, 3>(24, 5, 3, 7, {16}));
    expect_packed_clean(diff_gemm_packed<double, 2>(25, 1, 1, 1, {7}));
}

// Tiny pinned cache blocks: every macro-panel ends in mr/nr remainder
// micro-tiles and the k loop spans several kc blocks, so the packed-edge
// and partial-tile paths dominate.
TEST(GemmPacked, TinyBlocksForceEdgeTiles) {
    expect_packed_clean(diff_gemm_packed<double, 2>(35, 61, 67, 71, {1, 8},
                                                    mf::check::GenConfig{},
                                                    mf::blas::BlockShape{8, 8, 16}));
    expect_packed_clean(diff_gemm_packed<double, 3>(36, 29, 31, 37, {2},
                                                    mf::check::GenConfig{},
                                                    mf::blas::BlockShape{8, 8, 16}));
}

// The shapes above all fall below the serial floor. These exceed it: the
// threaded partition (with an auto mc too large to share, the per-worker mc
// split) must be planned, and must stay bit-identical. Their nested records
// are the calls that would fork a team if the in-region guard were missing.
template <std::floating_point T, int N>
unsigned planned_gemm_workers(std::size_t n, std::size_t k, std::size_t m,
                              unsigned cap) {
    mf::blas::GemmConfig cfg;
    cfg.max_threads = cap;
    unsigned workers = 0;
    mf::simd::with_active_width<T>([&](auto w) {
        workers = mf::blas::engine::plan_gemm<T, N, w()>(n, m, k, cfg).workers;
    });
    return workers;
}

// What an above-floor call must plan: at least two workers under OpenMP,
// exactly one (the serial loop) in a build without it.
::testing::AssertionResult plans_threaded(unsigned workers) {
#if defined(_OPENMP)
    if (workers >= 2) return ::testing::AssertionSuccess();
#else
    if (workers == 1) return ::testing::AssertionSuccess();
#endif
    return ::testing::AssertionFailure() << "planned " << workers << " workers";
}

TEST(GemmPacked, SmallShapesRunSerially) {
    EXPECT_EQ((planned_gemm_workers<double, 2>(23, 17, 19, 8)), 1u);
    EXPECT_EQ((planned_gemm_workers<double, 4>(11, 7, 9, 8)), 1u);
    EXPECT_EQ((planned_gemm_workers<float, 2>(15, 9, 14, 8)), 1u);
}

TEST(GemmPacked, ThreadedAboveSerialFloor) {
    for (unsigned cap : {2u, 8u}) {
        EXPECT_TRUE(plans_threaded(planned_gemm_workers<double, 2>(97, 41, 61, cap))) << cap;
        EXPECT_TRUE(plans_threaded(planned_gemm_workers<double, 4>(61, 23, 29, cap))) << cap;
    }
    expect_packed_clean(diff_gemm_packed<double, 2>(37, 97, 41, 61, {1, 2, 8}));
    expect_packed_clean(diff_gemm_packed<double, 4>(38, 61, 23, 29, {1, 2, 8}));
}

// --- AoS front end ---------------------------------------------------------
// blas::gemm and the AoS gemm_packed overload run the same engine straight
// off interleaved MultiFloat views. Row counts straddle MR (4) and the serial
// floor; the larger shapes are threaded with the mc split. Column counts
// (n + 11) leave edge tiles that end inside a pack and, where a tile is two
// packs wide, inside its second pack. Operands are strided sub-views.

constexpr std::size_t kAosRows[] = {1, 3, 4, 5, 17, 48, 97};

template <std::floating_point T, int N>
void expect_aos_clean(std::uint64_t seed) {
    for (std::size_t n : kAosRows) {
        const std::size_t k = n == 97 ? 31 : n;
        SCOPED_TRACE("n=" + std::to_string(n));
        expect_packed_clean(diff_gemm_aos<T, N>(seed + n, n, k, n + 11, {1, 2, 8}));
    }
    EXPECT_TRUE(plans_threaded(planned_gemm_workers<T, N>(48, 48, 48, 2)));
}

TEST(GemmAos, BitIdenticalToPlanarDouble2) { expect_aos_clean<double, 2>(40); }
TEST(GemmAos, BitIdenticalToPlanarDouble3) { expect_aos_clean<double, 3>(41); }
TEST(GemmAos, BitIdenticalToPlanarDouble4) { expect_aos_clean<double, 4>(42); }
TEST(GemmAos, BitIdenticalToPlanarFloat2) { expect_aos_clean<float, 2>(43); }

// Degenerate shapes must be exact no-ops (C untouched).
TEST(GemmPacked, DegenerateShapesAreNoOps) {
    using V = mf::MultiFloat<double, 2>;
    planar::Vector<double, 2> a, b, c(6);
    for (std::size_t i = 0; i < 6; ++i) c.set(i, V(double(i) + 0.5));
    blas::gemm_packed(planar::matrix_view(a, 0, 0), planar::matrix_view(b, 0, 3),
                      planar::matrix_view(c, 0, 3));
    blas::gemm_packed(planar::matrix_view(a, 2, 0), planar::matrix_view(b, 0, 3),
                      planar::matrix_view(c, 2, 3));
    for (std::size_t i = 0; i < 6; ++i) {
        EXPECT_EQ(c.get(i).limb[0], double(i) + 0.5);
    }
}

// --- The shared partition, the L1/L2 kernels, the generic GEMM loop -----

// Every block runs exactly once, in a slot below the planned worker count
// (the bound callers size per-slot scratch by).
TEST(GemmThreads, EveryBlockRunsOnceInAPlannedSlot) {
    for (std::size_t nblocks : {1u, 4u, 13u}) {
        const unsigned planned = blas::engine::planned_workers(
            nblocks, blas::engine::ThreadMode::automatic, /*max_threads=*/4);
        std::vector<std::atomic<int>> visits(nblocks);
        std::atomic<unsigned> max_slot{0};
        blas::engine::parallel_blocks_slots(
            nblocks,
            [&](std::size_t blk, unsigned slot) {
                visits[blk].fetch_add(1, std::memory_order_relaxed);
                unsigned cur = max_slot.load(std::memory_order_relaxed);
                while (slot > cur && !max_slot.compare_exchange_weak(cur, slot)) {
                }
            },
            blas::engine::ThreadMode::automatic, /*max_threads=*/4);
        for (std::size_t b = 0; b < nblocks; ++b) {
            EXPECT_EQ(visits[b].load(), 1) << "block " << b << " of " << nblocks;
        }
        EXPECT_LT(max_slot.load(), planned) << nblocks << " blocks";
    }
}

// Run f() with the OpenMP worker cap set to `workers` (without OpenMP every
// call is serial and the cap is moot).
template <typename F>
void with_workers(int workers, F&& f) {
#if defined(_OPENMP)
    const int saved = omp_get_max_threads();
    omp_set_num_threads(workers);
    f();
    omp_set_num_threads(saved);
#else
    (void)workers;
    f();
#endif
}

template <typename V>
bool same_value(const V& a, const V& b) {
    if constexpr (std::floating_point<V>) {
        return check::detail::same_bits(a, b);
    } else {
        for (int p = 0; p < V::num_limbs; ++p) {
            if (!check::detail::same_bits(a.limb[p], b.limb[p])) return false;
        }
        return true;
    }
}

template <typename V>
std::size_t count_different(const std::vector<V>& a, const std::vector<V>& b) {
    std::size_t bad = a.size() == b.size() ? 0 : 1;
    for (std::size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
        bad += !same_value(a[i], b[i]);
    }
    return bad;
}

template <std::floating_point T, int N>
std::vector<MultiFloat<T, N>> random_aos(std::uint64_t seed, std::size_t n) {
    std::mt19937_64 rng(seed);
    planar::Vector<T, N> v;
    check::detail::fill_vectors(rng, n, GenConfig{}, v);
    std::vector<MultiFloat<T, N>> out(n);
    for (std::size_t i = 0; i < n; ++i) out[i] = v.get(i);
    return out;
}

// run() computes a kernel result from fixed inputs; at worker caps 2 and 4
// it must be bit-identical to the 1-worker result, which in turn must equal
// `want`, a sequential reference that never enters the engine.
template <typename Run, typename V>
void expect_same_at_every_cap(Run&& run, const std::vector<V>& want) {
    std::vector<V> ref;
    with_workers(1, [&] { ref = run(); });
    EXPECT_EQ(count_different(ref, want), 0u) << "1 worker vs sequential reference";
    for (int w : {2, 4}) {
        std::vector<V> got;
        with_workers(w, [&] { got = run(); });
        EXPECT_EQ(count_different(got, ref), 0u) << w << " workers";
    }
}

using V3 = MultiFloat<double, 3>;

TEST(BlasThreads, AxpyAndScalAboveThresholdMatchOneWorker) {
    constexpr std::size_t n = 10000;
    const std::vector<V3> x = random_aos<double, 3>(71, n);
    const std::vector<V3> y0 = random_aos<double, 3>(72, n);
    const V3 alpha = random_aos<double, 3>(73, 1)[0];
    std::vector<V3> want = y0;
    simd::axpy_aos<double, 3>(alpha, x.data(), want.data(), n);
    expect_same_at_every_cap(
        [&] {
            std::vector<V3> y = y0;
            blas::axpy<V3>(alpha, blas::view(x), blas::view(y));
            return y;
        },
        want);

    for (std::size_t i = 0; i < n; ++i) want[i] = y0[i] * alpha;
    expect_same_at_every_cap(
        [&] {
            std::vector<V3> y = y0;
            blas::scal<V3>(alpha, blas::view(y));
            return y;
        },
        want);

    // The generic (non-MultiFloat) axpy loop.
    std::vector<double> xd(n), yd0(n), wantd(n);
    for (std::size_t i = 0; i < n; ++i) {
        xd[i] = x[i].limb[0];
        yd0[i] = y0[i].limb[0];
        wantd[i] = yd0[i] + 0.75 * xd[i];
    }
    expect_same_at_every_cap(
        [&] {
            std::vector<double> y = yd0;
            blas::axpy<double>(0.75, blas::view(xd), blas::view(y));
            return y;
        },
        wantd);
}

TEST(BlasThreads, GemvAndGerAboveThresholdMatchOneWorker) {
    constexpr std::size_t rows = 100, cols = 37;
    const std::vector<V3> a0 = random_aos<double, 3>(81, rows * cols);
    const std::vector<V3> x = random_aos<double, 3>(82, cols);
    const std::vector<V3> u = random_aos<double, 3>(83, rows);
    const V3 alpha = random_aos<double, 3>(84, 1)[0];

    std::vector<V3> want(rows);
    for (std::size_t i = 0; i < rows; ++i) {
        want[i] = simd::dot_aos<double, 3>(a0.data() + i * cols, x.data(), cols);
    }
    expect_same_at_every_cap(
        [&] {
            std::vector<V3> y(rows);
            blas::gemv<V3>(blas::view(a0, rows, cols), blas::view(x), blas::view(y));
            return y;
        },
        want);

    want = a0;
    for (std::size_t i = 0; i < rows; ++i) {
        simd::axpy_aos<double, 3>(alpha * u[i], x.data(), want.data() + i * cols, cols);
    }
    expect_same_at_every_cap(
        [&] {
            std::vector<V3> a = a0;
            blas::ger<V3>(alpha, blas::view(u), blas::view(x), blas::view(a, rows, cols));
            return a;
        },
        want);
}

TEST(BlasThreads, DoubleGemmAboveThresholdMatchesOneWorker) {
    constexpr std::size_t n = 20;
    std::mt19937_64 rng(91);
    std::uniform_real_distribution<double> dist(-1.0, 1.0);
    std::vector<double> a(n * n), b(n * n), want(n * n, 0.0);
    for (double& v : a) v = dist(rng);
    for (double& v : b) v = dist(rng);
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t kk = 0; kk < n; ++kk) {
            for (std::size_t j = 0; j < n; ++j) {
                want[i * n + j] += a[i * n + kk] * b[kk * n + j];
            }
        }
    }
    expect_same_at_every_cap(
        [&] {
            std::vector<double> c(n * n, 7.0);
            blas::gemm<double>(blas::view(a, n, n), blas::view(b, n, n),
                               blas::view(c, n, n));
            return c;
        },
        want);
}

// blas::dot runs on the calling thread: at every worker cap it returns the
// bits of one serial pass of the pack kernel (simd::dot_aos) over the whole
// vector, or, for other types, of the generic eight-accumulator loop.
template <typename V>
void expect_dot_same_at_every_cap() {
    constexpr std::size_t n = 20000;
    std::vector<V> x(n), y(n);
    V want{};
    if constexpr (std::floating_point<V>) {
        const std::vector<MultiFloat<double, 2>> xs = random_aos<double, 2>(100, n);
        const std::vector<MultiFloat<double, 2>> ys = random_aos<double, 2>(110, n);
        for (std::size_t i = 0; i < n; ++i) {
            x[i] = xs[i].limb[0];
            y[i] = ys[i].limb[0];
        }
        V part[8]{};
        for (std::size_t i = 0; i < n; ++i) part[i % 8] += x[i] * y[i];
        for (const V& p : part) want += p;
    } else {
        constexpr int N = V::num_limbs;
        x = random_aos<double, N>(100 + N, n);
        y = random_aos<double, N>(110 + N, n);
        want = simd::dot_aos<double, N>(x.data(), y.data(), n);
    }
    expect_same_at_every_cap(
        [&] { return std::vector<V>{blas::dot<V>(blas::view(x), blas::view(y))}; },
        std::vector<V>{want});
}

TEST(BlasThreads, DotSameAtEveryCapDouble2) { expect_dot_same_at_every_cap<MultiFloat<double, 2>>(); }
TEST(BlasThreads, DotSameAtEveryCapDouble3) { expect_dot_same_at_every_cap<MultiFloat<double, 3>>(); }
TEST(BlasThreads, DotSameAtEveryCapDouble4) { expect_dot_same_at_every_cap<MultiFloat<double, 4>>(); }
TEST(BlasThreads, DotSameAtEveryCapGenericDouble) { expect_dot_same_at_every_cap<double>(); }

}  // namespace
