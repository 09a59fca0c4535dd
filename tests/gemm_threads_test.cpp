// Thread-count invariance of the packed GEMM engine (satellite of the
// mf::check conformance layer): gemm_packed must be bit-identical to the
// sequential planar GEMM no matter how many threads execute it -- workers
// own whole C row blocks, never a dot product, so no reduction is ever
// reassociated -- and must serialize itself when called from inside an
// enclosing parallel region instead of oversubscribing (the "nested"
// record). It is swept across every available SIMD backend and both
// threading substrates (OpenMP and the std::thread fallback pool). The AoS
// front end (blas::gemm) gets the same sweep on strided sub-views.

#include <gtest/gtest.h>

#include "check/differ.hpp"

namespace {

using namespace mf;
using namespace mf::check;

// diff_gemm_packed / diff_gemm_aos sweep backends x thread counts x
// {OpenMP, pool}, plus the nested record under OpenMP; every record must be
// clean (0 mismatches against sequential planar::gemm).
void expect_packed_clean(const std::vector<DiffRecord>& diffs) {
    ASSERT_FALSE(diffs.empty());
    bool nested_seen = false;
    for (const DiffRecord& d : diffs) {
        EXPECT_EQ(d.mismatches, 0u)
            << d.kernel << " " << d.type << " N=" << d.limbs << " [" << d.backend << "]";
        if (d.backend.rfind("nested", 0) == 0) nested_seen = true;
    }
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

TEST(GemmPacked, SmallShapesRunSerially) {
    EXPECT_EQ((planned_gemm_workers<double, 2>(23, 17, 19, 8)), 1u);
    EXPECT_EQ((planned_gemm_workers<double, 4>(11, 7, 9, 8)), 1u);
    EXPECT_EQ((planned_gemm_workers<float, 2>(15, 9, 14, 8)), 1u);
}

TEST(GemmPacked, ThreadedAboveSerialFloor) {
    for (unsigned cap : {2u, 8u}) {
        EXPECT_GE((planned_gemm_workers<double, 2>(97, 41, 61, cap)), 2u) << cap;
        EXPECT_GE((planned_gemm_workers<double, 4>(61, 23, 29, cap)), 2u) << cap;
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
    EXPECT_GE((planned_gemm_workers<T, N>(48, 48, 48, 2)), 2u);
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

}  // namespace
