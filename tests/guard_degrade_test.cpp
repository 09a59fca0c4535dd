// mf::guard graceful degradation (DESIGN.md §12).
//
// Drives the guard::inject fault hooks through the real execution paths and
// asserts the degradation contracts: a failed packing allocation routes
// gemm_packed (planar or AoS, the latter through blas::gemm) onto the
// unpacked fallback with a bit-identical result, and the full
// check::run_fault_matrix -- the same matrix `mf_fuzz --inject` runs in CI,
// including the hostile-OpenMP-worker case -- comes back clean. Faults here are
// injected, never real: the suite must pass on any machine.

#include <gtest/gtest.h>

#include <cstdint>
#include <new>
#include <random>
#include <vector>

#include "blas/engine/packing.hpp"
#include "check/robustness.hpp"
#include "guard/guard.hpp"

namespace {

using namespace mf;

class GuardDegradeTest : public ::testing::Test {
protected:
    void TearDown() override { guard::inject::reset(); }
};

TEST_F(GuardDegradeTest, AlignedBufferInjectedAllocThrowsOnceThenRecovers) {
    blas::engine::AlignedBuffer<double> buf;
    guard::inject::arm_alloc(0);
    EXPECT_THROW(buf.ensure(64), std::bad_alloc);
    // The countdown disarms after firing: the retry must succeed.
    double* p = buf.ensure(64);
    ASSERT_NE(p, nullptr);
    p[0] = 1.0;
    p[63] = 2.0;
    EXPECT_EQ(p[0] + p[63], 3.0);
}

TEST_F(GuardDegradeTest, GemmAllocFaultFallsBackBitIdentically) {
    constexpr std::size_t n = 24, k = 9, m = 17;
    check::GenConfig cfg;
    std::mt19937_64 rng(42);
    planar::Vector<double, 2> a, b, c_seed;
    check::detail::fill_vectors(rng, n * k, cfg, a);
    check::detail::fill_vectors(rng, k * m, cfg, b);
    // C += A*B accumulate contract: seed C with nonzero data so a fallback
    // that double-added (packed partial + planar full) would be caught.
    check::detail::fill_vectors(rng, n * m, cfg, c_seed);

    blas::GemmConfig gcfg;
    gcfg.max_threads = 1;
    gcfg.blocks = blas::BlockShape{8, 8, 16};  // several macro-panels

    planar::Vector<double, 2> c_ref = c_seed;
    blas::gemm_packed(planar::matrix_view(a, n, k), planar::matrix_view(b, k, m),
                      planar::matrix_view(c_ref, n, m), gcfg);

    // Every pre-reserve allocation index must degrade identically. Serial
    // plan reserves the B panel (0) then one A block (1).
    for (long nth = 0; nth < 2; ++nth) {
        planar::Vector<double, 2> c = c_seed;
        guard::inject::arm_alloc(nth);
        ASSERT_NO_THROW(blas::gemm_packed(planar::matrix_view(a, n, k),
                                          planar::matrix_view(b, k, m),
                                          planar::matrix_view(c, n, m), gcfg));
        guard::inject::reset();
        EXPECT_EQ(check::detail::count_mismatches(c, c_ref, n * m), 0u)
            << "alloc fault at " << nth;
    }
}

// The AoS front end: blas::gemm over strided MultiFloat views. A call this
// small runs serially, so reservations are the B panel (0) then the slot-0 A
// block (1); either failing must leave C bit-identical to the clean call.
TEST_F(GuardDegradeTest, AosGemmAllocFaultFallsBackBitIdentically) {
    using V = MultiFloat<double, 3>;
    constexpr std::size_t n = 21, k = 10, m = 13, ld = m + 2;
    check::GenConfig cfg;
    std::mt19937_64 rng(43);
    planar::Vector<double, 3> ap, bp;
    check::detail::fill_vectors(rng, n * k, cfg, ap);
    check::detail::fill_vectors(rng, k * m, cfg, bp);
    std::vector<V> a(n * k), b(k * ld);
    for (std::size_t i = 0; i < n * k; ++i) a[i] = ap.get(i);
    for (std::size_t kk = 0; kk < k; ++kk) {
        for (std::size_t j = 0; j < m; ++j) b[kk * ld + j] = bp.get(kk * m + j);
    }
    const auto gemm = [&](std::vector<V>& c) {
        blas::gemm<V>(blas::ConstMatrixView<V>{a.data(), n, k},
                      blas::ConstMatrixView<V>{b.data(), k, m, ld},
                      blas::MatrixView<V>{c.data(), n, m, ld});
    };
    std::vector<V> c_ref(n * ld, V(5.0));
    gemm(c_ref);

    for (long nth = 0; nth < 2; ++nth) {
        const std::uint64_t before =
            check::detail::counters_containing("path=\"alloc\"");
        std::vector<V> c(n * ld, V(5.0));
        guard::inject::arm_alloc(nth);
        ASSERT_NO_THROW(gemm(c));
        guard::inject::reset();
        for (std::size_t i = 0; i < n * ld; ++i) {
            for (int p = 0; p < 3; ++p) {
                ASSERT_TRUE(check::detail::same_bits(c[i].limb[p], c_ref[i].limb[p]))
                    << "alloc fault at " << nth << ", element " << i;
            }
        }
#if MF_TELEMETRY_ENABLED
        EXPECT_EQ(check::detail::counters_containing("path=\"alloc\"") - before, 1u)
            << "alloc fault at " << nth;
#else
        (void)before;
#endif
    }
}

TEST_F(GuardDegradeTest, FullFaultMatrixIsClean) {
    check::RobustnessOptions opt;
    const std::vector<check::FaultCase> cases = check::run_fault_matrix(opt);
    ASSERT_FALSE(cases.empty());
    for (const check::FaultCase& fc : cases) {
        EXPECT_TRUE(fc.expectation_met) << fc.name << ": " << fc.detail;
    }
    EXPECT_TRUE(check::fault_matrix_clean(cases));
}

}  // namespace
