// mf::guard environment sentinels (DESIGN.md §12).
//
// Uses ScopedFpPerturb -- ScopedFpEnv's inverse -- to install each hostile
// environment the guard defends against, then asserts the snapshot detects
// every one (its register-decoded flush state agreeing with the behavioral
// probes), that ScopedFpEnv neutralizes them, and that the Sentinel
// wired into the blas:: entry points reports and (under enforce) corrects
// them with bit-identical results. Along the way it DOCUMENTS the actual
// numerical damage each environment does to the paper's add2/mul2 kernels:
// the divergence counts printed by EnvDamage are the empirical version of
// the robustness analysis in "On the robustness of double-word addition
// algorithms" (PAPERS.md).
//
// Every test restores the thread's FP environment on exit (RAII guards);
// the suite must leave the process exactly as it found it regardless of
// assertion outcomes.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <random>
#include <vector>

#include "blas/blas.hpp"
#include "check/generators.hpp"
#include "guard/guard.hpp"
#include "telemetry/registry.hpp"

namespace {

using namespace mf;
using guard::Perturb;
using guard::Rounding;

using MF2 = MultiFloat<double, 2>;

bool same_bits(double a, double b) {
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}
bool same_bits(const MF2& a, const MF2& b) {
    return same_bits(a.limb[0], b.limb[0]) && same_bits(a.limb[1], b.limb[1]);
}

std::uint64_t counters_containing(std::string_view needle) {
    std::uint64_t total = 0;
    for (const auto& c : telemetry::Registry::instance().snapshot().counters) {
        if (c.name.find(needle) != std::string::npos) total += c.value;
    }
    return total;
}

/// The perturbations this build can apply, with tags for messages.
std::vector<std::pair<const char*, Perturb>> supported_perturbs() {
    std::vector<std::pair<const char*, Perturb>> out;
    out.emplace_back("round_toward_zero", Perturb::round_toward_zero);
    out.emplace_back("round_upward", Perturb::round_upward);
    out.emplace_back("round_downward", Perturb::round_downward);
    if (guard::perturb_supported(Perturb::ftz)) out.emplace_back("ftz", Perturb::ftz);
    if (guard::perturb_supported(Perturb::daz)) out.emplace_back("daz", Perturb::daz);
    return out;
}

TEST(GuardProbe, NominalEnvironmentIsNominal) {
    guard::ScopedFpEnv clean;
    const guard::FpEnvSnapshot s = guard::fp_env_snapshot();
    EXPECT_EQ(s.rounding, Rounding::nearest);
    EXPECT_FALSE(s.ftz);
    EXPECT_FALSE(s.daz);
    EXPECT_TRUE(s.subnormals_ok);
    EXPECT_TRUE(guard::env_nominal(s));
    EXPECT_EQ(guard::fp_env_string(s), "rn");
    // This build pins -ffp-contract=off; the contraction probe must agree.
    EXPECT_FALSE(s.fma_contraction);
}

TEST(GuardProbe, DetectsEveryPerturbation) {
    guard::FpEnvSaver restore;
    for (const auto& [tag, p] : supported_perturbs()) {
        guard::ScopedFpPerturb hostile(p);
        const guard::FpEnvSnapshot s = guard::fp_env_snapshot();
        EXPECT_FALSE(guard::env_nominal(s)) << "undetected perturbation: " << tag;
        switch (p) {
            case Perturb::round_toward_zero:
                EXPECT_EQ(s.rounding, Rounding::toward_zero) << tag;
                break;
            case Perturb::round_upward:
                EXPECT_EQ(s.rounding, Rounding::upward) << tag;
                break;
            case Perturb::round_downward:
                EXPECT_EQ(s.rounding, Rounding::downward) << tag;
                break;
            case Perturb::ftz:
                EXPECT_TRUE(s.ftz) << tag;
                break;
            case Perturb::daz:
                EXPECT_TRUE(s.daz) << tag;
                break;
            default:
                break;
        }
    }
    // All RAII guards unwound: back to the ambient environment.
    SUCCEED();
}

TEST(GuardProbe, ScopedFpEnvNeutralizesEveryPerturbation) {
    guard::FpEnvSaver restore;
    for (const auto& [tag, p] : supported_perturbs()) {
        guard::ScopedFpPerturb hostile(p);
        {
            guard::ScopedFpEnv clean;
            EXPECT_TRUE(guard::env_nominal(guard::fp_env_snapshot()))
                << "ScopedFpEnv failed to neutralize " << tag;
        }
        // ...and its destructor must hand the hostile environment back.
        EXPECT_FALSE(guard::env_nominal(guard::fp_env_snapshot()))
            << "ScopedFpEnv restore lost the caller's environment (" << tag << ")";
    }
}

// Where the control register governs the arithmetic, the snapshot decodes
// FTZ/DAZ from it; everywhere it must agree with the behavioral probes. The
// one divergence is DAZ alone: the output probe's subnormal result reads
// back as zero through the comparison (a subnormal *input*), so that probe
// reports a flush the register does not set.
TEST(GuardProbe, RegisterDecodeAgreesWithProbes) {
    std::vector<std::pair<const char*, Perturb>> envs = supported_perturbs();
    envs.emplace(envs.begin(), "nominal", Perturb::none);
    if (guard::perturb_supported(Perturb::ftz | Perturb::daz)) {
        envs.emplace_back("ftz|daz", Perturb::ftz | Perturb::daz);
    }
    guard::FpEnvSaver restore;
    for (const auto& [tag, p] : envs) {
        guard::ScopedFpEnv clean;  // each case starts from nominal
        guard::ScopedFpPerturb hostile(p);
        const guard::FpEnvSnapshot s = guard::fp_env_snapshot();
        const bool outputs_flushed = !guard::probe_subnormal_outputs();
        const bool inputs_flushed = !guard::probe_subnormal_inputs();
        const std::uint64_t cr = s.raw_control;
#if MF_GUARD_HAVE_MXCSR && defined(__SSE2_MATH__)
        EXPECT_EQ(s.ftz, ((cr >> 15) & 1) != 0) << tag;  // MXCSR.FTZ
        EXPECT_EQ(s.daz, ((cr >> 6) & 1) != 0) << tag;   // MXCSR.DAZ
        if (p == Perturb::daz) {
            EXPECT_FALSE(s.ftz) << tag;
            EXPECT_TRUE(outputs_flushed) << tag;
            EXPECT_EQ(guard::fp_env_string(s), "rn+daz");
        }
#elif MF_GUARD_HAVE_FPCR
        EXPECT_EQ(s.ftz, ((cr >> 24) & 1) != 0) << tag;          // FPCR.FZ
        EXPECT_EQ(s.daz, ((cr >> 24) & 1) != 0 || (cr & 1) != 0) << tag;  // FZ, FIZ
#else
        (void)cr;
#endif
        EXPECT_EQ(s.daz, inputs_flushed) << tag;
        if (s.daz && !s.ftz) {
            EXPECT_TRUE(outputs_flushed) << tag;
        } else {
            EXPECT_EQ(s.ftz, outputs_flushed) << tag;
        }
    }
}

// The snapshot must cost a register read, not a microcode assist. A
// subnormal operand raises the sticky MXCSR flag DE (bit 1) and a tiny
// result raises UE (bit 4), so both flags still clear after a snapshot and
// a warn-policy Sentinel prove no subnormal was touched, with no timing.
TEST(GuardProbe, SnapshotTouchesNoSubnormal) {
#if MF_GUARD_HAVE_MXCSR && defined(__SSE2_MATH__)
    constexpr unsigned kStatusFlags = 0x3f;
    constexpr unsigned kDenormal = 1u << 1;
    constexpr unsigned kUnderflow = 1u << 4;
    const guard::Policy saved = guard::policy();
    guard::set_policy(guard::Policy::warn);
    guard::FpEnvSaver restore;
    guard::ScopedFpEnv clean;
    _mm_setcsr(_mm_getcsr() & ~kStatusFlags);
    (void)guard::fp_env_snapshot();
    { guard::Sentinel s("test.flags"); }
    const unsigned flags = _mm_getcsr() & kStatusFlags;
    guard::set_policy(saved);
    EXPECT_EQ(flags & kDenormal, 0u) << "MXCSR status 0x" << std::hex << flags;
    EXPECT_EQ(flags & kUnderflow, 0u) << "MXCSR status 0x" << std::hex << flags;
#else
    GTEST_SKIP() << "MXCSR does not govern double arithmetic in this build";
#endif
}

TEST(GuardProbe, PerturbRoundTripRestoresRegister) {
    const std::uint64_t before = guard::read_control_register();
    {
        guard::ScopedFpPerturb hostile(Perturb::round_toward_zero |
                                       Perturb::ftz);
        (void)guard::fp_env_snapshot();
    }
    EXPECT_EQ(guard::read_control_register(), before);
}

// Document the numerical damage: run the paper's add2/mul2 over a
// structure-aware corpus in each hostile environment and count results that
// differ from the round-to-nearest reference. The corpus is 2000
// ladder/straddle pairs plus 2000 pairs from the subnormal category, whose
// limbs sit in gradual underflow: without them flushing never triggers and
// the ftz/daz rows would read 0. The counts are printed, not pinned (they
// are environment-dependent facts), but add2 must show SOME ftz and daz
// damage -- otherwise this test documents nothing about flushing. The
// contract under test is that the SENTINEL catches the environment, above.
TEST(GuardProbe, EnvDamageAdd2Mul2Documented) {
    constexpr int kHalf = 2000;
    constexpr int kSamples = 2 * kHalf;
    check::GenConfig cfg;
    check::GenConfig sub_cfg;
    sub_cfg.subnormals = true;
    std::mt19937_64 rng(20260807);
    std::vector<MF2> xs(kSamples), ys(kSamples);
    std::vector<MF2> add_ref(kSamples), mul_ref(kSamples);
    {
        guard::ScopedFpEnv clean;
        for (int i = 0; i < kSamples; ++i) {
            if (i < kHalf) {
                xs[i] = check::gen<double, 2>(rng, check::Category::ladder, cfg);
                ys[i] = check::gen<double, 2>(rng, check::Category::straddle, cfg);
            } else {
                xs[i] = check::gen<double, 2>(rng, check::Category::subnormal, sub_cfg);
                ys[i] = check::gen<double, 2>(rng, check::Category::subnormal, sub_cfg);
            }
            add_ref[i] = xs[i] + ys[i];
            mul_ref[i] = xs[i] * ys[i];
        }
    }
    guard::FpEnvSaver restore;
    for (const auto& [tag, p] : supported_perturbs()) {
        guard::ScopedFpPerturb hostile(p);
        int add_div = 0, mul_div = 0;
        for (int i = 0; i < kSamples; ++i) {
            if (!same_bits(xs[i] + ys[i], add_ref[i])) ++add_div;
            if (!same_bits(xs[i] * ys[i], mul_ref[i])) ++mul_div;
        }
        std::printf("  [env-damage] %-18s add2 %5d/%d diverge, mul2 %5d/%d diverge\n",
                    tag, add_div, kSamples, mul_div, kSamples);
        if (p == Perturb::ftz || p == Perturb::daz) {
            EXPECT_GT(add_div, 0) << tag << ": add2 shows no flush damage";
        }
        // Under the SAME hostile environment, ScopedFpEnv (what
        // policy=enforce installs) must reproduce the reference exactly.
        guard::ScopedFpEnv clean;
        for (int i = 0; i < kSamples; ++i) {
            ASSERT_TRUE(same_bits(xs[i] + ys[i], add_ref[i]))
                << tag << ": enforced add2 diverged at sample " << i;
            ASSERT_TRUE(same_bits(xs[i] * ys[i], mul_ref[i]))
                << tag << ": enforced mul2 diverged at sample " << i;
        }
    }
}

class GuardSentinelTest : public ::testing::Test {
protected:
    void SetUp() override { saved_ = guard::policy(); }
    void TearDown() override {
        guard::set_policy(saved_);
        guard::inject::reset();
    }
    guard::Policy saved_{};
};

TEST_F(GuardSentinelTest, WarnDetectsAndCountsButDoesNotTouchEnv) {
    guard::set_policy(guard::Policy::warn);
    guard::FpEnvSaver restore;
    const std::uint64_t before = counters_containing("mf_guard_violation_total");
    {
        guard::ScopedFpPerturb hostile(Perturb::round_toward_zero);
        guard::Sentinel s("test.warn");
        EXPECT_FALSE(s.enforced());
        // warn must NOT change the running environment.
        EXPECT_EQ(guard::fp_env_snapshot().rounding, Rounding::toward_zero);
    }
    const std::uint64_t after = counters_containing("mf_guard_violation_total");
#if MF_TELEMETRY_ENABLED
    EXPECT_GE(after - before, 1u);
#else
    EXPECT_EQ(after, before);
#endif
}

TEST_F(GuardSentinelTest, EnforceInstallsNominalAndRestoresCaller) {
    guard::set_policy(guard::Policy::enforce);
    guard::FpEnvSaver restore;
    guard::ScopedFpPerturb hostile(Perturb::round_toward_zero);
    {
        guard::Sentinel s("test.enforce");
        EXPECT_TRUE(s.enforced());
        EXPECT_TRUE(guard::env_nominal(guard::fp_env_snapshot()));
    }
    // Sentinel destruction hands the (hostile) caller environment back.
    EXPECT_EQ(guard::fp_env_snapshot().rounding, Rounding::toward_zero);
}

TEST_F(GuardSentinelTest, IgnoreProbesNothing) {
    guard::set_policy(guard::Policy::ignore);
    guard::FpEnvSaver restore;
    const std::uint64_t before = counters_containing("mf_guard");
    {
        guard::ScopedFpPerturb hostile(Perturb::round_toward_zero);
        guard::Sentinel s("test.ignore");
        EXPECT_FALSE(s.enforced());
    }
    EXPECT_EQ(counters_containing("mf_guard"), before);
}

TEST_F(GuardSentinelTest, ExitProbeCatchesMidCallFlip) {
    guard::set_policy(guard::Policy::warn);
    guard::FpEnvSaver restore;
    const std::uint64_t before = counters_containing("when=\"exit\"");
    {
        guard::Sentinel s("test.midflip");
        guard::apply_perturb(Perturb::round_toward_zero);  // "callback" damage
    }
#if MF_TELEMETRY_ENABLED
    EXPECT_GE(counters_containing("when=\"exit\"") - before, 1u);
#endif
}

TEST_F(GuardSentinelTest, EnforcedBlasGemmIsBitIdenticalToCleanRun) {
    using V = MultiFloat<double, 2>;
    constexpr std::size_t n = 12, k = 7, m = 9;
    check::GenConfig cfg;
    std::mt19937_64 rng(7);
    std::vector<V> a(n * k), b(k * m), c_clean(n * m), c_hostile(n * m);
    for (auto& v : a) v = check::gen<double, 2>(rng, check::Category::ladder, cfg);
    for (auto& v : b) v = check::gen<double, 2>(rng, check::Category::ladder, cfg);
    {
        guard::ScopedFpEnv clean;
        blas::gemm(blas::view(std::as_const(a), n, k),
                   blas::view(std::as_const(b), k, m), blas::view(c_clean, n, m));
    }
    guard::set_policy(guard::Policy::enforce);
    guard::FpEnvSaver restore;
    {
        guard::ScopedFpPerturb hostile(Perturb::round_toward_zero);
        blas::gemm(blas::view(std::as_const(a), n, k),
                   blas::view(std::as_const(b), k, m),
                   blas::view(c_hostile, n, m));
    }
    for (std::size_t i = 0; i < n * m; ++i) {
        ASSERT_TRUE(same_bits(c_clean[i], c_hostile[i])) << "element " << i;
    }
}

}  // namespace
