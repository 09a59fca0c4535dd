// Smoke tier for the mf::check conformance subsystem (ctest label
// `fuzz-smoke`). Each test runs a scaled-down version of what tools/mf_fuzz
// does at full depth; set MF_FUZZ_ITERS to fuzz longer through the same
// entry points (the committed acceptance runs use 100000).

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <random>
#include <set>

#include "check/check.hpp"

namespace {

using namespace mf;
using namespace mf::check;

std::uint64_t smoke_iters() {
    if (const char* env = std::getenv("MF_FUZZ_ITERS")) {
        const unsigned long long v = std::strtoull(env, nullptr, 10);
        if (v > 0) return v;
    }
    return 2000;
}

template <typename T, int N>
void run_all_ops(std::uint64_t iters) {
    GenConfig cfg;
    cfg.subnormals = true;
    cfg.near_overflow = true;
    cfg.specials = true;
    for (Op op : {Op::add, Op::sub, Op::mul, Op::div, Op::sqrt}) {
        const RunStats s = run_conformance<T, N>(op, 7 + N, iters, cfg);
        EXPECT_EQ(s.violations, 0u) << op_name(op) << " " << s.type << " N=" << N;
        EXPECT_EQ(s.invariant_violations, 0u) << op_name(op) << " N=" << N;
        EXPECT_EQ(s.special_failures, 0u) << op_name(op) << " N=" << N;
        EXPECT_GT(s.checked, 0u) << op_name(op) << " " << s.type << " N=" << N
                                 << ": domain classifier rejected everything";
    }
}

TEST(ConformanceSmoke, DoubleAllOps) {
    const std::uint64_t iters = smoke_iters();
    run_all_ops<double, 2>(iters);
    run_all_ops<double, 3>(iters);
    run_all_ops<double, 4>(iters);
}

TEST(ConformanceSmoke, FloatAllOps) {
    const std::uint64_t iters = smoke_iters();
    run_all_ops<float, 2>(iters);
    run_all_ops<float, 3>(iters);
    run_all_ops<float, 4>(iters);
}

// The generator mix must actually produce every category when the domain
// extensions are on, and every non-special output must be a valid strictly
// nonoverlapping expansion.
TEST(Generators, ProduceEveryCategoryAndStayNonoverlapping) {
    std::mt19937_64 rng(99);
    GenConfig cfg;
    cfg.subnormals = true;
    cfg.near_overflow = true;
    cfg.specials = true;
    std::uint64_t seen[category_count] = {};
    for (int i = 0; i < 20000; ++i) {
        const Category cat = pick_category(rng, cfg);
        ++seen[static_cast<int>(cat)];
        auto [x, y] = gen_pair<double, 3>(rng, cat, cfg);
        if (cat != Category::special) {
            EXPECT_TRUE(is_nonoverlapping(x)) << category_name(cat) << " sample " << i;
            // The cancellation partner is exempt by contract: its nextafter
            // nudge may straddle the strict boundary by one ulp.
            if (cat != Category::cancellation) {
                EXPECT_TRUE(is_nonoverlapping(y)) << category_name(cat) << " sample " << i;
            }
        }
    }
    for (int c = 0; c < category_count; ++c) {
        EXPECT_GT(seen[c], 0u) << "category " << category_name(static_cast<Category>(c))
                               << " never generated";
    }
}

// Structural spot checks on the targeted corners.
TEST(Generators, SubnormalAndNearOverflowHitTheirCorners) {
    std::mt19937_64 rng(7);
    GenConfig cfg;
    cfg.subnormals = true;
    cfg.near_overflow = true;
    int subnormal_lead = 0, subnormal_tail = 0, huge = 0;
    for (int i = 0; i < 4000; ++i) {
        const auto s = gen<double, 4>(rng, Category::subnormal, cfg);
        if (std::fpclassify(s.limb[0]) == FP_SUBNORMAL) ++subnormal_lead;
        for (int k = 1; k < 4; ++k) {
            if (std::fpclassify(s.limb[k]) == FP_SUBNORMAL) ++subnormal_tail;
        }
        const auto o = gen<double, 4>(rng, Category::near_overflow, cfg);
        if (!o.is_zero() && std::ilogb(o.limb[0]) >= std::numeric_limits<double>::max_exponent - 7)
            ++huge;
    }
    EXPECT_GT(subnormal_lead, 0);
    EXPECT_GT(subnormal_tail, 0);
    EXPECT_GT(huge, 3900);  // the lead exponent is near-overflow by construction
}

// Scalar kernels vs every pack width W in {1, 2, 4, 8, 16} with
// W * sizeof(T) <= 64, bit-for-bit, in every build.
TEST(Differ, BackendsBitIdentical) {
    GenConfig cfg;
    cfg.specials = true;
    std::set<int> widths;
    for (const DiffRecord& d : diff_backends<double, 2>(11, 96, 2, cfg)) {
        EXPECT_EQ(d.mismatches, 0u) << d.kernel << " on " << d.backend;
        EXPECT_GT(d.elements, 0u);
        widths.insert(d.width);
    }
    EXPECT_EQ(widths, (std::set<int>{1, 2, 4, 8}));
    widths.clear();
    for (const DiffRecord& d : diff_backends<float, 3>(12, 96, 2, cfg)) {
        EXPECT_EQ(d.mismatches, 0u) << d.kernel << " on " << d.backend;
        widths.insert(d.width);
    }
    EXPECT_EQ(widths, (std::set<int>{1, 2, 4, 8, 16}));
}

// Fault injection: a kernel that drops its last limb must (a) be caught by
// the runner and (b) shrink to a minimal counterexample of <= N limbs.
template <typename T, int N>
void fault_injection_roundtrip() {
    using MFt = MultiFloat<T, N>;
    const auto broken = [](Op o, const MFt& x, const MFt& y) {
        MFt z = apply_op(o, x, y);
        z.limb[N - 1] = T(0);
        return z;
    };
    Counterexample<T, N> worst;
    const RunStats s =
        run_conformance_with<T, N>(broken, Op::add, 42, 4000, GenConfig{}, &worst);
    ASSERT_GT(s.violations, 0u) << "injected fault not detected, N=" << N;
    ASSERT_TRUE(worst.valid);
    const int bound = s.bound;
    const auto still_fails = [&](const MFt& x, const MFt& y) {
        if (!bound_domain(Op::add, x, y)) return false;
        const MFt z = broken(Op::add, x, y);
        const big::BigFloat want = oracle(Op::add, x, y);
        if (want.is_zero()) return !exact(z).is_zero();
        return rel_err_log2(z, want) > -static_cast<double>(bound);
    };
    ASSERT_TRUE(still_fails(worst.x, worst.y));
    const auto [sx, sy] = shrink(worst.x, worst.y, still_fails);
    EXPECT_TRUE(still_fails(sx, sy));
    EXPECT_TRUE(shrink_is_minimal(sx, sy, still_fails));
    EXPECT_LE(shrink_size(sx, sy), N);
}

TEST(Shrink, FaultInjectionShrinksToMinimalWitness) {
    fault_injection_roundtrip<double, 2>();
    fault_injection_roundtrip<double, 3>();
    fault_injection_roundtrip<double, 4>();
    fault_injection_roundtrip<float, 2>();
}

// A clean kernel must never register a violation through the same path.
TEST(Shrink, NoFalsePositivesOnRealKernels) {
    Counterexample<double, 3> worst;
    const RunStats s = run_conformance<double, 3>(Op::add, 42, 4000, GenConfig{}, &worst);
    EXPECT_EQ(s.violations, 0u);
    EXPECT_TRUE(worst.valid);  // still tracks the worst-slack sample
}

// The committed seed corpus replays clean through every (op, type, N) lens.
TEST(Corpus, CommittedSeedsReplayClean) {
    std::vector<CorpusEntry> entries;
    ASSERT_TRUE(load_corpus(MF_CORPUS_DIR "/seed.corpus", &entries));
    ASSERT_FALSE(entries.empty());
    std::uint64_t replayed = 0;
    for (Op op : {Op::add, Op::sub, Op::mul, Op::div, Op::sqrt}) {
        RunStats s2 = make_stats<double, 2>(op, 0);
        RunStats s3 = make_stats<double, 3>(op, 0);
        RunStats s4 = make_stats<double, 4>(op, 0);
        RunStats f2 = make_stats<float, 2>(op, 0);
        RunStats f3 = make_stats<float, 3>(op, 0);
        RunStats f4 = make_stats<float, 4>(op, 0);
        replayed += replay_corpus<double, 2>(entries, op, &s2);
        replayed += replay_corpus<double, 3>(entries, op, &s3);
        replayed += replay_corpus<double, 4>(entries, op, &s4);
        replayed += replay_corpus<float, 2>(entries, op, &f2);
        replayed += replay_corpus<float, 3>(entries, op, &f3);
        replayed += replay_corpus<float, 4>(entries, op, &f4);
        for (const RunStats* s : {&s2, &s3, &s4, &f2, &f3, &f4}) {
            EXPECT_TRUE(s->clean()) << op_name(op) << " " << s->type << " N=" << s->limbs;
        }
    }
    EXPECT_EQ(replayed, entries.size());
}

// Corpus IO round-trips limbs exactly, including specials.
TEST(Corpus, SaveLoadRoundTrip) {
    MultiFloat<double, 3> x, y;
    x.limb[0] = 0x1.fffffffffffffp+100;
    x.limb[1] = -0x1p+40;
    x.limb[2] = std::numeric_limits<double>::quiet_NaN();
    y.limb[0] = -std::numeric_limits<double>::infinity();
    y.limb[1] = -0.0;
    y.limb[2] = std::numeric_limits<double>::denorm_min();
    std::vector<CorpusEntry> out{make_entry(Op::mul, x, y)};
    const std::string path = ::testing::TempDir() + "mf_corpus_roundtrip.txt";
    ASSERT_TRUE(save_corpus(path, out, "round-trip test"));
    std::vector<CorpusEntry> in;
    ASSERT_TRUE(load_corpus(path, &in));
    ASSERT_EQ(in.size(), 1u);
    MultiFloat<double, 3> rx, ry;
    ASSERT_TRUE((entry_as<double, 3>(in[0], &rx, &ry)));
    for (int i = 0; i < 3; ++i) {
        if (std::isnan(x.limb[i])) {
            EXPECT_TRUE(std::isnan(rx.limb[i]));
        } else {
            EXPECT_EQ(x.limb[i], rx.limb[i]) << i;
        }
        EXPECT_EQ(std::signbit(y.limb[i]), std::signbit(ry.limb[i])) << i;
        if (!std::isnan(y.limb[i])) {
            EXPECT_EQ(y.limb[i], ry.limb[i]) << i;
        }
    }
    std::remove(path.c_str());
}

// JSON telemetry: a report writes, parses as non-empty, and flags dirt.
TEST(Report, WriteAndCleanFlag) {
    ConformanceReport rep;
    rep.seed = 5;
    rep.iters_per_run = 10;
    rep.backend = "scalar";
    rep.runs.push_back(run_conformance<double, 2>(Op::add, 5, 200));
    const std::string path = ::testing::TempDir() + "mf_check_report.json";
    ASSERT_TRUE(rep.write(path));
    std::FILE* f = std::fopen(path.c_str(), "r");
    ASSERT_NE(f, nullptr);
    char buf[256] = {};
    ASSERT_GT(std::fread(buf, 1, sizeof buf - 1, f), 0u);
    std::fclose(f);
    EXPECT_NE(std::strstr(buf, "\"check\": \"conformance\""), nullptr);
    EXPECT_TRUE(rep.clean());
    rep.runs[0].violations = 1;
    EXPECT_FALSE(rep.clean());
    std::remove(path.c_str());
}

}  // namespace
