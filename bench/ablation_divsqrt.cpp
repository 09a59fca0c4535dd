// Ablation for §4.3: progressive-width Newton iteration (the library's
// recip/rsqrt) vs. naive full-width iteration (local reference helpers
// below). The paper's optimization runs early iterations at half the
// expansion width (they only carry ~2^k * p correct bits); this bench
// quantifies the saving and audits both variants against the exact oracle on
// the generator corners where the half-width seed is taken (gap ladders,
// power-of-two straddles, Eq. 8 boundary tails).
//
// Exits non-zero when either variant misses the Np - N - 4 bit target, so
// the ctest smoke `bench_ablation_divsqrt_smoke` keeps the ablation honest.

#include <algorithm>
#include <cstdio>
#include <random>
#include <vector>

#include "bigfloat/bigfloat.hpp"
#include "check/generators.hpp"
#include "check/oracle.hpp"
#include "harness.hpp"
#include "mf/multifloats.hpp"

using namespace mf;
using mf::big::BigFloat;

namespace {

constexpr std::size_t kCount = 512;

/// Full-width Newton iterations from the machine-precision seed:
/// ceil(log2(N)) + 1, enough to saturate an N-term expansion.
template <int N>
inline constexpr int kFullIters = (N <= 2) ? 2 : 3;

/// Reference reciprocal: every Newton iterate at the full N-limb width.
template <int N>
MF_ALWAYS_INLINE MultiFloat<double, N> recip_full(const MultiFloat<double, N>& a) {
    const MultiFloat<double, N> one(1.0);
    MultiFloat<double, N> r(1.0 / a.limb[0]);
    for (int k = 0; k < kFullIters<N>; ++k) r = r + r * (one - a * r);
    return r;
}

/// Reference inverse square root: every Newton iterate at full width, with
/// the library's limb-wise halving so only the width schedule differs.
template <int N>
MF_ALWAYS_INLINE MultiFloat<double, N> rsqrt_full(const MultiFloat<double, N>& a) {
    const MultiFloat<double, N> one(1.0);
    MultiFloat<double, N> r(1.0 / std::sqrt(a.limb[0]));
    for (int k = 0; k < kFullIters<N>; ++k) r = r + detail::half(r * (one - a * (r * r)));
    return r;
}

/// Positive inputs cycling through the ladder, straddle and boundary corners.
template <int N>
std::vector<MultiFloat<double, N>> inputs() {
    std::mt19937_64 rng(42 + N);
    check::GenConfig cfg;
    cfg.lead_min = -15;
    cfg.lead_max = 15;
    std::vector<MultiFloat<double, N>> xs(kCount);
    for (std::size_t i = 0; i < kCount; ++i) {
        switch (i % 3) {
            case 0: xs[i] = abs(check::gen_ladder<double, N>(rng, cfg)); break;
            case 1: xs[i] = abs(check::gen_straddle<double, N>(rng, cfg)); break;
            default: xs[i] = abs(check::gen_boundary<double, N>(rng, cfg)); break;
        }
        if (xs[i].is_zero()) xs[i] = MultiFloat<double, N>(3.0);
    }
    return xs;
}

/// Times both variants of one function and audits them against `want`.
/// Returns false when either misses the Np - N - 4 target.
template <int N, typename Full, typename Prog, typename Want>
bool compare(const char* name, const std::vector<MultiFloat<double, N>>& xs, Full full,
             Prog prog, Want want) {
    std::vector<MultiFloat<double, N>> out(xs.size());
    const double t_full = bench::best_time([&] {
        for (std::size_t i = 0; i < xs.size(); ++i) out[i] = full(xs[i]);
    });
    const double t_prog = bench::best_time([&] {
        for (std::size_t i = 0; i < xs.size(); ++i) out[i] = prog(xs[i]);
    });

    double worst_full = -1e9;
    double worst_prog = -1e9;
    for (const auto& x : xs) {
        const BigFloat w = want(check::exact(x));
        worst_full = std::max(worst_full, check::rel_err_log2(full(x), w));
        worst_prog = std::max(worst_prog, check::rel_err_log2(prog(x), w));
    }

    const int target = N * 53 - N - 4;
    const bool ok = worst_full <= -target && worst_prog <= -target;
    std::printf("%-5s N=%d: full-width %7.1f ns/op | progressive %7.1f ns/op | speedup %.2fx\n",
                name, N, t_full / static_cast<double>(xs.size()) * 1e9,
                t_prog / static_cast<double>(xs.size()) * 1e9, t_full / t_prog);
    std::printf("            worst error: full-width 2^%.1f, progressive 2^%.1f "
                "(target 2^-%d) %s\n",
                worst_full, worst_prog, target, ok ? "ok" : "MISSED");
    return ok;
}

template <int N>
bool run_ablation() {
    const auto xs = inputs<N>();
    const std::int64_t prec = check::oracle_prec(53, N);
    const bool r = compare<N>(
        "recip", xs, [](const auto& a) { return recip_full(a); },
        [](const auto& a) { return recip(a); },
        [&](const BigFloat& a) { return BigFloat::div(BigFloat::from_int(1), a, prec); });
    const bool s = compare<N>(
        "rsqrt", xs, [](const auto& a) { return rsqrt_full(a); },
        [](const auto& a) { return rsqrt(a); },
        [&](const BigFloat& a) {
            return BigFloat::div(BigFloat::from_int(1), BigFloat::sqrt(a, prec + 16), prec);
        });
    return r && s;
}

}  // namespace

int main() {
    std::printf("Ablation (paper §4.3): progressive-width Newton recip / rsqrt\n\n");
    bool ok = run_ablation<2>();
    ok = run_ablation<3>() && ok;
    ok = run_ablation<4>() && ok;
    std::printf("\n%s\n", ok ? "all variants within target" : "accuracy target MISSED");
    return ok ? 0 : 1;
}
