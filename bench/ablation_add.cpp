// Ablation for §4.1 / DESIGN.md: how many FastTwoSum renormalization passes
// does the addition sweep need? renorms=0 matches the paper's gate counts
// exactly (26 gates for 4-term) but the exhaustive small-p checker proves it
// INCORRECT for n=3 (rare 1-bit nonoverlap violations); renorms=1 is the
// verified shipping configuration. This bench quantifies what that
// correctness costs.
//
// Every variant is the fpan::add_sweep<N, RENORMS> table run by the same
// fpan::run as the shipped kernel. Exits 1 unless the renorms=1 variant is
// bit-identical to mf::add on every operand pair (the ctest smoke
// bench_ablation_add_smoke), so the ablation times the shipped network.
// The pairs include ladder, straddle and cancellation pairs from the
// conformance generators, and the shipped table is also compared with the
// renorms=1 sweep on 200000 p = 3 SoftFloat sums, so a shipped table with
// another renormalization count or a reordered first pass fails the smoke.

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <random>
#include <span>
#include <utility>
#include <vector>

#include "check/generators.hpp"
#include "fpan/executor.hpp"
#include "fpan/library.hpp"
#include "harness.hpp"
#include "mf/multifloats.hpp"
#include "softfloat/softfloat.hpp"

using namespace mf;

namespace {

// Inlined like the shipped kernel, so every variant is timed the same way.
template <int N, int RENORMS, std::size_t... I>
MF_ALWAYS_INLINE MultiFloat<double, N> add_variant(const MultiFloat<double, N>& x, const MultiFloat<double, N>& y,
                                  std::index_sequence<I...>) noexcept {
    double w[] = {(I % 2 == 0 ? x : y).limb[I / 2]...};  // [x0, y0, x1, y1, ...]
    return MultiFloat<double, N>(fpan::run<fpan::add_sweep<N, RENORMS>()>(w));
}

template <int N, int RENORMS>
MF_ALWAYS_INLINE MultiFloat<double, N> add_variant(const MultiFloat<double, N>& x,
                                  const MultiFloat<double, N>& y) noexcept {
    return add_variant<N, RENORMS>(x, y, std::make_index_sequence<2 * N>{});
}

template <int N>
std::vector<MultiFloat<double, N>> operands(std::uint64_t seed) {
    std::mt19937_64 rng(seed);
    std::vector<MultiFloat<double, N>> v;
    for (int i = 0; i < 1024; ++i) {
        MultiFloat<double, N> x(1.0 + static_cast<double>(rng() >> 12) * 0x1p-52);
        for (int k = 1; k < N; ++k) {
            x = x + std::ldexp(1.0 + static_cast<double>(rng() >> 12) * 0x1p-52,
                               -55 * k);
        }
        v.push_back(x);
    }
    return v;
}

/// Operand pairs from the conformance generators (check::gen_pair), 1024
/// each of the ladder, straddle and cancellation categories: sums whose
/// limbs are sparse or tight, cross a power of two or cancel their leading
/// limbs, beyond the one shape of the timing operands above.
template <int N>
std::vector<std::pair<MultiFloat<double, N>, MultiFloat<double, N>>> check_pairs(
    std::uint64_t seed) {
    std::mt19937_64 rng(seed);
    std::vector<std::pair<MultiFloat<double, N>, MultiFloat<double, N>>> v;
    for (const check::Category c :
         {check::Category::ladder, check::Category::straddle, check::Category::cancellation}) {
        for (int i = 0; i < 1024; ++i) v.push_back(check::gen_pair<double, N>(rng, c));
    }
    return v;
}

/// Number of sums on which add_variant<N, 1> and mf::add differ in any bit:
/// x + y and x - y over the timing operands (the differences cancel leading
/// bits), then the check_pairs sums.
template <int N>
int shipped_mismatches(const std::vector<MultiFloat<double, N>>& xs,
                       const std::vector<MultiFloat<double, N>>& ys,
                       const std::vector<std::pair<MultiFloat<double, N>,
                                                   MultiFloat<double, N>>>& pairs) {
    const auto differs = [](const MultiFloat<double, N>& x, const MultiFloat<double, N>& y) {
        const auto v = add_variant<N, 1>(x, y);
        const auto z = add(x, y);
        return std::memcmp(v.limb.data(), z.limb.data(), sizeof(v.limb)) != 0;
    };
    int bad = 0;
    for (std::size_t i = 0; i < xs.size(); ++i) {
        bad += differs(xs[i], ys[i]);
        bad += differs(xs[i], -ys[i]);
    }
    for (const auto& [x, y] : pairs) bad += differs(x, y);
    return bad;
}

/// Number of p = 3 operand pairs on which the shipped table fpan::add_table<N>
/// and add_sweep<N, 1> differ, both run by the independent executor over
/// SoftFloat wires. Which gate order or how many renormalization passes a
/// sweep has decides a result only through rare rounding ties, whose share
/// falls by about 2^-p: at p = 53 no generator pair above sees two passes
/// instead of one, or two first-pass gates swapped, while at p = 3 about
/// one random pair in 10^4 does.
template <int N>
int small_p_mismatches() {
    constexpr int p = 3;
    const fpan::Network shipped = fpan::to_network("shipped", fpan::add_table<N>);
    const fpan::Network sweep = fpan::to_network("sweep", fpan::add_sweep<N, 1>());
    std::mt19937_64 rng(4);
    const auto outputs = [](const fpan::Network& net, std::vector<soft::SoftFloat> w) {
        fpan::execute(net, std::span<soft::SoftFloat>(w));
        std::vector<soft::SoftFloat> out;
        for (const int o : net.outputs) out.push_back(w[static_cast<std::size_t>(o)]);
        return out;
    };
    int bad = 0;
    for (int t = 0; t < 200000; ++t) {
        // Wires [x0, y0, x1, y1, ...]: two nonoverlapping p-bit expansions
        // (limb gaps p + 1 to p + 3), leading exponents within 2^+-2.
        std::vector<soft::SoftFloat> w(2 * N, soft::SoftFloat(p));
        for (int s = 0; s < 2; ++s) {
            std::int64_t e = static_cast<std::int64_t>(rng() % 5) - 2;
            for (int i = 0; i < N; ++i) {
                const std::uint64_t m = (1u << (p - 1)) | (rng() & ((1u << (p - 1)) - 1));
                w[static_cast<std::size_t>(2 * i + s)] =
                    soft::SoftFloat::make(p, rng() % 2 ? 1 : -1, m, e - (p - 1));
                e -= p + 1 + static_cast<std::int64_t>(rng() % 3);
            }
        }
        bad += outputs(shipped, w) != outputs(sweep, w);
    }
    return bad;
}

/// Times the three variants at N; returns false when renorms=1 is not the
/// shipped kernel.
template <int N>
bool run() {
    const auto xs = operands<N>(1);
    const auto ys = operands<N>(2);
    const auto pairs = check_pairs<N>(3);
    const int bad = shipped_mismatches<N>(xs, ys, pairs);
    std::vector<MultiFloat<double, N>> zs(1024);
    const double t0 = bench::best_time([&] {
        for (std::size_t i = 0; i < 1024; ++i) zs[i] = add_variant<N, 0>(xs[i], ys[i]);
    });
    const double t1 = bench::best_time([&] {
        for (std::size_t i = 0; i < 1024; ++i) zs[i] = add_variant<N, 1>(xs[i], ys[i]);
    });
    const double t2 = bench::best_time([&] {
        for (std::size_t i = 0; i < 1024; ++i) zs[i] = add_variant<N, 2>(xs[i], ys[i]);
    });
    std::printf("add N=%d [ns/op]: renorms=0 %6.2f (UNSOUND, paper-size)  "
                "renorms=1 %6.2f (shipped)  renorms=2 %6.2f\n",
                N, t0 / 1024 * 1e9, t1 / 1024 * 1e9, t2 / 1024 * 1e9);
    std::printf("  correctness cost of renorms=1 over renorms=0: %.1f%%\n",
                (t1 / t0 - 1.0) * 100.0);
    std::printf("  renorms=1 vs mf::add: %d / %zu sums and differences differ\n", bad,
                2 * xs.size() + pairs.size());
    const int small = small_p_mismatches<N>();
    std::printf("  renorms=1 vs the shipped table at p = 3: %d / 200000 sums differ\n", small);
    return bad == 0 && small == 0;
}

}  // namespace

int main() {
    std::printf("Ablation: renormalization passes in the addition sweep\n"
                "(renorms=0 reproduces the paper's exact gate counts but fails\n"
                " exhaustive verification; see tests/fpan_verify_test.cpp)\n\n");
    const bool ok3 = run<3>();
    const bool ok4 = run<4>();
    return ok3 && ok4 ? 0 : 1;
}
