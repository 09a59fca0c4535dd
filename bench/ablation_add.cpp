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

#include <cstdio>
#include <cstring>
#include <random>
#include <utility>
#include <vector>

#include "harness.hpp"
#include "mf/multifloats.hpp"

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

/// Number of sums x + y and differences x - y on which add_variant<N, 1>
/// and mf::add differ in any bit. The differences cancel leading bits, where
/// the renormalization pass does work.
template <int N>
int shipped_mismatches(const std::vector<MultiFloat<double, N>>& xs,
                       const std::vector<MultiFloat<double, N>>& ys) {
    int bad = 0;
    for (std::size_t i = 0; i < xs.size(); ++i) {
        for (const auto& y : {ys[i], -ys[i]}) {
            const auto v = add_variant<N, 1>(xs[i], y);
            const auto z = add(xs[i], y);
            bad += std::memcmp(v.limb.data(), z.limb.data(), sizeof(v.limb)) != 0;
        }
    }
    return bad;
}

/// Times the three variants at N; returns false when renorms=1 is not the
/// shipped kernel.
template <int N>
bool run() {
    const auto xs = operands<N>(1);
    const auto ys = operands<N>(2);
    const int bad = shipped_mismatches<N>(xs, ys);
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
                2 * xs.size());
    return bad == 0;
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
