// Ablation: memory layout. The same branch-free networks run over
// array-of-structs (AoS) spans -- W elements read with N full-width loads and
// transposed into limb packs in registers (simd::axpy_aos / dot_aos, the
// kernels under mf::blas) -- and over planar structure-of-arrays (SoA)
// vectors, whose packs load limb planes directly (simd::fma_range / dot, the
// kernels under planar::axpy / dot). Both sides run the identical pack
// networks at the build's native width on the calling thread, so the uplift
// is the cost of the transposes alone. Branchy baselines (QD, CAMPARY)
// cannot be laid out either way, because their control flow diverges per
// element.
//
// Each AoS kernel must also reproduce its planar twin bit for bit on the
// same values; the program exits 1 when one differs, so the ctest smoke
// `bench_ablation_layout_smoke` keeps the ablation honest. Timings are
// reported, not gated.

#include <bit>
#include <cstdint>
#include <cstdio>
#include <random>
#include <vector>

#include "blas/planar.hpp"
#include "check/generators.hpp"
#include "harness.hpp"
#include "simd/simd.hpp"

using namespace mf;

namespace {

template <int N>
bool same_bits(const MultiFloat<double, N>& a, const MultiFloat<double, N>& b) {
    for (int k = 0; k < N; ++k) {
        if (std::bit_cast<std::uint64_t>(a.limb[k]) != std::bit_cast<std::uint64_t>(b.limb[k])) {
            return false;
        }
    }
    return true;
}

/// Times and checks one N; false when an AoS result differs from the planar one.
template <int N>
bool run() {
    using V = MultiFloat<double, N>;
    // Through a volatile, so GCC cannot constant-propagate the trip count.
    const volatile std::size_t size = 1 << 15;
    const std::size_t n = size;
    std::mt19937_64 rng(1);
    planar::Vector<double, N> x(n);
    planar::Vector<double, N> y(n);
    std::vector<V> xa(n);
    std::vector<V> ya(n);
    for (std::size_t i = 0; i < n; ++i) {
        xa[i] = check::gen<double, N>(rng, check::Category::ladder);
        ya[i] = check::gen<double, N>(rng, check::Category::ladder);
        x.set(i, xa[i]);
        y.set(i, ya[i]);
    }
    const V alpha = check::gen<double, N>(rng, check::Category::ladder);
    const double* xp[N];
    const double* yp[N];
    double* yw[N];
    for (int k = 0; k < N; ++k) {
        xp[k] = x.plane(k);
        yp[k] = y.plane(k);
        yw[k] = y.plane(k);
    }
    const auto axpy_aos = [&] { simd::axpy_aos<double, N>(alpha, xa.data(), ya.data(), n); };
    const auto axpy_soa = [&] { simd::fma_range<double, N>(alpha, xp, yw, 0, n); };
    const auto dot_aos = [&] { return simd::dot_aos<double, N>(xa.data(), ya.data(), n); };
    const auto dot_soa = [&] { return simd::dot<double, N>(xp, yp, n); };

    // Bit identity first, on the untouched operands.
    bool ok = same_bits(dot_aos(), dot_soa());
    axpy_aos();
    axpy_soa();
    for (std::size_t i = 0; i < n && ok; ++i) ok = same_bits(ya[i], y.get(i));

    const double t_axpy_aos = bench::best_time(axpy_aos);
    const double t_axpy_soa = bench::best_time(axpy_soa);
    volatile double sink = 0.0;
    const double t_dot_aos = bench::best_time([&] { sink = sink + dot_aos().limb[0]; });
    const double t_dot_soa = bench::best_time([&] { sink = sink + dot_soa().limb[0]; });

    const double scale = static_cast<double>(n) / 1e6;
    std::printf("N=%d  AXPY: AoS %8.2f Mop/s | SoA %8.2f Mop/s | uplift %.2fx\n", N,
                scale / t_axpy_aos, scale / t_axpy_soa, t_axpy_aos / t_axpy_soa);
    std::printf("N=%d  DOT : AoS %8.2f Mop/s | SoA %8.2f Mop/s | uplift %.2fx\n", N,
                scale / t_dot_aos, scale / t_dot_soa, t_dot_aos / t_dot_soa);
    if (!ok) std::printf("N=%d  FAIL: AoS and SoA results differ\n", N);
    return ok;
}

}  // namespace

int main() {
    std::printf("Ablation: AoS (packs transposed in registers) vs SoA (direct pack\n"
                "loads) layouts for the branch-free kernels, %s pack width %d, one\n"
                "thread. The uplift is the marshalling cost the planar layout removes.\n\n",
                simd::native_isa, simd::native_width<double>);
    bool ok = run<2>();
    ok = run<3>() && ok;
    ok = run<4>() && ok;
    return ok ? 0 : 1;
}
