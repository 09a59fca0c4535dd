// Explicit-SIMD planar path vs the pre-SIMD auto-vectorized path, per pack
// width, with machine-readable output (BENCH_simd.json).
//
// The "autovec" rows re-create the seed's planar loops verbatim (plain
// per-element loop + `#pragma GCC ivdep`, compiler auto-vectorization only);
// the pack rows run the same workloads through the mf::simd kernels at every
// width W in {1, 2, 4, 8, 16} with W * sizeof(T) <= 64. A row's backend names
// the Pack<T, W> that ran it: "scalar" (W = 1), "intrinsic" (one register of
// an ISA this build compiles) or "generic" (the portable lane loop).
// Acceptance: the native width must be no slower than autovec on
// axpy/dot/gemm.
//
// Timings use median-of-K (bench::median_time) rather than best-of: these
// records feed the BENCH_*.json trajectories, where run-to-run robustness
// beats peak flattery. The JSON is stamped with git SHA / compiler / thread
// count / native ISA (harness.cpp, via mf::telemetry::build_info()).
//
//   usage: bench_simd [output.json]        (default BENCH_simd.json)

#include <cstdio>
#include <random>
#include <string>
#include <vector>

#include "blas/planar.hpp"
#include "harness.hpp"
#include "simd/simd.hpp"

namespace {

using namespace mf;

// Native flops per one extended-precision operation (one mul + one add),
// counted from the shipped networks (eft gate costs: TwoSum 6, FastTwoSum 3,
// TwoProd 2 flops):
//   N=2: add2 20 + mul2  9 =  29
//   N=3: add3 99 + mul3 51 = 150
//   N=4: add4 168 + mul4 121 = 289
// Used only to scale ns_per_op into a native-FLOP-equivalent throughput.
constexpr double flops_per_op(int n_limbs) {
    switch (n_limbs) {
        case 2: return 29.0;
        case 3: return 150.0;
        case 4: return 289.0;
        default: return 2.0;
    }
}

// --- seed (pre-SIMD) planar loops, kept verbatim as the autovec baseline ---

template <FloatingPoint T, int N>
void autovec_fma_range(const MultiFloat<T, N>& alpha, const T* const* xp,
                       T* const* yp, std::size_t i0, std::size_t i1) {
#pragma GCC ivdep
    for (std::size_t i = i0; i < i1; ++i) {
        MultiFloat<T, N> x;
        MultiFloat<T, N> y;
        for (int k = 0; k < N; ++k) {
            x.limb[k] = xp[k][i];
            y.limb[k] = yp[k][i];
        }
        const MultiFloat<T, N> z = add(mul(alpha, x), y);
        for (int k = 0; k < N; ++k) yp[k][i] = z.limb[k];
    }
}

template <FloatingPoint T, int N>
MultiFloat<T, N> autovec_dot(const planar::Vector<T, N>& x,
                             const planar::Vector<T, N>& y) {
    constexpr std::size_t K = 8;
    const std::size_t n = x.size();
    T part[N][K] = {};
    const T* xp[N];
    const T* yp[N];
    for (int k = 0; k < N; ++k) {
        xp[k] = x.plane(k);
        yp[k] = y.plane(k);
    }
    for (std::size_t blk = 0; blk + K <= n; blk += K) {
#pragma GCC ivdep
        for (std::size_t j = 0; j < K; ++j) {
            MultiFloat<T, N> xe;
            MultiFloat<T, N> ye;
            MultiFloat<T, N> acc;
            for (int k = 0; k < N; ++k) {
                xe.limb[k] = xp[k][blk + j];
                ye.limb[k] = yp[k][blk + j];
                acc.limb[k] = part[k][j];
            }
            const MultiFloat<T, N> z = add(acc, mul(xe, ye));
            for (int k = 0; k < N; ++k) part[k][j] = z.limb[k];
        }
    }
    MultiFloat<T, N> acc{};
    for (std::size_t j = 0; j < K; ++j) {
        MultiFloat<T, N> p;
        for (int k = 0; k < N; ++k) p.limb[k] = part[k][j];
        acc = add(acc, p);
    }
    for (std::size_t i = n - n % K; i < n; ++i) {
        acc = add(acc, mul(x.get(i), y.get(i)));
    }
    return acc;
}

/// planar::gemm's ikj loop with its row sweep fma(aik, brow, crow, m)
/// supplied by the caller.
template <FloatingPoint T, int N, typename Fma>
void sweep_gemm(const planar::Vector<T, N>& a, const planar::Vector<T, N>& b,
                planar::Vector<T, N>& c, std::size_t n, std::size_t k, std::size_t m,
                Fma&& fma) {
    const T* bp[N];
    T* cp[N];
    for (int p = 0; p < N; ++p) {
        bp[p] = b.plane(p);
        cp[p] = c.plane(p);
    }
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t kk = 0; kk < k; ++kk) {
            MultiFloat<T, N> aik;
            for (int p = 0; p < N; ++p) aik.limb[p] = a.plane(p)[i * k + kk];
            const T* brow[N];
            T* crow[N];
            for (int p = 0; p < N; ++p) {
                brow[p] = bp[p] + kk * m;
                crow[p] = cp[p] + i * m;
            }
            fma(aik, brow, crow, m);
        }
    }
}

// ---------------------------------------------------------------------------

/// Launder a size through a volatile so it is a runtime value for BOTH
/// measured paths. With literal sizes the compiler constant-propagates the
/// trip count into whichever path it happens to inline deeper and fully
/// unrolls it -- a specialization real (runtime-sized) workloads never get.
std::size_t runtime_size(std::size_t v) {
    volatile std::size_t s = v;
    return s;
}

template <FloatingPoint T, int N>
planar::Vector<T, N> random_planar(std::size_t n, std::uint64_t seed) {
    std::mt19937_64 rng(seed);
    planar::Vector<T, N> v(n);
    for (std::size_t i = 0; i < n; ++i) {
        MultiFloat<T, N> e(static_cast<T>(bench::fill_value(rng)));
        v.set(i, e);
    }
    return v;
}

void report(bench::JsonReport& out, const char* kernel, const char* type,
            int limbs, const std::string& backend, int width, double secs,
            double ops) {
    const double ns = secs / ops * 1e9;
    const double gflops = ops * flops_per_op(limbs) / secs / 1e9;
    std::printf("  %-6s %-7s N=%d  %-8s w=%-2d  %10.2f ns/op  %8.3f GFLOP-equiv/s\n",
                kernel, type, limbs, backend.c_str(), width, ns, gflops);
    out.add({kernel, type, limbs, backend, width, ns, gflops});
}

/// Which Pack<T, W> runs a width-W row: an intrinsic specialization is one
/// vector register, so only it is aligned to its full W * sizeof(T) bytes.
template <FloatingPoint T, int W>
const char* pack_kind() {
    if constexpr (W == 1) return "scalar";
    return alignof(simd::Pack<T, W>) == W * sizeof(T) ? "intrinsic" : "generic";
}

template <FloatingPoint T, int N>
void run_type(bench::JsonReport& out, const char* type_name) {
    const std::size_t n = runtime_size(1 << 14);
    const auto x = random_planar<T, N>(n, 1);
    auto y = random_planar<T, N>(n, 2);
    const MultiFloat<T, N> alpha(static_cast<T>(1.0 + 0x1p-30));
    const T* xp[N];
    T* yp[N];
    for (int k = 0; k < N; ++k) {
        xp[k] = x.plane(k);
        yp[k] = y.plane(k);
    }

    // Warm-up: sustain the widest-vector workload before the first
    // measurement so autovec (measured first in each block) is not flattered
    // by turbo clocks the later AVX-heavy measurements no longer get.
    bench::best_time([&] { planar::axpy(alpha, x, y); }, 0.5);

    // AXPY
    {
        const double t = bench::median_time(
            [&] { autovec_fma_range<T, N>(alpha, xp, yp, 0, n); });
        report(out, "axpy", type_name, N, "autovec", 0, t, double(n));
        simd::for_each_width<T>([&](auto w) {
            constexpr int W = w();
            const double tb = bench::median_time(
                [&] { simd::fma_range<T, N, W>(alpha, xp, yp, 0, n); });
            report(out, "axpy", type_name, N, pack_kind<T, W>(), W, tb, double(n));
        });
    }
    // DOT
    {
        MultiFloat<T, N> sink{};
        const double t = bench::median_time([&] {
            const auto d = autovec_dot(x, y);
            sink = add(sink, d);
        });
        report(out, "dot", type_name, N, "autovec", 0, t, double(n));
        simd::for_each_width<T>([&](auto w) {
            constexpr int W = w();
            const double tb = bench::median_time([&] {
                const auto d = simd::dot<T, N, W>(xp, yp, n);
                sink = add(sink, d);
            });
            report(out, "dot", type_name, N, pack_kind<T, W>(), W, tb, double(n));
        });
        if (sink.limb[0] == T(-1)) std::printf("impossible\n");  // keep sink live
    }
    // GEMM (untiled explicit path, per width)
    {
        const std::size_t gn = runtime_size(48);
        const std::size_t gk = runtime_size(48);
        const std::size_t gm = runtime_size(48);
        const double ops = double(gn) * double(gk) * double(gm);
        const auto a = random_planar<T, N>(gn * gk, 3);
        const auto bm = random_planar<T, N>(gk * gm, 4);
        planar::Vector<T, N> c(gn * gm);
        const double t = bench::median_time([&] {
            sweep_gemm(a, bm, c, gn, gk, gm, [](const auto& aik, auto brow, auto crow,
                                                std::size_t m) {
                autovec_fma_range<T, N>(aik, brow, crow, 0, m);
            });
        });
        report(out, "gemm", type_name, N, "autovec", 0, t, ops);
        simd::for_each_width<T>([&](auto w) {
            constexpr int W = w();
            const double tb = bench::median_time([&] {
                sweep_gemm(a, bm, c, gn, gk, gm, [](const auto& aik, auto brow, auto crow,
                                                    std::size_t m) {
                    simd::fma_range<T, N, W>(aik, brow, crow, 0, m);
                });
            });
            report(out, "gemm", type_name, N, pack_kind<T, W>(), W, tb, ops);
        });
    }
}

}  // namespace

int main(int argc, char** argv) {
    const std::string path = argc > 1 ? argv[1] : "BENCH_simd.json";
    bench::JsonReport out;
    out.bench = "simd_planar";
    std::printf("Explicit SIMD vs auto-vectorized planar kernels on %s\n",
                bench::cpu_name().c_str());
    std::printf("native ISA: %s\n", simd::native_isa);
    run_type<double, 2>(out, "double");
    run_type<double, 3>(out, "double");
    run_type<double, 4>(out, "double");
    run_type<float, 4>(out, "float");
    if (!out.write(path)) return 1;
    std::printf("wrote %s (%zu records)\n", path.c_str(), out.records.size());
    return 0;
}
