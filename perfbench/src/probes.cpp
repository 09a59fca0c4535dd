// Layer microbenchmarks for the traced run. Each probe calls one layer's
// public entry point directly on L1/L2-resident data and reports a median
// over repetitions:
//
//   mf         scalar FPAN ops, the EFTs, and the plain-double FMA floor
//   simd       AoS axpy/dot kernels at n = 64
//   engine     packing, the micro-kernel, fork/join, worker scaling and the
//              static partition of gemm_large's two shapes
//   guard      the entry sentinel and one FP-environment snapshot
//   telemetry  one counter increment at a call site

#include <cmath>
#include <thread>

#include <blas/blas.hpp>
#include <guard/guard.hpp>
#include <mf/multifloats.hpp>
#include <simd/dispatch.hpp>
#include <telemetry/events.hpp>

#include "workload.hpp"

namespace perfbench {
namespace {

constexpr int kReps = 15;

double g_sink = 0.0;
volatile double g_keep = 0.0;  // receives g_sink, so probe results stay observable

/// Launder a size through a volatile so the compiler cannot specialize
/// loops on a constant trip count.
std::size_t runtime_size(std::size_t n) {
    volatile std::size_t v = n;
    return v;
}

template <int N>
std::string tag() {
    return "f64x" + std::to_string(N);
}

template <int N>
void mf_probes(Json& out) {
    using MF = mf::MultiFloat<double, N>;
    const std::size_t n = runtime_size(4096);
    constexpr int kInner = 8;
    Rng rng = make_rng(0, 100 + N);
    std::vector<MF> x(n), y(n), z(n);
    for (std::size_t i = 0; i < n; ++i) {
        x[i] = mf::random_unit<double, N>(rng) + 1.0;
        y[i] = mf::random_unit<double, N>(rng) + 1.0;
    }
    auto probe = [&](const char* op, auto f) {
        const double s = time_median(kReps, [&] {
            for (int r = 0; r < kInner; ++r) {
                for (std::size_t i = 0; i < n; ++i) z[i] = f(x[i], y[i]);
                g_sink += z[r].limb[0];
            }
        });
        out.num(std::string("mf.") + op + "." + tag<N>() + ".ns", s * 1e9 / (kInner * n));
    };
    probe("add", [](const MF& a, const MF& b) { return a + b; });
    probe("mul", [](const MF& a, const MF& b) { return a * b; });
    probe("div", [](const MF& a, const MF& b) { return a / b; });
    probe("sqrt", [](const MF& a, const MF&) { return mf::sqrt(a); });
}

void eft_probes(Json& out) {
    const std::size_t n = runtime_size(4096);
    constexpr int kInner = 16;
    Rng rng = make_rng(0, 110);
    std::uniform_real_distribution<double> u(1.0, 2.0);
    std::vector<double> a(n), b(n), s(n), e(n);
    for (std::size_t i = 0; i < n; ++i) {
        a[i] = u(rng);
        b[i] = u(rng);
    }
    const double per = 1e9 / (kInner * static_cast<double>(n));
    out.num("mf.two_sum.ns", per * time_median(kReps, [&] {
        for (int r = 0; r < kInner; ++r) {
            for (std::size_t i = 0; i < n; ++i) {
                const auto t = mf::two_sum(a[i], b[i]);
                s[i] = t.sum;
                e[i] = t.err;
            }
            g_sink += s[r] + e[r];
        }
    }));
    out.num("mf.two_prod.ns", per * time_median(kReps, [&] {
        for (int r = 0; r < kInner; ++r) {
            for (std::size_t i = 0; i < n; ++i) {
                const auto t = mf::two_prod(a[i], b[i]);
                s[i] = t.prod;
                e[i] = t.err;
            }
            g_sink += s[r] + e[r];
        }
    }));
    // Plain-double FMA throughput: the floor every FPAN op is built from.
    const double alpha = 1.0 + 0x1p-30;
    out.num("mf.fp_floor.ns", per * time_median(kReps, [&] {
        for (int r = 0; r < kInner; ++r) {
            for (std::size_t i = 0; i < n; ++i) s[i] = std::fma(alpha, a[i], s[i]);
            g_sink += s[r];
        }
    }));
}

template <int N>
void simd_probes(Json& out) {
    using MF = mf::MultiFloat<double, N>;
    const std::size_t n = runtime_size(64);
    constexpr int kInner = 256;
    Rng rng = make_rng(0, 120 + N);
    std::vector<MF> x(n), y(n);
    for (std::size_t i = 0; i < n; ++i) {
        x[i] = mf::random_unit<double, N>(rng) - 0.5;
        y[i] = mf::random_unit<double, N>(rng) - 0.5;
    }
    const MF alpha(0x1p-20);
    const double per = 1e9 / (kInner * static_cast<double>(n));
    out.num("simd.axpy_aos." + tag<N>() + ".ns_per_op", per * time_median(kReps, [&] {
        for (int r = 0; r < kInner; ++r) mf::simd::axpy_aos<double, N>(alpha, x.data(), y.data(), n);
        g_sink += y[0].limb[0];
    }));
    out.num("simd.dot_aos." + tag<N>() + ".ns_per_op", per * time_median(kReps, [&] {
        for (int r = 0; r < kInner; ++r) {
            g_sink += mf::simd::dot_aos<double, N>(x.data(), y.data(), n).limb[0];
        }
    }));
}

/// Engine probes on one of gemm_large's shapes (dim^3 at N limbs).
template <int N>
void engine_probes(Json& out, std::size_t dim) {
    namespace eng = mf::blas::engine;
    using Vec = mf::planar::Vector<double, N>;
    Rng rng = make_rng(0, 130 + N);
    Vec a(dim * dim), b(dim * dim), c(dim * dim);
    for (std::size_t i = 0; i < dim * dim; ++i) {
        a.set(i, mf::random_unit<double, N>(rng) - 0.5);
        b.set(i, mf::random_unit<double, N>(rng) - 0.5);
    }
    const mf::planar::ConstMatrixView<double, N> av = mf::planar::matrix_view(std::as_const(a), dim, dim);
    const mf::planar::ConstMatrixView<double, N> bv = mf::planar::matrix_view(std::as_const(b), dim, dim);
    const mf::planar::MatrixView<double, N> cv = mf::planar::matrix_view(c, dim, dim);
    const std::string t = tag<N>();
    const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());

    double pack_total_s = 0.0;
    std::size_t mc = 0;
    mf::simd::with_active_width<double>([&](auto w) {
        constexpr int W = w();
        using MK = eng::MicroKernel<double, N, W>;
        const mf::blas::BlockShape bs = eng::auto_blocks<double, N>(MK::MR, MK::NR, {});
        mc = bs.mc;
        const std::size_t mcb = std::min(bs.mc, dim);
        const std::size_t kcb = std::min(bs.kc, dim);
        const std::size_t ncb = std::min(bs.nc, dim);
        eng::AlignedBuffer<double> abuf, bbuf;
        const double* apk[N];
        const double* bpk[N];
        out.num("engine.pack_a." + t + ".us",
                1e6 * time_median(kReps, [&] { eng::pack_a<double, N>(av, 0, 0, mcb, kcb, abuf, apk); }));
        out.num("engine.pack_b." + t + ".us",
                1e6 * time_median(kReps, [&] { eng::pack_b<double, N>(bv, 0, 0, kcb, ncb, bbuf, bpk); }));

        // Micro-kernel over every full tile of one packed (A block, B panel).
        double tiles = 0;
        const double s_mk = time_median(5, [&] {
            tiles = 0;
            for (std::size_t jr = 0; jr + MK::NR <= ncb; jr += MK::NR) {
                const double* bpt[N];
                for (int p = 0; p < N; ++p) bpt[p] = bpk[p] + jr;
                for (std::size_t ir = 0; ir + MK::MR <= mcb; ir += MK::MR) {
                    const double* apt[N];
                    double* cpt[N];
                    for (int p = 0; p < N; ++p) {
                        apt[p] = apk[p] + ir * kcb;
                        cpt[p] = cv.row(p, ir) + jr;
                    }
                    MK::full(apt, kcb, bpt, ncb, cpt, cv.stride, kcb);
                    tiles += 1;
                }
            }
        });
        out.num("engine.microkernel." + t + ".ns_per_op",
                s_mk * 1e9 / (tiles * MK::MR * MK::NR * static_cast<double>(kcb)));

        // Every pack gemm_packed performs for one dim^3 call, without the
        // micro-kernel: the pack work of a single-worker call.
        pack_total_s = time_median(5, [&] {
            for (std::size_t jc = 0; jc < dim; jc += bs.nc) {
                const std::size_t nb = std::min(bs.nc, dim - jc);
                for (std::size_t pc = 0; pc < dim; pc += bs.kc) {
                    const std::size_t kb = std::min(bs.kc, dim - pc);
                    eng::pack_b<double, N>(bv, pc, jc, kb, nb, bbuf, bpk);
                    for (std::size_t ic = 0; ic < dim; ic += bs.mc) {
                        eng::pack_a<double, N>(av, ic, pc, std::min(bs.mc, dim - ic), kb, abuf, apk);
                    }
                }
            }
        });
    });

    // Worker scaling: 1 worker, the workload's 2, and nproc; interleaved.
    std::vector<double> t1, t2, tp;
    auto call = [&](unsigned workers) {
        mf::blas::GemmConfig cfg;
        cfg.max_threads = workers;
        const auto t0 = Clock::now();
        mf::blas::gemm_packed<double, N>(av, bv, cv, cfg);
        return seconds_since(t0);
    };
    call(nproc);  // first-touch of the nproc team
    for (int r = 0; r < 3; ++r) {
        t1.push_back(call(1));
        t2.push_back(call(kWorkers));
        tp.push_back(call(nproc));
    }
    const double m1 = median(t1), m2 = median(t2), mp = median(tp);
    out.num("engine.pack_share." + t, pack_total_s / m1);
    out.num("engine.speedup." + t, m1 / m2);
    out.num("engine.efficiency_nproc." + t, m1 / (mp * nproc));

    // Static owner-computes partition at nproc workers: most blocks any
    // worker owns, over the mean across the nproc workers.
    const std::size_t nblocks = (dim + mc - 1) / mc;
    const unsigned nw = eng::planned_workers(nblocks, eng::ThreadMode::automatic, nproc);
    std::size_t most = 0;
    for (unsigned wk = 0; wk < nw; ++wk) {
        most = std::max(most, nblocks * (wk + 1) / nw - nblocks * wk / nw);
    }
    out.num("engine.partition_imbalance." + t,
            static_cast<double>(most) / (static_cast<double>(nblocks) / nproc));
}

void fork_join_probe(Json& out) {
    namespace eng = mf::blas::engine;
    constexpr int kCalls = 2000;
    const double s = time_median(7, [&] {
        for (int r = 0; r < kCalls; ++r) {
            eng::parallel_blocks_slots(
                kWorkers, [](std::size_t, unsigned) {}, eng::ThreadMode::automatic, kWorkers);
        }
    });
    out.num("engine.fork_join.us", s * 1e6 / kCalls);
}

double guard_probes(Json& out) {
    constexpr int kCalls = 20000;
    const double sentinel_ns = 1e9 / kCalls * time_median(kReps, [] {
        for (int r = 0; r < kCalls; ++r) {
            const mf::guard::Sentinel s("perfbench.probe");
        }
    });
    out.num("guard.sentinel.ns", sentinel_ns);
    out.num("guard.fp_env_snapshot.ns", 1e9 / kCalls * time_median(kReps, [] {
        for (int r = 0; r < kCalls; ++r) {
            g_sink += static_cast<double>(mf::guard::fp_env_snapshot().raw_control);
        }
    }));
    return sentinel_ns;
}

void telemetry_probe(Json& out) {
    const std::size_t calls = runtime_size(1 << 20);
    out.num("telemetry.count.ns", 1e9 / static_cast<double>(calls) * time_median(kReps, [&] {
        for (std::size_t r = 0; r < calls; ++r) MF_TELEM_COUNT("perfbench_probe_total");
    }));
}

}  // namespace

double layer_probes(Json& out) {
    mf_probes<2>(out);
    mf_probes<3>(out);
    mf_probes<4>(out);
    eft_probes(out);
    simd_probes<2>(out);
    simd_probes<3>(out);
    simd_probes<4>(out);
    engine_probes<2>(out, 512);
    engine_probes<4>(out, 256);
    fork_join_probe(out);
    const double sentinel_ns = guard_probes(out);
    telemetry_probe(out);
    g_keep = g_sink;
    return sentinel_ns;
}

}  // namespace perfbench
