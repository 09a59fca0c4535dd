// gemm_large: blas::gemm_packed on planar Float64x2 512^3 and Float64x4
// 256^3, alternating. Nearly all time goes to the engine (packing, the
// micro-kernel, the worker team); N=2 is FP-port-bound and N=4 FPAN-bound.
// Every call's C must be bit-identical to a sequential planar::gemm
// reference computed once, untimed; C is reset between calls, untimed.
//
// The timed unit is one round (one call of each shape) and its latency is
// the round's mean call latency: with two shapes alternating, a median over
// single calls would sit on the boundary between the two modes.

#include <cstring>

#include <blas/blas.hpp>
#include <mf/multifloats.hpp>

#include "workload.hpp"

namespace perfbench {
namespace {

template <int N>
struct Shape {
    std::size_t n = 0;
    mf::planar::Vector<double, N> a, b, c, ref;

    void generate(std::size_t dim, Rng& rng) {
        n = dim;
        a.resize(n * n);
        b.resize(n * n);
        c.resize(n * n);
        for (std::size_t i = 0; i < n * n; ++i) {
            a.set(i, mf::random_unit<double, N>(rng) - 0.5);
            b.set(i, mf::random_unit<double, N>(rng) - 0.5);
        }
    }
    void reset_c() {
        for (int p = 0; p < N; ++p) std::memset(c.plane(p), 0, n * n * sizeof(double));
    }
    void call() {
        mf::blas::GemmConfig cfg;
        cfg.max_threads = kWorkers;
        mf::blas::gemm_packed<double, N>(mf::planar::matrix_view(a, n, n),
                                         mf::planar::matrix_view(b, n, n),
                                         mf::planar::matrix_view(c, n, n), cfg);
    }
    void make_reference() {
        ref.resize(n * n);
        mf::planar::gemm<double, N>(a, b, ref, n, n, n);
    }
    [[nodiscard]] bool matches_reference() const {
        for (int p = 0; p < N; ++p) {
            if (std::memcmp(c.plane(p), ref.plane(p), n * n * sizeof(double)) != 0) {
                return false;
            }
        }
        return true;
    }
    [[nodiscard]] double ops() const { return static_cast<double>(n) * n * n; }
};

/// The same product on plain double. gemm_packed has no single-limb
/// instantiation, so the double baseline is the library's double GEMM
/// (blas::gemm on views: ikj order, the same worker cap).
struct DoubleShape {
    std::size_t n = 0;
    std::vector<double> a, b, c;

    template <int N>
    void from_leading_limbs(const Shape<N>& s) {
        n = s.n;
        a.assign(s.a.plane(0), s.a.plane(0) + n * n);
        b.assign(s.b.plane(0), s.b.plane(0) + n * n);
        c.assign(n * n, 0.0);
    }
    void call() {
        mf::blas::gemm<double>(mf::blas::ConstMatrixView<double>{a.data(), n, n},
                               mf::blas::ConstMatrixView<double>{b.data(), n, n},
                               mf::blas::MatrixView<double>{c.data(), n, n});
    }
    [[nodiscard]] double ops() const { return static_cast<double>(n) * n * n; }
};

class GemmLarge final : public Workload {
public:
    explicit GemmLarge(std::uint64_t seed) : seed_(seed) {}

    void setup() override {
        Rng rng = make_rng(seed_, 1);
        s2_.generate(512, rng);
        s4_.generate(256, rng);
        s2_.reset_c();
        s2_.call();
        s4_.reset_c();
        s4_.call();
    }

    void reference() override {
        s2_.make_reference();
        s4_.make_reference();
    }

    Phase run(double seconds, Spans& spans) override {
        Phase ph;
        const auto start = Clock::now();
        while (seconds_since(start) < seconds) {
            s2_.reset_c();
            s4_.reset_c();
            const std::uint64_t round = spans.open("workload.gemm_large.round");
            const auto t0 = Clock::now();
            std::uint64_t sp = spans.open("engine.gemm_packed.f64x2", round);
            s2_.call();
            spans.close(sp);
            sp = spans.open("engine.gemm_packed.f64x4", round);
            s4_.call();
            spans.close(sp);
            const double dt = seconds_since(t0);
            spans.close(round);
            ph.call_us.push_back(dt * 1e6 / 2.0);
            ph.busy_s += dt;
            ph.ops += s2_.ops() + s4_.ops();
            ph.checked += 2;
            ph.failed += (s2_.matches_reference() ? 0 : 1) + (s4_.matches_reference() ? 0 : 1);
        }
        return ph;
    }

    Phase run_double(double seconds) override {
        if (d2_.n == 0) {
            d2_.from_leading_limbs(s2_);
            d4_.from_leading_limbs(s4_);
        }
        Phase ph;
        const auto start = Clock::now();
        while (seconds_since(start) < seconds) {
            const auto t0 = Clock::now();
            d2_.call();
            d4_.call();
            const double dt = seconds_since(t0);
            ph.call_us.push_back(dt * 1e6 / 2.0);
            ph.busy_s += dt;
            ph.ops += d2_.ops() + d4_.ops();
        }
        return ph;
    }

    void count_pass() override {
        s2_.reset_c();
        s2_.call();
        s4_.reset_c();
        s4_.call();
    }

private:
    std::uint64_t seed_;
    Shape<2> s2_;
    Shape<4> s4_;
    DoubleShape d2_, d4_;
};

}  // namespace

std::unique_ptr<Workload> make_gemm_large(std::uint64_t seed) {
    return std::make_unique<GemmLarge>(seed);
}

}  // namespace perfbench
