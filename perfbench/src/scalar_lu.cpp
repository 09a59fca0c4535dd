// scalar_lu: seeded ill-conditioned dense systems solved by Gaussian
// elimination written in plain MultiFloat operators, as user code would.
// Only the mf layer runs: add, mul and div with their renormalization; no
// BLAS call, no guard sentinel, no library thread.
//
// Systems: A = H_s + lambda I with H_s a shifted Hilbert matrix
// (1 / (i + j + 1 + s), s in [0, 1)) and lambda = 2^-e, e in [28, 38). H_s
// is positive definite with spectrum below 2, so cond(A) < 2^39 and
// elimination needs no pivoting. The exact solution x* has single-double
// entries; b = A x* is formed in Float64x4 and rounded to N limbs. Every
// solve's forward error max|x - x*| / max|x*| must stay below
// 2^(46 - (53N - N)) = 2^39 * 2^7 * u: cond(A) times the n u backward error
// of elimination on a positive definite matrix (growth factor at most 1),
// with u the paper's add/mul bound.

#include <algorithm>

#include <mf/multifloats.hpp>

#include "workload.hpp"

namespace perfbench {
namespace {

constexpr std::size_t kSystemsPerN = 32;
constexpr std::size_t kMinDim = 64;
constexpr std::size_t kMaxDim = 96;

/// x = A^-1 b by elimination without pivoting and back substitution.
template <typename V>
void lu_solve(const std::vector<V>& a, const std::vector<V>& b, std::size_t n,
              std::vector<V>& work, std::vector<V>& x) {
    work.assign(a.begin(), a.end());
    x.assign(b.begin(), b.end());
    for (std::size_t k = 0; k < n; ++k) {
        const V pivot = work[k * n + k];
        for (std::size_t i = k + 1; i < n; ++i) {
            const V l = work[i * n + k] / pivot;
            for (std::size_t j = k + 1; j < n; ++j) work[i * n + j] -= l * work[k * n + j];
            x[i] -= l * x[k];
        }
    }
    for (std::size_t i = n; i-- > 0;) {
        V s = x[i];
        for (std::size_t j = i + 1; j < n; ++j) s -= work[i * n + j] * x[j];
        x[i] = s / work[i * n + i];
    }
}

/// Analytic op count of lu_solve: each mul+add pair and each division is one.
double lu_ops(std::size_t n) {
    double ops = 0;
    for (std::size_t m = 0; m < n; ++m) {
        const double d = static_cast<double>(m);
        ops += d * d + 2 * d;  // trailing update, b update, multipliers
    }
    const double dn = static_cast<double>(n);
    return ops + dn * (dn - 1) / 2 + dn;  // back substitution + diagonal divisions
}

template <typename V>
mf::Float64x4 widen(const V& v) {
    if constexpr (std::is_same_v<V, double>) {
        return mf::Float64x4(v);
    } else {
        return v.template resize<4>();
    }
}

template <typename V>
V narrow(const mf::Float64x4& v) {
    if constexpr (std::is_same_v<V, double>) {
        return v.to_float();
    } else {
        return v.template resize<V::num_limbs>();
    }
}

template <typename V>
struct System {
    std::size_t n = 0;
    double shift = 0.0;
    int e = 0;
    std::vector<V> a, b;
    std::vector<double> x_star;

    void generate(std::size_t dim, double s, int exponent, Rng& rng) {
        n = dim;
        shift = s;
        e = exponent;
        // H_s is a Hankel matrix: entry (i, j) depends on i + j only.
        std::vector<V> h(2 * n - 1);
        for (std::size_t k = 0; k < h.size(); ++k) {
            h[k] = V(1.0) / (V(static_cast<double>(k + 1)) + V(shift));
        }
        a.resize(n * n);
        for (std::size_t i = 0; i < n; ++i) {
            for (std::size_t j = 0; j < n; ++j) a[i * n + j] = h[i + j];
            a[i * n + i] += V(std::ldexp(1.0, -e));
        }
        std::uniform_real_distribution<double> u(-1.0, 1.0);
        x_star.resize(n);
        for (double& v : x_star) v = u(rng);
        b.resize(n);
        for (std::size_t i = 0; i < n; ++i) {
            mf::Float64x4 acc{};
            for (std::size_t j = 0; j < n; ++j) acc += widen(a[i * n + j]) * x_star[j];
            b[i] = narrow<V>(acc);
        }
    }
};

template <int N>
double tolerance() {
    return std::ldexp(1.0, 46 - (53 * N - N));
}

class ScalarLu final : public Workload {
    // Declared first: the members below deduce with_n's return type.
    template <int N>
    struct Set {
        std::vector<System<mf::MultiFloat<double, N>>> sys;
        std::vector<mf::MultiFloat<double, N>> work, x;
    };

    /// f(set) on the systems of expansion length N.
    template <typename F>
    auto with_n(int N, F&& f) {
        switch (N) {
            case 2: return f(s2_);
            case 3: return f(s3_);
            default: return f(s4_);
        }
    }

public:
    explicit ScalarLu(std::uint64_t seed) : seed_(seed) {}

    void setup() override {
        Rng rng = make_rng(seed_, 4);
        generate(s2_, rng);
        generate(s3_, rng);
        generate(s4_, rng);
        order_.clear();
        for (int N = 2; N <= 4; ++N) {
            for (std::size_t i = 0; i < kSystemsPerN; ++i) order_.push_back({N, i});
        }
        std::shuffle(order_.begin(), order_.end(), rng);
        // First solve at each N.
        for (int N = 2; N <= 4; ++N) solve(N, 0);
    }

    Phase run(double seconds, Spans& spans) override {
        Phase ph;
        const auto start = Clock::now();
        for (std::size_t i = 0; seconds_since(start) < seconds; ++i) {
            const auto [N, idx] = order_[i % order_.size()];
            static const char* names[3] = {"mf.lu_solve.f64x2", "mf.lu_solve.f64x3",
                                           "mf.lu_solve.f64x4"};
            const std::uint64_t sp = spans.open(names[N - 2]);
            const auto t0 = Clock::now();
            solve(N, idx);
            const double dt = seconds_since(t0);
            spans.close(sp);
            ph.call_us.push_back(dt * 1e6);
            ph.busy_s += dt;
            ph.ops += lu_ops(dim(N, idx));
            ++ph.checked;
            if (!check(N, idx)) ++ph.failed;
        }
        return ph;
    }

    Phase run_double(double seconds) override {
        if (d_.empty()) {
            Rng rng = make_rng(seed_, 5);
            d_.resize(order_.size());
            for (std::size_t i = 0; i < order_.size(); ++i) {
                const auto [N, idx] = order_[i];
                with_n(N, [&](auto& s) {
                    const auto& src = s.sys[idx];
                    d_[i].generate(src.n, src.shift, src.e, rng);
                });
            }
        }
        Phase ph;
        std::vector<double> work, x;
        const auto start = Clock::now();
        for (std::size_t i = 0; seconds_since(start) < seconds; ++i) {
            const System<double>& s = d_[i % d_.size()];
            const auto t0 = Clock::now();
            lu_solve(s.a, s.b, s.n, work, x);
            const double dt = seconds_since(t0);
            sink_ += x[0];
            ph.call_us.push_back(dt * 1e6);
            ph.busy_s += dt;
            ph.ops += lu_ops(s.n);
        }
        return ph;
    }

    void count_pass() override {
        for (const auto& [N, idx] : order_) solve(N, idx);
    }

private:
    template <int N>
    void generate(Set<N>& set, Rng& rng) {
        const std::vector<double> dims = stratified(rng, kSystemsPerN);
        const std::vector<double> exps = stratified(rng, kSystemsPerN);
        std::uniform_real_distribution<double> u(0.0, 1.0);
        set.sys.resize(kSystemsPerN);
        for (std::size_t i = 0; i < kSystemsPerN; ++i) {
            const auto n = kMinDim + static_cast<std::size_t>(dims[i] * (kMaxDim - kMinDim + 1));
            const double shift = u(rng);
            set.sys[i].generate(n, shift, 28 + static_cast<int>(exps[i] * 10), rng);
        }
    }

    std::size_t dim(int N, std::size_t idx) {
        return with_n(N, [idx](auto& s) { return s.sys[idx].n; });
    }

    void solve(int N, std::size_t idx) {
        with_n(N, [idx](auto& s) {
            const auto& sys = s.sys[idx];
            lu_solve(sys.a, sys.b, sys.n, s.work, s.x);
        });
    }

    /// Forward error of the last solve of system (N, idx) against x*.
    bool check(int N, std::size_t idx) {
        return with_n(N, [idx](auto& s) {
            constexpr int NN = std::remove_reference_t<decltype(s.x[0])>::num_limbs;
            const auto& sys = s.sys[idx];
            double err = 0, scale = 0;
            for (std::size_t i = 0; i < sys.n; ++i) {
                const double d = (s.x[i] - sys.x_star[i]).to_float();
                if (!std::isfinite(d)) return false;
                err = std::max(err, std::abs(d));
                scale = std::max(scale, std::abs(sys.x_star[i]));
            }
            return err <= tolerance<NN>() * scale;
        });
    }

    std::uint64_t seed_;
    Set<2> s2_;
    Set<3> s3_;
    Set<4> s4_;
    std::vector<std::pair<int, std::size_t>> order_;
    std::vector<System<double>> d_;
    double sink_ = 0.0;
};

}  // namespace

std::unique_ptr<Workload> make_scalar_lu(std::uint64_t seed) {
    return std::make_unique<ScalarLu>(seed);
}

}  // namespace perfbench
