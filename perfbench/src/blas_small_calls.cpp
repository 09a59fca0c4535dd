// blas_small_calls: a seeded stream of AoS mf::blas view calls (dot, axpy,
// gemv, gemm) at N = 2, 3, 4, with n log-uniform in [8, 96] (gemm capped at
// 48). Per-call cost dominates: the guard sentinel, dispatch, and the
// OpenMP regions gemv and gemm open. The packing engine is not used.
//
// The stream interleaves kinds and N in a fixed order and draws each
// (kind, N) bucket's sizes by stratified sampling, so the mix of work is the
// same from seed to seed. Its multi-millisecond gemv/gemm stalls are part of
// the measurement: nothing here tunes the OpenMP runtime to hide them.
//
// Checks: sampled dot and gemv results against the exact BigFloat value,
// within the composed bound of the paper's add and mul error bounds.

#include <array>
#include <map>
#include <tuple>

#include <blas/blas.hpp>
#include <check/oracle.hpp>
#include <mf/multifloats.hpp>
#include <simd/dispatch.hpp>

#include "workload.hpp"

namespace perfbench {
namespace {

enum Kind : int { kDot = 0, kAxpy, kGemv, kGemm, kKinds };
constexpr const char* kKindName[kKinds] = {"dot", "axpy", "gemv", "gemm"};
constexpr std::size_t kMaxN = 96;
constexpr std::size_t kMaxGemmN = 48;
constexpr std::size_t kPerBucket = 256;
constexpr std::size_t kStreamLen = kKinds * 3 * kPerBucket;

struct Call {
    int kind;
    int N;  ///< 2, 3 or 4
    std::size_t n;
};

/// OpenMP team the view kernels open for this call: their parallel regions
/// are enabled only above these sizes.
std::size_t team(int kind, std::size_t n) {
    if (kind == kGemv) return n > 64 ? kWorkers : 1;
    if (kind == kGemm) return n > 16 ? kWorkers : 1;
    return 1;
}

double call_ops(int kind, std::size_t n) {
    const double d = static_cast<double>(n);
    switch (kind) {
        case kDot:
        case kAxpy: return d;
        case kGemv: return d * d;
        default: return d * d * d;
    }
}

template <typename V>
V draw(Rng& rng) {
    if constexpr (std::is_same_v<V, double>) {
        return std::uniform_real_distribution<double>(-1.0, 1.0)(rng);
    } else {
        return mf::random_unit<double, V::num_limbs>(rng) * 2.0 - 1.0;
    }
}

/// Operand buffers for one element type; calls view prefixes of them.
template <typename V>
struct Pool {
    std::vector<V> x, y, a, gy, ax, ay, ga, gb, gc;
    V alpha{};
    V last_dot{};

    void generate(Rng& rng) {
        auto fill = [&rng](std::vector<V>& v, std::size_t n) {
            v.resize(n);
            for (auto& e : v) e = draw<V>(rng);
        };
        fill(x, kMaxN);
        fill(y, kMaxN);
        fill(a, kMaxN * kMaxN);
        fill(ax, kMaxN);
        fill(ay, kMaxN);
        fill(ga, kMaxGemmN * kMaxGemmN);
        fill(gb, kMaxGemmN * kMaxGemmN);
        gy.assign(kMaxN, V{});
        gc.assign(kMaxGemmN * kMaxGemmN, V{});
        alpha = V(0x1p-10);
    }

    /// One public mf::blas call; returns a value that depends on its output.
    double call(int kind, std::size_t n) {
        namespace blas = mf::blas;
        using CView = blas::ConstVectorView<V>;
        using View = blas::VectorView<V>;
        using CMat = blas::ConstMatrixView<V>;
        using Mat = blas::MatrixView<V>;
        switch (kind) {
            case kDot: {
                last_dot = blas::dot<V>(CView{x.data(), n}, CView{y.data(), n});
                return static_cast<double>(last_dot);
            }
            case kAxpy:
                blas::axpy<V>(alpha, CView{ax.data(), n}, View{ay.data(), n});
                return static_cast<double>(ay[0]);
            case kGemv:
                blas::gemv<V>(CMat{a.data(), n, n}, CView{x.data(), n}, View{gy.data(), n});
                return static_cast<double>(gy[0]);
            default:
                blas::gemm<V>(CMat{ga.data(), n, n}, CMat{gb.data(), n, n}, Mat{gc.data(), n, n});
                return static_cast<double>(gc[0]);
        }
    }
};

/// Exact <x, y> and sum |x_i y_i|, from the BigFloat oracle.
template <int N>
std::pair<mf::check::BigFloat, mf::check::BigFloat> exact_dot(
    const mf::MultiFloat<double, N>* x, const mf::MultiFloat<double, N>* y, std::size_t n) {
    using mf::check::exact;
    mf::check::BigFloat sum, abs_sum;
    for (std::size_t i = 0; i < n; ++i) {
        const mf::check::BigFloat p = exact(x[i]) * exact(y[i]);
        sum = sum + p;
        abs_sum = abs_sum + p.abs();
    }
    return {sum, abs_sum};
}

/// Composed forward bound for an n-term dot product: each product takes one
/// mul and at most n-1 adds, each within the paper's relative bound u
/// (Figs 2-7), so |r - exact| <= ((1+u)^n - 1) sum|x_i y_i|, which is below
/// 1.01 n u sum|x_i y_i| for every n here.
template <int N>
bool within_dot_bound(const mf::MultiFloat<double, N>& r, const mf::check::BigFloat& want,
                      const mf::check::BigFloat& abs_sum, std::size_t n) {
    using mf::check::Op;
    const int bits = std::min(mf::check::bound_bits(Op::add, 53, N),
                              mf::check::bound_bits(Op::mul, 53, N));
    const mf::check::BigFloat err = (mf::check::exact(r) - want).abs();
    const double allowed = 1.01 * static_cast<double>(n) * std::ldexp(1.0, -bits);
    // err <= allowed * abs_sum, compared in BigFloat to avoid underflow.
    return err <= mf::check::BigFloat::from_double(allowed) * abs_sum;
}

class BlasSmallCalls final : public Workload {
public:
    explicit BlasSmallCalls(std::uint64_t seed) : seed_(seed) {}

    void setup() override {
        Rng rng = make_rng(seed_, 2);
        build_stream(rng);
        p2_.generate(rng);
        p3_.generate(rng);
        p4_.generate(rng);
        // First call of each (kind, N) pair, at the kind's largest size.
        for (int kind = 0; kind < kKinds; ++kind) {
            for (int N = 2; N <= 4; ++N) {
                sink_ += dispatch(Call{kind, N, kind == kGemm ? kMaxGemmN : kMaxN});
            }
        }
    }

    Phase run(double seconds, Spans& spans) override {
        samples_.clear();
        Phase ph = loop(seconds, spans, [this](const Call& c) { return dispatch(c); },
                        [this](std::size_t i, const Call& c) {
                            if (i < kStreamLen && sampled(i)) save_sample(c);
                        });
        for (const Sample& s : samples_) {
            ++ph.checked;
            if (!check(s)) ++ph.failed;
        }
        return ph;
    }

    Phase run_double(double seconds) override {
        if (d_.x.empty()) {
            Rng rng = make_rng(seed_, 3);
            d_.generate(rng);
        }
        Spans none;
        return loop(seconds, none, [this](const Call& c) { return d_.call(c.kind, c.n); },
                    [](std::size_t, const Call&) {});
    }

    void count_pass() override {
        for (const Call& c : stream_) sink_ += dispatch(c);
    }

    /// blas.* layer metrics from a run() of this workload (see workload.hpp).
    void layer_metrics(const Phase& ph, double sentinel_ns, Json& out) {
        using Key = std::tuple<int, int, std::size_t>;
        auto key = [this](std::size_t i) {
            const Call& c = stream_[i % kStreamLen];
            return Key{c.kind, c.N, c.n};
        };
        std::map<Key, std::vector<double>> buckets;
        for (std::size_t i = 0; i < ph.call_us.size(); ++i) buckets[key(i)].push_back(ph.call_us[i]);
        std::map<Key, double> bucket_median, kernel_us;
        for (const auto& [k, v] : buckets) {
            bucket_median[k] = median(v);
            const auto [kind, N, n] = k;
            kernel_us[k] = kernel_time_us(Call{kind, N, n}) / static_cast<double>(team(kind, n));
        }
        std::vector<double> call[kKinds], self[kKinds];
        std::uint64_t slow = 0;
        for (std::size_t i = 0; i < ph.call_us.size(); ++i) {
            const Key k = key(i);
            const double us = ph.call_us[i];
            call[std::get<0>(k)].push_back(us);
            self[std::get<0>(k)].push_back(us - sentinel_ns * 1e-3 - kernel_us[k]);
            if (us > 10.0 * bucket_median[k]) ++slow;
        }
        for (int k = 0; k < kKinds; ++k) {
            out.num(std::string("blas.") + kKindName[k] + ".call_us_p50", median(call[k]));
        }
        for (int k = 0; k < kKinds; ++k) {
            out.num(std::string("blas.") + kKindName[k] + ".self_us_p50", median(self[k]));
        }
        out.num("blas.slow_calls", static_cast<double>(slow));
        out.num("blas.call_floor.ns", call_floor_ns());
    }

private:
    /// Closed loop over the stream for `seconds`: `call` is timed, `after`
    /// runs untimed after each call.
    template <typename Fn, typename After>
    Phase loop(double seconds, Spans& spans, Fn&& call, After&& after) {
        Phase ph;
        const auto start = Clock::now();
        for (std::size_t i = 0;; ++i) {
            // Read the clock once per 16 calls: a call can take a few µs.
            if (i % 16 == 0 && seconds_since(start) >= seconds) break;
            const Call& c = stream_[i % kStreamLen];
            const std::uint64_t sp = spans.open(span_name(c));
            const auto t0 = Clock::now();
            sink_ += call(c);
            const double us = std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
            spans.close(sp);
            ph.call_us.push_back(us);
            ph.busy_s += us * 1e-6;
            ph.ops += call_ops(c.kind, c.n);
            after(i, c);
        }
        return ph;
    }

    /// f(pool) on the operand pool of expansion length N.
    template <typename F>
    decltype(auto) with_pool(int N, F&& f) {
        switch (N) {
            case 2: return f(p2_);
            case 3: return f(p3_);
            default: return f(p4_);
        }
    }

    struct Sample {
        Call c;
        std::vector<double> limbs;  ///< dot: 1 result; gemv: n results (N limbs each)
    };

    void build_stream(Rng& rng) {
        std::array<std::vector<std::size_t>, kKinds * 3> sizes;
        for (int kind = 0; kind < kKinds; ++kind) {
            const double hi = kind == kGemm ? kMaxGemmN : kMaxN;
            for (int ni = 0; ni < 3; ++ni) {
                auto& s = sizes[static_cast<std::size_t>(kind * 3 + ni)];
                for (double u : stratified(rng, kPerBucket)) {
                    // log-uniform in [8, hi], rounded to an integer size
                    s.push_back(static_cast<std::size_t>(std::lround(8.0 * std::pow(hi / 8.0, u))));
                }
            }
        }
        stream_.clear();
        std::array<std::size_t, kKinds * 3> next{};
        for (std::size_t i = 0; i < kStreamLen; ++i) {
            const int kind = static_cast<int>(i % kKinds);
            const int ni = static_cast<int>((i / kKinds) % 3);
            const std::size_t b = static_cast<std::size_t>(kind * 3 + ni);
            stream_.push_back(Call{kind, 2 + ni, sizes[b][next[b]++]});
        }
    }

    static const char* span_name(const Call& c) {
        static const char* names[kKinds][3] = {
            {"blas.dot.f64x2", "blas.dot.f64x3", "blas.dot.f64x4"},
            {"blas.axpy.f64x2", "blas.axpy.f64x3", "blas.axpy.f64x4"},
            {"blas.gemv.f64x2", "blas.gemv.f64x3", "blas.gemv.f64x4"},
            {"blas.gemm.f64x2", "blas.gemm.f64x3", "blas.gemm.f64x4"}};
        return names[c.kind][c.N - 2];
    }

    double dispatch(const Call& c) {
        return with_pool(c.N, [&c](auto& p) { return p.call(c.kind, c.n); });
    }

    /// Sample every dot and gemv call of one group of four stream positions
    /// in eight, during the first pass over the stream.
    static bool sampled(std::size_t i) { return (i / kKinds) % 8 == 0; }

    void save_sample(const Call& c) {
        if (c.kind != kDot && c.kind != kGemv) return;
        Sample s{c, {}};
        auto take = [&s](const auto& v) {
            for (double l : v.limb) s.limbs.push_back(l);
        };
        with_pool(c.N, [&](auto& p) {
            if (c.kind == kDot) {
                take(p.last_dot);
            } else {
                for (std::size_t r = 0; r < c.n; ++r) take(p.gy[r]);
            }
        });
        samples_.push_back(std::move(s));
    }

    bool check(const Sample& s) {
        return with_pool(s.c.N, [&s](const auto& p) { return check_pool(s, p); });
    }

    template <typename MF>
    static bool check_pool(const Sample& s, const Pool<MF>& p) {
        constexpr int N = MF::num_limbs;
        auto result = [&s](std::size_t r) {
            MF v;
            for (int l = 0; l < N; ++l) v.limb[static_cast<std::size_t>(l)] = s.limbs[r * N + l];
            return v;
        };
        const std::size_t rows = s.c.kind == kDot ? 1 : s.c.n;
        for (std::size_t r = 0; r < rows; ++r) {
            // dot: <x, y>; gemv row r: <A[r, :], x>
            const MF* lhs = s.c.kind == kDot ? p.x.data() : p.a.data() + r * s.c.n;
            const MF* rhs = s.c.kind == kDot ? p.y.data() : p.x.data();
            const auto [want, abs_sum] = exact_dot<N>(lhs, rhs, s.c.n);
            if (!within_dot_bound<N>(result(r), want, abs_sum, s.c.n)) return false;
        }
        return true;
    }

    /// The mf::simd kernel work of one call, run directly and serially
    /// (median of five reps, repeated until a rep takes at least 10 µs).
    double kernel_time_us(const Call& c) {
        return with_pool(c.N, [&](auto& p) { return kernel_time_pool(p, c); });
    }

    template <typename MF>
    double kernel_time_pool(Pool<MF>& p, const Call& c) {
        constexpr int N = MF::num_limbs;
        const std::size_t n = c.n;
        std::vector<MF> scratch(kMaxGemmN * kMaxGemmN);  // also holds gemv/axpy outputs (n <= 96)
        auto once = [&] {
            switch (c.kind) {
                case kDot: sink_ += static_cast<double>(mf::simd::dot_aos<double, N>(p.x.data(), p.y.data(), n)); break;
                case kAxpy: mf::simd::axpy_aos<double, N>(p.alpha, p.ax.data(), scratch.data(), n); break;
                case kGemv:
                    for (std::size_t r = 0; r < n; ++r) {
                        scratch[r] = mf::simd::dot_aos<double, N>(p.a.data() + r * n, p.x.data(), n);
                    }
                    break;
                default:
                    for (std::size_t r = 0; r < n; ++r) {
                        MF* crow = scratch.data() + r * n;
                        for (std::size_t j = 0; j < n; ++j) crow[j] = MF{};
                        for (std::size_t kk = 0; kk < n; ++kk) {
                            mf::simd::axpy_aos<double, N>(p.ga[r * n + kk], p.gb.data() + kk * n, crow, n);
                        }
                    }
            }
        };
        const auto t0 = Clock::now();
        once();
        const double first = seconds_since(t0);
        const int inner = std::clamp(static_cast<int>(10e-6 / std::max(first, 1e-9)), 1, 256);
        return time_median(5, [&] {
                   for (int r = 0; r < inner; ++r) once();
               }) * 1e6 / inner;
    }

    /// blas::dot on an empty view: the fixed cost of one public call.
    double call_floor_ns() {
        constexpr int kCalls = 20000;
        const double s = time_median(7, [&] {
            for (int r = 0; r < kCalls; ++r) {
                sink_ += static_cast<double>(
                    mf::blas::dot<mf::Float64x2>(
                    mf::blas::ConstVectorView<mf::Float64x2>{p2_.x.data(), 0},
                    mf::blas::ConstVectorView<mf::Float64x2>{p2_.y.data(), 0}));
            }
        });
        return s * 1e9 / kCalls;
    }

    std::uint64_t seed_;
    std::vector<Call> stream_;
    Pool<mf::Float64x2> p2_;
    Pool<mf::Float64x3> p3_;
    Pool<mf::Float64x4> p4_;
    Pool<double> d_;
    std::vector<Sample> samples_;
    double sink_ = 0.0;
};

}  // namespace

std::unique_ptr<Workload> make_blas_small_calls(std::uint64_t seed) {
    return std::make_unique<BlasSmallCalls>(seed);
}

void blas_layer_metrics(Workload& w, const Phase& ph, double sentinel_ns, Json& out) {
    static_cast<BlasSmallCalls&>(w).layer_metrics(ph, sentinel_ns, out);
}

}  // namespace perfbench
