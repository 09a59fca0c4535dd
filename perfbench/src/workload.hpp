#pragma once
// The workload interface: each workload generates its inputs from the seed,
// pays its cold-start costs in setup(), and runs a closed loop of public
// library calls from one caller thread, checking every output it is
// responsible for.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench {

/// One timed phase of a workload.
struct Phase {
    /// Sample storage is reserved up front and never reallocates: a growing
    /// vector's doubling would make rss_peak_mb jump with the call count.
    /// Untouched reserved pages are not resident.
    static constexpr std::size_t kReservedSamples = std::size_t{1} << 22;

    Phase() { call_us.reserve(kReservedSamples); }

    std::vector<double> call_us;  ///< latency of each timed unit
    double ops = 0.0;             ///< analytic extended mul+add ops
    double busy_s = 0.0;          ///< summed latency of the timed units
    std::uint64_t checked = 0;    ///< outputs checked
    std::uint64_t failed = 0;     ///< outputs that failed their check

    [[nodiscard]] double gops() const { return busy_s > 0 ? ops / busy_s * 1e-9 : 0.0; }

    void add(const Phase& o) {
        call_us.insert(call_us.end(), o.call_us.begin(), o.call_us.end());
        ops += o.ops;
        busy_s += o.busy_s;
        checked += o.checked;
        failed += o.failed;
    }
};

class Workload {
public:
    virtual ~Workload() = default;

    /// Input generation plus the first call of each shape (setup_s).
    virtual void setup() = 0;
    /// Untimed reference or oracle preparation the checks need.
    virtual void reference() {}
    /// Closed loop for `seconds`; spans are recorded when spans.enabled.
    virtual Phase run(double seconds, Spans& spans) = 0;
    /// The same workload code on plain double (timing only, unchecked).
    virtual Phase run_double(double seconds) = 0;
    /// A fixed, seed-determined prefix of the workload, for exact counters.
    virtual void count_pass() = 0;
};

std::unique_ptr<Workload> make_gemm_large(std::uint64_t seed);
std::unique_ptr<Workload> make_blas_small_calls(std::uint64_t seed);
std::unique_ptr<Workload> make_scalar_lu(std::uint64_t seed);

/// blas.* per-layer metrics from `ph`, a run() of `w` (which must come from
/// make_blas_small_calls): sample i is the call at stream position i.
void blas_layer_metrics(Workload& w, const Phase& ph, double sentinel_ns, Json& out);

/// Layer microbenchmarks (mf, simd, engine, guard, telemetry) into `out`.
/// Returns the guard sentinel cost in ns, which blas_layer_metrics needs.
double layer_probes(Json& out);

}  // namespace perfbench
