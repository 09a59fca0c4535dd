#pragma once
// Robustness fault matrix: drives mf::guard's fault injection against the
// packed GEMM engine and verifies the DESIGN.md §12 contract case by case --
// every injected fault is either DETECTED (a sentinel violation counter
// fires) or ABSORBED (a degradation counter fires and the result stays
// bit-identical to the clean run). Zero crashes either way.
//
// Cases (all over one shared corpus and one clean-environment reference):
//
//   env-entry-{rz,ftz,daz}  hostile environment installed before the call;
//                           policy=enforce must detect it (violation counter,
//                           when="entry") AND neutralize it (bit-identical)
//   env-mid-rz              environment flipped at a mid-GEMM checkpoint;
//                           the sentinel's exit probe must detect it
//                           (when="exit") -- detection-only: work done after
//                           the flip legitimately rounds differently
//   env-worker-ftz          OpenMP worker 1 left in FTZ by an earlier
//                           2-thread region; a 2-worker gemm_packed on
//                           operands near 2^-500 (subnormal TwoProd errors)
//                           must repair that worker under policy=enforce
//                           (mf_guard_enforced_total), bit-identical
//   alloc[k]                the k-th panel reservation throws bad_alloc;
//                           must degrade to the sequential unpacked path
//                           (mf_guard_degraded_total{path="alloc"}),
//                           bit-identical
//   alloc[0]-aos            the same through the AoS front end (blas::gemm
//                           on MultiFloat views): the B panel reservation
//                           fails, the AoS unpacked path must take over
//
// Used by tests/guard_degrade_test.cpp and `mf_fuzz --inject ...`.

#include <cmath>
#include <cstdio>
#include <optional>
#include <random>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "../blas/engine/gemm_packed.hpp"
#include "../blas/kernels.hpp"
#include "../guard/guard.hpp"
#include "../telemetry/registry.hpp"
#include "differ.hpp"

#if defined(_OPENMP)
#include <omp.h>
#endif

namespace mf::check {

/// Outcome of one injected-fault case.
struct FaultCase {
    std::string name;
    bool expectation_met = false;  ///< detected/absorbed as the contract demands
    bool bit_identical = false;    ///< result bits match the clean-env run
    std::string detail;            ///< counter delta + mismatch count
};

/// Which fault classes to exercise (mf_fuzz --inject selects a subset).
struct RobustnessOptions {
    bool env = true;
    bool alloc = true;
    std::uint64_t seed = 20250807;
};

namespace detail {

/// Sum of every telemetry counter whose name contains `needle`. With
/// telemetry compiled out the registry is empty and this returns 0 -- the
/// caller gates counter expectations on MF_TELEMETRY_ENABLED.
[[nodiscard]] inline std::uint64_t counters_containing(std::string_view needle) {
    std::uint64_t total = 0;
    for (const auto& c : telemetry::Registry::instance().snapshot().counters) {
        if (c.name.find(needle) != std::string::npos) total += c.value;
    }
    return total;
}

}  // namespace detail

/// Run the fault matrix. Restores policy, injection state, and the FP
/// environment on return; never throws, never crashes -- that IS the claim
/// under test.
[[nodiscard]] inline std::vector<FaultCase> run_fault_matrix(
    const RobustnessOptions& opt = {}) {
    using T = double;
    constexpr int N = 2;
    constexpr std::size_t n = 40, k = 9, m = 13;
    // Tiny pinned blocks: 5 macro-panels (many pack edges), 2 reservations
    // in serial mode, 1 + nw reservations with nw workers.
    const blas::BlockShape tiny{8, 8, 16};

    const guard::Policy saved_policy = guard::policy();
    guard::inject::reset();

    GenConfig cfg;
    std::mt19937_64 rng(opt.seed);
    planar::Vector<T, N> a, b;
    detail::fill_vectors(rng, n * k, cfg, a);
    detail::fill_vectors(rng, k * m, cfg, b);
    planar::Vector<T, N> want(n * m);
    {
        guard::ScopedFpEnv clean;  // the reference is the nominal-env result
        planar::gemm(a, b, want, n, k, m);
    }

    // AoS copies for the blas::gemm front end.
    using V = MultiFloat<T, N>;
    std::vector<V> a_aos(n * k), b_aos(k * m);
    for (std::size_t i = 0; i < n * k; ++i) a_aos[i] = a.get(i);
    for (std::size_t i = 0; i < k * m; ++i) b_aos[i] = b.get(i);
    const auto aos_gemm = [&](planar::Vector<T, N>& c) {
        std::vector<V> c_aos(n * m);
        blas::gemm<V>(blas::view(std::as_const(a_aos), n, k),
                      blas::view(std::as_const(b_aos), k, m), blas::view(c_aos, n, m));
        for (std::size_t i = 0; i < n * m; ++i) c.set(i, c_aos[i]);
    };

    std::vector<FaultCase> out;
    // One case: `inject_fault` arms the fault, then `call` computes C = A B
    // into its zeroed argument, to be compared with `ref`.
    const auto run_case_with = [&](std::string name, std::string_view counter_needle,
                                   bool require_identical,
                                   const planar::Vector<T, N>& ref, auto&& inject_fault,
                                   auto&& call) {
        FaultCase fc;
        fc.name = std::move(name);
        const std::uint64_t before = detail::counters_containing(counter_needle);
        planar::Vector<T, N> c(n * m);
        {
            guard::FpEnvSaver restore;  // undo whatever the fault leaves behind
            inject_fault();
            call(c);
        }
        guard::inject::reset();
        const std::uint64_t delta =
            detail::counters_containing(counter_needle) - before;
        const std::uint64_t bad = detail::count_mismatches(c, ref, n * m);
        fc.bit_identical = bad == 0;
#if MF_TELEMETRY_ENABLED
        const bool counted = delta >= 1;
#else
        const bool counted = true;  // counters compiled out: only bits checkable
#endif
        fc.expectation_met = counted && (!require_identical || fc.bit_identical);
        fc.detail = "counter_delta=" + std::to_string(delta) +
                    " mismatches=" + std::to_string(bad);
        out.push_back(std::move(fc));
    };
    // The planar gemm_packed cases.
    const auto run_case = [&](std::string name, std::string_view counter_needle,
                              bool require_identical, const blas::GemmConfig& gcfg,
                              auto&& inject_fault) {
        run_case_with(std::move(name), counter_needle, require_identical, want,
                      inject_fault, [&](planar::Vector<T, N>& c) {
                          blas::gemm_packed(planar::matrix_view(a, n, k),
                                            planar::matrix_view(b, k, m),
                                            planar::matrix_view(c, n, m), gcfg);
                      });
    };

    blas::GemmConfig serial;
    serial.blocks = tiny;
    serial.max_threads = 1;

    if (opt.env) {
        // Detection + neutralization needs enforce; warn would (correctly)
        // leave the hostile environment in place.
        guard::set_policy(guard::Policy::enforce);
        const struct {
            const char* tag;
            guard::Perturb p;
        } kinds[] = {
            {"rz", guard::Perturb::round_toward_zero},
            {"ftz", guard::Perturb::ftz},
            {"daz", guard::Perturb::daz},
        };
        for (const auto& kind : kinds) {
            if (!guard::perturb_supported(kind.p)) continue;
            run_case(std::string("env-entry-") + kind.tag, "when=\"entry\"",
                     /*require_identical=*/true, serial,
                     [&] { guard::apply_perturb(kind.p); });
        }
        run_case("env-mid-rz", "when=\"exit\"", /*require_identical=*/false,
                 serial, [&] {
                     guard::inject::arm_env(0,
                                            guard::Perturb::round_toward_zero);
                 });
#if defined(_OPENMP)
        // OpenMP keeps its workers between regions, and their FP environment
        // with them: leave worker 1 of a 2-thread region flushing subnormals
        // (saving its environment first), run a 2-worker call whose
        // TwoProd errors are subnormal, then give the worker its environment
        // back.
        if (guard::perturb_supported(guard::Perturb::ftz)) {
            const auto on_worker1 = [](auto&& f) {
#pragma omp parallel num_threads(2)
                {
                    if (omp_get_thread_num() == 1) f();
                }
            };
            const auto scaled = [](const planar::Vector<T, N>& v) {
                planar::Vector<T, N> out = v;
                for (int p = 0; p < N; ++p) {
                    for (std::size_t i = 0; i < v.size(); ++i) {
                        out.plane(p)[i] = std::ldexp(v.plane(p)[i], -500);
                    }
                }
                return out;
            };
            const planar::Vector<T, N> a_tiny = scaled(a), b_tiny = scaled(b);
            planar::Vector<T, N> want_tiny(n * m);
            {
                guard::ScopedFpEnv clean;
                planar::gemm(a_tiny, b_tiny, want_tiny, n, k, m);
            }
            blas::GemmConfig two;
            two.blocks = tiny;
            two.max_threads = 2;
            std::optional<guard::FpEnvSaver> worker_env;
            on_worker1([&] {
                worker_env.emplace();
                guard::apply_perturb(guard::Perturb::ftz);
            });
            if (worker_env) {
                run_case_with("env-worker-ftz", "mf_guard_enforced_total",
                              /*require_identical=*/true, want_tiny, [] {},
                              [&](planar::Vector<T, N>& c) {
                                  blas::gemm_packed(planar::matrix_view(a_tiny, n, k),
                                                    planar::matrix_view(b_tiny, k, m),
                                                    planar::matrix_view(c, n, m), two);
                              });
            }
            on_worker1([&] { worker_env.reset(); });
        }
#endif
        guard::set_policy(saved_policy);
    }

    if (opt.alloc) {
        // Serial: reservation order is B panel (0), slot-0 A block (1).
        for (long nth : {0L, 1L}) {
            run_case("alloc[" + std::to_string(nth) + "]-serial",
                     "path=\"alloc\"", /*require_identical=*/true, serial,
                     [&] { guard::inject::arm_alloc(nth); });
        }
        // Threaded (OpenMP builds): B panel (0) then one A block per planned
        // slot (1..4); fail the last one so every earlier reservation has
        // already succeeded.
        blas::GemmConfig threaded;
        threaded.blocks = tiny;
        threaded.max_threads = 4;
        const long last = blas::engine::planned_workers(
            (n + tiny.mc - 1) / tiny.mc, blas::engine::ThreadMode::automatic,
            threaded.max_threads);
        if (last > 1) {
            run_case("alloc[" + std::to_string(last) + "]-threaded", "path=\"alloc\"",
                     /*require_identical=*/true, threaded,
                     [&] { guard::inject::arm_alloc(last); });
        }
        // AoS front end: a call this small runs serially, so reservation 0
        // is its B panel.
        run_case_with("alloc[0]-aos", "path=\"alloc\"", /*require_identical=*/true,
                      want, [&] { guard::inject::arm_alloc(0); }, aos_gemm);
    }

    guard::set_policy(saved_policy);
    guard::inject::reset();
    return out;
}

/// All cases met their expectation (empty matrix counts as failure: the
/// caller asked for classes this build cannot exercise).
[[nodiscard]] inline bool fault_matrix_clean(const std::vector<FaultCase>& cases) {
    if (cases.empty()) return false;
    for (const FaultCase& fc : cases) {
        if (!fc.expectation_met) return false;
    }
    return true;
}

inline void print_fault_matrix(const std::vector<FaultCase>& cases,
                               std::FILE* outf = stdout) {
    for (const FaultCase& fc : cases) {
        std::fprintf(outf, "  [%s] %-18s %s (%s)\n",
                     fc.expectation_met ? "ok" : "FAIL", fc.name.c_str(),
                     fc.bit_identical ? "bit-identical" : "divergent",
                     fc.detail.c_str());
    }
}

}  // namespace mf::check
