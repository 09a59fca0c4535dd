// perfbench: one workload of the repository benchmark (see ../README.md).
//
//   perfbench_on --workload W --seed S --seconds T --mode setup|run|trace
//                [--trace-out FILE]
//
//   setup  generate inputs and make the first call of each shape; print
//          setup_s. The harness runs this in fresh processes, since only a
//          fresh process pays cold-start costs.
//   run    setup, untimed reference, then a closed loop for T seconds with
//          every output checked; print the end-to-end figures.
//   trace  the per-layer run: traced and untraced passes of the workload,
//          alternating (T * 0.3 s of each), the same code on double, exact
//          telemetry counters from a fixed prefix of the workload, and the
//          layer probes; spans go to FILE as chrome://tracing JSON.
//
// The last line of stdout is one JSON object. Exit status 0 means every
// check passed; 1 means a check failed; 2 means bad usage or environment.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif
#include <omp.h>
#include <sys/resource.h>
#include <unistd.h>

#include <guard/guard.hpp>
#include <simd/dispatch.hpp>
#include <telemetry/telemetry.hpp>

#include "workload.hpp"

namespace perfbench {

double rss_peak_mb() {
    // VmHWM is this process image's own high-water mark. getrusage's
    // ru_maxrss is not: exec keeps the parent's resident size from the fork,
    // so it would report the launching interpreter's footprint.
    std::ifstream status("/proc/self/status");
    for (std::string line; std::getline(status, line);) {
        if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

namespace {

struct Args {
    std::string workload;
    std::string mode = "run";
    std::string trace_out;
    std::uint64_t seed = 1;
    double seconds = 10.0;
};

[[noreturn]] void usage(const char* why) {
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench_on --workload gemm_large|blas_small_calls|"
                 "scalar_lu --seed S --seconds T --mode setup|run|trace [--trace-out FILE]\n",
                 why);
    std::exit(2);
}

Args parse(int argc, char** argv) {
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string k = argv[i];
        if (i + 1 >= argc) usage(("missing value for " + k).c_str());
        const std::string v = argv[++i];
        if (k == "--workload") a.workload = v;
        else if (k == "--mode") a.mode = v;
        else if (k == "--trace-out") a.trace_out = v;
        else if (k == "--seed") a.seed = std::strtoull(v.c_str(), nullptr, 10);
        else if (k == "--seconds") a.seconds = std::strtod(v.c_str(), nullptr);
        else usage(("unknown option " + k).c_str());
    }
    if (a.mode != "setup" && a.mode != "run" && a.mode != "trace") usage("bad --mode");
    if (!(a.seconds > 0)) usage("--seconds must be positive");
    return a;
}

std::unique_ptr<Workload> make(const std::string& name, std::uint64_t seed) {
    if (name == "gemm_large") return make_gemm_large(seed);
    if (name == "blas_small_calls") return make_blas_small_calls(seed);
    if (name == "scalar_lu") return make_scalar_lu(seed);
    usage(("unknown workload '" + name + "'").c_str());
}

std::string cpu_brand() {
#if defined(__x86_64__) || defined(__i386__)
    unsigned regs[12] = {};
    if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
        for (unsigned i = 0; i < 3; ++i) {
            __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1], &regs[4 * i + 2],
                        &regs[4 * i + 3]);
        }
        std::string s(reinterpret_cast<const char*>(regs), sizeof regs);
        s = s.c_str();
        const auto b = s.find_first_not_of(' ');
        return b == std::string::npos ? "unknown" : s.substr(b);
    }
#endif
    return "unknown";
}

/// Build and run provenance: what changes timings on this machine.
void provenance(Json& j) {
    const mf::telemetry::BuildInfo bi = mf::telemetry::build_info();
    j.str("git_sha", bi.git_sha)
        .str("compiler", bi.compiler)
        .str("backend", bi.backend)
        .num("pack_width", mf::simd::active_width<double>())
        .num("nproc", std::thread::hardware_concurrency())
        .num("worker_cap", kWorkers)
        .str("telemetry", MF_TELEMETRY_ENABLED ? "on" : "off")
        .str("fp_env", bi.fp_env)
        .str("cpu", cpu_brand());
}

/// Sum of every labelled series of one counter family.
double counter_total(const mf::telemetry::Snapshot& snap, const std::string& family) {
    double total = 0;
    for (const auto& c : snap.counters) {
        if (c.name == family || c.name.rfind(family + "{", 0) == 0) {
            total += static_cast<double>(c.value);
        }
    }
    return total;
}

/// Benchmark spans plus the library's own spans, as chrome://tracing JSON.
bool write_trace(const std::string& path, const Spans& spans,
                 const mf::telemetry::Snapshot& lib) {
    std::ofstream f(path);
    if (!f) return false;
    f << "{\"traceEvents\": [";
    bool first = true;
    auto event = [&](const std::string& name, int tid, std::uint64_t b, std::uint64_t e,
                     const std::string& args) {
        f << (first ? "\n" : ",\n") << "{\"name\": \"" << name << "\", \"ph\": \"X\", \"pid\": 1"
          << ", \"tid\": " << tid << ", \"ts\": " << static_cast<double>(b) / 1e3
          << ", \"dur\": " << static_cast<double>(e - b) / 1e3 << ", \"args\": {" << args << "}}";
        first = false;
    };
    for (const auto& s : spans.done()) {
        event(s.name, 0, s.begin_ns, s.end_ns,
              "\"id\": " + std::to_string(s.id) + ", \"parent\": " + std::to_string(s.parent));
    }
    for (const auto& s : lib.spans) event(s.name, 1000 + s.tid, s.begin_ns, s.end_ns, "");
    f << "\n]}\n";
    return static_cast<bool>(f);
}

/// Resident size of the run's latency log, which rss_peak_mb leaves out:
/// it grows with the number of calls made, not with what the library uses.
/// The log has its own reserved mapping (Phase::kReservedSamples), so only
/// its written pages are resident.
double sample_log_mb(const Phase& ph) {
    const double page = static_cast<double>(sysconf(_SC_PAGESIZE));
    const double bytes = static_cast<double>(ph.call_us.size() * sizeof(double));
    return std::ceil(bytes / page) * page / (1024.0 * 1024.0);
}

int run_mode(const Args& a, Workload& w, double setup_s) {
    w.reference();
    Spans off;
    Phase ph = w.run(a.seconds, off);
    const Tail t = windowed_tail(ph.call_us);
    // Sorted in place: a copy of the log would add to rss_peak_mb.
    std::sort(ph.call_us.begin(), ph.call_us.end());
    const Tail whole = sorted_tail(ph.call_us);
    Json j;
    j.num("setup_s", setup_s)
        .num("gops", ph.gops())
        .num("call_us_p50", sorted_median(ph.call_us))
        .num("call_us_tail", t.value)
        .num("tail_level", t.level)
        .num("tail_windows", static_cast<double>(t.windows))
        .num("samples", static_cast<double>(t.samples))
        .num("whole_run_tail_us", whole.value)
        .num("whole_run_tail_level", whole.level)
        .num("checked", static_cast<double>(ph.checked))
        .num("failed", static_cast<double>(ph.failed))
        .num("rss_peak_mb", rss_peak_mb() - sample_log_mb(ph));
    provenance(j);
    std::printf("%s\n", j.text().c_str());
    return ph.failed == 0 && ph.checked > 0 ? 0 : 1;
}

int trace_mode(const Args& a, Workload& w) {
    auto& reg = mf::telemetry::Registry::instance();
    w.reference();
    const double pass_s = std::max(1.0, 0.3 * a.seconds);
    // Traced and untraced passes alternate, so drift and warm-up fall on
    // both sides of trace.overhead; the last pass is untraced, and the blas
    // layer metrics of blas_small_calls come from it.
    Spans spans;
    Phase plain, traced, last_plain;
    for (int r = 0; r < 2; ++r) {
        spans.enabled = true;
        reg.set_trace_enabled(true);
        traced.add(w.run(pass_s / 2, spans));
        reg.set_trace_enabled(false);
        spans.enabled = false;
        last_plain = w.run(pass_s / 2, spans);
        plain.add(last_plain);
    }
    if (!a.trace_out.empty() && !write_trace(a.trace_out, spans, reg.snapshot())) {
        std::fprintf(stderr, "perfbench: cannot write %s\n", a.trace_out.c_str());
        return 2;
    }
    const Phase dbl = w.run_double(pass_s);

    reg.reset();
    w.count_pass();
    const mf::telemetry::Snapshot snap = reg.snapshot();

    Json j;
    const double sentinel_ns = layer_probes(j);
    j.num("mf.overhead_vs_double", (plain.busy_s / plain.ops) / (dbl.busy_s / dbl.ops));
    if (a.workload == "blas_small_calls") {
        blas_layer_metrics(w, last_plain, sentinel_ns, j);
    } else {
        // The blas layer is measured on the blas_small_calls stream.
        auto b = make_blas_small_calls(a.seed);
        b->setup();
        Spans none;
        blas_layer_metrics(*b, b->run(pass_s, none), sentinel_ns, j);
    }
    j.num("engine.microkernel_calls", counter_total(snap, "mf_gemm_microkernel_total"))
        .num("engine.pack_bytes", counter_total(snap, "mf_gemm_pack_bytes_total"))
        .num("guard.checks", counter_total(snap, "mf_guard_check_total"))
        .num("telemetry.renorm_accumulate", counter_total(snap, "mf_renorm_accumulate_total"))
        .num("telemetry.simd_dispatch", counter_total(snap, "mf_simd_dispatch_total"))
        .num("trace.overhead", traced.gops() / plain.gops())
        .num("checked", static_cast<double>(plain.checked + traced.checked))
        .num("failed", static_cast<double>(plain.failed + traced.failed));
    provenance(j);
    std::printf("%s\n", j.text().c_str());
    return plain.failed + traced.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
    using namespace perfbench;
    const Args a = parse(argc, argv);
    // Cap the OpenMP team of the mf::blas view kernels; gemm_packed gets the
    // same cap through GemmConfig::max_threads.
    omp_set_num_threads(static_cast<int>(kWorkers));

    if (!mf::guard::env_nominal(mf::guard::fp_env_snapshot())) {
        std::fprintf(stderr, "perfbench: FP environment is not nominal (%s)\n",
                     mf::guard::fp_env_string().c_str());
        return 2;
    }

    const auto t0 = Clock::now();
    std::unique_ptr<Workload> w = make(a.workload, a.seed);
    w->setup();
    const double setup_s = seconds_since(t0);
    if (a.mode == "setup") {
        Json j;
        j.num("setup_s", setup_s);
        std::printf("%s\n", j.text().c_str());
        return 0;
    }
    return a.mode == "run" ? run_mode(a, *w, setup_s) : trace_mode(a, *w);
}
