// JSON serialization and console rendering of conformance telemetry.

#include "report.hpp"

#include <cinttypes>
#include <cstdio>

#include "../telemetry/build_info.hpp"

namespace mf::check {

namespace {

// All strings here are check-layer-controlled ASCII (op/category/backend
// names); strip quotes/backslashes defensively, as bench/harness.cpp does.
std::string json_clean(const std::string& s) {
    std::string r;
    for (char c : s) {
        if (c != '"' && c != '\\' && c >= 0x20) r.push_back(c);
    }
    return r;
}

// -inf / inf never appear in valid JSON; clamp to sentinel numbers.
double finite_or(double v, double fallback) {
    return std::isfinite(v) ? v : fallback;
}

}  // namespace

bool ConformanceReport::write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "ConformanceReport: cannot write %s\n", path.c_str());
        return false;
    }
    // Provenance stamp shared with bench's JsonReport: the same fields from
    // the same build_info(), so trajectory tooling can join BENCH and CHECK
    // documents on identical keys. fp_env records the PROBED rounding/flush
    // state of the writing thread -- "rn" certifies the run's environment
    // contract held; anything else flags the whole document as suspect.
    const telemetry::BuildInfo info = telemetry::build_info();
    std::fprintf(f,
                 "{\n  \"check\": \"conformance\",\n  \"seed\": %" PRIu64
                 ",\n  \"iters_per_run\": %" PRIu64 ",\n  \"backend\": \"%s\",\n"
                 "  \"git_sha\": \"%s\",\n  \"compiler\": \"%s\",\n"
                 "  \"telemetry\": \"%s\",\n"
                 "  \"threads\": %d,\n  \"fp_env\": \"%s\",\n"
                 "  \"clean\": %s,\n  \"runs\": [",
                 seed, iters_per_run, json_clean(backend).c_str(),
                 json_clean(info.git_sha).c_str(), json_clean(info.compiler).c_str(),
                 json_clean(info.telemetry).c_str(), info.threads,
                 json_clean(info.fp_env).c_str(), clean() ? "true" : "false");
    for (std::size_t i = 0; i < runs.size(); ++i) {
        const RunStats& r = runs[i];
        std::fprintf(f,
                     "%s\n    {\"op\": \"%s\", \"type\": \"%s\", \"limbs\": %d, "
                     "\"bound_bits\": %d, \"iters\": %" PRIu64 ", \"checked\": %" PRIu64
                     ", \"skipped_domain\": %" PRIu64 ", \"special_checked\": %" PRIu64
                     ", \"special_failures\": %" PRIu64 ", \"violations\": %" PRIu64
                     ", \"invariant_violations\": %" PRIu64
                     ", \"worst_err_log2\": %.4f, \"worst_slack_bits\": %.4f, "
                     "\"hist_exact\": %" PRIu64 ", \"hist_slack\": [",
                     i ? "," : "", op_name(r.op), json_clean(r.type).c_str(), r.limbs,
                     r.bound, r.iters, r.checked, r.skipped_domain, r.special_checked,
                     r.special_failures, r.violations, r.invariant_violations,
                     finite_or(r.worst_err_log2, 0.0),
                     finite_or(r.worst_slack, 9999.0), r.hist.exact);
        for (int b = 0; b < SlackHistogram::buckets; ++b) {
            std::fprintf(f, "%s%" PRIu64, b ? ", " : "", r.hist.bucket[b]);
        }
        std::fprintf(f, "]}");
    }
    std::fprintf(f, "\n  ],\n  \"diffs\": [");
    for (std::size_t i = 0; i < diffs.size(); ++i) {
        const DiffRecord& d = diffs[i];
        std::fprintf(f,
                     "%s\n    {\"kernel\": \"%s\", \"type\": \"%s\", \"limbs\": %d, "
                     "\"backend\": \"%s\", \"width\": %d, \"elements\": %" PRIu64
                     ", \"mismatches\": %" PRIu64 "}",
                     i ? "," : "", json_clean(d.kernel).c_str(), json_clean(d.type).c_str(),
                     d.limbs, json_clean(d.backend).c_str(), d.width, d.elements,
                     d.mismatches);
    }
    std::fprintf(f, "\n  ]\n}\n");
    std::fclose(f);
    return true;
}

void ConformanceReport::print() const {
    std::printf("%-5s %-7s %2s %6s %10s %10s %8s %5s %10s %10s\n", "op", "type", "N",
                "bound", "checked", "skipped", "special", "viol", "worst2^", "slack");
    for (const RunStats& r : runs) {
        std::printf("%-5s %-7s %2d %6d %10" PRIu64 " %10" PRIu64 " %8" PRIu64
                    " %5" PRIu64 " %10.2f %10.2f\n",
                    op_name(r.op), r.type.c_str(), r.limbs, r.bound, r.checked,
                    r.skipped_domain, r.special_checked,
                    r.violations + r.invariant_violations + r.special_failures,
                    finite_or(r.worst_err_log2, 0.0), finite_or(r.worst_slack, 9999.0));
    }
    if (!diffs.empty()) {
        std::printf("\n%-10s %-7s %2s %-14s %5s %10s %10s\n", "kernel", "type", "N",
                    "backend", "width", "elements", "mismatch");
        for (const DiffRecord& d : diffs) {
            std::printf("%-10s %-7s %2d %-14s %5d %10" PRIu64 " %10" PRIu64 "\n",
                        d.kernel.c_str(), d.type.c_str(), d.limbs, d.backend.c_str(),
                        d.width, d.elements, d.mismatches);
        }
    }
}

}  // namespace mf::check
