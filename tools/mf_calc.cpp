// mf_calc: a tiny octuple-precision RPN calculator driving the public API --
// handy for poking at the library from the shell.
//
//   $ mf_calc 2 sqrt        -> 1.4142135623730950488016887242096980785696...
//   $ mf_calc 1 3 / 3 '*'   -> 1
//   $ mf_calc 1 1e-40 +     -> 1.0000000000000000000000000000000000000001e+0
//
// Tokens: decimal numbers, + - x / sqrt recip neg abs ('x' or '*' multiply).
// `--metrics PATH` ('-' = stdout) dumps the telemetry exposition at exit --
// the quickest way to see which kernels a given expression exercised.

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "guard/guard.hpp"
#include "mf/multifloats.hpp"
#include "simd/dispatch.hpp"
#include "telemetry/telemetry.hpp"

using MF = mf::MultiFloat<double, 4>;

int main(int argc, char** argv) {
    // FP-environment sentinel (MF_GUARD_POLICY): a host shell that launched
    // us with FTZ or directed rounding would silently corrupt every digit
    // printed below.
    MF_GUARD_SENTINEL("tool.mf_calc");
    std::string metrics_path;
    std::vector<MF> stack;
    const auto pop = [&]() {
        if (stack.empty()) {
            std::fprintf(stderr, "stack underflow\n");
            std::exit(1);
        }
        MF v = stack.back();
        stack.pop_back();
        return v;
    };
    for (int i = 1; i < argc; ++i) {
        const std::string tok = argv[i];
        if (tok == "--metrics" && i + 1 < argc) {
            metrics_path = argv[++i];
        } else if (tok == "+") {
            const MF b = pop();
            const MF a = pop();
            stack.push_back(a + b);
        } else if (tok == "-") {
            const MF b = pop();
            const MF a = pop();
            stack.push_back(a - b);
        } else if (tok == "x" || tok == "*") {
            const MF b = pop();
            const MF a = pop();
            stack.push_back(a * b);
        } else if (tok == "/") {
            const MF b = pop();
            const MF a = pop();
            stack.push_back(a / b);
        } else if (tok == "sqrt") {
            stack.push_back(mf::sqrt(pop()));
        } else if (tok == "recip") {
            stack.push_back(mf::recip(pop()));
        } else if (tok == "neg") {
            stack.push_back(-pop());
        } else if (tok == "abs") {
            stack.push_back(mf::abs(pop()));
        } else {
            stack.push_back(mf::from_string<double, 4>(tok));
        }
    }
    if (stack.empty()) {
        // Banner only on the no-input path: tool_mf_calc_rpn anchors its
        // PASS_REGULAR_EXPRESSION at the start of RPN output.
        std::printf("usage: mf_calc <rpn tokens>   e.g.  mf_calc 2 sqrt\n");
        std::printf("SIMD backend: %s (pack width %d x double, %d x float)\n",
                    mf::simd::native_isa,
                    mf::simd::active_width<double>(),
                    mf::simd::active_width<float>());
        if (!metrics_path.empty()) mf::telemetry::write_exposition(metrics_path);
        return 0;
    }
    for (const MF& v : stack) {
        std::printf("%s\n", mf::to_string(v).c_str());
        std::printf("  limbs: [%.17g, %.17g, %.17g, %.17g]\n", v.limb[0], v.limb[1],
                    v.limb[2], v.limb[3]);
    }
    // Metric dump comes last so RPN output ordering (and the tests anchored
    // to it) is unchanged; the exit code never depends on the dump.
    if (!metrics_path.empty()) mf::telemetry::write_exposition(metrics_path);
    return 0;
}
