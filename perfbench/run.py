#!/usr/bin/env python3
"""Repository benchmark: build, run one workload, check, report.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first run builds perfbench/ (which pulls
in the library's default build) under $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench.

--trace 0 prints the end-to-end metrics: setup_s is the median over seven
fresh processes (cold start: input generation plus the first call of each
shape); the rest come from one closed-loop run of S seconds.

--trace 1 prints the per-layer metrics: the traced run of the telemetry-ON
binary, plus alternating telemetry-ON and telemetry-OFF runs for
telemetry.on_off_ratio. Spans are written to
$CARGO_TARGET_DIR/perfbench/trace-<workload>-<seed>.json.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics. The exit status is non-zero when a check fails or the
benchmark cannot build or run.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("gemm_large", "blas_small_calls", "scalar_lu")
SETUP_PROCESSES = 7
RUN_TIMEOUT_S = 170

END_TO_END = {
    "setup_s": "s",
    "gops": "Gop/s",
    "call_us_p50": "us",
    "call_us_tail": "us",
    "rss_peak_mb": "MiB",
}

PER_LAYER = {}
for _n in (2, 3, 4):
    for _op in ("add", "mul", "div", "sqrt"):
        PER_LAYER[f"mf.{_op}.f64x{_n}.ns"] = "ns"
PER_LAYER.update({
    "mf.two_sum.ns": "ns",
    "mf.two_prod.ns": "ns",
    "mf.fp_floor.ns": "ns",
    "mf.overhead_vs_double": "ratio",
})
for _k in ("axpy_aos", "dot_aos"):
    for _n in (2, 3, 4):
        PER_LAYER[f"simd.{_k}.f64x{_n}.ns_per_op"] = "ns/op"
PER_LAYER["blas.call_floor.ns"] = "ns"
for _k in ("dot", "axpy", "gemv", "gemm"):
    PER_LAYER[f"blas.{_k}.call_us_p50"] = "us"
for _k in ("dot", "axpy", "gemv", "gemm"):
    PER_LAYER[f"blas.{_k}.self_us_p50"] = "us"
PER_LAYER["blas.slow_calls"] = "count"
for _n in (2, 4):
    PER_LAYER.update({
        f"engine.pack_a.f64x{_n}.us": "us",
        f"engine.pack_b.f64x{_n}.us": "us",
        f"engine.microkernel.f64x{_n}.ns_per_op": "ns/op",
        f"engine.pack_share.f64x{_n}": "ratio",
        f"engine.speedup.f64x{_n}": "ratio",
        f"engine.efficiency_nproc.f64x{_n}": "ratio",
        f"engine.partition_imbalance.f64x{_n}": "ratio",
    })
PER_LAYER.update({
    "engine.fork_join.us": "us",
    "engine.microkernel_calls": "count",
    "engine.pack_bytes": "count",
    "guard.sentinel.ns": "ns",
    "guard.fp_env_snapshot.ns": "ns",
    "guard.checks": "count",
    "telemetry.count.ns": "ns",
    "telemetry.renorm_accumulate": "count",
    "telemetry.simd_dispatch": "count",
    "telemetry.on_off_ratio": "ratio",
    "trace.overhead": "ratio",
})


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    root = os.getcwd()
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(root, target, "perfbench")


def build(bdir):
    """Configure once, then an incremental build of both binaries."""
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return False
    cmd = ["cmake", "--build", bdir, "--target", "perfbench_on", "perfbench_off",
           "-j", str(max(1, min(4, os.cpu_count() or 1)))]
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def run_binary(bdir, variant, args):
    """Run one benchmark process; returns (exit code, parsed last line)."""
    exe = os.path.join(bdir, f"perfbench_{variant}")
    proc = subprocess.run([exe] + args, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        return proc.returncode, None
    try:
        return proc.returncode, json.loads(lines[-1])
    except json.JSONDecodeError:
        return proc.returncode, None


def end_to_end(bdir, a):
    base = ["--workload", a.workload, "--seed", str(a.seed)]
    setups = []
    for _ in range(SETUP_PROCESSES - 1):
        rc, out = run_binary(bdir, "on", base + ["--seconds", "1", "--mode", "setup"])
        if rc != 0 or out is None:
            return None
        setups.append(out["setup_s"])
    rc, out = run_binary(bdir, "on", base + ["--seconds", str(a.seconds), "--mode", "run"])
    if out is None:
        return None
    setups.append(out["setup_s"])
    values = {
        "setup_s": statistics.median(setups),
        "gops": out["gops"],
        "call_us_p50": out["call_us_p50"],
        "call_us_tail": out["call_us_tail"],
        "rss_peak_mb": out["rss_peak_mb"],
    }
    checked, failed = int(out["checked"]), int(out["failed"])
    print(f"workload {a.workload}, seed {a.seed}, {a.seconds} s closed loop, "
          f"one caller thread, {int(out['worker_cap'])} library workers")
    print(f"  setup_s       {values['setup_s']:.6g} s (median of {len(setups)} cold starts)")
    print(f"  gops          {values['gops']:.6g} Gop/s (extended mul+add ops)")
    print(f"  call_us_p50   {values['call_us_p50']:.6g} us")
    print(f"  call_us_tail  {values['call_us_tail']:.6g} us "
          f"(p{out['tail_level']:.6g}, median over {int(out['tail_windows'])} windows "
          f"of {int(out['samples'])} samples; whole run p{out['whole_run_tail_level']:.6g} = "
          f"{out['whole_run_tail_us']:.6g} us)")
    print(f"  failed_frac   {failed / max(checked, 1):.6g} ({failed} of {checked} checked outputs)")
    print(f"  rss_peak_mb   {values['rss_peak_mb']:.6g} MiB")
    prov = {k: out[k] for k in ("git_sha", "compiler", "backend", "pack_width", "nproc",
                                "worker_cap", "telemetry", "fp_env", "cpu")}
    print("provenance " + json.dumps(prov))
    return rc, checked, failed, {k: (v, END_TO_END[k]) for k, v in values.items()}


def per_layer(bdir, a):
    base = ["--workload", a.workload, "--seed", str(a.seed)]
    trace_file = os.path.join(bdir, f"trace-{a.workload}-{a.seed}.json")
    rc, out = run_binary(bdir, "on", base + ["--seconds", str(a.seconds), "--mode", "trace",
                                             "--trace-out", trace_file])
    if out is None:
        return None
    checked, failed = int(out["checked"]), int(out["failed"])
    # Telemetry ON/OFF: the same run mode in both binaries, alternating.
    pass_s = str(max(1.0, 0.3 * a.seconds))
    gops = {"on": [], "off": []}
    for variant in ("off", "on", "off", "on"):
        vrc, vout = run_binary(bdir, variant, base + ["--seconds", pass_s, "--mode", "run"])
        if vout is None:
            return None
        rc = rc or vrc
        checked += int(vout["checked"])
        failed += int(vout["failed"])
        gops[variant].append(vout["gops"])
    out["telemetry.on_off_ratio"] = statistics.median(gops["off"]) / statistics.median(gops["on"])
    missing = [k for k in PER_LAYER if k not in out]
    if missing:
        log("perfbench: traced run did not report " + ", ".join(missing))
        return None
    print(f"workload {a.workload}, seed {a.seed}: per-layer metrics "
          f"(spans in {os.path.relpath(trace_file)})")
    for k, unit in PER_LAYER.items():
        print(f"  {k:40s} {out[k]:.6g} {unit}")
    return rc, checked, failed, {k: (out[k], unit) for k, unit in PER_LAYER.items()}


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = p.parse_args()
    if a.seed < 0 or a.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")

    bdir = build_dir()
    if not build(bdir):
        log("perfbench: build failed")
        return 2
    try:
        res = per_layer(bdir, a) if a.trace else end_to_end(bdir, a)
    except subprocess.TimeoutExpired:
        log("perfbench: a benchmark process timed out")
        return 2
    if res is None:
        log("perfbench: a benchmark process failed to report")
        return 2
    rc, checked, failed, metrics = res
    correct = rc == 0 and failed == 0 and checked > 0
    print(json.dumps({
        "correct": correct,
        "attempted": checked,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
