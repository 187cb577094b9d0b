#!/usr/bin/env python3
"""jetforge benchmark runner.

    python3 perfbench/run.py --workload yolov3-infer --seed 0 --seconds 10 --trace 0

Run from the root of a source checkout. One process sets the workload up
eleven times, then sends requests back to back, one at a time, until
--seconds have passed (at least ten requests), then lets the workload
finish. A fixed speed probe runs before and after every set-up and
request; the bounded times are medians of the samples scaled by it to a
reference host speed (see SpeedProbe). The last line of standard output
is one JSON object: `correct`, `attempted`, `failed` and `metrics`. With
--trace 0 the metrics are the end-to-end ones of BENCHMARK.json, with --trace 1 the
per-layer ones, computed from the spans recorded around every call into
jetforge. The lines before it are a human-readable report, including the
machine metadata; the same report is written to .perfbench/results/ and,
for traced runs, the spans to .perfbench/traces/.

--write-reference stores the outputs of a --seed 0 run as the reference
that later runs at seed 0 are checked against.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SETUPS = 11
MIN_REQUESTS = 10
SETUP_PROBES = 3  # probes on each side of a set-up
# About the probe's median time on the host the benchmark was built on
# (2 vCPUs of a shared Intel Xeon, OpenBLAS 0.3.31, one BLAS thread), where
# it took 10 to 12 ms.
PROBE_REFERENCE_S = 0.011
# One BLAS thread. On the 2-vCPU virtual machine the benchmark was built on,
# waking a second thread for each GEMM stalls for milliseconds whenever the
# host is slow to run the idle vCPU: a 256x256 f32 GEMM took 0.3 ms on one
# thread and 13 to 16 ms on two.
BLAS_THREADS = "1"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-reference", action="store_true")
    return p.parse_args(argv)


def openblas_runtime() -> dict:
    """Thread count and core type OpenBLAS reports at run time, when the
    library bundled with numpy can be found."""
    import ctypes
    import glob

    import numpy as np
    libs = glob.glob(os.path.join(os.path.dirname(os.path.dirname(np.__file__)),
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            try:
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}")
                core = getattr(lib, f"{prefix}_get_corename{suffix}")
            except AttributeError:
                continue
            threads.restype, core.restype = ctypes.c_int, ctypes.c_char_p
            return {"threads": threads(), "core": core().decode()}
    return {"threads": None, "core": None}


def machine() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cores": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')} ({blas.get('openblas configuration', '')})",
        "blas_threads_set": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "blas_runtime": openblas_runtime(),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


class SpeedProbe:
    """A fixed piece of the kinds of work jetforge's hot paths do, without
    jetforge: a 768x768 f32 BLAS GEMM (f32 convolution), float16 rounding
    (f16), a loop of numpy calls on small arrays (the per-node dispatch of
    the executor) and a Python loop (the interpreter work per box).

    The shared host's speed drifts by tens of per cent over minutes, for
    the same code, and a slow phase can outlast a run; the probe drifts
    with it. A time divided by the probe's time next to it, times
    PROBE_REFERENCE_S, is the time on a host that runs the probe in that
    long. Over seven processes per workload with 30 s of requests each,
    the median request latency spread 24% (tiny-calib-eval) and 7%
    (yolov3-infer), latency over this probe 2%. The GEMM alone tracked
    6% and 2%; an int64 matmul or float16 rounding alone tracked
    yolov3-infer at 13 to 19%.

    numpy is imported here, not at the top: it must not load before the
    BLAS thread count is set."""

    def __init__(self):
        import numpy as np
        rng = np.random.default_rng(0)
        self.square = rng.standard_normal((768, 768)).astype(np.float32)
        self.floats = rng.standard_normal((64, 40, 40)).astype(np.float32)
        self.small = rng.standard_normal(256)
        for _ in range(3):
            self()

    def __call__(self) -> float:
        t0 = time.perf_counter()
        self.square @ self.square
        self.floats.astype("float16").astype("float32")
        for _ in range(300):
            (self.small * 1.01 + 0.5).clip(-3, 3).astype("float32")
        total = 0
        for i in range(10000):
            total += i * i
        return time.perf_counter() - t0


def scaled(times: list[float], before: list[float], after: list[float]) -> list[float]:
    """Each time over the mean of the probe times on either side of it, in
    seconds on the reference host."""
    return [t / ((b + a) / 2) * PROBE_REFERENCE_S for t, b, a in zip(times, before, after)]


def p10(samples: list[float]) -> float:
    """10th percentile, nearest rank."""
    s = sorted(samples)
    return s[max(0, math.ceil(0.1 * len(s)) - 1)]


def tail(samples: list[float]) -> str:
    """p10, median, and the highest percentile with at least ten samples
    above it."""
    n = len(samples)
    s = sorted(samples)
    text = f"n={n} p10={p10(s):.6g} p50={statistics.median(s):.6g}"
    pct = int(100 * (n - 10) / n)
    if pct > 50:
        text += f" p{pct}={s[math.ceil(pct / 100 * n) - 1]:.6g}"
    return text + f" max={s[-1]:.6g}"


def per_layer(tracer, latencies_s: list[float], scaled_s: list[float], span_cost: float,
              cycle: int) -> dict[str, float]:
    """Per-layer metrics from the spans and counts; `scaled_s` are the
    request latencies scaled by the speed probe, `cycle` is the number of
    requests in one pass over the workload's inputs."""
    from tracer import median_over, per_run_totals, self_times

    spans = tracer.spans
    runs = sorted({s.run for s in spans} | {r for r, _ in tracer.counts})
    out: dict[str, float] = {}

    def phase(totals: dict[str, float]) -> str:
        # work done in requests is reported per request; other work per
        # finish, or else per set-up
        for prefix in ("request", "finish"):
            if any(r.startswith(prefix) for r in totals):
                return prefix
        return "setup"

    def per_run(totals: dict[str, float]) -> float:
        return median_over(totals, phase(totals), runs)

    selfs = per_run_totals(spans, self_times(spans), key=lambda s: s.layer)
    for layer, totals in selfs.items():
        out[f"{layer}.self_s"] = median_over(totals, "request", runs)
        out[f"{layer}.setup_self_s"] = median_over(totals, "setup", runs)
    durations = [s.end - s.start for s in spans]
    by_name = per_run_totals(spans, durations, key=lambda s: s.name)
    for name, totals in by_name.items():
        out[f"{name}_s"] = per_run(totals)
    counts: dict[str, dict[str, float]] = {}
    for (run, name), value in tracer.counts.items():
        counts.setdefault(name, {})[run] = value
    for name, totals in counts.items():
        # counts from requests cover one pass over the inputs, so they are
        # exact whatever the run's length
        out[name] = (sum(totals.get(f"request{i}", 0) for i in range(cycle))
                     if phase(totals) == "request" else per_run(totals))

    def ratio(num: dict[str, float], den: dict[str, float], scale: float = 1.0) -> float:
        values = [num.get(r, 0.0) / den[r] * scale for r in runs
                  if r.startswith(phase(den)) and den.get(r)]
        return statistics.median(values) if values else 0.0

    for mode in ("f32", "f16", "i8"):
        out[f"executor.{mode}_gmac_per_s"] = ratio(
            counts.get(f"executor.{mode}_macs", {}), by_name.get(f"executor.{mode}", {}), 1e-9)
    if out.get("detect.candidates"):
        out["detect.nms_keep_ratio"] = out["detect.kept"] / out["detect.candidates"]
    out["evaluation.dets_per_s"] = ratio(counts.get("evaluation.detections", {}),
                                         by_name.get("evaluation.evaluate", {}))
    entropy = [d for s, d in zip(spans, durations) if s.name == "quant.entropy_calibrate"]
    out["quant.entropy_calibrate_max_s"] = max(entropy, default=0.0)
    first_f32 = [d for s, d in zip(spans, durations) if s.name == "executor.f32"]
    out["executor.f32_cold_s"] = first_f32[0] if first_f32 else 0.0

    requests = [r for r in runs if r.startswith("request")]
    out["trace.spans"] = statistics.median(
        sum(1 for s in spans if s.run == r) for r in requests)
    out["trace.latency_ms"] = statistics.median(scaled_s) * 1e3
    out["trace.overhead_pct"] = out["trace.spans"] * span_cost / statistics.median(latencies_s) * 100
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "jetforge", "__init__.py")):
        print(f"perfbench: no jetforge sources at {src}; run from a source checkout",
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, src)

    from tracer import Tracer, span_cost_s
    from workloads import REFERENCE_DIR, WORKLOADS, Checks, Context

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload '{args.workload}' "
              f"(have: {', '.join(WORKLOADS)})", file=sys.stderr)
        return 2
    out_dir = os.path.join(ROOT, ".perfbench")
    work = os.path.join(out_dir, f"work-{args.workload}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    probe = SpeedProbe()
    tracer = Tracer(enabled=bool(args.trace))
    checks = Checks()
    ctx = Context(args.seed, work, tracer, checks, args.write_reference)
    try:
        workload = WORKLOADS[args.workload](ctx)
        setup_s, setup_probes = [], []
        for i in range(SETUPS):
            before = statistics.median(probe() for _ in range(SETUP_PROBES))
            tracer.run = f"setup{i}"
            t0 = time.perf_counter()
            with tracer.span("bench.setup"):
                workload.setup()
            setup_s.append(time.perf_counter() - t0)
            after = statistics.median(probe() for _ in range(SETUP_PROBES))
            setup_probes.append((before, after))

        latencies, probes = [], [probe()]
        start = time.perf_counter()
        while len(latencies) < MIN_REQUESTS or time.perf_counter() - start < args.seconds:
            tracer.run = f"request{len(latencies)}"
            t0 = time.perf_counter()
            try:
                with tracer.span("bench.request"):
                    workload.request(len(latencies))
            except Exception:  # noqa: BLE001 - a failed request is counted, the loop goes on
                traceback.print_exc(file=sys.stderr)
                checks.op(False, f"{tracer.run} raised")
            latencies.append(time.perf_counter() - t0)
            probes.append(probe())
        measured_s = time.perf_counter() - start
        finish = getattr(workload, "finish", None)
        if finish:
            tracer.run = "finish"
            try:
                with tracer.span("bench.finish"):
                    finish()
            except Exception:  # noqa: BLE001 - counted like a failed request
                traceback.print_exc(file=sys.stderr)
                checks.op(False, "finish raised")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup_scaled = scaled(setup_s, *zip(*setup_probes))
    latency_scaled = scaled(latencies, probes[:-1], probes[1:])
    if args.trace:
        computed = per_layer(tracer, latencies, latency_scaled, span_cost_s(), workload.CYCLE)
        metrics = {m["name"]: {"value": computed.get(m["name"], 0.0), "unit": m["unit"]}
                   for m in spec["per_layer"]}
    else:
        computed = {"setup_s": statistics.median(setup_scaled),
                    "latency_ms": statistics.median(latency_scaled) * 1e3,
                    "peak_rss_mib": peak_rss_mib}
        metrics = {m["name"]: {"value": computed[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}

    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "measured_s": measured_s, "machine": machine(),
        "setup_s": setup_s, "latency_s": latencies, "peak_rss_mib": peak_rss_mib,
        "setup_probes_s": setup_probes, "probes_s": probes,
        "failures": checks.messages, "computed": computed, "notes": ctx.notes,
    }
    os.makedirs(os.path.join(out_dir, "results"), exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(out_dir, "results", stem + ".json"), "w", encoding="utf-8") as f:
        json.dump(report, f, indent=1, sort_keys=True)
    for name, outputs in ctx.references.items() if args.write_reference else ():
        with open(os.path.join(REFERENCE_DIR, f"{name}.json"), "w", encoding="utf-8") as f:
            json.dump(outputs, f, indent=1, sort_keys=True)
            f.write("\n")
    if args.trace:
        os.makedirs(os.path.join(out_dir, "traces"), exist_ok=True)
        tracer.write(os.path.join(out_dir, "traces", stem + ".jsonl"))

    print(f"# {args.workload} seed={args.seed} trace={args.trace} machine={json.dumps(report['machine'])}")
    print(f"# setup (s) raw {tail(setup_s)}; scaled {tail(setup_scaled)}")
    print(f"# request latency (ms) raw {tail([v * 1e3 for v in latencies])}; "
          f"scaled {tail([v * 1e3 for v in latency_scaled])} over {measured_s:.1f}s")
    print(f"# speed probe (ms) {tail([v * 1e3 for v in probes])}")
    for name, value in sorted({**computed, **ctx.notes}.items()):
        print(f"# {name} = {value!r}")
    for message in checks.messages:
        print(f"# FAILED: {message}")
    print(json.dumps({"correct": checks.failed == 0 and checks.attempted > 0,
                      "attempted": checks.attempted, "failed": checks.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
