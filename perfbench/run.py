"""Scenario benchmark for nearscat: a closed loop over ``pipeline.run_scenario``.

Run from the repository root:

    python3 perfbench/run.py --workload ext_soft_kite --seed 0 --seconds 20 --trace 0

One process runs one operation at a time (simulate, noise, truncate,
continue, indicate, write artifacts; plus ``render`` on the workloads in
``RENDER``).  The first operation is discarded as set-up.  Every operation's
outputs are checked; a failed check is counted, not raised.  The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end metrics with ``--trace 0``,
per-layer metrics with ``--trace 1``).  See README.md for what each metric
is meant to show.
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
import subprocess
import sys
import time
from pathlib import Path

from workloads import SETUP_NOISE_SEED, WORKLOADS, noise_seed, operation, scenario

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

MIN_OPS = 3
SETUP_PROBES = 2          # extra fresh processes timing set-up, besides this one
PROBE_TIMEOUT_S = 60       # keeps a hung program inside the 180 s run limit
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_blas_threads() -> int:
    """Cap BLAS threads at nproc; must run before numpy is imported."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        try:
            want = int(os.environ.get(var, nproc))
        except ValueError:
            want = nproc
        os.environ[var] = str(max(1, min(want, nproc)))
    return nproc


def import_nearscat():
    """Import the checkout's own nearscat from src/, nothing installed elsewhere."""
    if not (SRC / "nearscat" / "__init__.py").is_file():
        sys.exit(f"perfbench: no nearscat sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import nearscat
    if Path(nearscat.__file__).resolve().parent != SRC / "nearscat":
        sys.exit(f"perfbench: imported nearscat from {nearscat.__file__}, not {SRC}")
    from nearscat import pipeline
    return pipeline


def probe_setup(name: str) -> None:
    """Child mode: print the set-up time of a fresh process."""
    t0 = time.perf_counter()
    pipeline = import_nearscat()
    operation(pipeline, name, scenario(name, SETUP_NOISE_SEED), OUT / name / "probe")
    print(repr(time.perf_counter() - t0))


def setup_probes(name: str, n: int) -> tuple[list[float], int]:
    times, failed = [], 0
    for _ in range(n):
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name, "--probe-setup"],
                cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
            if proc.returncode != 0:
                raise ValueError(proc.stderr.strip()[-500:])
            times.append(float(proc.stdout.split()[-1]))
        except (subprocess.TimeoutExpired, ValueError, IndexError) as exc:
            print(f"perfbench: setup probe failed: {exc}", file=sys.stderr)
            failed += 1
    return times, failed


def environment(nproc: int) -> dict:
    import ctypes

    import numpy as np
    import scipy
    blas = {}
    for pkg in (np, scipy):
        libs = Path(pkg.__file__).resolve().parent.parent / f"{pkg.__name__}.libs"
        for lib in sorted(libs.glob("*openblas*.so*")):
            try:
                handle = ctypes.CDLL(str(lib))
            except OSError:
                continue
            info = {}
            for sym in ("scipy_openblas_get_config64_", "scipy_openblas_get_config"):
                if hasattr(handle, sym):
                    getattr(handle, sym).restype = ctypes.c_char_p
                    info["config"] = getattr(handle, sym)().decode()
                    break
            for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
                if hasattr(handle, sym):
                    getattr(handle, sym).restype = ctypes.c_int
                    info["threads"] = getattr(handle, sym)()
                    break
            blas[f"{pkg.__name__}:{lib.name}"] = info
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "cpu": cpu, "nproc": nproc,
            "blas_thread_env": {v: os.environ[v] for v in BLAS_THREAD_VARS},
            "openblas": blas}


# ---------------------------------------------------------------------------
# Main loop
# ---------------------------------------------------------------------------

def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    name = args.workload
    nproc = pin_blas_threads()
    if args.probe_setup:
        probe_setup(name)
        return 0

    # set-up: import plus the first operation (standard noise seed), discarded
    t0 = time.perf_counter()
    pipeline = import_nearscat()
    setup_cfg = scenario(name, SETUP_NOISE_SEED)
    out = OUT / name
    shutil.rmtree(out, ignore_errors=True)
    rings: list = []
    simulate_ring = pipeline.simulate_ring

    def capture_ring(*a, **kw):
        rings.append(simulate_ring(*a, **kw))
        return rings[-1]
    pipeline.simulate_ring = capture_ring
    result = operation(pipeline, name, setup_cfg, out / "setup")
    setup_times = [time.perf_counter() - t0]

    from checks import Checker, loc_err_cells
    from spans import COUNT_METRICS, TIME_METRICS, VARIABLE_COUNTS, Tracer, median_self_times
    env = environment(nproc)
    print("env:", json.dumps(env), flush=True)
    checker = Checker(name)
    attempted, failed = 1, 0
    problems = checker.check(setup_cfg, result, rings, out / "setup", same_as_first=False)
    loc_err = loc_err_cells(setup_cfg, result)
    if problems:
        failed += 1
        print(f"perfbench: set-up operation: {problems}", file=sys.stderr)
    if args.trace == 0:
        probe_times, probe_failed = setup_probes(name, SETUP_PROBES)
        setup_times += probe_times
        attempted += SETUP_PROBES
        failed += probe_failed

    cfg = scenario(name, noise_seed(args.seed))
    tracer = Tracer()
    times = {False: [], True: []}          # traced? -> op wall times
    traced_ops: list[int] = []
    op = 0
    min_ops = 4 if args.trace else MIN_OPS       # traced runs: two ops of each kind
    deadline = time.perf_counter() + args.seconds
    while time.perf_counter() < deadline or op < min_ops:
        op += 1
        traced = bool(args.trace) and op % 2 == 0
        rings.clear()
        attempted += 1
        try:
            if traced:
                with tracer.operation(op):
                    result = operation(pipeline, name, cfg, out / "op")
                times[True].append(tracer.op_time(op))
                traced_ops.append(op)
            else:
                t = time.perf_counter()
                result = operation(pipeline, name, cfg, out / "op")
                times[False].append(time.perf_counter() - t)
            problems = checker.check(cfg, result, rings, out / "op", same_as_first=True)
            if traced:
                problems += tracer.check(op)
                counts, first = (tracer.exact_counts(o) for o in (op, traced_ops[0]))
                diff = {n: (first[n], counts[n]) for n in counts
                        if n not in VARIABLE_COUNTS and counts[n] != first[n]}
                if diff:
                    problems.append(f"exact counts differ from the first traced op: {diff}")
        except Exception as exc:           # a failing operation is counted, not raised
            problems = [f"{type(exc).__name__}: {exc}"]
        if problems:
            failed += 1
            print(f"perfbench: operation {op}: {problems}", file=sys.stderr)

    if not times[False] or (args.trace and not traced_ops):
        print("perfbench: no operation completed", file=sys.stderr)
        return 1
    scenario_s = statistics.median(times[False])
    if args.trace == 0:
        metrics = {
            "scenario_s": (scenario_s, "s"),
            "setup_s": (statistics.median(setup_times), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "loc_err_cells": (loc_err, "cells"),
            "forward_digits": (-math.log10(max(checker.forward_err, 1e-300)), "digits"),
            "ok_ratio": ((attempted - failed) / attempted, "ratio"),
        }
    else:
        layer = median_self_times(tracer, traced_ops)
        metrics = {f"{n}_s": (layer[n], "s") for n in TIME_METRICS}
        counts = tracer.exact_counts(traced_ops[0])
        for n in VARIABLE_COUNTS:
            counts[n] = statistics.median(tracer.exact_counts(o)[n] for o in traced_ops)
        metrics.update({n: (counts[n], unit) for n, unit in COUNT_METRICS.items()})
        traced_s = statistics.median(times[True])
        metrics["trace.scenario_s"] = (traced_s, "s")
        metrics["trace.overhead_s"] = (traced_s - scenario_s, "s")
        tracer.dump(out / "spans.json")
    (out / "env.json").write_text(json.dumps(env, indent=1), encoding="ascii")
    print("op times (s):", " ".join(f"{t:.3f}" for t in times[False]))
    for key, (value, unit) in metrics.items():
        print(f"{key:40s} {value:.6g} {unit}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
