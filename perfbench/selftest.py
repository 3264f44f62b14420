"""Self-test of the benchmark's tracing (about two minutes on two cores).

    python3 perfbench/selftest.py [workload ...]

For each workload, two traced runs with the same seed, in fresh processes,
must both pass every output check and report identical exact counts (all
but the LU solve count, see spans.VARIABLE_COUNTS), and the spans each run
wrote must nest inside their parents with self times summing to each
traced operation's time.
"""

from __future__ import annotations

import json
import subprocess
import sys

from run import OUT, ROOT, import_nearscat
from workloads import WORKLOADS


def traced_run(name: str, seed: int) -> tuple[dict, list[dict]]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", name, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise AssertionError(f"{name}: exit {proc.returncode}: {proc.stderr[-2000:]}")
    report = json.loads(proc.stdout.splitlines()[-1])
    report["stderr"] = proc.stderr
    spans = json.loads((OUT / name / "spans.json").read_text(encoding="ascii"))
    return report, spans


def main() -> int:
    import_nearscat()
    from spans import COUNT_METRICS, VARIABLE_COUNTS, Span, Tracer
    failures = []
    for name in sys.argv[1:] or sorted(WORKLOADS):
        counts = []
        for run in (1, 2):
            report, spans = traced_run(name, seed=0)
            if not report["correct"]:
                failures.append(f"{name} run {run}: {report['failed']} failed operations: "
                                f"{report['stderr'][-2000:]}")
            tracer = Tracer()
            tracer.spans = [Span(**s) for s in spans]
            for op in sorted({s.op for s in tracer.spans}):
                failures += [f"{name} run {run} op {op}: {p}" for p in tracer.check(op)]
            counts.append({n: report["metrics"][n]["value"] for n in COUNT_METRICS
                           if n not in VARIABLE_COUNTS})
        if counts[0] != counts[1]:
            failures.append(f"{name}: exact counts differ between runs: {counts}")
        print(f"{name}: {'ok' if not failures else 'FAILED'} {counts[0]}", flush=True)
    for f in failures:
        print(f, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
