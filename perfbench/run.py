"""Benchmark entry point.

    python3 perfbench/run.py --workload {pipeline,acquire,theory} --seed N \\
        --seconds S --trace {0,1}

Runs one workload for about S seconds as a closed loop with one client: one
iteration at a time, each in a fresh process (worker.py) with BLAS pinned to
one thread, so that no warm state carries over and peak memory belongs to
that iteration. Outputs go to a temporary directory under perfbench/_work/
that is deleted after each iteration.

With --trace 0 every iteration runs untraced and the end-to-end metrics are
reported as medians over the iterations. With --trace 1 untraced and traced
iterations alternate; the per-layer metrics come from the traced ones, and
trace.overhead_s is the difference of the two medians of wall_s.

The output is a table per iteration, the named metrics of the workload with
their units, the environment, the reference comparison, and last one JSON
line: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from statistics import median

from spans import LAYER_METRICS
from worker import PHASE_UNITS, THREAD_VARS, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
DEADLINE_S = 170.0  # a run must end within 180 s, whatever --seconds says

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


def run_iteration(args, traced: bool, timeout: float) -> dict:
    """One worker process; returns its result, or {"error": ...}."""
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        result_path = workdir / "result.json"
        # Pinned BLAS threads; sources compiled afresh by every iteration, so
        # set-up time does not depend on bytecode left by an earlier run.
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
                   **{var: "1" for var in THREAD_VARS})
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
        )
        command = [
            sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--trace", str(int(traced)),
            "--workdir", str(workdir), "--result", str(result_path),
        ]
        spawned = time.monotonic()
        try:
            proc = subprocess.run(
                command, cwd=ROOT, env=env, capture_output=True, text=True,
                timeout=max(timeout, 1.0),
            )
        except subprocess.TimeoutExpired:
            return {"error": f"iteration killed after {timeout:.0f} s"}
        if proc.returncode != 0 or not result_path.is_file():
            return {"error": f"worker exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
        result = json.loads(result_path.read_text(encoding="utf-8"))
        result["setup_s"] = result["ready_at"] - spawned
        result["traced"] = traced
        return result
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_loop(args) -> list[dict]:
    started = time.monotonic()
    results: list[dict] = []
    while True:
        traced = bool(args.trace) and len(results) % 2 == 1
        remaining = DEADLINE_S - (time.monotonic() - started)
        results.append(run_iteration(args, traced, remaining))
        if "error" in results[-1]:
            return results
        elapsed = time.monotonic() - started
        next_end = elapsed + elapsed / len(results)
        both_kinds = not args.trace or len(results) >= 2
        if both_kinds and (next_end > args.seconds or next_end > DEADLINE_S):
            return results


def summarize(args, results: list[dict]) -> tuple[dict, list[str]]:
    ok = [r for r in results if "error" not in r]
    untraced = [r for r in ok if not r["traced"]]
    traced = [r for r in ok if r["traced"]]
    crashed = len(results) - len(ok)
    failures = [r["error"] for r in results if "error" in r]
    failures += [f for r in ok for f in r["failures"]]
    # Each iteration repeats the same inputs, so their outputs must agree.
    digests = {r["digest"] for r in ok}
    if len(digests) > 1:
        failures.append(f"outputs differ between iterations of one seed: {len(digests)} digests")
    attempted = sum(r["attempted"] for r in ok) + crashed + 1
    failed = len(failures)

    lines = [
        f"perfbench: workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
        f"trace={args.trace}; closed loop, 1 client, jobs 1; "
        f"{len(untraced)} untraced and {len(traced)} traced iterations",
    ]
    if ok:
        lines.append("environment: " + json.dumps(ok[0]["environment"], sort_keys=True))
        phases = list(ok[0]["phases"])
        lines.append("iteration  traced  " + "  ".join(
            ["setup_s", "wall_s", "cpu_s", "peak_rss_mb"] + phases))
        for i, r in enumerate(ok, 1):
            lines.append(f"{i:9d}  {int(r['traced']):6d}  " + "  ".join(
                f"{v:.4f}" for v in [r["setup_s"], r["wall_s"], r["cpu_s"], r["peak_rss_mb"]]
                + [r["phases"][p] for p in phases]))

    metrics = {}
    if untraced:
        e2e = {
            "setup_s": median([r["setup_s"] for r in ok]),
            "wall_s": median([r["wall_s"] for r in untraced]),
            "peak_rss_mb": median([r["peak_rss_mb"] for r in untraced]),
        }
        named = {k: (v, END_TO_END[k]) for k, v in e2e.items()}
        named["failed_frac"] = (failed / attempted, "ratio")
        for phase in untraced[0]["phases"]:
            named[phase] = (median([r["phases"][phase] for r in untraced]),
                            PHASE_UNITS[phase])
        lines.append(f"metrics (median of {len(untraced)} untraced iterations):")
        lines += [f"  {name:24s} {value:14.6g} {unit}" for name, (value, unit) in named.items()]
        lines.append(f"checks: {attempted} attempted, {failed} failed")
        lines.append("reference: " + json.dumps(untraced[0]["reference"], sort_keys=True))
        if args.workload == "theory":
            passed = untraced[0]["outputs"]["statistical_checks_passed"]
            lines.append(f"theory Monte Carlo checks at seed {args.seed}: "
                         f"{'all passed' if passed else 'some tripped (see README)'}")
        if not args.trace:
            metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in e2e.items()}
    if args.trace and traced and untraced:
        layers = {
            name: median([r["layers"][name] for r in traced]) for name in LAYER_METRICS
        }
        layers["trace.overhead_s"] = (
            median([r["wall_s"] for r in traced]) - median([r["wall_s"] for r in untraced])
        )
        missing = traced[0]["missing_layers"]
        lines.append("missing layers: " + (", ".join(missing) if missing else "none"))
        lines.append(f"layers (median of {len(traced)} traced iterations):")
        units = {name: unit for name, (unit, _) in LAYER_METRICS.items()}
        units["trace.overhead_s"] = "s"
        for name, value in layers.items():
            lines.append(f"  {name:40s} {value:14.6g} {units[name]}"
                         + ("  (missing)" if name in missing else ""))
        metrics = {k: {"value": v, "unit": units[k]} for k, v in layers.items()}
    for failure in failures:
        print(f"perfbench: FAILED {failure}", file=sys.stderr)
    correct = failed == 0 and bool(metrics)
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one wavlab benchmark workload.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "wavlab" / "__init__.py").is_file():
        print(f"perfbench: no wavlab sources at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2

    WORK.mkdir(exist_ok=True)
    try:
        results = run_loop(args)
    finally:
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still uses it
    if not any("error" not in r for r in results):
        print(f"perfbench: no iteration completed: {results[-1]['error']}", file=sys.stderr)
        return 1
    summary, lines = summarize(args, results)
    print("\n".join(lines))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
