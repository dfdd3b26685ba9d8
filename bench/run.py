"""moyalquot benchmark: one command, three workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload cell-star --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.  With
--trace 0 the metrics are the end-to-end ones (ops_per_s, op_p50_ms,
op_p90_ms, setup_s, peak_rss_mb); with --trace 1 they are the per-layer
call counts and self times and trace.overhead_s.  See bench/README.md.

Every workload process is a fresh interpreter (child.py) that imports
moyalquot from src/ with bytecode compiled beforehand into .bench_build/.
For setup_s the set-up phase runs SETUPS times in fresh processes and the
median is reported.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("cell-star", "flat-rational", "cli-chart")
SETUPS = 5
PYCACHE = os.path.join(".bench_build", "pycache")
CHILD_TIMEOUT_S = 170


def _fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 2


def _interpreter():
    return [sys.executable, "-X", f"pycache_prefix={os.path.abspath(PYCACHE)}"]


def _child(args, *extra, deadline):
    """Start one workload process; return (spawn stamp, its JSON result)."""
    command = _interpreter() + [
        os.path.join(BENCH, "child.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        *extra,
    ]
    spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run(
        command,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited {proc.returncode}: {proc.stderr.strip()}")
    return spawned, json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + CHILD_TIMEOUT_S

    for needed in ("src/moyalquot/__init__.py", "tests/golden"):
        if not os.path.exists(needed):
            return _fail(f"{needed} not found; run from the root of a moyalquot checkout")

    # bytecode as an installed package has it, so that setup_s times the import itself
    compiled = subprocess.run(
        _interpreter() + ["-m", "compileall", "-q", "src/moyalquot"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    if compiled.returncode != 0:
        return _fail(f"compileall failed: {compiled.stdout.strip()}")

    try:
        setups = []
        if not args.trace:
            for _ in range(SETUPS - 1):
                spawned, result = _child(args, "--setup-only", deadline=deadline)
                setups.append(result["ready"] - spawned)
        spawned, result = _child(args, deadline=deadline)
        setups.append(result["ready"] - spawned)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        return _fail(str(exc))

    for line in result["failures"][:10] + result["problems"][:10]:
        print(f"bench: {line}", file=sys.stderr)
    times = result["times"]
    if args.trace:
        metrics = dict(result["layers"])
        metrics["trace.overhead_s"] = {"value": result["trace_overhead_s"], "unit": "s"}
    else:
        metrics = {
            "ops_per_s": {"value": len(times) / sum(times), "unit": "1/s"},
            "op_p50_ms": {"value": statistics.median(times) * 1000.0, "unit": "ms"},
            "op_p90_ms": {"value": statistics.quantiles(times, n=10)[8] * 1000.0, "unit": "ms"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": result["rss_mb"], "unit": "MB"},
        }
    print(json.dumps({
        "correct": not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
