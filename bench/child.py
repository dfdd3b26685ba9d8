"""One workload process: set up, warm up, run the timed loop, check outputs.

run.py starts this in a fresh interpreter from the root of a checkout and
reads the one JSON line it prints.  Phases:

  set-up     import moyalquot, build the seeded round, run the first
             WARMUP operations once; stamp `ready` (CLOCK_MONOTONIC)
  timed      repeat whole rounds until the timed work reaches --seconds
             (--trace 0), or run TRACE_ROUNDS rounds untraced and the same
             rounds traced (--trace 1)
  checks     cheap checks after every operation, outside its timing; after
             the loop, peak RSS is read and the sympy references and the
             workload's untimed checks run
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback

ROOT = os.getcwd()
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(1, os.path.dirname(os.path.abspath(__file__)))

WARMUP = 3
TRACE_ROUNDS = 1


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Runner:
    def __init__(self, workload):
        self.workload = workload
        self.times = []
        self.busy = 0.0  # seconds spent in operations, failed ones included
        self.attempted = 0
        self.failed = 0
        self.problems = []  # wrong outputs
        self.failures = []  # operations that raised
        self.first = {}  # op index -> output of its first execution

    def run_round(self, tracer=None):
        kept = {}
        for index, op in enumerate(self.workload.ops):
            self.attempted += 1
            if tracer is not None:
                tracer.active = True
            start = time.perf_counter()
            try:
                out = op.run(kept)
            except Exception as exc:  # a failed operation is counted, not fatal
                self.failed += 1
                self.failures.append(f"{op.label}: {type(exc).__name__}: {exc}")
                continue
            finally:
                elapsed = time.perf_counter() - start
                self.busy += elapsed
                if tracer is not None:
                    tracer.active = False
            self.times.append(elapsed)
            problem = op.check(out, kept)
            if problem:
                self.problems.append(f"{op.label}: {problem}")
            if op.keep:
                kept[op.keep] = out
            if op.reference is not None and index not in self.first:
                self.first[index] = out

    def references(self):
        for index, out in sorted(self.first.items()):
            op = self.workload.ops[index]
            problem = op.reference(out)
            if problem:
                self.problems.append(f"{op.label} (reference): {problem}")
        for after in self.workload.after:
            problem = after()
            if problem:
                self.problems.append(f"after loop: {problem}")


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    import moyalquot
    import workloads

    source = os.path.join(ROOT, "src", "moyalquot")
    if os.path.dirname(os.path.abspath(moyalquot.__file__)) != source:
        print(f"moyalquot imported from {moyalquot.__file__}, not {source}", file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[args.workload](args.seed)
    kept = {}
    for op in workload.ops[:WARMUP]:
        out = op.run(kept)
        if op.keep:
            kept[op.keep] = out
    ready = _now()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    runner = Runner(workload)
    result = {"ready": ready}
    if args.trace:
        import tracing

        start = time.perf_counter()
        for _ in range(TRACE_ROUNDS):
            runner.run_round()
        untraced = time.perf_counter() - start
        tracer = tracing.Tracer()
        tracer.install()
        start = time.perf_counter()
        for _ in range(TRACE_ROUNDS):
            runner.run_round(tracer)
        result["trace_overhead_s"] = time.perf_counter() - start - untraced
        result["layers"] = tracer.metrics()
    else:
        while runner.busy < args.seconds:
            runner.run_round()
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    runner.references()
    result.update(
        times=runner.times,
        attempted=runner.attempted,
        failed=runner.failed,
        problems=runner.problems,
        failures=runner.failures,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(3)
