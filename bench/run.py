"""Run one benchmark workload and print its metrics as one JSON line.

    python3 bench/run.py --workload wide-par --seed 1 --seconds 50 --trace 0

Load comes from one process with one thread: a closed loop with a single
caller, one query at a time.  A run builds the workload's inputs, then runs
whole rounds of the same queries until ``--seconds`` have passed.  The first
round runs the costlier independent checks and is not counted in
``attempted`` and ``failed``.  ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` wraps the public functions of every psiwb module and prints
per-layer metrics instead.  ``--quick`` runs the smallest size of the
workload, the first round and one more, with every check.  Details of each
run go to ``bench/runs/``.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SETUP_SAMPLES = 7
PROBE_TIMEOUT_S = 60


def setup_seconds(workload: str, seed: int):
    """One set-up time, from just before ``import psiwb`` until the first
    query is ready, measured in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, str(BENCH / "setup_probe.py"), workload, str(seed)],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True)
    return float(done.stdout.split()[-1])


def main(argv=None):
    import workloads
    from layers import Tracer

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true")
    args = ap.parse_args(argv)

    tracer = None
    if args.trace:
        # each wrapper adds a frame to every recursive call it wraps
        sys.setrecursionlimit(3 * sys.getrecursionlimit())
        tracer = Tracer()
        tracer.install(workloads.MODULES, [
            cls for cls in vars(workloads.params).values()
            if isinstance(cls, type) and issubclass(cls, workloads.params.CalculusInstance)])
        tracer.enabled = True
    queries = workloads.build(args.workload, args.seed, args.quick)
    if tracer:
        tracer.enabled = False
        setup_trace = tracer.reset()

    correct = True

    def checked(check, result):
        nonlocal correct
        try:
            return check(result)
        except workloads.Incorrect as e:
            correct = False
            print(f"INCORRECT: {e}", file=sys.stderr)
            return False

    # The machine's speed drifts between states some 40-60% apart, over
    # seconds to minutes.  So a query's latency is its least time over the
    # rounds, the throughput is that of a round at those least times, and
    # the set-up probes are spread over the whole run.
    probes = 0 if args.trace else 1 if args.quick else SETUP_SAMPLES
    setup = []
    best = {}  # query -> least seconds
    active = queries
    left_out = set()
    round_seconds = []
    attempted = failed = 0
    first = True
    start = time.perf_counter()
    while True:
        gc.collect()
        busy = 0.0
        for q in active:
            if tracer and not first:
                tracer.enabled = True
            t0 = time.perf_counter()
            try:
                result = q.run()
            except Exception as e:  # an engine crash is a failed operation
                result = None
                print(f"FAILED: {type(e).__name__}: {e}", file=sys.stderr)
            dt = time.perf_counter() - t0
            if tracer:
                tracer.enabled = False
            ok = result is not None and checked(q.check, result)
            if first and q.verify and q not in best and result is not None:
                checked(q.verify, result)
            result = None  # freed here, not inside the next query's timer
            busy += dt
            best[q] = min(best.get(q, dt), dt)
            if not first:
                attempted += 1
                failed += not ok
            elif not ok and q.seeded:
                left_out.add(q)
        if first:
            active = [q for q in active if q not in left_out]
            if left_out:
                print(f"left out {len(left_out)} seeded operations that failed in the "
                      f"first round (sizes {sorted(q.size for q in left_out)})",
                      file=sys.stderr)
        else:
            round_seconds.append(busy)
        elapsed = time.perf_counter() - start
        done = not first and (args.quick or elapsed >= args.seconds)
        due = probes * min(1.0, elapsed / args.seconds)
        while len(setup) < due:
            setup.append(setup_seconds(args.workload, args.seed))
        if done:
            break
        first = False

    queries_per_s = len(active) / sum(best[q] for q in active)
    distinct = list(dict.fromkeys(active))
    sizes = [q.size for q in distinct]
    least = [best[q] for q in distinct]
    if tracer:
        metrics = tracer.metrics(attempted, setup_trace, queries_per_s)
    else:
        largest = max(sizes)
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "queries_per_s": {"value": queries_per_s, "unit": "1/s"},
            "query_p50_ms": {"value": statistics.median(least) * 1000, "unit": "ms"},
            "largest_query_ms": {"value": statistics.median(
                dt for size, dt in zip(sizes, least) if size == largest) * 1000, "unit": "ms"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MB"},
        }

    by_size = {}
    for size, dt in zip(sizes, least):
        by_size.setdefault(size, []).append(dt * 1000)
    details = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "quick": args.quick, "metrics": metrics,
        "round_queries": len(active), "round_seconds": round_seconds,
        "left_out": len(left_out), "setup_s_samples": setup,
        "median_best_ms_by_size": {str(s): statistics.median(v)
                                   for s, v in sorted(by_size.items())},
    }
    if tracer:
        details["layers"] = tracer.table(attempted)
    runs = BENCH / "runs"
    runs.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-quick' if args.quick else ''}.json"
    (runs / name).write_text(json.dumps(details, indent=1) + "\n")

    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
