"""One workload in its own fresh interpreter; prints one JSON line.

    python3 perfbench/worker.py --workload W --seed S --seconds T --trace 0|1 [--probe]

Set-up (import fibword, generate the inputs) ends at `ready`, a
time.monotonic() stamp that run.py compares with its own clock at spawn.
With --probe the worker stops there.  Otherwise it runs operations in a
closed loop for T seconds; with --trace 1 the first third runs untraced
and the rest traced, which gives the tracing overhead.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import random
import resource
import sys
import time
from array import array

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_loop(workload, feed, seconds: float, trace=None) -> dict:
    """Operations until `seconds` of wall time are used; a run never starts an op it cannot finish."""
    # Latencies go in an array of doubles, 8 bytes each, so that peak_rss_mb hardly
    # grows with the number of operations a faster program fits into the run.
    samples, failures = array("d"), []
    start = time.monotonic()
    while True:
        elapsed = time.monotonic() - start
        if samples and elapsed + elapsed / len(samples) > seconds:
            break
        item = next(feed)
        if trace is not None:
            trace.request += 1
        t0 = time.perf_counter()
        try:
            out = workload.run(item)
            error = None
        except Exception as exc:  # a failed operation is data, counted below
            out, error = None, exc
        t1 = time.perf_counter()
        samples.append(t1 - t0)
        if error is not None or not workload.check(item, out):
            failures.append(repr(item)[:200] + (f" raised {error!r}" if error else ""))
    return {"samples_s": samples, "failures": failures, "wall_s": time.monotonic() - start}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import fibword
    import workloads

    workload = workloads.make(args.workload, ROOT)
    feed = workload.inputs(random.Random(f"{args.workload}:{args.seed}"))
    batch = [next(feed) for _ in range(workload.batch)]
    ready = time.monotonic()
    report = {
        "ready": ready,
        "digest": workloads.digest(batch),  # run.py checks it against its own generation of the seed
        "fibword": os.path.relpath(fibword.__file__, ROOT),
    }
    if args.probe:
        print(json.dumps(report))
        return 0

    stream = itertools.chain(batch, feed)
    if hasattr(workload, "prepare"):
        workload.prepare()
    if not args.trace:
        report.update(run_loop(workload, stream, args.seconds))
        report["peak_rss_mb"] = _peak_rss_mb(args.workload)
        print(json.dumps(report, default=list))
        return 0

    import tracer as tracing

    if args.workload == "cli-requests":
        import fibword.cli  # noqa: F401  (imported once, as a long-lived caller would)

        workload.in_process = True  # replay each argv through fibword.cli.main
    plain = run_loop(workload, stream, args.seconds / 3)
    trace = tracing.Tracer()
    trace.install()
    workload.output_bytes = 0
    traced = run_loop(workload, stream, args.seconds - plain["wall_s"], trace)
    report.update(
        {
            "plain": plain,
            "traced": traced,
            "calls": trace.calls,
            "incl_ns": trace.incl_ns,
            "self_ns": trace.self_ns,
            "symbols": trace.symbols,
            "claim_spans": trace.claim_spans,
            "records": trace.records,
            "output_bytes": workload.output_bytes,
        }
    )
    print(json.dumps(report, default=list))
    return 0


def _peak_rss_mb(workload: str) -> float:
    """Peak RSS of this process, or for cli-requests the largest among its child processes."""
    who = resource.RUSAGE_CHILDREN if workload == "cli-requests" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


if __name__ == "__main__":
    raise SystemExit(main())
