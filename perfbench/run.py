"""fibword benchmark: one workload, one seed, every metric by name and unit.

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1

Run from the root of a checkout; the package is imported from ./src.
Workloads (see workloads.py): cli-requests, a closed loop of fresh `fibword`
CLI processes, and exact-kernel, large-operand calls into the exact kernel.

Each run spawns fresh interpreters one after another, never two at once:
a few set-up probes and then one measuring worker (worker.py), so setup_s
and peak_rss_mb belong to the workload alone.  Every operation's output is
checked against oracle.py, which does not import fibword.

--trace 0 prints the end-to-end metrics; --trace 1 prints per-layer metrics
from spans recorded around calls into fibword (tracer.py), and writes the
spans to .perfbench_out/.  The last stdout line is the JSON result; the
lines before it give the run environment, sample counts and the failures.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import oracle  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 11  # fresh interpreters per run whose set-up time is measured
SPAWN_SAMPLES = 5  # bare and import-only spawns per traced run
RECONCILE_TOLERANCE = 0.05  # per-claim spans must cover run_all_claims.ms to within 5%
OUT_DIR = ".perfbench_out"

MISSING = -1.0  # a time or ratio with no span behind it; never reported as 0


class BenchError(Exception):
    pass


def control_loop_ms() -> float:
    """A fixed pure-Python loop; it moves with the machine, not with fibword."""
    t0 = time.perf_counter()
    total = 0
    for i in range(300_000):
        total += i * i % 7
    return (time.perf_counter() - t0) * 1000


def environment() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu,
        "platform": platform.platform(),
    }


def spawn(argv: list[str], root: str, env: dict | None = None, timeout: float = 60) -> tuple[float, subprocess.CompletedProcess]:
    """Run one child to completion; on timeout it is killed and reaped."""
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            argv, cwd=root, env=env, capture_output=True, stdin=subprocess.DEVNULL, check=False, timeout=timeout
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{argv[1:3]} did not finish within {timeout} s") from exc
    return t0, proc


def run_worker(args, root: str, *, probe: bool) -> tuple[float, dict]:
    argv = [
        sys.executable,
        os.path.join(HERE, "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ] + (["--probe"] if probe else [])
    t0, proc = spawn(argv, root, timeout=60 if probe else args.seconds + 90)
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr.decode()[-2000:]}")
    report = json.loads(proc.stdout.decode().splitlines()[-1])
    return report["ready"] - t0, report


def p90(samples: list[float]) -> float:
    """90th percentile, interpolating linearly between order statistics."""
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=10, method="inclusive")[8]


def end_to_end(args, root: str, expected_digest: str) -> tuple[dict, dict]:
    setups = []
    for _ in range(SETUP_SAMPLES - 1):
        setup, probe = run_worker(args, root, probe=True)
        check_probe(probe, expected_digest)
        setups.append(setup)
    setup, report = run_worker(args, root, probe=False)
    check_probe(report, expected_digest)
    setups.append(setup)
    # The timed region is the operations themselves; output checks run between them, untimed.
    samples = report["samples_s"]
    attempted, failed = len(samples), len(report["failures"])
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (attempted / sum(samples), "1/s"),
        "op_p50_ms": (statistics.median(samples) * 1000, "ms"),
        "op_p90_ms": (p90(samples) * 1000, "ms"),
        "peak_rss_mb": (report["peak_rss_mb"], "MB"),
        "success_rate": ((attempted - failed) / attempted, "ratio"),
    }
    detail = {
        "samples": attempted,
        "setup_samples_s": setups,
        "timed_s": sum(samples),
        "wall_s": report["wall_s"],
        "error_rate": failed / attempted,
        "failures": report["failures"][:10],
    }
    return metrics, {"attempted": attempted, "failed": failed, **detail}


def spawn_ms(argv: list[str], root: str, env: dict) -> tuple[float, list[str]]:
    """Median wall time of fresh interpreters running argv, and what each printed."""
    times, outputs = [], []
    for _ in range(SPAWN_SAMPLES):
        t0, proc = spawn(argv, root, env)
        if proc.returncode != 0:
            raise BenchError(f"{argv} exited {proc.returncode}: {proc.stderr.decode()[-2000:]}")
        times.append((time.monotonic() - t0) * 1000)
        outputs.append(proc.stdout.decode())
    return statistics.median(times), outputs


IMPORT_TIMER = "import time; t = time.perf_counter(); import fibword.cli; print(time.perf_counter() - t)"


def per_layer(args, root: str, expected_digest: str) -> tuple[dict, dict]:
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    interp, _ = spawn_ms([sys.executable, "-c", "pass"], root, env)
    # Timed inside the fresh interpreter: the same quantity as (import spawn - bare spawn), without the noise of a difference.
    _, imports = spawn_ms([sys.executable, "-c", IMPORT_TIMER], root, env)
    import_ms = statistics.median(float(line) for line in imports) * 1000
    _, report = run_worker(args, root, probe=False)
    check_probe(report, expected_digest)
    plain, traced = report["plain"], report["traced"]
    calls, incl, self_ns, symbols = (report[k] for k in ("calls", "incl_ns", "self_ns", "symbols"))
    ops = len(traced["samples_s"])

    def per_op(table: dict, name: str, scale: float = 1.0) -> float:
        return table.get(name, 0) * scale / ops

    def ms(name: str, table: dict = incl) -> float:
        return per_op(table, name, 1e-6) if calls.get(name) else MISSING

    metrics = {
        "cli.interp_start_ms": (interp, "ms"),
        "cli.import_ms": (import_ms, "ms"),
        "cli.main.ms": (ms("cli.main"), "ms/op"),
        "cli.self_ms": (ms("cli.main", self_ns), "ms/op"),
        "cli.output_bytes": (report["output_bytes"] / ops if calls.get("cli.main") else MISSING, "B/op"),
    }
    # Claims: attributed by the ids each span returned, wherever it ran.
    runs = calls.get("claims.run_all_claims", 0)
    claim_ns: dict[str, list[int]] = {}
    for ids, elapsed, _ in report["claim_spans"]:
        for claim_id in ids:
            claim_ns.setdefault(claim_id, []).append(elapsed)
    # A shared span counts once; only spans inside run_all_claims make up its time.
    registry_ns = sum(elapsed for _, elapsed, in_registry in report["claim_spans"] if in_registry)
    metrics["claims.run_all_claims.ms"] = (incl.get("claims.run_all_claims", 0) * 1e-6 / runs if runs else MISSING, "ms/call")
    metrics["claims.evaluated.count"] = (sum(len(ids) for ids, _, _ in report["claim_spans"]) / ops, "count/op")
    missing = [i for i in oracle.CLAIM_IDS if i not in claim_ns]
    for claim_id in oracle.CLAIM_IDS:
        spans = claim_ns.get(claim_id)
        metrics[f"claims.claim.{claim_id}.ms"] = (sum(spans) * 1e-6 / len(spans) if spans else MISSING, "ms/call")
    reconcile = registry_ns / incl["claims.run_all_claims"] if runs else MISSING
    metrics["claims.reconcile_ratio"] = (reconcile, "ratio")
    metrics["claims.missing"] = (len(missing), "count")
    for name, kinds in LAYER_METRICS:
        for kind in kinds:
            if kind == "calls":
                value, unit = per_op(calls, name), "count/op"
            elif kind == "symbols":
                value, unit = per_op(symbols, name), "count/op"
            elif kind == "self_ms":
                value, unit = ms(name, self_ns), "ms/op"
            else:
                value, unit = ms(name), "ms/op"
            metrics[f"{name}.{kind}"] = (value, unit)
    metrics["words.Word.count"] = (per_op(calls, "words.Word"), "count/op")
    metrics["words.Word.symbols"] = (per_op(symbols, "words.Word"), "count/op")
    plain_rate = len(plain["samples_s"]) / sum(plain["samples_s"])
    traced_rate = ops / sum(traced["samples_s"])
    metrics["trace.overhead_ratio"] = (plain_rate / traced_rate, "ratio")
    failures = plain["failures"] + traced["failures"]
    attempted = len(plain["samples_s"]) + ops
    detail = {
        "traced_ops": ops,
        "plain_ops": len(plain["samples_s"]),
        "missing_claim_spans": missing,
        "reconciled": runs == 0 or abs(reconcile - 1) <= RECONCILE_TOLERANCE,
        "failures": failures[:10],
    }
    write_trace(args, root, report, detail)
    return metrics, {"attempted": attempted, "failed": len(failures), **detail}


# (span name, metrics reported for it); claims.* and cli.* are handled above.
LAYER_METRICS = (
    ("mechanical.mechanical_prefix", ("calls", "ms", "symbols")),
    ("mechanical.max_discrepancy", ("ms",)),
    ("mechanical.verify_beatty_partition", ("ms",)),
    ("mechanical.morphic_mechanical_agree", ("ms",)),
    ("mechanical.density_report", ("calls", "ms")),
    ("morphism.fixed_point_prefix", ("calls", "ms", "symbols")),
    ("goldenexact.beatty", ("calls",)),
    ("goldenexact.isqrt", ("calls",)),
    ("goldenexact.int_surd_sign", ("calls",)),
    ("goldenexact.surd_ops", ("calls", "self_ms")),
    ("goldenexact.fib", ("calls", "ms")),
    ("goldenexact.decimal", ("calls", "ms")),
    ("goldenexact.zeckendorf", ("ms",)),
    ("derived.y_word", ("calls", "ms", "symbols")),
    ("derived.density_table", ("ms",)),
    ("freealg.alpha_identity_check", ("ms",)),
    ("freealg.pow_fib", ("calls",)),
)


def write_trace(args, root: str, report: dict, detail: dict) -> None:
    out = os.path.join(root, OUT_DIR)
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, f"trace-{args.workload}-seed{args.seed}.jsonl")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps({"summary": detail, "calls": report["calls"], "incl_ns": report["incl_ns"], "self_ns": report["self_ns"]}) + "\n")
        for request, span_id, parent, name, start, end in report["records"]:
            handle.write(json.dumps({"req": request, "id": span_id, "parent": parent, "name": name, "start_ns": start, "end_ns": end}) + "\n")


def check_probe(report: dict, expected_digest: str) -> None:
    if report["digest"] != expected_digest:
        raise BenchError(f"worker inputs {report['digest']} differ from the seed's inputs {expected_digest}")
    if report["fibword"] != os.path.join("src", "fibword", "__init__.py"):
        raise BenchError(f"fibword imported from {report['fibword']}, not from ./src")


def seeded_digest(workload: str, seed: int, root: str) -> str:
    """Digest of the seed's first input batch; generating it twice must agree."""
    digests = set()
    for _ in range(2):
        wl = workloads.make(workload, root)
        feed = wl.inputs(random.Random(f"{workload}:{seed}"))
        digests.add(workloads.digest([next(feed) for _ in range(wl.batch)]))
    if len(digests) != 1:
        raise BenchError(f"seed {seed} gave different inputs on two generations")
    return digests.pop()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    root = os.getcwd()
    package = os.path.join(root, "src", "fibword")
    if not os.path.isfile(os.path.join(package, "__init__.py")):
        print(f"perfbench: no fibword package at {package}; run from the repository root", file=sys.stderr)
        return 2
    try:
        if not compileall.compile_dir(package, quiet=1):
            raise BenchError("fibword does not compile")
        expected_digest = seeded_digest(args.workload, args.seed, root)
        env = environment()
        env["loadavg_start"] = os.getloadavg()
        env["control_loop_ms_start"] = control_loop_ms()
        measure = per_layer if args.trace else end_to_end
        metrics, detail = measure(args, root, expected_digest)
        env["control_loop_ms_end"] = control_loop_ms()
        env["loadavg_end"] = os.getloadavg()
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if not detail.get("reconciled", True):
        print(f"perfbench: per-claim spans do not reconcile with claims.run_all_claims.ms within {RECONCILE_TOLERANCE:.0%}", file=sys.stderr)
    attempted, failed = detail.pop("attempted"), detail.pop("failed")
    print(json.dumps({"environment": env, "workload": args.workload, "seed": args.seed, "trace": args.trace, **detail}))
    for name, (value, unit) in metrics.items():
        print(f"{name:<48} {value:>16.6f} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
