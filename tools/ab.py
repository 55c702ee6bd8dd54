"""In-process A/B of the exact-kernel workload: this checkout's fibword against the one at a git ref.

    python3 tools/ab.py --parent REF [--items N] [--seed S]

Exports `src/fibword` at REF with `git archive` into a temporary directory,
as the package `fibword_parent`, and imports this checkout's `src/fibword`
beside it.  Draws N `exact-kernel` inputs from `perfbench/workloads.py`, as
the benchmark does for the seed (the file is read, and no bytecode is written
beside it), and runs each item through the benchmark's own operation on both
packages in one interpreter, alternating which goes first, and stops with an
error at the first item whose outputs differ.

Prints, per kind, the item count, the ratio change/parent of the median times
and of the mean times, and each side's mean; then the p50 and p90 of all
items on each side.  The ratios compare each side's own times, not per-item
ratios: the first of an item's two calls runs about 30% slower than the
second, so per-item ratios form two clusters, one per order, and their median
falls anywhere between them.  Needs only the standard library and gates
nothing: the benchmark's own pairs of runs decide a claim, this shows where
the time moved.
"""

from __future__ import annotations

import argparse
import importlib
import io
import os
import random
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PARENT = "fibword_parent"


def _export_parent(ref: str, into: str) -> None:
    """src/fibword at `ref`, unpacked as `into`/fibword_parent."""
    archive = subprocess.run(
        ["git", "-C", ROOT, "archive", "--format=tar", ref, "src/fibword"], capture_output=True, check=True
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        for member in tar.getmembers():
            if member.isfile():
                name = os.path.join(into, PARENT, os.path.relpath(member.name, "src/fibword"))
                os.makedirs(os.path.dirname(name), exist_ok=True)
                with open(name, "wb") as out:
                    out.write(tar.extractfile(member).read())


def _percentile(sorted_values: list[float], fraction: float) -> float:
    return sorted_values[min(len(sorted_values) - 1, int(fraction * len(sorted_values)))]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git ref whose src/fibword is the baseline")
    parser.add_argument("--items", type=int, default=20000, help="exact-kernel items to run on both")
    parser.add_argument("--seed", type=int, default=1, help="the benchmark seed that draws the items")
    args = parser.parse_args(argv)

    sys.dont_write_bytecode = True  # perfbench/ and the exported parent stay as they are
    sys.path[:0] = [os.path.join(ROOT, "perfbench"), os.path.join(ROOT, "src")]
    workloads = importlib.import_module("workloads")
    kernel = workloads.ExactKernel()
    feed = kernel.inputs(random.Random(f"exact-kernel:{args.seed}"))
    items = [next(feed) for _ in range(args.items)]

    with tempfile.TemporaryDirectory() as export_dir:
        _export_parent(args.parent, export_dir)
        sys.path.insert(0, export_dir)
        change = importlib.import_module("fibword")
        parent = importlib.import_module(PARENT)
        sides = {"parent": parent, "change": change}
        for package in sides.values():  # ExactKernel.run reads these two as attributes of `fibword`
            importlib.import_module(f"{package.__name__}.goldenexact")
            importlib.import_module(f"{package.__name__}.mechanical")

        times: dict[str, list[float]] = {"parent": [], "change": []}
        for index, item in enumerate(items):
            outputs = {}
            for side in ("parent", "change") if index % 2 == 0 else ("change", "parent"):
                sys.modules["fibword"] = sides[side]
                start = time.perf_counter()
                outputs[side] = kernel.run(item)
                times[side].append(time.perf_counter() - start)
            if outputs["parent"] != outputs["change"]:
                sys.exit(f"item {index} {item!r:.200}: the outputs differ")
        sys.modules["fibword"] = change

    by_kind: dict[str, dict[str, list[float]]] = {}
    for index, item in enumerate(items):
        kind = by_kind.setdefault(item[0], {"parent": [], "change": []})
        for side in kind:
            kind[side].append(times[side][index])
    print(f"{args.items} exact-kernel items, seed {args.seed}, parent {args.parent}; ratio = change / parent")
    header = ("items", 7), ("median ratio", 14), ("mean ratio", 12), ("parent mean", 14), ("change mean", 14)
    print(f"{'kind':<12}" + "".join(f"{title:>{width}}" for title, width in header))
    for name in sorted(by_kind):
        old, new = by_kind[name]["parent"], by_kind[name]["change"]
        old_us, new_us = statistics.fmean(old) * 1e6, statistics.fmean(new) * 1e6
        print(
            f"{name:<12}{len(old):>7}{statistics.median(new) / statistics.median(old):>14.3f}{new_us / old_us:>12.3f}"
            f"{old_us:>11.1f} us{new_us:>11.1f} us"
        )
    for side in ("parent", "change"):
        ordered = sorted(times[side])
        p50, p90 = (_percentile(ordered, f) * 1e6 for f in (0.5, 0.9))
        print(f"{side:<7} all items: p50 {p50:.1f} us, p90 {p90:.1f} us, total {sum(ordered):.3f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
