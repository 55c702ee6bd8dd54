"""Spans and counters around calls into fibword, installed from outside the package.

`install` rebinds fibword's module-level functions (in every module that
imported them) and a few methods to wrappers that record:

  * timed spans: calls, inclusive time (the outermost call of a name only),
    self time (minus wrapped children) and, for word builders, letters made;
  * counters: calls only, for functions hit about a million times per
    operation, where a clock read per call would swamp the work.

A span whose result holds ClaimResult records is credited to those claim
ids, whatever called it, so per-claim times follow the ids the program
returns, not the names of the functions.  Only the outermost such span
counts (a claim built from helper claims is one claim), and
`claims.run_all_claims`, which returns them all, is not a claim.  Spans
stay in memory; the first few levels are kept as records for the trace
file.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict

RUN_ALL_CLAIMS = "claims.run_all_claims"
MODULES = ("claimresult", "words", "goldenexact", "morphism", "mechanical", "derived", "freealg", "claims", "cli")

# Several functions feed one layer metric.
GROUPS = {
    "goldenexact.beatty_phi": "goldenexact.beatty",
    "goldenexact.beatty_phi2": "goldenexact.beatty",
    "goldenexact.fib": "goldenexact.fib",
    "goldenexact.lucas": "goldenexact.fib",
    "goldenexact.fraction_decimal": "goldenexact.decimal",
    "goldenexact.surd_decimal": "goldenexact.decimal",
    "goldenexact.zeckendorf_encode": "goldenexact.zeckendorf",
    "goldenexact.zeckendorf_decode": "goldenexact.zeckendorf",
}
MAX_DEPTH = 3  # span levels kept as records for the trace file
MAX_RECORDS = 20_000  # records kept at most, so a long run's trace stays small
COUNTED = {"goldenexact.beatty", "goldenexact.isqrt", "goldenexact.int_surd_sign"}
WORD_BUILDERS = {"mechanical.mechanical_prefix", "morphism.fixed_point_prefix", "derived.y_word"}
SURD_OPS = (
    "__add__", "__radd__", "__neg__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "inverse", "__truediv__", "__rtruediv__", "__pow__", "sign", "__abs__",
    "__lt__", "__le__", "__gt__", "__ge__", "as_fraction", "floor",
)


class Tracer:
    def __init__(self) -> None:
        self.stack: list[list] = []  # open spans: [name, start_ns, child_ns, span_id, claim_mark]
        self.open_depth = defaultdict(int)  # same-name spans open, so nested calls count once in ms
        self.calls = defaultdict(int)
        self.incl_ns = defaultdict(int)
        self.self_ns = defaultdict(int)
        self.symbols = defaultdict(int)
        # (claim ids, elapsed ns, whether run_all_claims was open around the span)
        self.claim_spans: list[tuple[tuple[str, ...], int, bool]] = []
        self.records: list[tuple] = []
        self.request = 0
        self._ids = 0
        self._claim_type = None

    # -- wrappers -------------------------------------------------------------------

    def timed(self, name: str, fn):
        tracer = self
        clock = time.perf_counter_ns

        def span(*args, **kwargs):
            stack = tracer.stack
            parent = stack[-1] if stack else None
            tracer._ids += 1
            frame = [name, 0, 0, tracer._ids, len(tracer.claim_spans)]
            tracer.open_depth[name] += 1
            stack.append(frame)
            frame[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._close(frame, parent, clock(), None)
                raise
            tracer._close(frame, parent, clock(), result)
            return result

        return span

    def counted(self, name: str, fn):
        calls = self.calls

        def counter(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counter

    def _close(self, frame: list, parent, end: int, result) -> None:
        name, start, child, span_id, claim_mark = frame
        self.stack.pop()
        elapsed = end - start
        self.calls[name] += 1
        self.self_ns[name] += elapsed - child
        self.open_depth[name] -= 1
        if not self.open_depth[name]:
            self.incl_ns[name] += elapsed
        if name in WORD_BUILDERS and result is not None:
            self.symbols[name] += len(result)
        if parent is not None:
            parent[2] += elapsed
        ids = self._claim_ids(result) if name != RUN_ALL_CLAIMS else ()
        if ids:
            del self.claim_spans[claim_mark:]  # claims credited inside this one are part of it
            self.claim_spans.append((ids, elapsed, self.open_depth[RUN_ALL_CLAIMS] > 0))
        if len(self.stack) < MAX_DEPTH and len(self.records) < MAX_RECORDS:
            self.records.append((self.request, span_id, parent[3] if parent else 0, name, start, end))

    def _claim_ids(self, result) -> tuple[str, ...]:
        items = result if isinstance(result, (tuple, list)) else (result,)
        if items and all(isinstance(r, self._claim_type) for r in items):
            return tuple(r.id for r in items)
        return ()

    # -- installation ---------------------------------------------------------------------

    def install(self) -> None:
        """Rebind fibword's functions to wrappers; meant for a process that traces to its end."""
        modules = {m: importlib.import_module(f"fibword.{m}") for m in MODULES}
        modules["__init__"] = importlib.import_module("fibword")
        self._claim_type = modules["claimresult"].ClaimResult
        wrappers = {}
        for short, module in modules.items():
            if short == "__init__":
                continue
            for attr, fn in vars(module).items():
                if not callable(fn) or getattr(fn, "__module__", None) != module.__name__:
                    continue
                if isinstance(fn, type) or (attr.startswith("_") and short != "claims"):
                    continue
                if short == "cli" and attr != "main":
                    continue
                name = GROUPS.get(f"{short}.{attr}", f"{short}.{attr}")
                wrappers[id(fn)] = (fn, self.counted(name, fn) if name in COUNTED else self.timed(name, fn))
        # fibword.goldenexact.isqrt and int_surd_sign are counted even when they alias builtins.
        for attr in ("isqrt", "int_surd_sign"):
            fn = getattr(modules["goldenexact"], attr)
            wrappers[id(fn)] = (fn, self.counted(f"goldenexact.{attr}", fn))
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, attr, entry[1])
        surd = modules["goldenexact"].Surd
        for attr in SURD_OPS:
            if attr in vars(surd):
                setattr(surd, attr, self.timed("goldenexact.surd_ops", vars(surd)[attr]))
        word = modules["words"].Word
        post_init = word.__post_init__
        calls, symbols = self.calls, self.symbols

        def counted_post_init(w):
            calls["words.Word"] += 1
            symbols["words.Word"] += len(w.text)
            post_init(w)

        word.__post_init__ = counted_post_init
