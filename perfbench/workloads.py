"""The workloads: seeded inputs, one operation, and its output check.

Inputs depend only on (workload, seed): `inputs` is an endless stream from
`random.Random(f"{workload}:{seed}")`, and every process that asks for the
same pair gets the same values.  Each stream is built from fixed-composition
rounds, so every run sees the same mix and only the parameters vary.

Sizes stay below the inputs that the CLI cannot bound today (it has no size
caps): `gen y` builds F(index + 2) letters, which grows by a factor phi per
index (F(47) is 3e9 letters), and `gen mechanical` above 10**6, `beatty`
above 10**5 and `--places` above a few thousand grow time and output without
limit.  The caps below keep every request inside what the program can serve.
"""

from __future__ import annotations

import hashlib
import math
import os
import random
import subprocess
import sys
from fractions import Fraction

import oracle

Y_INDEX_MAX = 30
GEN_N_MAX = 10**6
BEATTY_N_MAX = 10**5
PLACES_MAX = 1000
TABLE_ROWS_MAX = 200
DENSITY_DIGITS_MAX = 30
FORMATS = ("text", "csv", "json")
REQUEST_TIMEOUT_S = 60  # a request that hangs is killed and counts as failed


def _log_scale(u: float, low: int, high: int) -> int:
    """The integer a fraction u in [0, 1] of the way from low to high in orders of magnitude."""
    return min(high, max(low, round(low * (high / low) ** u)))


def _big(rng: random.Random, digits_max: int) -> int:
    """A positive integer with a uniformly drawn digit count in 1..digits_max."""
    digits = rng.randint(1, digits_max)
    return rng.randrange(10 ** (digits - 1), 10**digits)


def digest(items: list) -> str:
    return hashlib.sha256(repr(items).encode()).hexdigest()[:16]


# -- exact-kernel -------------------------------------------------------------------------


class ExactKernel:
    """Large-operand calls into goldenexact and mechanical's closed forms, one per operation."""

    batch = 4096
    KINDS = ("density", "phi_power", "fib", "zeckendorf", "beatty", "surd")

    def inputs(self, rng: random.Random):
        while True:
            kinds = list(self.KINDS)
            rng.shuffle(kinds)
            for kind in kinds:
                if kind == "density":
                    yield (kind, _big(rng, 60), rng.randint(1, 400))
                elif kind == "phi_power":
                    yield (kind, rng.randint(1, 2000), rng.randint(1, 400))
                elif kind == "fib":
                    yield (kind, _log_scale(rng.random(), 2, 10**5))
                elif kind in ("zeckendorf", "beatty"):
                    yield (kind, _big(rng, 60))
                else:
                    b = _big(rng, 60) * rng.choice((1, -1))
                    den = _big(rng, 30)
                    if rng.random() < 0.5:
                        a = _big(rng, 60) * rng.choice((1, -1))
                    else:
                        # Within a few units of -b*sqrt5, where sign and floor are hardest to decide.
                        root = math.isqrt(5 * b * b)
                        a = (-root if b > 0 else root) + rng.randint(-2, 2)
                    yield (kind, a, b, den)

    def run(self, item):
        from fibword import goldenexact as ge, mechanical as me

        kind = item[0]
        if kind == "density":
            report = me.density_report(item[1])
            return report.count1, report.decimals(item[2])
        if kind == "phi_power":
            return ge.surd_decimal(ge.PHI ** item[1], item[2])
        if kind == "fib":
            n = item[1]
            return ge.fib(n - 1), ge.fib(n), ge.fib(n + 1), ge.lucas(n), ge.fib(2 * n)
        if kind == "zeckendorf":
            rep = ge.zeckendorf_encode(item[1])
            return rep.bits, ge.zeckendorf_decode(rep)
        if kind == "beatty":
            return ge.beatty_phi(item[1]), ge.beatty_phi2(item[1])
        _, a, b, den = item
        s = ge.Surd(Fraction(a, den), Fraction(b, den))
        return s.floor(), s.sign()

    def check(self, item, out) -> bool:
        kind = item[0]
        if kind == "density":
            n, places = item[1], item[2]
            ones = oracle.ones_upto(n)
            return out == (
                ones,
                {
                    "density0": oracle.fraction_decimal(n - ones, n, places),
                    "density1": oracle.fraction_decimal(ones, n, places),
                    "target1": oracle.surd_decimal(3 * n, -n, 2, places),
                    "deviation1": oracle.surd_decimal(2 * ones - 3 * n, n, 2, places),
                },
            )
        if kind == "phi_power":
            e, places = item[1], item[2]
            f = oracle.fibs(e + 2)
            # phi^e = (L(e) + F(e) sqrt5) / 2
            return out == oracle.surd_decimal(f[e - 1] + f[e + 1], f[e], 2, places)
        if kind == "fib":
            return oracle.fib_identities_ok(item[1], *out)
        if kind == "zeckendorf":
            return oracle.zeckendorf_ok(item[1], *out)
        if kind == "beatty":
            n = item[1]
            return oracle.beatty_ok(n, out[0]) and out[1] == out[0] + n
        _, a, b, den = item
        return oracle.surd_floor_ok(a, b, den, *out)


# -- cli-requests ----------------------------------------------------------------------------


class CliRequests:
    """Closed loop, one client: each request is `python -m fibword.cli <argv>` in a fresh interpreter.

    A round holds 20 requests: 4 `claims --id`, 1 usage error (5%), and 15
    gen/density/beatty/table requests.  Claims requests, the slowest, are the
    top fifth of the mix, so op_p90_ms lands mid-way through them and not on
    the edge between them and the rest.  Each size is drawn from its own
    stratum (the i-th of k requests of a kind in a round from the i-th k-th of
    its range), so every round covers each range evenly and the work in a run
    varies little with the seed.
    """

    batch = 240
    ROUND = (
        ("claims",) * 4
        + ("error",)
        + ("gen_binary",) * 4
        + ("gen_ab",) * 4
        + ("density",) * 3
        + ("beatty",) * 2
        + ("table",) * 2
    )

    def __init__(self, root: str) -> None:
        self.root = root
        self.env = dict(os.environ)
        src = os.path.join(root, "src")
        self.env["PYTHONPATH"] = src + (os.pathsep + os.environ["PYTHONPATH"] if os.environ.get("PYTHONPATH") else "")
        self.oracle = None
        self.in_process = False
        self.output_bytes = 0

    def inputs(self, rng: random.Random):
        first = True
        while True:
            slots = list(self.ROUND)
            if first:
                # One request at the beatty cap with JSON output, the heaviest in memory
                # the mix allows, so the largest child peak (peak_rss_mb) is set by the
                # caps and not by the luck of the draw.
                slots[slots.index("beatty")] = "beatty_cap"
                first = False
            seen: dict[str, int] = {}
            requests = []
            for slot in slots:
                i = seen[slot] = seen.get(slot, -1) + 1
                requests.append(self._request(rng, slot, (i + rng.random()) / slots.count(slot)))
            rng.shuffle(requests)
            yield from requests

    def _request(self, rng: random.Random, slot: str, u: float) -> tuple[tuple[str, ...], int]:
        """One request of kind `slot`; u in [0, 1) places its size within the kind's range."""
        fmt = ("--format", rng.choice(FORMATS))
        if slot == "claims":
            return ("claims", "--id", rng.choice(oracle.CLAIM_IDS), *fmt), 0
        if slot == "gen_binary":
            return ("gen", rng.choice(("morphic", "mechanical")), str(_log_scale(u, 10**3, GEN_N_MAX)), *fmt), 0
        if slot == "gen_ab":
            kind = rng.choice(("y", "q", "fibab"))
            low = 0 if kind == "y" else 1
            return ("gen", kind, str(low + int(u * (Y_INDEX_MAX - low + 1))), *fmt), 0
        if slot == "density":
            digits = 1 + int(u * DENSITY_DIGITS_MAX)
            n = rng.randrange(10 ** (digits - 1), 10**digits)
            return ("density", str(n), "--places", str(rng.randint(1, PLACES_MAX)), *fmt), 0
        if slot == "beatty":
            return ("beatty", str(_log_scale(u, 1, BEATTY_N_MAX)), *fmt), 0
        if slot == "beatty_cap":
            return ("beatty", str(BEATTY_N_MAX), "--format", "json"), 0
        if slot == "table":
            return ("table", "--rows", str(1 + int(u * TABLE_ROWS_MAX)), *fmt), 0
        bad = rng.choice(
            (
                ("claims", "--id", f"no-such-claim-{rng.randrange(1000)}"),
                ("table", "--rows", "0"),
                ("beatty", "0"),
                ("gen", "q", "0"),
                ("density", "0"),
                ("gen", "nosuchkind", "5"),
            )
        )
        return (*bad, *fmt), 1

    def prepare(self) -> None:
        self.oracle = oracle.CliOracle()

    def run(self, request):
        argv, _ = request
        if self.in_process:
            result = self._run_in_process(list(argv))
            self.output_bytes += len(result[1].encode())
            return result
        proc = subprocess.run(
            [sys.executable, "-m", "fibword.cli", *argv],
            stdin=subprocess.DEVNULL,
            capture_output=True,
            env=self.env,
            cwd=self.root,
            check=False,
            timeout=REQUEST_TIMEOUT_S,
        )
        return proc.returncode, proc.stdout.decode(), proc.stderr.decode()

    @staticmethod
    def _run_in_process(argv: list[str]):
        import contextlib
        import io

        import fibword.cli

        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = fibword.cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    def check(self, request, out) -> bool:
        argv, expected_code = request
        return self.oracle.check(list(argv), expected_code, *out)


def make(workload: str, root: str):
    if workload == "exact-kernel":
        return ExactKernel()
    if workload == "cli-requests":
        return CliRequests(root)
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("cli-requests", "exact-kernel")
