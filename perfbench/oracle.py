"""Reference values for every output the benchmark checks.

Nothing here imports fibword.  Expected values come from integers,
`math.isqrt`, Fibonacci identities and the string recurrence of the
Fibonacci word, so a wrong answer from the package cannot also be the
expected one.
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys

csv.field_size_limit(sys.maxsize)  # `gen --format csv` puts up to 10**6 letters in one field
# The verdict table of the README, at default budgets.
REFUTED_IDS = frozenset(
    {
        "doubling-lucas-form",
        "local-three-window",
        "pow-invariance",
        "pow-value",
        "telescoping-identity",
    }
)
CLAIM_IDS = tuple(
    sorted(
        REFUTED_IDS
        | {
            "alpha-identity",
            "ball-nesting",
            "beatty-partition",
            "binet-formulas",
            "density-convergence",
            "df-convergence",
            "discrepancy-bound",
            "doubling-fib",
            "framed-density-limit",
            "generating-function",
            "letter-counts",
            "local-no-11",
            "morphic-mechanical-agreement",
            "y-length-formula",
        }
    )
)
CLAIM_STATUS = {i: "refuted" if i in REFUTED_IDS else "verified" for i in CLAIM_IDS}

_MODULUS = 1_000_000_007


# -- integers ---------------------------------------------------------------------


def fibs(count: int) -> list[int]:
    """F(0) .. F(count - 1) by plain iteration."""
    out = [0, 1]
    while len(out) < count:
        out.append(out[-1] + out[-2])
    return out[:count]


def fib_mod(n: int, m: int = _MODULUS) -> int:
    """F(n) mod m by 2x2 matrix powers, a route unlike the package's doubling."""
    result = (1, 0, 0, 1)
    base = (1, 1, 1, 0)
    while n:
        if n & 1:
            result = _mat_mul(result, base, m)
        base = _mat_mul(base, base, m)
        n >>= 1
    return result[1]


def _mat_mul(x, y, m):
    a, b, c, d = x
    e, f, g, h = y
    return ((a * e + b * g) % m, (a * f + b * h) % m, (c * e + d * g) % m, (c * f + d * h) % m)


def ones_upto(n: int) -> int:
    """Ones in the length-n prefix of the Fibonacci word: floor((n + 1) / phi^2)."""
    big_n = n + 1
    return (3 * big_n - math.isqrt(5 * big_n * big_n) - 1) // 2


def surd_sign(a: int, b: int) -> int:
    """Sign of a + b*sqrt(5); a^2 = 5 b^2 only at a = b = 0."""
    if b == 0:
        return (a > 0) - (a < 0)
    if a == 0 or (a > 0) == (b > 0):
        return 1 if b > 0 else -1
    if a * a > 5 * b * b:
        return 1 if a > 0 else -1
    return 1 if b > 0 else -1


def beatty_ok(n: int, b: int) -> bool:
    """b = floor(n*phi) iff 2b - n <= n*sqrt(5) < 2b + 2 - n (never equal)."""
    return 0 <= 2 * b - n and (2 * b - n) ** 2 < 5 * n * n < (2 * b + 2 - n) ** 2


def fib_identities_ok(n: int, f_prev: int, f_n: int, f_next: int, l_n: int, f_2n: int) -> bool:
    """Recurrence, F(2n) = F(n) L(n), Cassini, L(n) = F(n-1) + F(n+1), and F(n) mod p."""
    return (
        f_next == f_n + f_prev
        and f_2n == f_n * l_n
        and f_prev * f_next - f_n * f_n == (-1) ** n
        and l_n == f_prev + f_next
        and f_n % _MODULUS == fib_mod(n)
    )


def zeckendorf_ok(m: int, bits: tuple[int, ...], decoded: int) -> bool:
    """Decode equals the input, and the bits are a canonical Zeckendorf code of m."""
    if decoded != m or any(x and y for x, y in zip(bits, bits[1:])):
        return False
    if bits and bits[-1] != 1:
        return False
    weights = fibs(len(bits) + 3)[2:]
    return sum(w for w, bit in zip(weights, bits) if bit) == m


def surd_floor_ok(p: int, q: int, den: int, floor: int, sign: int) -> bool:
    """floor <= (p + q*sqrt5)/den < floor + 1, and the sign matches (den > 0)."""
    return (
        sign == surd_sign(p, q)
        and surd_sign(p - floor * den, q) >= 0
        and surd_sign((floor + 1) * den - p, -q) > 0
    )


# -- decimal rendering (round half to even; sqrt 5 is irrational, so no ties) ----


def _digits(q: int, places: int, negative: bool) -> str:
    text = str(q).rjust(places + 1, "0")
    if places:
        text = f"{text[:-places]}.{text[-places:]}"
    return ("-" if negative and q else "") + text


def fraction_decimal(num: int, den: int, places: int) -> str:
    q, r = divmod(abs(num) * 10**places, den)
    if 2 * r > den or (2 * r == den and q % 2):
        q += 1
    return _digits(q, places, num < 0)


def surd_decimal(a: int, b: int, den: int, places: int) -> str:
    """(a + b*sqrt5)/den to `places` digits, den > 0 and b != 0."""
    sign = surd_sign(a, b)
    a, b = sign * a, sign * b
    scale = 10**places
    a, b = a * scale, b * scale
    root = math.isqrt(20 * b * b)
    two_b_sqrt5 = root if b >= 0 else -root - 1
    return _digits((2 * a + den + two_b_sqrt5) // (2 * den), places, sign < 0)


def fraction_text(num: int, den: int) -> str:
    g = math.gcd(num, den)
    num, den = num // g, den // g
    return str(num) if den == 1 else f"{num}/{den}"


def surd_text(a_num: int, a_den: int, b_num: int, b_den: int) -> str:
    return f"({fraction_text(a_num, a_den)}) + ({fraction_text(b_num, b_den)})*sqrt5"


# -- the CLI ---------------------------------------------------------------------------


class CliOracle:
    """Checks one `fibword` invocation: argv, exit code, stdout, stderr."""

    def __init__(self) -> None:
        zero, one = "0", "01"
        while len(one) < 1_000_000:
            zero, one = one, one + zero
        self.binary = one
        self.y = ["a", "ab"]
        while len(self.y) <= 31:
            self.y.append(self.y[-1] + self.y[-2])
        self.f = fibs(40)

    def check(self, argv: list[str], expected_code: int, code: int, out: str, err: str) -> bool:
        if code != expected_code:
            return False
        if expected_code != 0:
            return out == "" and err != ""
        if err:
            return False
        fmt = argv[argv.index("--format") + 1]
        command = argv[0]
        if command == "gen":
            return self._gen(argv[1], int(argv[2]), fmt, out)
        if command == "density":
            return self._density(int(argv[1]), int(argv[argv.index("--places") + 1]), fmt, out)
        if command == "beatty":
            return self._beatty(int(argv[1]), fmt, out)
        if command == "table":
            return self._table(int(argv[argv.index("--rows") + 1]), fmt, out)
        if command == "claims":
            return self._claims(argv[argv.index("--id") + 1], fmt, out)
        return False

    def _gen(self, kind: str, index: int, fmt: str, out: str) -> bool:
        if fmt == "text":
            word = out[:-1]
            if out[-1:] != "\n":
                return False
        elif fmt == "csv":
            rows = _csv_rows(out)
            word = rows[1][2] if len(rows) == 2 and len(rows[1]) == 3 else ""
            if rows != [["kind", "index", "word"], [kind, str(index), word]]:
                return False
        else:
            doc = json.loads(out)
            word = doc.get("word")
            if doc != {"schema_version": 1, "command": "gen", "kind": kind, "index": index, "word": word}:
                return False
        if kind in ("morphic", "mechanical"):
            return (
                len(word) == index
                and word.count("1") == ones_upto(index)
                and word == self.binary[:index]
            )
        y_index = {"y": index, "q": index, "fibab": index - 1}[kind]
        core = word[1:-1] if kind == "q" else word
        if kind == "q" and not (word.startswith("a") and word.endswith("b")):
            return False
        f = self.f
        return (
            len(core) == f[y_index + 2]
            and core.count("a") == f[y_index + 1]
            and core == self.y[y_index]
        )

    def _density(self, n: int, places: int, fmt: str, out: str) -> bool:
        ones = ones_upto(n)
        zeros = n - ones
        dev_a = 2 * ones - 3 * n
        fields = {
            "n": str(n),
            "count0": str(zeros),
            "count1": str(ones),
            "density0": fraction_decimal(zeros, n, places),
            "density1": fraction_decimal(ones, n, places),
            "target1": surd_decimal(3 * n, -n, 2, places),
            "deviation1": surd_decimal(dev_a, n, 2, places),
            "deviation1_sign": str(surd_sign(dev_a, n)),
        }
        exact = {
            "density0_exact": fraction_text(zeros, n),
            "density1_exact": fraction_text(ones, n),
            "target1_exact": surd_text(3 * n, 2, -n, 2),
            "deviation1_exact": surd_text(dev_a, 2, n, 2),
        }
        if fmt == "csv":
            return _csv_rows(out) == [list(fields), list(fields.values())]
        if fmt == "json":
            doc = {"schema_version": 1, "command": "density", **fields, **exact}
            for key in ("n", "count0", "count1", "deviation1_sign"):
                doc[key] = int(doc[key])
            return json.loads(out) == doc
        sign = int(fields["deviation1_sign"])
        expected = (
            f"n: {n}\ncount0: {zeros}\ncount1: {ones}\n"
            f"density0: {fields['density0']} (= {exact['density0_exact']})\n"
            f"density1: {fields['density1']} (= {exact['density1_exact']})\n"
            f"target1: {fields['target1']} (= {exact['target1_exact']})\n"
            f"deviation1: {fields['deviation1']} (sign {sign:+d}, = {exact['deviation1_exact']})\n"
        )
        return out == expected

    def _beatty(self, n: int, fmt: str, out: str) -> bool:
        if fmt == "text":
            rows = [line.split(" ") for line in out.split("\n")[:-1]]
            if out.count("\n") != n:
                return False
        elif fmt == "csv":
            rows = _csv_rows(out)
            if rows[0] != ["n", "f1", "f2"]:
                return False
            rows = rows[1:]
        else:
            doc = json.loads(out)
            if doc.keys() != {"schema_version", "command", "rows"} or doc["command"] != "beatty":
                return False
            rows = [(r["n"], r["f1"], r["f2"]) for r in doc["rows"]]
        if len(rows) != n:
            return False
        for k, (index, f1, f2) in enumerate(rows, start=1):
            index, f1, f2 = int(index), int(f1), int(f2)
            if index != k or f2 != f1 + k or not beatty_ok(k, f1):
                return False
        return True

    def _table(self, count: int, fmt: str, out: str) -> bool:
        f = fibs(count + 6)
        header = ["m", "dens_a_q", "dens_b_q", "dens_a_y", "dens_b_y"]
        rows = []
        for m in range(3, count + 3):
            q_len, y_len = f[m + 2] + 2, f[m + 2]
            rows.append(
                [
                    str(m),
                    fraction_decimal(f[m + 1] + 1, q_len, 6),
                    fraction_decimal(f[m] + 1, q_len, 6),
                    fraction_decimal(f[m + 1], y_len, 6),
                    fraction_decimal(f[m], y_len, 6),
                ]
            )
        if fmt == "csv":
            return _csv_rows(out) == [header, *rows]
        if fmt == "json":
            doc = {"schema_version": 1, "command": "table", "rows": [dict(zip(header, r)) for r in rows]}
            return json.loads(out) == doc
        return out == "\n".join("  ".join(r) for r in [header, *rows]) + "\n"

    def _claims(self, claim_id: str, fmt: str, out: str) -> bool:
        want = (claim_id, CLAIM_STATUS[claim_id])
        if fmt == "text":
            heads = [line for line in out.split("\n") if line and not line.startswith("  ")]
            return heads == [f"{want[0]}: {want[1]}"]
        if fmt == "csv":
            rows = _csv_rows(out)
            return rows[0][:3] == ["id", "location", "status"] and [
                (r[0], r[2]) for r in rows[1:]
            ] == [want]
        doc = json.loads(out)
        return [(r["id"], r["status"]) for r in doc["claims"]] == [want]


def _csv_rows(text: str) -> list[list[str]]:
    return list(csv.reader(io.StringIO(text)))
