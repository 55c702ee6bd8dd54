"""Exact arithmetic kernel: Q(sqrt 5), Beatty floors, Fibonacci machinery.

Everything here is integer/rational exact.  Floating point never appears;
decimal strings are produced by digit extraction from exact values.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence, Union

from .words import Word

RationalLike = Union[int, Fraction]


# Floor of the square root, exact for arbitrary size; ValueError below zero.
isqrt = math.isqrt


def _lcm(a: int, b: int) -> int:
    return a // math.gcd(a, b) * b


def int_surd_sign(p: int, q: int) -> int:
    """Exact sign of p + q*sqrt(5) for integers p, q.

    Mixed-sign cases compare p^2 against 5 q^2; since 5 is squarefree the
    compared values are equal only when p = q = 0.
    """
    if q == 0:
        return (p > 0) - (p < 0)
    if p == 0:
        return 1 if q > 0 else -1
    if p > 0 and q > 0:
        return 1
    if p < 0 and q < 0:
        return -1
    lhs, rhs = p * p, 5 * q * q
    if p > 0:  # q < 0
        return (lhs > rhs) - (lhs < rhs)
    return (rhs > lhs) - (rhs < lhs)


def _surd_operand(method):
    """Operator decorator: an int or Fraction operand becomes a Surd, anything else NotImplemented."""

    @functools.wraps(method)
    def coerced(self, other):
        if not isinstance(other, Surd):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = Surd.from_rational(other)
        return method(self, other)

    return coerced


@dataclass(frozen=True)
class Surd:
    """Exact element a + b*sqrt(5) with rational a, b.

    Components are kept reduced by Fraction, so equality is component-wise.
    """

    a: Fraction
    b: Fraction

    def __post_init__(self) -> None:
        if isinstance(self.a, float) or isinstance(self.b, float):
            raise TypeError("surd components must be exact (int or Fraction)")
        object.__setattr__(self, "a", Fraction(self.a))
        object.__setattr__(self, "b", Fraction(self.b))

    @staticmethod
    def from_rational(x: RationalLike) -> "Surd":
        return Surd(Fraction(x), Fraction(0))

    # -- field operations ---------------------------------------------------

    @_surd_operand
    def __add__(self, o):
        return Surd(self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __neg__(self) -> "Surd":
        return Surd(-self.a, -self.b)

    @_surd_operand
    def __sub__(self, o):
        return Surd(self.a - o.a, self.b - o.b)

    @_surd_operand
    def __rsub__(self, o):
        return o - self

    @_surd_operand
    def __mul__(self, o):
        return Surd(self.a * o.a + 5 * self.b * o.b, self.a * o.b + self.b * o.a)

    __rmul__ = __mul__

    def inverse(self) -> "Surd":
        norm = self.a * self.a - 5 * self.b * self.b
        if norm == 0:
            raise ZeroDivisionError("surd division by zero")
        return Surd(self.a / norm, -self.b / norm)

    @_surd_operand
    def __truediv__(self, o):
        return self * o.inverse()

    @_surd_operand
    def __rtruediv__(self, o):
        return o * self.inverse()

    def __pow__(self, exponent: int) -> "Surd":
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = Surd.from_rational(1)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    # -- order --------------------------------------------------------------

    def sign(self) -> int:
        """Exact sign, by integer comparisons: scaling by both denominators (> 0) keeps it."""
        a, b = self.a, self.b
        return int_surd_sign(a.numerator * b.denominator, b.numerator * a.denominator)

    def __abs__(self) -> "Surd":
        return -self if self.sign() < 0 else self

    @_surd_operand
    def __lt__(self, o):
        return (self - o).sign() < 0

    @_surd_operand
    def __le__(self, o):
        return (self - o).sign() <= 0

    @_surd_operand
    def __gt__(self, o):
        return (self - o).sign() > 0

    @_surd_operand
    def __ge__(self, o):
        return (self - o).sign() >= 0

    # -- conversions ----------------------------------------------------------

    @property
    def is_rational(self) -> bool:
        return self.b == 0

    def as_fraction(self) -> Fraction:
        if self.b != 0:
            raise ValueError("surd is irrational")
        return self.a

    def floor(self) -> int:
        """Exact floor, via integer isqrt on a common denominator."""
        den = _lcm(self.a.denominator, self.b.denominator)
        p = self.a.numerator * (den // self.a.denominator)
        q = self.b.numerator * (den // self.b.denominator)
        if q == 0:
            t = p
        elif q > 0:
            t = p + isqrt(5 * q * q)
        else:
            # sqrt(5 q^2) is irrational for q != 0, so floor(-x) = -floor(x) - 1
            t = p - isqrt(5 * q * q) - 1
        # floor(x / den) = floor(floor(x) / den) for a positive integer den
        return t // den

    def __str__(self) -> str:
        return f"({self.a}) + ({self.b})*sqrt5"


surd_sign = Surd.sign


SQRT5 = Surd(Fraction(0), Fraction(1))
PHI = Surd(Fraction(1, 2), Fraction(1, 2))
PHI_BAR = Surd(Fraction(1, 2), Fraction(-1, 2))
PHI_SQUARED = Surd(Fraction(3, 2), Fraction(1, 2))
INV_PHI = Surd(Fraction(-1, 2), Fraction(1, 2))
INV_PHI_SQUARED = Surd(Fraction(3, 2), Fraction(-1, 2))


# -- Beatty floors ------------------------------------------------------------


def beatty_phi(n: int) -> int:
    """floor(n * phi), computed exactly as (n + isqrt(5 n^2)) div 2."""
    if n < 1:
        raise ValueError("Beatty index must be >= 1")
    return (n + isqrt(5 * n * n)) // 2


def beatty_phi2(n: int) -> int:
    """floor(n * phi^2) = n + floor(n * phi), from phi^2 = phi + 1."""
    if n < 1:
        raise ValueError("Beatty index must be >= 1")
    return n + beatty_phi(n)


def beatty_pairs() -> Iterator[tuple[int, int]]:
    """(floor(m*phi), floor(m*phi^2)) for m = 1, 2, ...; both from one beatty_phi call."""
    for m in itertools.count(1):
        low = beatty_phi(m)
        yield low, low + m


# -- Fibonacci and Lucas numbers ----------------------------------------------


def _fib_pair(n: int) -> tuple[int, int]:
    """(F(n), F(n+1)) by binary doubling."""
    if n == 0:
        return 0, 1
    a, b = _fib_pair(n >> 1)
    c = a * (2 * b - a)
    d = a * a + b * b
    return (d, c + d) if n & 1 else (c, d)


def fib(n: int) -> int:
    """Classical Fibonacci numbers, F(0) = 0, F(1) = 1."""
    if n < 0:
        raise ValueError("fib index must be >= 0")
    return _fib_pair(n)[0]


def lucas(n: int) -> int:
    """Lucas numbers, L(0) = 2, L(1) = 1 (so L(2) = 3)."""
    if n < 0:
        raise ValueError("lucas index must be >= 0")
    a, b = _fib_pair(n)
    return 2 * b - a


def fib_m_step(m: int, n: int) -> int:
    """Order-m Fibonacci: each term sums the previous m terms.

    Seeds: F(1) = 1 and F(j) = 0 for -m < j <= 0, which makes m = 2
    reproduce the classical sequence.
    """
    if m < 1:
        raise ValueError("order m must be >= 1")
    if n < 1:
        raise ValueError("index n must be >= 1")
    # sliding window over F(n-m) .. F(n-1)
    window = [0] * (m - 1) + [1]  # F(2-m) .. F(1)
    if n == 1:
        return 1
    value = 1
    for _ in range(2, n + 1):
        value = sum(window)
        window.append(value)
        del window[0]
    return value


# -- Zeckendorf representation -------------------------------------------------


@dataclass(frozen=True)
class ZeckendorfRep:
    """Bit sequence r_1 r_2 ... with value sum_i r_i F(i+1).

    No two adjacent 1s; the last stored bit is 1 (the empty sequence
    represents zero).
    """

    bits: tuple[int, ...]

    def __post_init__(self) -> None:
        bits = tuple(self.bits)
        object.__setattr__(self, "bits", bits)
        if any(b not in (0, 1) for b in bits):
            raise ValueError("bits must be 0 or 1")
        if any(x == 1 and y == 1 for x, y in zip(bits, bits[1:])):
            raise ValueError("adjacent 1s in Zeckendorf representation")
        if bits and bits[-1] != 1:
            raise ValueError("trailing zero bits are not canonical")

    def indices(self) -> tuple[int, ...]:
        """The 1-based positions i with r_i = 1."""
        return tuple(i + 1 for i, b in enumerate(self.bits) if b)


def _fibs_from_f2(limit: int) -> list[int]:
    """[F(2), F(3), ...] up to the last value <= limit."""
    out = []
    a, b = 1, 2  # F(2), F(3)
    while a <= limit:
        out.append(a)
        a, b = b, a + b
    return out


def zeckendorf_encode(m: int) -> ZeckendorfRep:
    """Greedy sum of non-adjacent Fibonacci numbers F(2), F(3), ..."""
    if m < 0:
        raise ValueError("can only encode non-negative integers")
    if m == 0:
        return ZeckendorfRep(())
    fibs = _fibs_from_f2(m)
    bits = [0] * len(fibs)
    remaining = m
    for i in range(len(fibs) - 1, -1, -1):
        if fibs[i] <= remaining:
            bits[i] = 1
            remaining -= fibs[i]
    assert remaining == 0
    return ZeckendorfRep(tuple(bits))


def zeckendorf_decode(rep: ZeckendorfRep | Sequence[int]) -> int:
    """Exact inverse of the encoding; validates the adjacency invariant."""
    if not isinstance(rep, ZeckendorfRep):
        rep = ZeckendorfRep(tuple(rep))
    total = 0
    a, b = 1, 2  # F(2), F(3)
    for bit in rep.bits:
        total += bit * a
        a, b = b, a + b
    return total


# -- Fibonacci codes of order m -------------------------------------------------


def fib_code_valid(w: Word | str, m: int) -> bool:
    """Membership in the order-m Fibonacci code.

    Valid words are 1^m itself and the binary words containing exactly one
    occurrence of 1^m, as a suffix.  Occurrences are counted with overlaps.
    """
    if m < 1:
        raise ValueError("order m must be >= 1")
    text = w.text if isinstance(w, Word) else w
    if set(text) - {"0", "1"}:
        raise ValueError("word must be binary")
    marker = "1" * m
    if text == marker:
        return True
    occurrences = []
    start = text.find(marker)
    while start != -1:
        occurrences.append(start)
        start = text.find(marker, start + 1)
    return len(occurrences) == 1 and occurrences[0] == len(text) - m


# -- digit codings --------------------------------------------------------------


def base_b_digits(x: Fraction, b: int, count: int) -> list[int]:
    """First `count` digits of x in base b, by exact iteration of y -> {b y}."""
    x = Fraction(x)
    if not 0 <= x < 1:
        raise ValueError("x must lie in [0, 1)")
    if b < 2:
        raise ValueError("base must be >= 2")
    if count < 1:
        raise ValueError("digit count must be >= 1")
    digits = []
    for _ in range(count):
        x *= b
        digit = x.numerator // x.denominator
        digits.append(digit)
        x -= digit
    return digits


# -- decimal rendering (exact digit extraction) ----------------------------------


def _fixed_point(sign: str, q: int, places: int) -> str:
    """Render q * 10^-places with `places` digits after the point, prefixed by sign."""
    if q == 0:
        sign = ""
    digits = str(q).rjust(places + 1, "0")
    if places == 0:
        return sign + digits
    return f"{sign}{digits[:-places]}.{digits[-places:]}"


def fraction_decimal(x: RationalLike, places: int = 6) -> str:
    """Fixed-point decimal string, round-half-even, from an exact rational."""
    if places < 0:
        raise ValueError("places must be >= 0")
    x = Fraction(x)
    sign = "-" if x < 0 else ""
    den = x.denominator
    scaled = abs(x.numerator) * 10**places
    q, r = divmod(scaled, den)
    if 2 * r > den or (2 * r == den and q % 2 == 1):
        q += 1
    return _fixed_point(sign, q, places)


def surd_decimal(s: Surd, places: int = 6) -> str:
    """Fixed-point decimal string for a surd, round-half-even.

    Ties can only arise for rational values (sqrt 5 is irrational), where the
    rational renderer handles them.
    """
    if s.is_rational:
        return fraction_decimal(s.a, places)
    if places < 0:
        raise ValueError("places must be >= 0")
    sign = "-" if s.sign() < 0 else ""
    scaled = abs(s) * (10**places)
    q = scaled.floor()
    if (scaled - q - Fraction(1, 2)).sign() > 0:
        q += 1
    return _fixed_point(sign, q, places)
