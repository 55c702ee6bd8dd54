"""Exact arithmetic kernel: Q(sqrt 5), Beatty floors, Fibonacci machinery.

Everything here is integer exact.  A `Surd` is the integer triple
(p + q*sqrt(5))/d in lowest terms, so its arithmetic is integer products and
one gcd per result; `fib` and `lucas` double over the pair (F(k), L(k)) and
keep the last pair built, so a neighbouring index costs one linear step.
Floating point never appears; decimal strings are produced by digit
extraction from exact values.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Sequence, Union

from ._frozen import Frozen

RationalLike = Union[int, Fraction]


# Floor of the square root, exact for arbitrary size; ValueError below zero.
isqrt = math.isqrt


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


def _surd(p: int, q: int, d: int) -> Surd:
    """The Surd (p + q*sqrt(5))/d for integers with d != 0, in lowest terms with d > 0."""
    g = math.gcd(d, p, q)  # d first: it is usually small, and gcd stops working once it reaches 1
    if d < 0:
        g = -g
    s = object.__new__(Surd)
    s.__dict__.update(p=p // g, q=q // g, d=d // g)
    return s


def _product(p: int, q: int, d: int, r: int, s: int, t: int) -> tuple[int, int, int]:
    """(p + q*sqrt(5))/d times (r + s*sqrt(5))/t for d, t > 0, reduced by one gcd as `_surd` does."""
    p, q, d = p * r + 5 * q * s, p * s + q * r, d * t
    g = math.gcd(d, p, q)
    return p // g, q // g, d // g


def _floor(p: int, q: int, d: int) -> int:
    """floor((p + q*sqrt(5))/d) for integers with d > 0, via integer isqrt."""
    if q > 0:
        p += isqrt(5 * q * q)
    elif q < 0:
        # sqrt(5 q^2) is irrational for q != 0, so floor(-x) = -floor(x) - 1
        p -= isqrt(5 * q * q) + 1
    # floor(x / d) = floor(floor(x) / d) for a positive integer d
    return p // d


def _surd_operand(method):
    """Operator decorator: an int or Fraction operand becomes a Surd, anything else NotImplemented."""

    @functools.wraps(method)
    def coerced(self, other):
        if not isinstance(other, Surd):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = _surd(other.numerator, 0, other.denominator)
        return method(self, other)

    return coerced


class Surd(Frozen):
    """Exact element a + b*sqrt(5) of Q(sqrt 5), built as Surd(a, b) from rationals a, b.

    Stored as integers (p + q*sqrt(5))/d with gcd(p, q, d) = 1 and d > 0, so
    each value has one spelling and equality is field-wise.  A Surd equals an
    int or Fraction of the same value, and a rational Surd hashes like it.
    """

    def __init__(self, a: RationalLike, b: RationalLike) -> None:
        if isinstance(a, float) or isinstance(b, float):
            raise TypeError("surd components must be exact (int or Fraction)")
        a, b = Fraction(a), Fraction(b)
        den = a.denominator * b.denominator
        reduced = _surd(a.numerator * b.denominator, b.numerator * a.denominator, den)
        self.__dict__.update(reduced.__dict__)

    @_surd_operand
    def __eq__(self, o):
        return self.__dict__ == o.__dict__

    def __hash__(self) -> int:  # the field-tuple hash, spelled out: Surds are the kernel's numbers
        if self.q == 0:  # equal values hash equal: a rational hashes as its int or Fraction
            return hash(Fraction(self.p, self.d))
        return hash((self.p, self.q, self.d))

    @staticmethod
    def from_rational(x: RationalLike) -> "Surd":
        return Surd(x, 0)

    @property
    def a(self) -> Fraction:
        """The rational part."""
        return Fraction(self.p, self.d)

    @property
    def b(self) -> Fraction:
        """The coefficient of sqrt(5)."""
        return Fraction(self.q, self.d)

    # -- field operations ---------------------------------------------------

    @_surd_operand
    def __add__(self, o):
        return _surd(self.p * o.d + o.p * self.d, self.q * o.d + o.q * self.d, self.d * o.d)

    __radd__ = __add__

    def __neg__(self) -> "Surd":
        return _surd(-self.p, -self.q, self.d)

    @_surd_operand
    def __sub__(self, o):
        return _surd(self.p * o.d - o.p * self.d, self.q * o.d - o.q * self.d, self.d * o.d)

    @_surd_operand
    def __rsub__(self, o):
        return o - self

    @_surd_operand
    def __mul__(self, o):
        return _surd(self.p * o.p + 5 * self.q * o.q, self.p * o.q + self.q * o.p, self.d * o.d)

    __rmul__ = __mul__

    def inverse(self) -> "Surd":
        # d / (p + q sqrt5) = d (p - q sqrt5) / (p^2 - 5 q^2)
        norm = self.p * self.p - 5 * self.q * self.q
        if norm == 0:
            raise ZeroDivisionError("surd division by zero")
        return _surd(self.d * self.p, -self.d * self.q, norm)

    @_surd_operand
    def __truediv__(self, o):
        return self * o.inverse()

    @_surd_operand
    def __rtruediv__(self, o):
        return o * self.inverse()

    def __pow__(self, exponent: int) -> "Surd":
        if not isinstance(exponent, int):
            return NotImplemented
        base = self.inverse() if exponent < 0 else self
        # square-and-multiply on integer triples, so one Surd is built, at the end
        p, q, d, e = 1, 0, 1, abs(exponent)
        bp, bq, bd = base.p, base.q, base.d
        while e:
            if e & 1:
                p, q, d = _product(p, q, d, bp, bq, bd)
            e >>= 1
            if e:
                bp, bq, bd = _product(bp, bq, bd, bp, bq, bd)
        return _surd(p, q, d)

    # -- order --------------------------------------------------------------

    def sign(self) -> int:
        """Exact sign, by integer comparisons (d > 0)."""
        return int_surd_sign(self.p, self.q)

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
        return self.q == 0

    def floor(self) -> int:
        """Exact floor, via integer isqrt."""
        return _floor(self.p, self.q, self.d)

    def __str__(self) -> str:
        return f"({self.a}) + ({self.b})*sqrt5"


SQRT5 = Surd(Fraction(0), Fraction(1))
PHI = Surd(Fraction(1, 2), Fraction(1, 2))
PHI_BAR = Surd(Fraction(1, 2), Fraction(-1, 2))
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


def beatty_floors(start: int, stop: int) -> list[int]:
    """[floor(m * phi) for start <= m < stop], exactly as beatty_phi computes each one.

    Every Beatty sweep reads this one list; floor(m * phi^2) is m more.
    """
    if start < 1:
        raise ValueError("Beatty index must be >= 1")
    return [(m + isqrt(5 * m * m)) >> 1 for m in range(start, stop)]


# -- Fibonacci and Lucas numbers ----------------------------------------------


def _fib_lucas(n: int) -> tuple[int, int]:
    """(F(n), L(n)) by doubling over the bits of n, from the top.

    k -> 2k:   F(2k) = F(k) L(k),  L(2k) = L(k)^2 - 2(-1)^k;
    k -> k+1:  F(k+1) = (F(k) + L(k))/2,  L(k+1) = (5 F(k) + L(k))/2.
    """
    fk, lk, k_odd = 0, 2, False
    for bit in bin(n)[2:]:
        fk, lk = fk * lk, lk * lk + (2 if k_odd else -2)
        k_odd = bit == "1"
        if k_odd:
            fk, lk = (fk + lk) >> 1, (5 * fk + lk) >> 1
    return fk, lk


# (j, F(j), L(j)), the pair the last fib or lucas call built; see `fib`.
_memo = (0, 0, 2)


def _pair(n: int) -> tuple[int, int]:
    """(F(n), L(n)): a linear step from the memo if |n - j| <= 1, else doubling; pair(n) becomes the memo."""
    global _memo
    j, fj, lj = _memo
    if n == j:
        return fj, lj
    if n == j + 1:
        fn, ln = (fj + lj) >> 1, (5 * fj + lj) >> 1
    elif n == j - 1:
        fn, ln = (lj - fj) >> 1, (5 * fj - lj) >> 1
    else:
        fn, ln = _fib_lucas(n)
    _memo = n, fn, ln
    return fn, ln


def fib(n: int) -> int:
    """Classical Fibonacci numbers, F(0) = 0, F(1) = 1.

    `fib` and `lucas` share a memo of one pair (j, F(j), L(j)), the last pair
    either built, and answer n by the first rule that applies:
      - |n - j| <= 1: one linear step, F(j+1) = (L + F)/2, L(j+1) = (5F + L)/2,
        F(j-1) = (L - F)/2, L(j-1) = (5F - L)/2; the memo becomes pair(n);
      - n >> 1 == j: one product, F(2j) = F(j) L(j) or
        F(2j+1) = F(j+1) L(j) - (-1)^j; the memo is kept;
      - otherwise: doubling over the bits of n builds pair(n), which becomes
        the memo.
    A lone cold call pays for the whole pair, one squaring more than F(n)
    alone needs.  The memo is one tuple, read whole and replaced by one
    assignment, so threads share it without a lock: a pair another thread
    left costs time, never a wrong answer.
    """
    if n < 0:
        raise ValueError("fib index must be >= 0")
    j, fj, lj = _memo
    if n >> 1 == j and n > j + 1:  # n <= j + 1 is the first rule's
        if n & 1:
            return ((fj + lj) >> 1) * lj + (1 if j & 1 else -1)
        return fj * lj
    return _pair(n)[0]


def lucas(n: int) -> int:
    """Lucas numbers, L(0) = 2, L(1) = 1 (so L(2) = 3).

    The rules and memo are `fib`'s; the one product is L(2j) = L(j)^2 - 2(-1)^j
    or L(2j+1) = L(j) L(j+1) - (-1)^j.
    """
    if n < 0:
        raise ValueError("lucas index must be >= 0")
    j, fj, lj = _memo
    if n >> 1 == j and n > j + 1:  # n <= j + 1 is the first rule's
        if n & 1:
            return lj * ((5 * fj + lj) >> 1) + (1 if j & 1 else -1)
        return lj * lj + (2 if j & 1 else -2)
    return _pair(n)[1]


# -- Zeckendorf representation -------------------------------------------------


class ZeckendorfRep(Frozen):
    """Bit sequence r_1 r_2 ... with value sum_i r_i F(i+1).

    No two adjacent 1s; the last stored bit is 1 (the empty sequence
    represents zero).
    """

    def __init__(self, bits: Sequence[int]) -> None:
        bits = tuple(bits)
        self.__dict__.update(bits=bits)
        try:
            raw = bytes(bits)  # ints and bools, checked below by bytes operations in C
        except (TypeError, ValueError):  # other values (1.0 is a bit; -1 and 2**70 are not)
            raw = bytes(2 if b not in (0, 1) else b == 1 for b in bits)
        if raw.translate(None, b"\x00\x01"):
            raise ValueError("bits must be 0 or 1")
        if b"\x01\x01" in raw:
            raise ValueError("adjacent 1s in Zeckendorf representation")
        if raw[-1:] == b"\x00":
            raise ValueError("trailing zero bits are not canonical")


def zeckendorf_encode(m: int) -> ZeckendorfRep:
    """Greedy sum of non-adjacent Fibonacci numbers F(2), F(3), ..."""
    if m < 0:
        raise ValueError("can only encode non-negative integers")
    fibs = []
    a, b = 1, 2  # F(2), F(3)
    while a <= m:
        fibs.append(a)
        a, b = b, a + b
    bits = [0] * len(fibs)
    remaining = m
    i = len(fibs) - 1
    while i >= 0:
        if fibs[i] <= remaining:
            bits[i] = 1
            remaining -= fibs[i]
            i -= 2  # what remains is below F(i+1), the next number down, so its bit is 0
        else:
            i -= 1
    assert remaining == 0
    return ZeckendorfRep(bits)


def zeckendorf_decode(rep: ZeckendorfRep | Sequence[int]) -> int:
    """Exact inverse of the encoding; validates the adjacency invariant."""
    if not isinstance(rep, ZeckendorfRep):
        rep = ZeckendorfRep(tuple(rep))
    total = 0
    a, b = 1, 2  # F(2), F(3)
    for bit in rep.bits:
        if bit:  # adds the int F(i+1), never bit * F(i+1): 1.0 and Fraction(1) are bits too
            total += a
        a, b = b, a + b
    return total


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
    if isinstance(x, float):
        raise TypeError("fraction_decimal needs an exact rational (int or Fraction)")
    x = Fraction(x)
    sign = "-" if x.numerator < 0 else ""
    den = x.denominator
    scaled = abs(x.numerator) * 10**places
    q, r = divmod(scaled, den)
    if 2 * r > den or (2 * r == den and q % 2 == 1):
        q += 1
    return _fixed_point(sign, q, places)


def surd_decimal(s: Surd, places: int = 6) -> str:
    """Fixed-point decimal string for a surd, round-half-even.

    Ties can only arise for rational values (sqrt 5 is irrational), where the
    rational renderer handles them.  Otherwise, with |x| = (p + q*sqrt(5))/d,
    round(|x| 10^k) = floor((2 10^k (p + q*sqrt(5)) + d) / 2d): one isqrt.
    """
    if s.is_rational:
        return fraction_decimal(s.a, places)
    if places < 0:
        raise ValueError("places must be >= 0")
    p, q, sign = s.p, s.q, ""
    if int_surd_sign(p, q) < 0:
        p, q, sign = -p, -q, "-"
    scale = 2 * 10**places
    return _fixed_point(sign, _floor(scale * p + s.d, scale * q, 2 * s.d), places)
