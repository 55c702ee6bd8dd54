"""Exact arithmetic kernel: Q(sqrt 5), Beatty floors, Fibonacci machinery.

Everything here is integer exact.  A `Surd` is the integer triple
(p + q*sqrt(5))/d in lowest terms, so its arithmetic is integer products and
one gcd per result; every floor and every sign of such a value is one
product with the one fixed-point sqrt(5) and a shift; `fib` and `lucas` double
over the pair (F(k), L(k)) and keep the last pair built, so a neighbouring
index costs one linear step.  From a few thousand on, the pair and the
product F(k) L(k) come from the system's GMP where it loads (`_gmp`).
Floating point never appears; decimal strings are produced by digit
extraction from exact values.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_right
from collections.abc import Sequence
from fractions import Fraction
from itertools import accumulate, compress, repeat

from ._frozen import Frozen

RationalLike = int | Fraction


# Floor of the square root, exact for arbitrary size; ValueError below zero.  The kernel's one
# square root: it builds the fixed-point sqrt(5) below at each widening, and nothing else.
isqrt = math.isqrt


def _surd(p: int, q: int, d: int) -> Surd:
    """The Surd (p + q*sqrt(5))/d for integers with d != 0, in lowest terms with d > 0."""
    g = math.gcd(d, p, q)  # d first: it is usually small, and gcd stops working once it reaches 1
    if d < 0:
        g = -g
    s = object.__new__(Surd)
    s.__dict__.update(p=p // g, q=q // g, d=d // g)
    return s


# (K, floor(sqrt(5) * 2^K)): the widest fixed-point sqrt(5) built so far, K a power of two (0
# before the first build).  It is one tuple, read whole and replaced by one assignment, as `_memo`
# is, so threads share it without a lock: a pair another thread left costs time, never a wrong answer.
_sqrt5 = (0, 2)


def _sqrt5_at(j: int) -> int:
    """floor(sqrt(5) * 2^j): root >> (K - j) for the pair (K, root), built wider first if j > K.

    The shift is exact because floor(floor(x)/2^i) = floor(x/2^i).  A wider
    pair has K the least power of two above j, so the widths `isqrt` builds
    at least double.  With 2^j > 8 q^2 (j = 2 bits(q) + 3 will do),
    floor(q*sqrt(5)) = (q * floor(sqrt(5) * 2^j)) >> j exactly, for q of
    either sign: the product over 2^j lies less than |q|/2^j from q*sqrt(5),
    on the side of zero, and the integer on that side is {|q|*sqrt(5)} away.
    With f = floor(|q|*sqrt(5)) the norm 5q^2 - f^2 is a positive integer, so
    {|q|*sqrt(5)} = (5q^2 - f^2)/(|q|*sqrt(5) + f) > 1/(5|q|) > |q|/2^j
    (Hurwitz 1891; Khinchin, *Continued Fractions*).
    """
    global _sqrt5
    k, root = _sqrt5
    if j > k:
        k = 1 << j.bit_length()
        root = isqrt(5 << 2 * k)
        _sqrt5 = k, root
    return root >> (k - j)


def _floor(p: int, q: int, d: int) -> int:
    """floor((p + q*sqrt(5))/d) for integers with d > 0: one product with `_sqrt5_at` and a shift."""
    if q:
        j = 2 * q.bit_length() + 3
        p += q * _sqrt5_at(j) >> j  # floor(q*sqrt(5)); >> rounds toward minus infinity for q < 0 too
    # floor(x / d) = floor(floor(x) / d) for a positive integer d
    return p // d


def int_surd_sign(p: int, q: int) -> int:
    """Exact sign of p + q*sqrt(5) for integers p, q.

    For q != 0 the value is irrational, so never 0, and it is >= 0 exactly
    when its floor is.
    """
    if q == 0:
        return (p > 0) - (p < 0)
    return 1 if _floor(p, q, 1) >= 0 else -1


def _quotient(p: int, q: int, d: int, y: Surd) -> tuple[int, int, int]:
    """The triple of (p + q*sqrt(5))/d divided by y = (p2 + q2*sqrt(5))/d2, not in lowest terms.

    Above and below times the conjugate p2 - q2*sqrt(5):
    (d2 (p p2 - 5 q q2) + d2 (q p2 - p q2) sqrt(5)) / (d (p2^2 - 5 q2^2)).
    The norm p2^2 - 5 q2^2 is zero only for y = 0, as sqrt(5) is irrational.
    """
    p2, q2, d2 = y.p, y.q, y.d
    norm = p2 * p2 - 5 * q2 * q2
    if norm == 0:
        raise ZeroDivisionError("surd division by zero")
    return d2 * (p * p2 - 5 * q * q2), d2 * (q * p2 - p * q2), d * norm


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


@functools.total_ordering
class Surd(Frozen):
    """Exact element a + b*sqrt(5) of Q(sqrt 5), built as Surd(a, b) from rationals a, b.

    Stored as integers (p + q*sqrt(5))/d with gcd(p, q, d) = 1 and d > 0, so
    each value has one spelling and equality is field-wise.  A Surd equals an
    int or Fraction of the same value, and a rational Surd hashes like it.
    """

    def __init__(self, a: RationalLike, b: RationalLike) -> None:
        if isinstance(a, float) or isinstance(b, float):
            raise TypeError("surd components must be exact (int or Fraction)")
        if not isinstance(a, (int, Fraction)):
            a = Fraction(a)
        if not isinstance(b, (int, Fraction)):
            b = Fraction(b)
        p, q, d = a.numerator * b.denominator, b.numerator * a.denominator, a.denominator * b.denominator
        g = math.gcd(d, p, q)  # d > 0
        self.__dict__.update(p=p // g, q=q // g, d=d // g)

    @_surd_operand
    def __eq__(self, o):
        return self.__dict__ == o.__dict__

    def __hash__(self) -> int:
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
        return self**-1

    @_surd_operand
    def __truediv__(self, o):
        return _surd(*_quotient(self.p, self.q, self.d, o))

    def __rtruediv__(self, o):  # o is not a Surd, or __truediv__ would have served; no Surd is built for it
        if not isinstance(o, (int, Fraction)):
            return NotImplemented
        return _surd(*_quotient(o.numerator, 0, o.denominator, self))

    def __pow__(self, exponent: int) -> "Surd":
        if not isinstance(exponent, int):
            return NotImplemented
        bp, bq, bd = self.p, self.q, self.d
        if exponent < 0:  # the base is 1 / self, as a triple
            bp, bq, bd = _quotient(1, 0, 1, self)
        # left to right over the bits of |exponent| on integer triples, so one Surd is built, at the
        # end: a squaring is (p^2 + 5q^2, 2pq, d^2), only a 1 bit multiplies by the base, which is
        # usually small, and each step then takes one gcd
        p, q, d = (bp, bq, bd) if exponent else (1, 0, 1)
        for bit in bin(abs(exponent))[3:]:  # the bits after the leading 1
            p, q, d = p * p + 5 * q * q, 2 * p * q, d * d
            if bit == "1":
                p, q, d = p * bp + 5 * q * bq, p * bq + q * bp, d * bd
            g = math.gcd(d, p, q)
            p, q, d = p // g, q // g, d // g
        return _surd(p, q, d)

    # -- order --------------------------------------------------------------

    def sign(self) -> int:
        """Exact sign, from the floor of p + q*sqrt(5) (d > 0)."""
        return int_surd_sign(self.p, self.q)

    def __abs__(self) -> "Surd":
        return -self if self.sign() < 0 else self

    @_surd_operand
    def __lt__(self, o):  # the one order rule: total_ordering derives <=, > and >= from it and ==
        return (self - o).sign() < 0

    # -- conversions ----------------------------------------------------------

    @property
    def is_rational(self) -> bool:
        return self.q == 0

    def floor(self) -> int:
        """Exact floor: one product with the fixed-point sqrt(5) and a shift."""
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
    """floor(n * phi) = floor((n + n*sqrt(5))/2), exactly."""
    if n < 1:
        raise ValueError("Beatty index must be >= 1")
    return _floor(n, n, 2)


def beatty_phi2(n: int) -> int:
    """floor(n * phi^2) = n + floor(n * phi), from phi^2 = phi + 1."""
    return n + beatty_phi(n)


def beatty_floors(start: int, stop: int) -> list[int]:
    """[floor(m * phi) for start <= m < stop], exactly as beatty_phi computes each one.

    Every Beatty sweep reads this one list; floor(m * phi^2) is m more.  With
    P = floor(phi * 2^j) = (2^j + floor(sqrt(5) * 2^j)) >> 1 and 2^j > 5 m^2,
    floor(m * phi) = (m * P) >> j: the truncation is below m/2^j, and
    {m * phi} > 1/(sqrt(5) m) because the norm p^2 - pm - m^2 of p = floor(m * phi)
    is a nonzero integer.  So the sweep is one addition of P and one shift per m.
    """
    if start < 1:
        raise ValueError("Beatty index must be >= 1")
    if stop <= start:
        return []
    j = 2 * stop.bit_length() + 3
    step = ((1 << j) + _sqrt5_at(j)) >> 1
    return [x >> j for x in accumulate(repeat(step, stop - start - 1), initial=start * step)]


# -- Fibonacci and Lucas numbers ----------------------------------------------


# The index from which F(n) and L(n), and the product F(j) L(j) for F(2j), come from the system's
# GMP (`_gmp`) where it loads: below it the calls into the library and the conversions cost more
# than CPython's own products save.  It is the measured crossover of a whole exact-kernel `fib` item,
# the pure path against GMP at every index (table in CHANGES.md): parity near 3,400 on a quiet
# 2-vCPU host, GMP 17% ahead at 4,096.  It must stay above 1,024, the largest index a CLI request
# asks for, so that no request loads `ctypes`.  At 10^5 GMP is 7-9x faster.
_GMP_FROM = 3400


def _fib_lucas(n: int) -> tuple[int, int]:
    """(F(n), L(n)): from GMP's F(n), F(n-1) and L(n) = F(n) + 2 F(n-1) from `_GMP_FROM` on, else by doubling.

    The doubling runs over the bits of n, from the top:
    k -> 2k:   F(2k) = F(k) L(k),  L(2k) = L(k)^2 - 2(-1)^k;
    k -> k+1:  F(k+1) = (F(k) + L(k))/2,  L(k+1) = (5 F(k) + L(k))/2.
    It also serves where libgmp does not load and past C's unsigned long.
    """
    if n >= _GMP_FROM:
        from . import _gmp  # loads ctypes, so only here

        pair = _gmp.fib2(n)
        if pair is not None:
            fn, fn1 = pair
            return fn, fn + 2 * fn1
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
    either built.  Two rules read it:
      - |n - j| <= 1: one linear step, F(j+1) = (L + F)/2, L(j+1) = (5F + L)/2,
        F(j-1) = (L - F)/2, L(j-1) = (5F - L)/2; the memo becomes pair(n);
      - `fib` only, n = 2j: one product, F(2j) = F(j) L(j); the memo is kept.
    Any other n is built by `_fib_lucas`, and pair(n) becomes the memo.  From
    index `_GMP_FROM` on, the pair and the product come from the system's GMP
    where it loads, as the same ints.  Below it a lone cold call pays for the
    whole pair, one squaring more than F(n) alone needs.  The memo is one
    tuple, read whole and replaced by one assignment, so threads share it
    without a lock: a pair another thread left costs time, never a wrong answer.
    """
    if n < 0:
        raise ValueError("fib index must be >= 0")
    j, fj, lj = _memo
    if n == 2 * j and j > 1:  # j <= 1 leaves n within the first rule's reach
        if j >= _GMP_FROM:
            from . import _gmp

            product = _gmp.mul(fj, lj)
            if product is not None:
                return product
        return fj * lj
    return _pair(n)[0]


def lucas(n: int) -> int:
    """Lucas numbers, L(0) = 2, L(1) = 1 (so L(2) = 3), from `fib`'s memo and linear steps."""
    if n < 0:
        raise ValueError("lucas index must be >= 0")
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
        if any(b not in (0, 1) for b in bits):
            raise ValueError("bits must be 0 or 1")
        if any(x == 1 and y == 1 for x, y in zip(bits, bits[1:])):
            raise ValueError("adjacent 1s in Zeckendorf representation")
        if bits and not bits[-1]:
            raise ValueError("trailing zero bits are not canonical")


# F(2), F(3), ...: the Zeckendorf weights, one tuple shared by every call.  A call that needs a
# longer one replaces it by one assignment and never mutates it, as `_memo` is shared.  It grows
# to at most _WEIGHTS_KEPT weights (F(1025) has 214 digits), so it holds at most 83 KB.
_weights = (1, 2)
_WEIGHTS_KEPT = 1024


def _weights_above(m: int) -> Sequence[int]:
    """F(2), F(3), ... up to a weight above m: the shared tuple, grown first if it falls short.

    Weights past the first _WEIGHTS_KEPT are the caller's alone, in a list
    that the call drops when it returns.
    """
    global _weights
    weights = _weights
    if weights[-1] > m:
        return weights
    grown = list(weights)
    a, b = weights[-2:]
    while b <= m:
        a, b = b, a + b
        grown.append(b)
    if len(weights) < _WEIGHTS_KEPT:
        _weights = tuple(grown[:_WEIGHTS_KEPT])
    return grown


def zeckendorf_encode(m: int) -> ZeckendorfRep:
    """Greedy sum of non-adjacent Fibonacci numbers F(2), F(3), ...: a bisection per 1 bit."""
    if m < 0:
        raise ValueError("can only encode non-negative integers")
    weights = _weights_above(m)
    i = bisect_right(weights, m)  # the weights <= m, one bit each
    bits = bytearray(i)
    while m:
        # the largest weight <= what remains; what remains after it is below the next weight down
        i = bisect_right(weights, m, 0, i) - 1
        bits[i] = 1
        m -= weights[i]
    # the bits are 0/1, non-adjacent and end in 1 by construction: store them without the checks
    rep = object.__new__(ZeckendorfRep)
    rep.__dict__.update(bits=tuple(bits))
    return rep


def zeckendorf_decode(rep: ZeckendorfRep | Sequence[int]) -> int:
    """Exact inverse of the encoding; validates the adjacency invariant."""
    if not isinstance(rep, ZeckendorfRep):
        rep = ZeckendorfRep(tuple(rep))
    bits, weights = rep.bits, _weights
    # compress adds the int F(i+2), never bit * F(i+2): 1.0 and Fraction(1) are bits too
    total = sum(compress(weights, bits))
    if len(bits) > len(weights):  # past the shared tuple, continue the recurrence without growing it
        a, b = weights[-2:]
        for bit in bits[len(weights):]:
            a, b = b, a + b
            if bit:
                total += b
    return total


# -- decimal rendering (exact digit extraction) ----------------------------------
#
# Every renderer, `DensityReport.decimals` too, rounds a value times a scale 10^k to an integer
# by one of two integer cores, and prints it with `_fixed_point`.


def _round_half_even(num: int, den: int) -> int:
    """num/den rounded to the nearest integer, a tie to the even one, for den > 0: one divmod."""
    q, r = divmod(num, den)
    r += r
    if r > den or (r == den and q & 1):
        q += 1
    return q


def _round_surd(p: int, q: int, d: int, scale: int) -> int:
    """(p + q*sqrt(5))/d * scale rounded to the nearest integer, for q != 0, d > 0 and scale > 0.

    The value is irrational, so never a tie, and rounding is floor(x + 1/2) on
    either side of zero: one `_floor` of (2 scale p + d + 2 scale q sqrt(5)) / 2d.
    """
    scale += scale
    return _floor(scale * p + d, scale * q, 2 * d)


# CPython 3.10.7+ and 3.11+ refuse `str` of an int of over 4,300 digits by default.  Up to
# _STR_BITS bits (at most 4,215 digits) one `str` call serves; a larger int is split in blocks of
# _BLOCK digits, which this module's own code converts, never touching the process-wide limit.
_STR_BITS = 14_000
_BLOCK = 4_000


def _digits_in_blocks(n: int) -> str:
    """str(n) for n > 2^_STR_BITS: divmod by 10^(_BLOCK 2^i), recursively, to blocks of _BLOCK digits."""
    powers = [10**_BLOCK]  # powers[i] = 10^(_BLOCK 2^i), squared until n < powers[-1]^2
    while 2 * powers[-1].bit_length() - 2 < n.bit_length():
        powers.append(powers[-1] * powers[-1])

    def block(m: int, i: int) -> str:  # m < 10^(_BLOCK 2^i): exactly that many digits, zeros kept
        if i == 0:
            return str(m).zfill(_BLOCK)
        high, low = divmod(m, powers[i - 1])
        return block(high, i - 1) + block(low, i - 1)

    return block(n, len(powers)).lstrip("0")


def _fixed_point(value: int, places: int) -> str:
    """Render value * 10^-places with `places` digits after the point; zero takes no sign."""
    sign = "-" if value < 0 else ""
    value = abs(value)
    digits = str(value) if value.bit_length() <= _STR_BITS else _digits_in_blocks(value)
    digits = digits.rjust(places + 1, "0")
    if places == 0:
        return sign + digits
    return f"{sign}{digits[:-places]}.{digits[-places:]}"


def fraction_decimal(x: RationalLike, places: int = 6) -> str:
    """Fixed-point decimal string, round-half-even, from an exact rational."""
    if places < 0:
        raise ValueError("places must be >= 0")
    if isinstance(x, float):
        raise TypeError("fraction_decimal needs an exact rational (int or Fraction)")
    if not isinstance(x, (int, Fraction)):
        x = Fraction(x)
    # round-half-even is odd-symmetric, so the signed quotient rounds as its magnitude does
    return _fixed_point(_round_half_even(x.numerator * 10**places, x.denominator), places)


def surd_decimal(s: Surd, places: int = 6) -> str:
    """Fixed-point decimal string for a surd, round-half-even.

    Ties can only arise for rational values (sqrt 5 is irrational), which round
    as `fraction_decimal` does; an irrational one is one `_floor`.
    """
    if places < 0:
        raise ValueError("places must be >= 0")
    scale = 10**places
    if s.q == 0:
        return _fixed_point(_round_half_even(s.p * scale, s.d), places)
    return _fixed_point(_round_surd(s.p, s.q, s.d, scale), places)
