"""The infinite Fibonacci word through Beatty sequences.

Positions k (1-based) carry 0 when k = floor(m*phi) and 1 when
k = floor(m*phi^2); Beatty's theorem makes that a total, unambiguous
labelling.  Counts, densities and discrepancies are all exact.
"""

from __future__ import annotations

from collections.abc import Iterator
from fractions import Fraction
from itertools import accumulate, chain
from operator import sub

from ._frozen import Frozen
from .goldenexact import (
    Surd,
    _fixed_point,
    _round_half_even,
    _round_surd,
    _surd,
    beatty_floors,
    beatty_phi,
)
from .words import BINARY, Word


_CHUNK = 1 << 14  # floors per beatty_floors call, so a sweep's working list stays this long


def _beatty_chunks(stop: int) -> Iterator[list[int]]:
    """The floors floor(m*phi) for 1 <= m < stop, from beatty_floors one chunk of m at a time."""
    for start in range(1, stop, _CHUNK):
        yield beatty_floors(start, min(start + _CHUNK, stop))


def mechanical_prefix(n: int) -> Word:
    """Length-n prefix of the Fibonacci word: 1s at floor(m*phi^2) = m + floor(m*phi), 0s elsewhere.

    The 1s for m and m + 1 sit 1 + d_m apart, with the floor step
    d_m = floor((m+1)*phi) - floor(m*phi) in {1, 2}, and the first sits at
    1 + d_0 = 2.  So the word is the steps d_0, d_1, ... with 1 -> 01 and
    2 -> 001, two bytes replacements per chunk, cut to n letters.
    """
    ones = count_ones_upto(n)  # rejects n < 1 before any letter is made
    letters, low = bytearray(), 0  # low = floor(0*phi)
    for floors in _beatty_chunks(ones + 2):  # d_0 .. d_ones: up to the first 1 past n
        steps = bytes(map(sub, floors, chain((low,), floors)))
        letters += steps.replace(b"\x02", b"001").replace(b"\x01", b"01")
        low = floors[-1]
    del letters[n:]
    return Word(BINARY, letters.decode())


def count_ones_upto(n: int) -> int:
    """Ones in the length-n prefix: floor(N/phi^2) with N = n + 1.

    1/phi^2 = 2 - phi and N*phi is irrational, so floor(N/phi^2) = 2N - floor(N*phi) - 1.
    """
    if n < 1:
        raise ValueError("prefix length must be >= 1")
    return 2 * n + 1 - beatty_phi(n + 1)


_LETTER_VALUES = bytes.maketrans(b"01", b"\x00\x01")


def ones_counts(limit: int) -> Iterator[int]:
    """count_ones_upto(n) for n = 1 .. limit, in order: running sums over the mechanical prefix."""
    return accumulate(mechanical_prefix(limit).text.encode().translate(_LETTER_VALUES))


class DensityReport(Frozen):
    """Exact symbol statistics of a length-n prefix with count1 ones, derived from those two fields alone.

    A prefix has n >= 1 letters and 0 <= count1 <= n ones; the constructor
    refuses any other pair with ValueError, as `density_report` refuses n < 1.
    """

    def __init__(self, n: int, count1: int) -> None:
        if n < 1:
            raise ValueError("prefix length must be >= 1")
        if not 0 <= count1 <= n:
            raise ValueError("ones count must lie in 0..n")
        self.__dict__.update(n=n, count1=count1)

    @property
    def count0(self) -> int:
        return self.n - self.count1

    @property
    def density0(self) -> Fraction:
        return Fraction(self.count0, self.n)

    @property
    def density1(self) -> Fraction:
        return Fraction(self.count1, self.n)

    @property
    def target1(self) -> Surd:
        """n/phi^2 = n(3 - sqrt5)/2."""
        return _surd(3 * self.n, -self.n, 2)

    @property
    def deviation1(self) -> Surd:
        """count1 - target1 = (2 count1 - 3n + n sqrt5)/2."""
        return _surd(2 * self.count1 - 3 * self.n, self.n, 2)

    def decimals(self, places: int = 6) -> dict[str, str]:
        """Decimal renderings, round-half-even, from n, count1, one scale s = 10^places and integers alone.

          - density1 is round(count1 s / n), one divmod;
          - density0 is s - density1: where count1 s / n is a tie, so is
            count0 s / n, and both round to the even side because s is even;
            s = 1 is odd (n = 2 is a tie), so places = 0 divides again;
          - target1 is irrational, never a tie, so round(deviation1 s) is
            count1 s - round(target1 s), from one `_floor`.
        """
        if places < 0:
            raise ValueError("places must be >= 0")
        scale = 10**places
        n, count1 = self.n, self.count1
        density1 = _round_half_even(count1 * scale, n)
        density0 = scale - density1 if places else _round_half_even(n - count1, n)
        target = _round_surd(3 * n, -n, 2, scale)
        return {
            "density0": _fixed_point(density0, places),
            "density1": _fixed_point(density1, places),
            "target1": _fixed_point(target, places),
            "deviation1": _fixed_point(count1 * scale - target, places),
        }


def density_report(n: int) -> DensityReport:
    return DensityReport(n, count_ones_upto(n))


def max_discrepancy(limit: int) -> tuple[Surd, int]:
    """sup over 1 <= n <= limit of |count1(n) - n/phi^2|, with its argmax, in closed form.

    With t = 1/phi^2 and count1(n) = floor((n+1)t), the deviation at n is
    count1(n) - nt = t - {(n+1)t}, which lies strictly between t - 1 and t.
    A positive deviation is smaller than t; a negative one has size
    {(n+1)t} - t, largest where (n+1)t falls short of an integer p by the
    least, that is where p/(n+1) is a best one-sided approximation of t from
    above.  As t = [0; 2, 1, 1, 1, ...], those are the convergents 1/2, 2/5,
    5/13, ... with denominators F(2j+1) (the one intermediate fraction, 1/1,
    is n = 0), so the sup over n <= limit sits at the largest
    n = F(2j+1) - 1 <= limit, j >= 1.  That covers limit < 4: n = 1 has size
    exactly t, which no positive deviation reaches, and n = 2, 3 have the
    smaller sizes 1 - 2t and 3t - 1.  No two n share a size (t is
    irrational), so the argmax is unique.  tests/test_mechanical.py checks
    the closed form against the full sweep for every limit <= 10^6.
    """
    if limit < 1:
        raise ValueError("sweep bound must be >= 1")
    n, after = 1, 4  # F(2j+1) - 1 for j = 1, 2; F(k+2) = 3F(k) - F(k-2)
    while after <= limit:
        n, after = after, 3 * after - n + 1
    return abs(density_report(n).deviation1), n


def beatty_hits(limit: int) -> bytearray:
    """hits[k] for 0 <= k <= limit: how many of floor(m*phi), floor(m*phi^2) (m >= 1) equal k.

    Beatty's theorem says hits[1:] is all ones.
    """
    if limit < 1:
        raise ValueError("sweep bound must be >= 1")
    hits = bytearray(limit + 1)
    # floor(m*phi) <= limit iff m < (limit + 1)/phi, i.e. m <= floor((limit + 1)*phi) - (limit + 1)
    for m, zero_at in enumerate(chain.from_iterable(_beatty_chunks(beatty_phi(limit + 1) - limit)), 1):
        hits[zero_at] += 1
        if zero_at + m <= limit:
            hits[zero_at + m] += 1
    return hits
