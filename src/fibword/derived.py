"""Fibonacci-type word families over {a,b} and their letter statistics.

Three families:

  * y-words:   y_0 = a, y_1 = ab, y_m = y_{m-1} y_{m-2}
  * framed:    q_m = a y_m b, framed from y_m
  * fib-words: fw_1 = a, fw_2 = ab, fw_k = fw_{k-1} fw_{k-2} (so fw_k = y_{k-1})

The recurrence (each word is the previous one followed by the one before it)
holds for the y-words and the fib-words only.  It does not hold for the framed
words: for m >= 3, q_{m-1} q_{m-2} has F(m+2) + 4 letters, two more than q_m.

Letter counts follow Fibonacci closed forms in classical indexing
(F_0 = 0, F_1 = 1) and are cross-checked against direct scans in the tests.
"""

from __future__ import annotations

from collections.abc import Iterator
from fractions import Fraction
from itertools import islice

from ._frozen import Frozen
from .goldenexact import fib, fraction_decimal
from .words import AB, Word

FAMILY_Y = "y"
FAMILY_Q = "q"
FAMILY_FIBAB = "fibab"


def y_words() -> Iterator[str]:
    """The texts y_0 = a, y_1 = ab, y_n = y_{n-1} y_{n-2}, ... without end."""
    prev, cur = "a", "ab"
    yield prev
    while True:
        yield cur
        prev, cur = cur, cur + prev


def y_word(n: int) -> Word:
    """y_0 = a, y_1 = ab, y_n = y_{n-1} y_{n-2}; |y_n| = F(n+2)."""
    if n < 0:
        raise ValueError("y-word index must be >= 0")
    return Word(AB, next(islice(y_words(), n, None)))


def q_word(m: int) -> Word:
    """The framed word a y_m b, of length F(m+2) + 2."""
    if m < 1:
        raise ValueError("framed-word index must be >= 1")
    return Word(AB, "a" + y_word(m).text + "b")


def fib_word_ab(k: int) -> Word:
    """Finite Fibonacci words over {a,b}: a, ab, aba, abaab, abaababa, ..."""
    if k < 1:
        raise ValueError("Fibonacci word index must be >= 1")
    return y_word(k - 1)


def letter_counts_closed_form(family: str, index: int) -> tuple[int, int]:
    """(a-count, b-count) from the Fibonacci closed forms, classical indexing.

    Every family reads the y-word counts (F(m+1), F(m)), F(m) first, so a run
    of rows (`density_table`) walks `fib`'s memo by linear steps and builds
    one pair.
    """
    if family == FAMILY_Y:
        if index < 0:
            raise ValueError("y-word index must be >= 0")
        b = fib(index)
        return fib(index + 1), b
    if family == FAMILY_Q:
        if index < 1:
            raise ValueError("framed-word index must be >= 1")
        a, b = letter_counts_closed_form(FAMILY_Y, index)
        return a + 1, b + 1
    if family == FAMILY_FIBAB:
        if index < 1:
            raise ValueError("Fibonacci word index must be >= 1")
        return letter_counts_closed_form(FAMILY_Y, index - 1)
    raise ValueError(f"unknown family {family!r}")


def letter_densities(family: str, index: int) -> tuple[Fraction, Fraction]:
    """Exact (a-density, b-density) of one family member."""
    a_count, b_count = letter_counts_closed_form(family, index)
    length = a_count + b_count
    return Fraction(a_count, length), Fraction(b_count, length)


def df_density(k: int) -> Fraction:
    """a-density of the k-th Fibonacci word: F(k)/F(k+1)."""
    return letter_densities(FAMILY_FIBAB, k)[0]


class DensityRow(Frozen):
    """One row of the density table, exact rationals per family."""

    COLUMNS = ("dens_a_q", "dens_b_q", "dens_a_y", "dens_b_y")  # the density fields, in table order

    def __init__(
        self, m: int, dens_a_q: Fraction, dens_b_q: Fraction, dens_a_y: Fraction, dens_b_y: Fraction
    ) -> None:
        self.__dict__.update(
            m=m, dens_a_q=dens_a_q, dens_b_q=dens_b_q, dens_a_y=dens_a_y, dens_b_y=dens_b_y
        )

    def rendered(self, places: int = 6) -> tuple[str, ...]:
        """The COLUMNS as decimals, by exact digit extraction."""
        return tuple(fraction_decimal(getattr(self, column), places) for column in self.COLUMNS)


def density_table(m_max: int) -> list[DensityRow]:
    """Rows m = 3 .. m_max of exact letter densities for the q and y families."""
    if m_max < 3:
        raise ValueError("table needs m_max >= 3")
    rows = []
    for m in range(3, m_max + 1):
        qa, qb = letter_densities(FAMILY_Q, m)
        ya, yb = letter_densities(FAMILY_Y, m)
        rows.append(DensityRow(m=m, dens_a_q=qa, dens_b_q=qb, dens_a_y=ya, dens_b_y=yb))
    return rows
