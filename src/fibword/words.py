"""Finite words over small ordered alphabets.

Words are immutable and hashable; every operation here is pure, so values can
be shared freely between threads.
"""

from __future__ import annotations

from collections.abc import Iterable

from ._frozen import Frozen

MAX_ALPHABET_SIZE = 10


class Alphabet(Frozen):
    """Ordered alphabet of 2 to 10 distinct printable characters."""

    def __init__(self, symbols: Iterable[str]) -> None:
        symbols = tuple(symbols)
        self.__dict__.update(symbols=symbols)
        if not 2 <= len(symbols) <= MAX_ALPHABET_SIZE:
            raise ValueError(
                f"alphabet must have 2..{MAX_ALPHABET_SIZE} symbols, got {len(symbols)}"
            )
        if len(set(symbols)) != len(symbols):
            raise ValueError("alphabet symbols must be distinct")
        for s in symbols:
            if len(s) != 1 or not s.isprintable():
                raise ValueError(f"alphabet symbols must be single printable characters, got {s!r}")

    def __len__(self) -> int:
        return len(self.symbols)

    def __iter__(self):
        return iter(self.symbols)

    def __contains__(self, symbol: str) -> bool:
        return symbol in self.symbols


BINARY = Alphabet(("0", "1"))
AB = Alphabet(("a", "b"))


class Word(Frozen):
    """A finite word; `text` holds one character per letter."""

    def __init__(self, alphabet: Alphabet, text: str) -> None:
        self.__dict__.update(alphabet=alphabet, text=text)
        self.__post_init__()  # a method of its own: perfbench/tracer.py counts Words by rebinding it

    def __post_init__(self) -> None:
        # The symbols are distinct single characters, so their counts sum to the length iff every
        # letter is one of them: one str.count pass per symbol, no per-letter loop.
        text, symbols = self.text, self.alphabet.symbols
        if sum(map(text.count, symbols)) != len(text):
            bad = set(text) - set(symbols)
            raise ValueError(f"letters {sorted(bad)!r} not in alphabet")

    def __len__(self) -> int:
        return len(self.text)

    def __str__(self) -> str:
        return self.text

    def __iter__(self):
        return iter(self.text)

    def __getitem__(self, key):
        if isinstance(key, slice):
            return Word(self.alphabet, self.text[key])
        return self.text[key]


def binary_word(text: str) -> Word:
    return Word(BINARY, text)


def ab_word(text: str) -> Word:
    return Word(AB, text)


def factor_set(w: Word, n: int) -> set[Word]:
    """All distinct length-`n` contiguous factors of `w`; {empty word} for n = 0."""
    if n < 0:
        raise ValueError("factor length must be >= 0")
    if n == 0:
        return {Word(w.alphabet, "")}
    text = w.text
    distinct = {text[i : i + n] for i in range(len(text) - n + 1)}
    return {Word(w.alphabet, t) for t in distinct}


def ultrametric_distance(u: Word, v: Word) -> int | None:
    """Distance between finite words, encoded for exactness.

    Returns None when u = v (distance zero) and otherwise the exponent n with
    d(u, v) = 2^-n, where n is the first index of disagreement.  When one word
    is a proper prefix of the other, n is the length of the shorter word.
    """
    if u.alphabet != v.alphabet:
        raise ValueError("alphabet mismatch")
    if u.text == v.text:
        return None
    for i, (x, y) in enumerate(zip(u.text, v.text)):
        if x != y:
            return i
    return min(len(u), len(v))
