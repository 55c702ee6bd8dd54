"""Integer combinations of words under concatenation: the ring Z<a,b>.

An element is a finitely supported map from words to Z, so it has one
spelling: the `AlgebraElement` constructor, which every builder calls, admits
only integer coefficients, adds those of equal words, drops the zeros and
orders the terms by length, then text.  Equality, hashing and rendering are
therefore those of the value.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from operator import index

from ._frozen import Frozen
from .derived import fib_word_ab
from .words import AB, Alphabet, Word


def _term_key(term: tuple[Word, int]) -> tuple[int, str]:
    return (len(term[0]), term[0].text)


class AlgebraElement(Frozen):
    """A formal sum of words, canonical by construction.

    `terms` is any iterable of (word, coefficient) pairs over `alphabet`.  Each
    coefficient passes through `operator.index` (a bool becomes an int; a float
    or Fraction raises `TypeError`), equal words add their coefficients, and
    the stored `terms` are the (word, nonzero coefficient) pairs in
    length-then-text order.
    """

    def __init__(self, alphabet: Alphabet, terms: Iterable[tuple[Word, int]]) -> None:
        coefficients: dict[Word, int] = {}
        for word, coefficient in terms:
            if word.alphabet != alphabet:
                raise ValueError("term word over a different alphabet")
            coefficients[word] = coefficients.get(word, 0) + index(coefficient)
        terms = sorted((term for term in coefficients.items() if term[1]), key=_term_key)
        self.__dict__.update(alphabet=alphabet, terms=tuple(terms))

    @staticmethod
    def build(alphabet: Alphabet, coefficients: Mapping[Word, int]) -> "AlgebraElement":
        return AlgebraElement(alphabet, coefficients.items())

    @staticmethod
    def zero(alphabet: Alphabet) -> "AlgebraElement":
        return AlgebraElement(alphabet, ())

    @staticmethod
    def monomial(word: Word, coefficient: int = 1) -> "AlgebraElement":
        return AlgebraElement(word.alphabet, ((word, coefficient),))

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, word: Word) -> int:
        return dict(self.terms).get(word, 0)

    def words(self) -> tuple[Word, ...]:
        return tuple(w for w, _ in self.terms)

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        return alg_add(self, other)

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        return alg_add(self, alg_scalar(-1, other))

    def __neg__(self) -> "AlgebraElement":
        return alg_scalar(-1, self)

    def __rmul__(self, c: int) -> "AlgebraElement":
        if not isinstance(c, int):
            return NotImplemented
        return alg_scalar(c, self)

    def __mul__(self, other):
        if isinstance(other, int):
            return alg_scalar(other, self)
        if isinstance(other, AlgebraElement):
            return alg_mul(self, other)
        return NotImplemented

    def render(self) -> str:
        """Fixed grammar: `coefficient·word` joined by ` + `, coefficient 1 omitted."""
        if self.is_zero:
            return "0"
        parts = []
        for word, coefficient in self.terms:
            shown = word.text if word.text else "ε"
            parts.append(shown if coefficient == 1 else f"{coefficient}·{shown}")
        return " + ".join(parts)

    def __str__(self) -> str:
        return self.render()


def _require_same_alphabet(x: AlgebraElement, y: AlgebraElement) -> None:
    if x.alphabet != y.alphabet:
        raise ValueError("alphabet mismatch")


def alg_add(x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
    _require_same_alphabet(x, y)
    return AlgebraElement(x.alphabet, x.terms + y.terms)


def alg_scalar(c: int, x: AlgebraElement) -> AlgebraElement:
    c = index(c)
    return AlgebraElement(x.alphabet, ((w, c * k) for w, k in x.terms))


def alg_mul(x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
    """Bilinear extension of word concatenation; coefficients multiply."""
    _require_same_alphabet(x, y)
    pairs = ((Word(x.alphabet, u.text + v.text), cu * cv) for u, cu in x.terms for v, cv in y.terms)
    return AlgebraElement(x.alphabet, pairs)


def element_from_texts(alphabet: Alphabet, texts: Iterable[str]) -> AlgebraElement:
    """Sum of the given words, each with coefficient 1 (repeats accumulate)."""
    return AlgebraElement(alphabet, ((Word(alphabet, text), 1) for text in texts))


# -- the power construction on Fibonacci words -----------------------------------


def pow_fib(k: int) -> AlgebraElement:
    """The two-monomial element a·fw_k·fw_{k-1}^2 + ab·fw_k·fw_{k+1}^2.

    fw_j is the j-th Fibonacci word over {a,b} and squaring is
    self-concatenation.
    """
    if k < 2:
        raise ValueError("power construction needs k >= 2")
    fk = fib_word_ab(k).text
    fprev = fib_word_ab(k - 1).text
    fnext = fib_word_ab(k + 1).text
    return element_from_texts(AB, ["a" + fk + fprev + fprev, "ab" + fk + fnext + fnext])
