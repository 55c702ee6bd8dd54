"""Integer combinations of words under concatenation: the ring Z<a,b>.

Elements are finite formal sums of words with nonzero integer coefficients,
kept in a canonical length-then-lexicographic term order so equality and
rendering are deterministic.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping

from ._frozen import Frozen
from .derived import fib_word_ab
from .words import AB, Alphabet, Word


def _term_key(w: Word) -> tuple[int, str]:
    return (len(w), w.text)


class AlgebraElement(Frozen):
    """A formal sum of words; terms are (word, nonzero coefficient) pairs."""

    def __init__(self, alphabet: Alphabet, terms: tuple[tuple[Word, int], ...]) -> None:
        self.__dict__.update(alphabet=alphabet, terms=terms)

    @staticmethod
    def build(alphabet: Alphabet, coefficients: Mapping[Word, int]) -> "AlgebraElement":
        """Canonicalize: drop zero coefficients, order by length then text."""
        items = []
        for word, coefficient in coefficients.items():
            if word.alphabet != alphabet:
                raise ValueError("term word over a different alphabet")
            if coefficient != 0:
                items.append((word, coefficient))
        items.sort(key=lambda item: _term_key(item[0]))
        return AlgebraElement(alphabet, tuple(items))

    @staticmethod
    def zero(alphabet: Alphabet) -> "AlgebraElement":
        return AlgebraElement(alphabet, ())

    @staticmethod
    def monomial(word: Word, coefficient: int = 1) -> "AlgebraElement":
        return AlgebraElement.build(word.alphabet, {word: coefficient})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, word: Word) -> int:
        for w, c in self.terms:
            if w == word:
                return c
        return 0

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
    coefficients = dict(x.terms)
    for word, coefficient in y.terms:
        coefficients[word] = coefficients.get(word, 0) + coefficient
    return AlgebraElement.build(x.alphabet, coefficients)


def alg_scalar(c: int, x: AlgebraElement) -> AlgebraElement:
    return AlgebraElement.build(x.alphabet, {w: c * k for w, k in x.terms})


def alg_mul(x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
    """Bilinear extension of word concatenation; coefficients multiply."""
    _require_same_alphabet(x, y)
    coefficients: dict[Word, int] = {}
    for u, cu in x.terms:
        for v, cv in y.terms:
            w = Word(x.alphabet, u.text + v.text)
            coefficients[w] = coefficients.get(w, 0) + cu * cv
    return AlgebraElement.build(x.alphabet, coefficients)


def element_from_texts(alphabet: Alphabet, texts: Iterable[str]) -> AlgebraElement:
    """Sum of the given words, each with coefficient 1 (repeats accumulate)."""
    coefficients: dict[Word, int] = {}
    for text in texts:
        w = Word(alphabet, text)
        coefficients[w] = coefficients.get(w, 0) + 1
    return AlgebraElement.build(alphabet, coefficients)


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
