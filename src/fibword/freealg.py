"""Integer combinations of words under concatenation: the ring Z<a,b>.

Elements are finite formal sums of words with nonzero integer coefficients,
kept in a canonical length-then-lexicographic term order so equality and
rendering are deterministic.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from ._frozen import Frozen
from .claimresult import ClaimResult, refuted, verified
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
    first = Word(AB, "a" + fk + fprev + fprev)
    second = Word(AB, "ab" + fk + fnext + fnext)
    return element_from_texts(AB, [first.text, second.text])


def check_pow_invariance(k_max: int) -> ClaimResult:
    """Are pow_fib(2), ..., pow_fib(k_max) all equal, as claimed?"""
    claim_id = "pow-invariance"
    location = "the power element built from Fibonacci words is independent of the index"
    if k_max < 3:
        raise ValueError("invariance check needs k_max >= 3")
    previous = pow_fib(2)
    for k in range(3, k_max + 1):
        current = pow_fib(k)
        if current != previous:
            diff_word = next(
                w for w in previous.words() + current.words()
                if previous.coefficient(w) != current.coefficient(w)
            )
            return refuted(
                claim_id,
                location,
                (
                    f"pow({k - 1}) != pow({k}); monomial {diff_word.text} has "
                    f"coefficient {previous.coefficient(diff_word)} in pow({k - 1}) "
                    f"and {current.coefficient(diff_word)} in pow({k})"
                ),
                witness_pair=[k - 1, k],
                differing_monomial=diff_word.text,
                element_small=previous.render(),
                element_large=current.render(),
            )
        previous = current
    return verified(
        claim_id,
        location,
        f"pow(k) identical for 2 <= k <= {k_max}",
        k_max=k_max,
    )


def alpha_identity_check(alpha: int, w: Word) -> ClaimResult:
    """Weighted power sums over a 0/1 word versus the triangular-number multiple.

    Checks sum_k sum_{j=1..alpha} (alpha+1-j) * w_k^j = alpha(alpha+1)/2 * sum_k w_k
    with exact integers.  Each power is evaluated literally once per letter value and
    weighted by the number of positions that carry it.
    """
    claim_id = "alpha-identity"
    location = "weighted power-sum identity for binary sequences"
    if alpha < 1:
        raise ValueError("alpha must be >= 1")
    text = w.text
    # (value, positions) per letter present, in order of first appearance, so a bad letter
    # fails int() or the binary test exactly as a left-to-right scan would.
    letters = sorted((s for s in w.alphabet.symbols if s in text), key=text.index)
    counted = [(int(s), text.count(s)) for s in letters]
    if any(bit not in (0, 1) for bit, _ in counted):
        raise ValueError("word must be binary")
    lhs = 0
    for bit, positions in counted:
        for j in range(1, alpha + 1):
            lhs += (alpha + 1 - j) * bit**j * positions
    total = sum(bit * positions for bit, positions in counted)
    rhs = alpha * (alpha + 1) // 2 * total
    if lhs == rhs:
        return verified(
            claim_id,
            location,
            f"both sides equal {lhs} for alpha={alpha} on a length-{len(text)} word",
            alpha=alpha,
            length=len(text),
            value=lhs,
        )
    return refuted(
        claim_id,
        location,
        f"lhs {lhs} != rhs {rhs} for alpha={alpha}",
        alpha=alpha,
        length=len(text),
        lhs=lhs,
        rhs=rhs,
    )
