import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fibword.words import (
    BINARY,
    Alphabet,
    Word,
    ab_word,
    binary_word,
    factor_set,
    ultrametric_distance,
)

PREFIX_13 = "0100101001001"

binary_texts = st.text(alphabet="01", max_size=24)


def test_alphabet_validation():
    with pytest.raises(ValueError):
        Alphabet(("0",))
    with pytest.raises(ValueError):
        Alphabet(tuple("0123456789X"))
    with pytest.raises(ValueError):
        Alphabet(("0", "0"))
    with pytest.raises(ValueError):
        Alphabet(("0", "ab"))
    assert len(Alphabet(tuple("abc"))) == 3


def test_word_validation():
    with pytest.raises(ValueError):
        Word(BINARY, "012")
    assert len(binary_word("")) == 0
    assert binary_word("01")[0] == "0"
    assert binary_word("0110")[1:3].text == "11"


@pytest.mark.parametrize(
    "symbols, text, bad",
    [
        ("01", "0x1y2x", ["2", "x", "y"]),
        ("01", "0é1", ["é"]),
        ("αβ", "αβγ", ["γ"]),
        ("αβ", "aαb", ["a", "b"]),
        ("αβ😀", "😀αz", ["z"]),
    ],
)
def test_word_rejects_foreign_letters_by_name(symbols, text, bad):
    with pytest.raises(ValueError) as raised:
        Word(Alphabet(symbols), text)
    assert str(raised.value) == f"letters {bad!r} not in alphabet"


@given(st.text(alphabet="01aé", max_size=30))
def test_word_accepts_exactly_the_alphabet_letters(text):
    for alphabet in (BINARY, Alphabet("0é")):
        bad = sorted(set(text) - set(alphabet.symbols))
        if bad:
            with pytest.raises(ValueError) as raised:
                Word(alphabet, text)
            assert str(raised.value) == f"letters {bad!r} not in alphabet"
        else:
            assert Word(alphabet, text).text == text


def test_factor_set_examples():
    two_factors = factor_set(binary_word(PREFIX_13), 2)
    assert {f.text for f in two_factors} == {"01", "10", "00"}
    assert factor_set(ab_word("abab"), 0) == {ab_word("")}
    assert factor_set(ab_word("aaa"), 2) == {ab_word("aa")}
    assert factor_set(ab_word("ab"), 5) == set()


@given(binary_texts, st.integers(min_value=0, max_value=25))
def test_factor_set_size_bound(text, n):
    w = binary_word(text)
    factors = factor_set(w, n)
    if n == 0:
        assert factors == {binary_word("")}
    elif n > len(w):
        assert factors == set()
    else:
        assert len(factors) <= min(len(w) - n + 1, 2**n)


def test_ultrametric_examples():
    w = binary_word(PREFIX_13)
    assert ultrametric_distance(w, w) is None
    assert ultrametric_distance(binary_word("01"), binary_word("00")) == 1
    assert ultrametric_distance(binary_word("0100101"), binary_word("0100100")) == 6
    # proper prefix rule
    assert ultrametric_distance(binary_word("010"), binary_word("01001")) == 3
    with pytest.raises(ValueError):
        ultrametric_distance(ab_word("a"), binary_word("0"))


def exponent(u, v):
    """The exponent n of d(u, v) = 2^-n, with distance zero (None) as +infinity."""
    n = ultrametric_distance(u, v)
    return math.inf if n is None else n


def test_ultrametric_strong_triangle():
    rng = random.Random(23)
    for _ in range(2000):
        n = rng.randint(1, 12)
        u, v, w = (
            binary_word("".join(rng.choice("01") for _ in range(n))) for _ in range(3)
        )
        # d = 2^-n, so d(u, w) <= max(d(u, v), d(v, w)) iff n(u, w) >= min(n(u, v), n(v, w))
        assert exponent(u, w) >= min(exponent(u, v), exponent(v, w))
