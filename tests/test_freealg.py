import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fibword.claims import alpha_identity_check, check_pow_invariance
from fibword.derived import fib_word_ab
from fibword.freealg import (
    AlgebraElement,
    alg_add,
    alg_mul,
    alg_scalar,
    element_from_texts,
    pow_fib,
)
from fibword.mechanical import mechanical_prefix
from fibword.words import AB, BINARY, Alphabet, Word, ab_word, binary_word


def mono(text, coefficient=1):
    return AlgebraElement.monomial(ab_word(text), coefficient)


def random_element(rng):
    coefficients = {}
    for _ in range(rng.randint(0, 3)):
        w = ab_word("".join(rng.choice("ab") for _ in range(rng.randint(0, 4))))
        coefficients[w] = coefficients.get(w, 0) + rng.randint(-3, 3)
    return AlgebraElement.build(AB, coefficients)


def test_add_and_scalar_examples():
    x = mono("a") + mono("ab", 2)
    assert alg_add(x, AlgebraElement.zero(AB)) == x
    assert alg_add(mono("a"), mono("a", -1)).is_zero
    assert alg_add(mono("a") + mono("b"), mono("a")) == mono("a", 2) + mono("b")
    assert alg_scalar(0, x).is_zero
    assert alg_scalar(-2, mono("ab")) == mono("ab", -2)


def test_mul_examples():
    assert alg_mul(mono("a") + mono("b"), mono("a")) == mono("aa") + mono("ba")
    eps = AlgebraElement.monomial(ab_word(""))
    x = mono("ab", 3) + mono("b", -1)
    assert alg_mul(eps, x) == x
    assert alg_mul(x, eps) == x
    expanded = alg_mul(mono("a") + mono("ab"), mono("a") + mono("ab"))
    assert expanded == element_from_texts(AB, ["aa", "aab", "aba", "abab"])


def test_alphabet_mismatch():
    wrong = AlgebraElement.monomial(Word(BINARY, "0"))
    with pytest.raises(ValueError):
        alg_add(mono("a"), wrong)
    with pytest.raises(ValueError):
        alg_mul(mono("a"), wrong)


def test_canonical_order_and_render():
    element = mono("ba") + mono("b", 2) + mono("aa") + mono("", 5)
    # length-then-lexicographic order
    assert [w.text for w in element.words()] == ["", "b", "aa", "ba"]
    assert element.render() == "5·ε + 2·b + aa + ba"
    assert AlgebraElement.zero(AB).render() == "0"
    assert mono("ab", -1).render() == "-1·ab"
    assert (mono("a") + mono("a")).render() == "2·a"


def test_ring_laws_random():
    rng = random.Random(2024)
    for _ in range(1000):
        x, y, z = (random_element(rng) for _ in range(3))
        assert alg_mul(alg_mul(x, y), z) == alg_mul(x, alg_mul(y, z))
        assert alg_mul(x, alg_add(y, z)) == alg_add(alg_mul(x, y), alg_mul(x, z))
        assert alg_mul(alg_add(x, y), z) == alg_add(alg_mul(x, z), alg_mul(y, z))
        assert alg_add(x, y) == alg_add(y, x)


def test_pow_fib_against_plain_strings():
    # independent oracle: raw Python string concatenation
    first = "a" + "ab" + "a" + "a"
    second = "ab" + "ab" + "aba" + "aba"
    assert first == "aabaa" and second == "abababaaba"
    element = pow_fib(2)
    assert [w.text for w in element.words()] == [first, second]
    assert all(c == 1 for _, c in element.terms)


def test_pow_fib_k3():
    element = pow_fib(3)
    first = "a" + "aba" + "ab" + "ab"
    second = "ab" + "aba" + "abaab" + "abaab"
    assert [w.text for w in element.words()] == [first, second]
    with pytest.raises(ValueError):
        pow_fib(1)


def test_pow_fib_monomial_lengths():
    # lengths 1 + |fw_k| + 2|fw_{k-1}| and 2 + |fw_k| + 2|fw_{k+1}|
    for k in range(2, 13):
        lengths = [len(w) for w in pow_fib(k).words()]
        lk = len(fib_word_ab(k))
        assert lengths == sorted(
            [1 + lk + 2 * len(fib_word_ab(k - 1)), 2 + lk + 2 * len(fib_word_ab(k + 1))]
        )
        assert len(pow_fib(k).terms) == 2


def test_check_pow_invariance():
    result = check_pow_invariance(3)
    assert not result.verified
    assert result.payload["witness_pair"] == [2, 3]
    larger = check_pow_invariance(6)
    assert larger.payload["witness_pair"] == [2, 3]
    with pytest.raises(ValueError):
        check_pow_invariance(2)


def test_alpha_identity_examples():
    w = mechanical_prefix(13)
    assert alpha_identity_check(1, w).verified
    result = alpha_identity_check(3, w)
    assert result.verified
    assert result.payload["value"] == 30  # 6 * count1(13) = 6 * 5
    big = alpha_identity_check(10, mechanical_prefix(10_000))
    assert big.verified
    with pytest.raises(ValueError):
        alpha_identity_check(0, w)


def literal_alpha_sides(alpha, text):
    """Both sides of the alpha identity by the literal loop over positions and powers."""
    bits = [int(c) for c in text]
    if any(b not in (0, 1) for b in bits):
        raise ValueError("word must be binary")
    lhs = 0
    for bit in bits:
        for j in range(1, alpha + 1):
            lhs += (alpha + 1 - j) * bit**j
    return lhs, alpha * (alpha + 1) // 2 * sum(bits)


@settings(max_examples=200, deadline=None)
@given(st.text(alphabet="01", max_size=200), st.integers(min_value=1, max_value=10))
def test_alpha_identity_matches_literal_loop(text, alpha):
    lhs, rhs = literal_alpha_sides(alpha, text)
    result = alpha_identity_check(alpha, binary_word(text))
    assert lhs == rhs
    assert result.verified
    assert result.witness == f"both sides equal {lhs} for alpha={alpha} on a length-{len(text)} word"
    assert result.payload == {"alpha": alpha, "length": len(text), "value": lhs}


@pytest.mark.parametrize("text", ["0120", "01a2", "1a2", "12a", "a", "2", "1ab", "1ba2", "1١0"])
def test_alpha_identity_rejects_letters_as_the_literal_loop_does(text):
    # int() fails on the first of "a" and "b" in the word; "١" (ARABIC-INDIC DIGIT ONE) reads as 1.
    w = Word(Alphabet("012ab١"), text)
    try:
        expected = literal_alpha_sides(3, text)
    except ValueError as exc:
        with pytest.raises(ValueError) as raised:
            alpha_identity_check(3, w)
        assert str(raised.value) == str(exc)
    else:
        assert alpha_identity_check(3, w).payload["value"] == expected[0]


def test_alpha_identity_arbitrary_binary_words():
    rng = random.Random(55)
    from fibword.words import binary_word

    for _ in range(100):
        text = "".join(rng.choice("01") for _ in range(rng.randint(0, 50)))
        for alpha in (1, 2, 5, 10):
            assert alpha_identity_check(alpha, binary_word(text)).verified


# -- the canonical form: one spelling per element, whatever the input order ------

A, B, AB_WORD = ab_word("a"), ab_word("b"), ab_word("ab")


def test_zero_coefficients_are_dropped():
    element = AlgebraElement(AB, ((AB_WORD, 0),))
    assert element.is_zero and element.terms == ()
    assert element == AlgebraElement.zero(AB) and element.render() == "0"
    assert AlgebraElement(AB, [(A, 0), (B, 2)]).terms == ((B, 2),)
    assert AlgebraElement.monomial(A, 0).is_zero
    assert AlgebraElement.build(AB, {A: 0, B: 0}).is_zero


def test_duplicate_words_are_summed():
    assert AlgebraElement(AB, [(A, 1), (A, 2)]).terms == ((A, 3),)
    assert AlgebraElement(AB, [(B, 1), (A, 2), (B, -1)]).terms == ((A, 2),)
    assert AlgebraElement(AB, [(A, 1), (A, -1)]) == AlgebraElement.zero(AB)
    assert element_from_texts(AB, ["ab", "a", "ab"]).render() == "a + 2·ab"


def test_unsorted_input_is_the_built_element():
    eps = ab_word("")
    built = AlgebraElement.build(AB, {A: 1, B: 1, AB_WORD: -2, eps: 4})
    for order in ([(B, 1), (A, 1), (AB_WORD, -2), (eps, 4)], [(AB_WORD, -2), (eps, 4), (B, 1), (A, 1)]):
        element = AlgebraElement(AB, order)
        assert element == built and element.terms == built.terms
        assert hash(element) == hash(built)
        assert element.render() == built.render() == "4·ε + a + b + -2·ab"
    assert AlgebraElement(AB, iter([(B, 1), (A, 1)])) == mono("a") + mono("b")  # any iterable of pairs


@pytest.mark.parametrize("coefficient", [1.5, 2.0, 0.0, Fraction(1, 2), Fraction(2)], ids=repr)
def test_coefficients_must_be_integers(coefficient):
    with pytest.raises(TypeError):
        AlgebraElement(AB, ((A, coefficient),))
    with pytest.raises(TypeError):
        AlgebraElement.build(AB, {A: coefficient})
    with pytest.raises(TypeError):
        AlgebraElement.monomial(A, coefficient)
    with pytest.raises(TypeError):
        alg_scalar(coefficient, mono("ab", 2))
    with pytest.raises(TypeError):
        alg_scalar(coefficient, AlgebraElement.zero(AB))


def test_non_integer_scalars_are_refused_by_the_operators():
    x = mono("ab", 2)
    with pytest.raises(TypeError):
        x * 0.5
    with pytest.raises(TypeError):
        0.5 * x


def test_bool_coefficient_is_stored_as_int():
    element = AlgebraElement(AB, ((A, True),))
    ((_, coefficient),) = element.terms
    assert type(coefficient) is int and coefficient == 1
    assert element == mono("a") and repr(element) == repr(mono("a"))
    assert AlgebraElement(AB, ((A, False),)).is_zero


def test_constructor_rejects_words_over_another_alphabet():
    with pytest.raises(ValueError, match="term word over a different alphabet"):
        AlgebraElement(AB, ((Word(BINARY, "0"), 1),))
    with pytest.raises(ValueError, match="term word over a different alphabet"):
        AlgebraElement.build(AB, {Word(BINARY, "0"): 1})


def test_alphabet_mismatch_comes_first_for_a_zero_operand():
    wrong = AlgebraElement.zero(BINARY)
    for operation in (alg_add, alg_mul):
        with pytest.raises(ValueError, match="alphabet mismatch"):
            operation(mono("a"), wrong)
        with pytest.raises(ValueError, match="alphabet mismatch"):
            operation(wrong, AlgebraElement.zero(AB))


def test_coefficient_lookup():
    element = mono("a", 3) + mono("ab", -2)
    assert [element.coefficient(w) for w in (A, AB_WORD, B, ab_word(""))] == [3, -2, 0, 0]


_WORDS = st.text(alphabet="ab", max_size=3).map(ab_word)
_PAIRS = st.lists(st.tuples(_WORDS, st.integers(min_value=-3, max_value=3)), max_size=8)


@given(_PAIRS)
def test_constructor_is_the_finitely_supported_map(pairs):
    # reference: the map word -> summed coefficient, zeros dropped, read in length-then-text order
    totals = {}
    for word, coefficient in pairs:
        totals[word.text] = totals.get(word.text, 0) + coefficient
    expected = sorted((item for item in totals.items() if item[1]), key=lambda item: (len(item[0]), item[0]))
    element = AlgebraElement(AB, pairs)
    assert [(w.text, c) for w, c in element.terms] == expected
    assert element == AlgebraElement(AB, reversed(pairs))
    assert hash(element) == hash(AlgebraElement(AB, reversed(pairs)))
    assert all(element.coefficient(ab_word(text)) == c for text, c in expected)
