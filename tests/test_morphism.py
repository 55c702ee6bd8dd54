import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fibword.goldenexact import fib
from fibword.morphism import (
    Morphism,
    apply,
    fibonacci_morphism,
    fixed_point_prefix,
    is_prolongable,
    mortal_letters,
)
from fibword.words import AB, BINARY, Alphabet, Word, binary_word

TERNARY = Alphabet(("0", "1", "2"))


def ternary_morphism():
    return Morphism(
        TERNARY, TERNARY, {"0": "01201", "1": "020121", "2": "0212021"}
    )


def test_apply_examples():
    phi = fibonacci_morphism()
    assert apply(phi, binary_word("0")).text == "01"
    assert apply(phi, binary_word("01")).text == "010"
    assert apply(phi, binary_word("")).text == ""


def test_apply_alphabet_mismatch():
    phi = fibonacci_morphism()
    with pytest.raises(ValueError):
        apply(phi, Word(AB, "ab"))


def test_morphism_table_validation():
    with pytest.raises(ValueError):
        Morphism(BINARY, BINARY, {"0": "01"})  # missing image
    with pytest.raises(ValueError):
        Morphism(BINARY, BINARY, {"0": "01", "1": "0", "2": "1"})  # unknown symbol
    with pytest.raises(ValueError):
        Morphism(BINARY, BINARY, {"0": Word(AB, "a"), "1": "0"})  # wrong target


@given(st.text(alphabet="01", max_size=12), st.text(alphabet="01", max_size=12))
def test_apply_is_homomorphism(u_text, v_text):
    phi = fibonacci_morphism()
    u, v = binary_word(u_text), binary_word(v_text)
    assert apply(phi, binary_word(u_text + v_text)).text == apply(phi, u).text + apply(phi, v).text


def test_mortal_letters():
    h = Morphism(TERNARY, TERNARY, {"0": "01", "1": "2", "2": ""})
    # 2 dies immediately, 1 maps into {2}, 0 keeps itself alive
    assert mortal_letters(h) == frozenset({"1", "2"})


def test_prolongable_examples():
    phi = fibonacci_morphism()
    assert is_prolongable(phi, "0")
    assert not is_prolongable(phi, "1")
    identity = Morphism(BINARY, BINARY, {"0": "0", "1": "1"})
    assert not is_prolongable(identity, "0")
    # h(0) = 0x with x mortal: not prolongable
    dying = Morphism(BINARY, BINARY, {"0": "01", "1": ""})
    assert not is_prolongable(dying, "0")
    with pytest.raises(ValueError):
        is_prolongable(phi, "x")


def test_fixed_point_prefix_examples():
    phi = fibonacci_morphism()
    assert fixed_point_prefix(phi, "0", 13).text == "0100101001001"
    assert fixed_point_prefix(phi, "0", 2).text == "01"
    assert fixed_point_prefix(ternary_morphism(), "0", 5).text == "01201"
    with pytest.raises(ValueError):
        fixed_point_prefix(phi, "0", 0)
    with pytest.raises(ValueError):
        fixed_point_prefix(phi, "1", 5)
    identity = Morphism(BINARY, BINARY, {"0": "0", "1": "1"})
    dying = Morphism(BINARY, BINARY, {"0": "01", "1": ""})
    for h, a in ((identity, "0"), (dying, "0"), (phi, "x")):
        with pytest.raises(ValueError):
            fixed_point_prefix(h, a, 5)


def test_fixed_point_prefix_consistency():
    phi = fibonacci_morphism()
    long = fixed_point_prefix(phi, "0", 2000).text
    rng = random.Random(5)
    for _ in range(50):
        n = rng.randint(1, 2000)
        assert fixed_point_prefix(phi, "0", n).text == long[:n]


def _stream_prefix(h, a, n):
    """Reference: extend a buffer by the image of the letter under a cursor."""
    buffer, cursor = list(h.image(a).text), 1
    while len(buffer) < n:
        buffer.extend(h.image(buffer[cursor]).text)
        cursor += 1
    return "".join(buffer[:n])


@pytest.mark.parametrize(
    "h",
    [
        fibonacci_morphism(),
        Morphism(BINARY, BINARY, {"0": "01", "1": "10"}),  # Thue-Morse
        ternary_morphism(),
        Morphism(TERNARY, TERNARY, {"0": "0212", "1": "10", "2": ""}),  # 2 is erased
    ],
    ids=["fibonacci", "thue-morse", "ternary", "erasing"],
)
def test_fixed_point_prefix_matches_letter_stream(h):
    for n in (1, 2, 13, 1000, 10_000):
        assert fixed_point_prefix(h, "0", n).text == _stream_prefix(h, "0", n)


def test_fixed_point_law():
    phi = fibonacci_morphism()
    prefix = fixed_point_prefix(phi, "0", 10_000)
    image = apply(phi, prefix)
    assert image.text.startswith(prefix.text)


def test_fixed_point_against_full_iteration():
    # independent construction: iterate h on "0" fully, then take prefixes
    phi = fibonacci_morphism()
    w = binary_word("0")
    for _ in range(20):
        w = apply(phi, w)
    assert fixed_point_prefix(phi, "0", 10_000).text == w.text[:10_000]


def test_iterate_lengths_follow_fibonacci():
    phi = fibonacci_morphism()
    w = binary_word("0")
    lengths = [len(w)]
    for _ in range(12):
        w = apply(phi, w)
        lengths.append(len(w))
    assert lengths == [fib(k + 2) for k in range(13)]
