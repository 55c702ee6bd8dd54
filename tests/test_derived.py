from fractions import Fraction

import pytest

from fibword import goldenexact
from fibword.derived import (
    FAMILY_FIBAB,
    FAMILY_Q,
    FAMILY_Y,
    density_table,
    df_density,
    fib_word_ab,
    letter_counts_closed_form,
    letter_densities,
    q_word,
    y_word,
    y_words,
)
from fibword.goldenexact import INV_PHI, Surd, fib
from fibword.mechanical import mechanical_prefix


def test_y_word_examples():
    assert y_word(0).text == "a"
    assert y_word(1).text == "ab"
    assert y_word(2).text == "aba"
    assert y_word(3).text == "abaab"
    assert len(y_word(3)) == 5
    with pytest.raises(ValueError):
        y_word(-1)


def test_y_lengths_follow_fibonacci():
    for n in range(31):
        assert len(y_word(n)) == fib(n + 2)


def test_y_words_stream_is_the_fibonacci_word():
    # y_n is the length-F(n+2) prefix of the Beatty-built word under 0 -> a, 1 -> b
    word = mechanical_prefix(fib(21)).text.translate(str.maketrans("01", "ab"))
    for n, text in zip(range(20), y_words()):
        assert text == word[: fib(n + 2)]


def test_y_prefix_property():
    for n in range(1, 26):
        assert y_word(n + 1).text.startswith(y_word(n).text)


def test_q_word_examples():
    assert q_word(1).text == "aabb"
    assert q_word(2).text == "aabab"
    q3 = q_word(3)
    assert len(q3) == 7
    assert q3.text.count("a") == 4
    assert len(q_word(5)) == fib(7) + 2
    with pytest.raises(ValueError):
        q_word(0)


def test_fib_word_examples():
    assert fib_word_ab(1).text == "a"
    assert fib_word_ab(2).text == "ab"
    assert fib_word_ab(3).text == "aba"
    assert fib_word_ab(4).text == "abaab"
    assert fib_word_ab(5).text == "abaababa"
    assert fib_word_ab(6).text == "abaababaabaab"
    with pytest.raises(ValueError):
        fib_word_ab(0)


def test_fib_word_recurrence():
    for k in range(3, 20):
        assert fib_word_ab(k).text == fib_word_ab(k - 1).text + fib_word_ab(k - 2).text


def test_letter_counts_examples():
    assert letter_counts_closed_form(FAMILY_Y, 2) == (2, 1)
    assert letter_counts_closed_form(FAMILY_Q, 3) == (4, 3)
    assert letter_counts_closed_form(FAMILY_FIBAB, 5) == (5, 3)
    with pytest.raises(ValueError):
        letter_counts_closed_form("nope", 3)
    with pytest.raises(ValueError):
        letter_counts_closed_form(FAMILY_Q, 0)


def test_letter_counts_match_scans():
    for n in range(26):
        w = y_word(n).text
        assert letter_counts_closed_form(FAMILY_Y, n) == (w.count("a"), w.count("b"))
    for m in range(1, 26):
        w = q_word(m).text
        assert letter_counts_closed_form(FAMILY_Q, m) == (w.count("a"), w.count("b"))
    for k in range(1, 26):
        w = fib_word_ab(k).text
        assert letter_counts_closed_form(FAMILY_FIBAB, k) == (w.count("a"), w.count("b"))


def test_density_table_first_rows():
    rows = density_table(4)
    assert [row.m for row in rows] == [3, 4]
    assert rows[0].rendered() == ("0.571429", "0.428571", "0.600000", "0.400000")
    assert rows[1].rendered() == ("0.600000", "0.400000", "0.625000", "0.375000")
    with pytest.raises(ValueError):
        density_table(2)


def test_density_table_walks_the_fib_memo(monkeypatch):
    # each row reads the lower index first, so from a cold memo only the first row builds a pair
    monkeypatch.setattr(goldenexact, "_memo", (0, 0, 2))
    built = []
    real = goldenexact._fib_lucas
    monkeypatch.setattr(goldenexact, "_fib_lucas", lambda n: built.append(n) or real(n))
    rows = density_table(300)
    assert built == [3] and rows[-1].dens_b_y == Fraction(fib(300), fib(302))


def test_density_rows_sum_to_one():
    for row in density_table(20):
        assert row.dens_a_q + row.dens_b_q == 1
        assert row.dens_a_y + row.dens_b_y == 1


def test_density_table_matches_direct_scans():
    rows = {row.m: row for row in density_table(13)}
    for m in range(3, 14):
        qm, ym = q_word(m).text, y_word(m).text
        assert rows[m].dens_a_q == Fraction(qm.count("a"), len(qm))
        assert rows[m].dens_b_q == Fraction(qm.count("b"), len(qm))
        assert rows[m].dens_a_y == Fraction(ym.count("a"), len(ym))
        assert rows[m].dens_b_y == Fraction(ym.count("b"), len(ym))


def test_framed_density_approaches_inverse_phi():
    # |dens_a(q_m) - 1/phi| < 10^-3 for m >= 13, exact surd comparison
    bound = Fraction(1, 1000)
    for m in range(13, 21):
        dens_a, _ = letter_densities(FAMILY_Q, m)
        gap = abs(Surd.from_rational(dens_a) - INV_PHI)
        assert (Surd.from_rational(bound) - gap).sign() > 0


def test_df_density_examples():
    assert df_density(2) == Fraction(1, 2)
    assert df_density(5) == Fraction(5, 8)
    with pytest.raises(ValueError):
        df_density(0)


def test_df_density_convergence():
    gap = abs(Surd.from_rational(df_density(30)) - INV_PHI)
    assert (Surd.from_rational(Fraction(1, 10**6)) - gap).sign() > 0
