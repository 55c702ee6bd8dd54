import math
import random
from fractions import Fraction

import pytest

from fibword.goldenexact import (
    INV_PHI,
    INV_PHI_SQUARED,
    PHI,
    PHI_BAR,
    PHI_SQUARED,
    SQRT5,
    Surd,
    ZeckendorfRep,
    base_b_digits,
    beatty_phi,
    beatty_phi2,
    fib,
    fib_code_valid,
    fib_m_step,
    fraction_decimal,
    int_surd_sign,
    isqrt,
    lucas,
    surd_decimal,
    surd_sign,
    zeckendorf_decode,
    zeckendorf_encode,
)

# rational bracket of sqrt5, 30 guard digits, for independent sign checks
_SQRT5_LO = Fraction(isqrt(5 * 10**60), 10**30)
_SQRT5_HI = _SQRT5_LO + Fraction(1, 10**30)


def _bracket_sign(s: Surd) -> int | None:
    """Sign via interval arithmetic; None when the bracket straddles zero."""
    lo = s.a + s.b * (_SQRT5_LO if s.b >= 0 else _SQRT5_HI)
    hi = s.a + s.b * (_SQRT5_HI if s.b >= 0 else _SQRT5_LO)
    if lo > 0:
        return 1
    if hi < 0:
        return -1
    return None


def test_isqrt():
    assert isqrt(0) == 0
    assert isqrt(5) == 2
    assert isqrt(80) == 8
    assert isqrt(10**40) == 10**20
    with pytest.raises(ValueError):
        isqrt(-1)


def test_surd_sign_examples():
    assert surd_sign(Surd(Fraction(0), Fraction(0))) == 0
    assert surd_sign(PHI_SQUARED - PHI - 1) == 0
    assert surd_sign(Surd(Fraction(-11, 10), Fraction(1, 2))) == 1
    assert surd_sign(Surd(Fraction(11, 10), Fraction(-1, 2))) == -1
    assert surd_sign(SQRT5 - 2) == 1
    assert surd_sign(SQRT5 - 3) == -1


def test_surd_sign_against_interval_oracle():
    rng = random.Random(99)
    for _ in range(10_000):
        a = Fraction(rng.randint(-50, 50), rng.randint(1, 30))
        b = Fraction(rng.randint(-50, 50), rng.randint(1, 30))
        s = Surd(a, b)
        expected = _bracket_sign(s)
        if expected is None:
            # bracket of width 1e-30 straddles zero: value must be exactly zero
            assert a == 0 and b == 0
            expected = 0
        assert s.sign() == expected


def test_surd_field_identities():
    assert PHI * PHI == PHI_SQUARED
    assert PHI * PHI_BAR == Surd.from_rational(-1)
    assert PHI + PHI_BAR == Surd.from_rational(1)
    assert PHI.inverse() == INV_PHI
    assert (PHI_SQUARED).inverse() == INV_PHI_SQUARED
    assert INV_PHI + INV_PHI_SQUARED == Surd.from_rational(1)
    assert SQRT5 * SQRT5 == Surd.from_rational(5)
    assert (PHI / PHI) == Surd.from_rational(1)
    assert PHI**0 == Surd.from_rational(1)
    assert PHI**-2 == INV_PHI_SQUARED
    with pytest.raises(ZeroDivisionError):
        Surd.from_rational(0).inverse()


def test_surd_rejects_floats():
    with pytest.raises(TypeError):
        Surd(0.5, Fraction(1))
    with pytest.raises(TypeError):
        Surd(Fraction(1), 1.5)


def test_surd_comparisons():
    assert PHI > 1
    assert PHI < PHI_SQUARED
    assert abs(-PHI) == PHI
    assert Surd.from_rational(Fraction(3, 2)) <= PHI


def test_surd_floor():
    assert PHI.floor() == 1
    assert PHI_SQUARED.floor() == 2
    assert (-PHI).floor() == -2
    assert Surd.from_rational(Fraction(7, 2)).floor() == 3
    assert Surd.from_rational(-3).floor() == -3
    assert (SQRT5 * 100).floor() == 223


def test_int_surd_sign_matches_surd():
    rng = random.Random(3)
    for _ in range(2000):
        p, q = rng.randint(-40, 40), rng.randint(-40, 40)
        assert int_surd_sign(p, q) == Surd(Fraction(p), Fraction(q)).sign()


def test_sign_and_floor_on_near_cancelling_large_operands():
    # (a + b*sqrt5)/den with 60-digit b, a within 2 of -b*sqrt5 and a 30-digit den: any
    # nonzero a + b*sqrt5 is at least ~1e-61 from zero, far wider than this 1e-200
    # bracket of sqrt5, which is built without the kernel's sign routine.
    lo5 = Fraction(math.isqrt(5 * 10**400), 10**200)
    hi5 = lo5 + Fraction(1, 10**200)
    rng = random.Random(2024)
    signs = set()
    for _ in range(2000):
        b = rng.randrange(10**59, 10**60) * rng.choice((1, -1))
        root = math.isqrt(5 * b * b)
        a = (-root if b > 0 else root) + rng.randint(-2, 2)
        den = rng.randrange(10**29, 10**30)
        ends = ((a + b * lo5) / den, (a + b * hi5) / den)
        lo, hi = min(ends), max(ends)
        expected = 1 if lo > 0 else -1
        assert (lo > 0) != (hi < 0)
        assert math.floor(lo) == math.floor(hi)
        s = Surd(Fraction(a, den), Fraction(b, den))
        assert s.sign() == expected
        assert s.floor() == math.floor(lo)
        signs.add(expected)
    assert signs == {1, -1}


def test_surd_operand_coercion():
    one = Surd.from_rational(1)
    assert not one > 1 and not one < 1 and one >= 1 and one <= 1
    assert not 1 < one and 1 <= one and not Fraction(1) > one
    assert 2 - PHI == PHI_BAR * PHI_BAR
    assert 1 / PHI == INV_PHI and PHI / 1 == PHI
    assert 3 * PHI == PHI * 3 == PHI + PHI + PHI and 1 + PHI == PHI_SQUARED
    for bad in (0.5, "1", None):
        with pytest.raises(TypeError):
            PHI + bad
        with pytest.raises(TypeError):
            PHI < bad


def test_beatty_examples():
    assert [beatty_phi(n) for n in (1, 2, 3)] == [1, 3, 4]
    assert beatty_phi(4) == 6
    assert beatty_phi(30) == 48
    assert [beatty_phi2(n) for n in (1, 2, 3)] == [2, 5, 7]
    assert beatty_phi2(10) == 26
    assert beatty_phi2(30) == 78
    with pytest.raises(ValueError):
        beatty_phi(0)
    with pytest.raises(ValueError):
        beatty_phi2(0)


def test_beatty_difference_identity():
    assert all(beatty_phi2(n) - beatty_phi(n) == n for n in range(1, 100_001))


def test_beatty_partition_small():
    hit = [0] * (10_001)
    for fn in (beatty_phi, beatty_phi2):
        m = 1
        while True:
            k = fn(m)
            if k > 10_000:
                break
            hit[k] += 1
            m += 1
    assert all(c == 1 for c in hit[1:])


def test_beatty_floor_matches_surd_floor():
    rng = random.Random(17)
    for _ in range(300):
        n = rng.randint(1, 10**9)
        assert beatty_phi(n) == (PHI * n).floor()
        assert beatty_phi2(n) == (PHI_SQUARED * n).floor()


def test_fib_lucas_examples():
    assert fib(0) == 0
    assert fib(6) == 8
    assert fib(12) == 144
    assert lucas(0) == 2
    assert lucas(1) == 1
    assert lucas(2) == 3
    with pytest.raises(ValueError):
        fib(-1)
    with pytest.raises(ValueError):
        lucas(-1)


def test_fib_lucas_recurrences():
    for n in range(2, 201):
        assert fib(n) == fib(n - 1) + fib(n - 2)
        assert lucas(n) == lucas(n - 1) + lucas(n - 2)


def test_binet_exact():
    for n in range(201):
        phi_n, bar_n = PHI**n, PHI_BAR**n
        assert (phi_n - bar_n) / SQRT5 == Surd.from_rational(fib(n))
        assert phi_n + bar_n == Surd.from_rational(lucas(n))


def test_fib_m_step():
    assert [fib_m_step(3, n) for n in range(1, 7)] == [1, 1, 2, 4, 7, 13]
    assert all(fib_m_step(2, n) == fib(n) for n in range(1, 31))
    assert all(fib_m_step(1, n) == 1 for n in range(1, 25))
    # tetranacci spot check
    assert [fib_m_step(4, n) for n in range(1, 8)] == [1, 1, 2, 4, 8, 15, 29]
    with pytest.raises(ValueError):
        fib_m_step(0, 1)
    with pytest.raises(ValueError):
        fib_m_step(2, 0)


def test_zeckendorf_examples():
    assert zeckendorf_encode(0).bits == ()
    assert zeckendorf_encode(1).indices() == (1,)
    assert zeckendorf_encode(4).indices() == (1, 3)
    assert zeckendorf_encode(100).indices() == (3, 5, 10)


def test_zeckendorf_roundtrip_and_invariant():
    for m in range(10_001):
        rep = zeckendorf_encode(m)
        assert zeckendorf_decode(rep) == m
        assert all(x * y == 0 for x, y in zip(rep.bits, rep.bits[1:]))


def test_zeckendorf_uniqueness_small():
    # brute force: exactly one non-adjacent bit pattern per value
    from itertools import product

    fibs = [1, 2, 3, 5, 8, 13, 21, 34, 55, 89]  # F(2)..F(11)
    counts = {}
    for bits in product((0, 1), repeat=len(fibs)):
        if any(x and y for x, y in zip(bits, bits[1:])):
            continue
        value = sum(b * f for b, f in zip(bits, fibs))
        counts[value] = counts.get(value, 0) + 1
    for m in range(90):
        assert counts[m] == 1
        assert zeckendorf_decode(zeckendorf_encode(m)) == m


def test_zeckendorf_decode_validation():
    with pytest.raises(ValueError):
        zeckendorf_decode((1, 1))
    with pytest.raises(ValueError):
        zeckendorf_decode((1, 0))
    with pytest.raises(ValueError):
        ZeckendorfRep((0, 2))
    with pytest.raises(ValueError):
        zeckendorf_encode(-1)


def test_fib_code_valid():
    assert fib_code_valid("11", 2)
    assert fib_code_valid("011", 2)
    assert not fib_code_valid("110", 2)
    assert not fib_code_valid("111", 2)  # two overlapping occurrences
    assert not fib_code_valid("11011", 2)
    assert fib_code_valid("1", 1)
    assert not fib_code_valid("11", 1)
    with pytest.raises(ValueError):
        fib_code_valid("012", 2)
    with pytest.raises(ValueError):
        fib_code_valid("1", 0)


def test_base_b_digits():
    assert base_b_digits(Fraction(1, 2), 2, 3) == [1, 0, 0]
    assert base_b_digits(Fraction(1, 3), 3, 4) == [1, 0, 0, 0]
    assert base_b_digits(Fraction(1, 7), 10, 6) == [1, 4, 2, 8, 5, 7]
    assert base_b_digits(Fraction(0), 10, 2) == [0, 0]
    with pytest.raises(ValueError):
        base_b_digits(Fraction(3, 2), 10, 1)
    with pytest.raises(ValueError):
        base_b_digits(Fraction(1, 2), 1, 1)


def test_base_b_digits_reconstruct():
    rng = random.Random(11)
    for _ in range(200):
        den = rng.randint(2, 500)
        num = rng.randint(0, den - 1)
        x = Fraction(num, den)
        b = rng.choice([2, 3, 7, 10, 16])
        digits = base_b_digits(x, b, 40)
        partial = sum(d * Fraction(1, b ** (i + 1)) for i, d in enumerate(digits))
        assert 0 <= x - partial < Fraction(1, b**40)


def test_fraction_decimal_rendering():
    assert fraction_decimal(Fraction(4, 7), 6) == "0.571429"
    assert fraction_decimal(Fraction(3, 7), 6) == "0.428571"
    assert fraction_decimal(Fraction(3, 5), 6) == "0.600000"
    assert fraction_decimal(Fraction(1, 2), 0) == "0"  # half-even at the unit
    assert fraction_decimal(Fraction(3, 2), 0) == "2"
    assert fraction_decimal(Fraction(5, 10**7), 6) == "0.000000"  # tie to even
    assert fraction_decimal(Fraction(15, 10**7), 6) == "0.000002"  # tie to even
    assert fraction_decimal(Fraction(-4, 7), 6) == "-0.571429"
    assert fraction_decimal(Fraction(-1, 10**9), 6) == "0.000000"  # no signed zero
    assert fraction_decimal(Fraction(144, 233), 6) == "0.618026"
    assert fraction_decimal(7, 3) == "7.000"


def test_fraction_decimal_against_decimal_module():
    import decimal

    rng = random.Random(31)
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        ctx.rounding = decimal.ROUND_HALF_EVEN
        for _ in range(2000):
            den = rng.randint(1, 10**6)
            num = rng.randint(-(10**6), 10**6)
            x = Fraction(num, den)
            quantized = (decimal.Decimal(num) / decimal.Decimal(den)).quantize(
                decimal.Decimal("1.000000")
            )
            expected = f"{quantized:f}"
            if expected.startswith("-") and Fraction(expected) == 0:
                expected = expected[1:]
            assert fraction_decimal(x, 6) == expected, (num, den)


def test_surd_decimal_rendering():
    assert surd_decimal(INV_PHI, 6) == "0.618034"
    assert surd_decimal(INV_PHI_SQUARED, 6) == "0.381966"
    assert surd_decimal(-INV_PHI_SQUARED, 6) == "-0.381966"
    assert surd_decimal(PHI, 6) == "1.618034"
    assert surd_decimal(SQRT5, 6) == "2.236068"
    assert surd_decimal(Surd.from_rational(Fraction(4, 7)), 6) == "0.571429"
    assert surd_decimal(PHI, 0) == "2"


def test_surd_decimal_against_decimal_module():
    import decimal

    with decimal.localcontext() as ctx:
        ctx.prec = 80
        sqrt5 = decimal.Decimal(5).sqrt()
        rng = random.Random(41)
        for _ in range(500):
            a = Fraction(rng.randint(-100, 100), rng.randint(1, 20))
            b = Fraction(rng.randint(-100, 100), rng.randint(1, 20))
            s = Surd(a, b)
            numeric = (
                decimal.Decimal(a.numerator) / a.denominator
                + decimal.Decimal(b.numerator) / b.denominator * sqrt5
            )
            expected = f"{numeric.quantize(decimal.Decimal('1.000000'), decimal.ROUND_HALF_EVEN):f}"
            if expected.startswith("-") and Fraction(expected) == 0:
                expected = expected[1:]
            assert surd_decimal(s, 6) == expected, (a, b)
