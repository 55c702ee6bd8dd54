import ctypes.util
import functools
import math
import operator
import random
import sys
import threading
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fibword import _gmp, goldenexact
from fibword.goldenexact import (
    INV_PHI,
    INV_PHI_SQUARED,
    PHI,
    PHI_BAR,
    SQRT5,
    Surd,
    ZeckendorfRep,
    beatty_phi,
    beatty_phi2,
    fib,
    fraction_decimal,
    int_surd_sign,
    isqrt,
    lucas,
    surd_decimal,
    zeckendorf_decode,
    zeckendorf_encode,
)
from oracle_reference import oracle

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
    assert Surd(Fraction(0), Fraction(0)).sign() == 0
    assert (PHI * PHI - PHI - 1).sign() == 0
    assert Surd(Fraction(-11, 10), Fraction(1, 2)).sign() == 1
    assert Surd(Fraction(11, 10), Fraction(-1, 2)).sign() == -1
    assert (SQRT5 - 2).sign() == 1
    assert (SQRT5 - 3).sign() == -1


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
    assert PHI * PHI == PHI + 1
    assert PHI * PHI_BAR == Surd.from_rational(-1)
    assert PHI + PHI_BAR == Surd.from_rational(1)
    assert PHI.inverse() == INV_PHI
    assert (PHI + 1).inverse() == INV_PHI_SQUARED
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


def test_rational_entry_points_reject_floats():
    # 0.1 is not 1/10 in binary floating point; it must not leak in as a nearby rational
    with pytest.raises(TypeError):
        Surd.from_rational(0.1)
    with pytest.raises(TypeError):
        fraction_decimal(0.1, 20)
    assert Surd.from_rational(Fraction(1, 10)) == Surd(Fraction(1, 10), 0)
    assert fraction_decimal(Fraction(1, 10), 20) == "0.10000000000000000000"


def test_rational_entry_points_take_int_and_fraction_only():
    # a str, Decimal or other number is not read as a rational: only int and Fraction are
    for bad in ("1/2", "0.5", Decimal(1), Decimal("0.5"), None, 1j):
        with pytest.raises(TypeError):
            Surd(bad, 0)
        with pytest.raises(TypeError):
            Surd(0, bad)
        with pytest.raises(TypeError):
            Surd.from_rational(bad)
        with pytest.raises(TypeError):
            fraction_decimal(bad)
    assert Surd(True, Fraction(1, 2)) == Surd(1, Fraction(1, 2)) and fraction_decimal(False, 1) == "0.0"


def test_surd_comparisons():
    assert PHI > 1
    assert PHI < PHI + 1
    assert abs(-PHI) == PHI
    assert Surd.from_rational(Fraction(3, 2)) <= PHI


def test_surd_floor():
    assert PHI.floor() == 1
    assert (PHI + 1).floor() == 2
    assert (-PHI).floor() == -2
    assert Surd.from_rational(Fraction(7, 2)).floor() == 3
    assert Surd.from_rational(-3).floor() == -3
    assert (SQRT5 * 100).floor() == 223


def test_int_surd_sign_matches_oracle():
    # every |p|, |q| <= 40, against the benchmark's square comparison, which fibword does not share
    for p in range(-40, 41):
        for q in range(-40, 41):
            assert int_surd_sign(p, q) == oracle.surd_sign(p, q) == Surd(p, q).sign()


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
    assert 3 * PHI == PHI * 3 == PHI + PHI + PHI and 1 + PHI == PHI + 1
    for bad in (0.5, "1", None, Decimal(1)):
        with pytest.raises(TypeError):
            PHI + bad
        for compare in (operator.lt, operator.le, operator.gt, operator.ge):  # on either side
            with pytest.raises(TypeError):
                compare(PHI, bad)
            with pytest.raises(TypeError):
                compare(bad, PHI)


def _oracle_order(x, y) -> tuple[bool, bool, bool, bool]:
    """(x < y, x <= y, x > y, x >= y) from the oracle's sign of x - y, taken over Fraction parts."""
    (a1, b1), (a2, b2) = ((v.a, v.b) if isinstance(v, Surd) else (Fraction(v), Fraction(0)) for v in (x, y))
    a, b = a1 - a2, b1 - b2
    sign = oracle.surd_sign(a.numerator * b.denominator, b.numerator * a.denominator)
    return sign < 0, sign <= 0, sign > 0, sign >= 0


def test_order_is_the_oracle_sign_of_the_difference():
    big = PHI**2870  # about 10^600
    top = big.floor()
    b = 10**600 + 7
    near_zero = [Surd(-isqrt(5 * b * b) + k, b) for k in range(-2, 3)]  # within 10^-599 of 0
    near_zero += [-x for x in near_zero]
    surds = [PHI, PHI * PHI, PHI + 1, -PHI, big, -big, big + Fraction(1, 10**600), big - near_zero[0]]
    surds += near_zero + [Surd(top, 0), Surd(Fraction(2 * top + 1, 2), 0), Surd(0, 0), Surd(-1, 0)]
    rationals = [0, 1, -1, 2, Fraction(-7, 3), top, top + 1, -top, -top - 1, Fraction(2 * top + 1, 2)]
    operands = surds + rationals
    for x in operands:
        for y in operands:
            if isinstance(x, Surd) or isinstance(y, Surd):
                assert (x < y, x <= y, x > y, x >= y) == _oracle_order(x, y), (x, y)


def test_surd_equals_numbers_of_the_same_value():
    one, half = Surd.from_rational(1), Surd(Fraction(1, 2), 0)
    assert one == 1 and 1 == one and not one != 1 and one == Fraction(1) and one == True  # noqa: E712
    assert half == Fraction(1, 2) and Fraction(1, 2) == half and half != 0 and half != 1
    assert PHI - PHI == 0 and 0 == PHI - PHI and INV_PHI * PHI == 1 and PHI * PHI_BAR == -1
    by_number, by_surd = {1: "one", Fraction(1, 2): "half"}, {one: "one", half: "half"}
    assert by_number[one] == by_surd[1] == "one" and by_number[half] == by_surd[Fraction(1, 2)] == "half"
    assert len({one, 1, Fraction(1), Surd(Fraction(3, 3), 0)}) == 1
    for n in (Surd(0, 0), Surd(-7, 0), Surd(Fraction(10**40 + 1, 3), 0)):
        value = n.a
        assert hash(n) == hash(value) and n == value and value == n
    # an irrational surd equals no int: not its floor, not its ceiling
    for x in (PHI, -PHI, SQRT5, PHI**40, Surd(Fraction(-3, 7), Fraction(2, 5))):
        assert all(x != k and k != x for k in range(x.floor() - 1, x.floor() + 3))
        assert x != x.a and hash(x) == hash((x.p, x.q, x.d))
    # other types are not coerced: equality falls back to identity and says no
    assert one != 1.0 and one != "1" and one is not None and (one == 1.0) is False
    assert Surd.__eq__(one, 1.0) is NotImplemented and Surd.__eq__(one, "1") is NotImplemented


# -- Surd against a reference of Fraction pairs --------------------------------


class _Ref:
    """a + b*sqrt5 as a pair of reduced Fractions, with the textbook field rules."""

    def __init__(self, a, b):
        self.a, self.b = Fraction(a), Fraction(b)

    def pair(self):
        return self.a, self.b

    def __add__(self, o):
        return _Ref(self.a + o.a, self.b + o.b)

    def __sub__(self, o):
        return _Ref(self.a - o.a, self.b - o.b)

    def __neg__(self):
        return _Ref(-self.a, -self.b)

    def __mul__(self, o):
        return _Ref(self.a * o.a + 5 * self.b * o.b, self.a * o.b + self.b * o.a)

    def inverse(self):
        norm = self.a * self.a - 5 * self.b * self.b
        return _Ref(self.a / norm, -self.b / norm)

    def __pow__(self, e):
        base = self.inverse() if e < 0 else self
        out = _Ref(1, 0)
        for _ in range(abs(e)):
            out = out * base
        return out

    def sign(self):
        # scale both parts by the positive denominators, then compare p^2 with 5 q^2
        p, q = self.a.numerator * self.b.denominator, self.b.numerator * self.a.denominator
        if (p >= 0) == (q >= 0) or p == 0 or q == 0:
            return (p + q > 0) - (p + q < 0)
        return (p > 0) - (p < 0) if p * p > 5 * q * q else (q > 0) - (q < 0)

    def floor(self):
        # |b| sqrt5 lies within 1/den(b) of isqrt(5 num(b)^2)/den(b), so m starts within 2 of the floor
        root = Fraction(math.isqrt(5 * self.b.numerator**2), self.b.denominator)
        m = math.floor(self.a + (root if self.b >= 0 else -root))
        while (self - _Ref(m, 0)).sign() < 0:
            m -= 1
        while (self - _Ref(m + 1, 0)).sign() >= 0:
            m += 1
        return m


def _digits(rng, most=60):
    n = rng.randint(1, most)
    return rng.randrange(10 ** (n - 1), 10**n)


def _random_pair(rng):
    """(a, b) of 1-60 digit parts: generic, zero parts, or a within 2 of -b*sqrt5."""
    kind = rng.randrange(5)
    den = _digits(rng)
    b = Fraction(_digits(rng) * rng.choice((1, -1)), den)
    if kind == 0:
        return Fraction(0), Fraction(0)
    if kind == 1:
        return Fraction(_digits(rng) * rng.choice((1, -1)), _digits(rng)), Fraction(0)
    if kind == 2:
        return Fraction(0), b
    if kind == 3:
        root = math.isqrt(5 * b.numerator**2)
        return Fraction((-root if b > 0 else root) + rng.randint(-2, 2), den), b
    return Fraction(_digits(rng) * rng.choice((1, -1)), _digits(rng)), b


def _assert_lowest_terms(s):
    assert s.d > 0 and math.gcd(s.p, s.q, s.d) == 1


def test_surd_against_fraction_pair_reference():
    rng = random.Random(606)
    for case in range(600):
        (a1, b1), (a2, b2) = _random_pair(rng), _random_pair(rng)
        x, y, rx, ry = Surd(a1, b1), Surd(a2, b2), _Ref(a1, b1), _Ref(a2, b2)
        # every third right operand is a bare int or Fraction, coerced by the operator
        if case % 3 == 0:
            y = a2.numerator if case % 2 else a2
            ry = _Ref(y, 0)
        results = [
            (x + y, rx + ry), (y + x, ry + rx), (x - y, rx - ry), (y - x, ry - rx),
            (x * y, rx * ry), (y * x, ry * rx), (-x, -rx), (abs(x), -rx if rx.sign() < 0 else rx),
        ]
        for e in range(-3, 4):
            if e >= 0 or rx.sign() != 0:
                results.append((x**e, rx**e))
        if ry.sign() != 0:
            results += [(x / y, rx * ry.inverse())]
        else:
            with pytest.raises(ZeroDivisionError):
                x / y
        if rx.sign() != 0:
            results += [(y / x, ry * rx.inverse())]
        # an int and a Fraction on the left of every operator, served by the Surd's reflected one
        for r in (a2, a2.numerator):
            rr = _Ref(r, 0)
            results += [(r + x, rr + rx), (r - x, rr - rx), (r * x, rr * rx)]
            if rx.sign() != 0:
                results.append((r / x, rr * rx.inverse()))
            diff = (rr - rx).sign()
            assert (r < x, r <= x, r > x, r >= x) == (diff < 0, diff <= 0, diff > 0, diff >= 0)
            assert (r == x, r != x) == (diff == 0, diff != 0)
        for got, want in results:
            _assert_lowest_terms(got)
            assert (got.a, got.b) == want.pair(), (case, a1, b1, a2, b2)
        diff = (rx - ry).sign()
        assert (x < y, x <= y, x > y, x >= y) == (diff < 0, diff <= 0, diff > 0, diff >= 0)
        assert (y > x, y >= x, y < x, y <= x) == (diff < 0, diff <= 0, diff > 0, diff >= 0)
        assert x.sign() == rx.sign() and x.floor() == rx.floor()


_POWER_BASES = [
    PHI, PHI_BAR, INV_PHI, -INV_PHI_SQUARED, SQRT5, Surd(Fraction(-3, 7), Fraction(2, 5)),
    Surd(Fraction(10**20 + 1, 6), Fraction(-5, 4)), Surd(0, Fraction(1, 3)),
    Surd(Fraction(-2, 3), 0), Surd(-1, 0), Surd(1, 0), Surd(Fraction(7, 10**12), 0), Surd(0, 0),
]


def _repeated_products(step: Surd, count: int):
    """1, step, step*step, ...: `count` powers by one multiplication each."""
    power = Surd(1, 0)
    for _ in range(count):
        yield power
        power = power * step


@pytest.mark.parametrize("base", _POWER_BASES, ids=str)
def test_surd_power_matches_repeated_multiplication(base):
    cases = list(zip(range(301), _repeated_products(base, 301)))
    if base == 0:  # 0 has no negative powers
        for e in (-1, -30):
            with pytest.raises(ZeroDivisionError):
                base**e
    else:
        cases += zip(range(0, -31, -1), _repeated_products(base.inverse(), 31))
    for e, want in cases:
        got = base**e
        assert (got.p, got.q, got.d) == (want.p, want.q, want.d), e
        _assert_lowest_terms(got)
        if base.is_rational:
            assert got == base.a**e


def test_phi_powers_match_lucas_and_fibonacci_recurrences():
    # phi^e = (L(e) + F(e) sqrt5)/2 and phi^-e = (-1)^e (L(e) - F(e) sqrt5)/2, with F and L by plain
    # iteration here, for every |e| < 3000
    f, lu = [0, 1], [2, 1]
    while len(f) < 3000:
        f.append(f[-1] + f[-2])
        lu.append(lu[-1] + lu[-2])
    for e in range(3000):
        for got, want in ((PHI**e, Surd(Fraction(lu[e], 2), Fraction(f[e], 2))),
                          (PHI**-e, Surd(Fraction((-1) ** e * lu[e], 2), Fraction(-((-1) ** e) * f[e], 2)))):
            assert (got.p, got.q, got.d) == (want.p, want.q, want.d), e


def test_surd_one_spelling_per_value():
    halves = Surd(Fraction(2, 4), Fraction(3, 6))
    assert halves == PHI and hash(halves) == hash(PHI)
    assert (halves.p, halves.q, halves.d) == (1, 1, 2)
    assert halves.a == Fraction(1, 2) and halves.b == Fraction(1, 2)
    assert Surd(Fraction(-6, -4), 0) == Surd.from_rational(Fraction(3, 2)) == Surd(3, 0) / 2
    assert PHI + 1 - PHI == Surd(1, 0) and hash(PHI + 1 - PHI) == hash(Surd.from_rational(1))
    assert len({PHI, halves, PHI * 1, INV_PHI + 1, (PHI + 1) / PHI}) == 1
    assert Surd(0, 0) == Surd(Fraction(0, 7), 0) and (Surd(0, 0).p, Surd(0, 0).d) == (0, 1)


def test_surd_pickle_copy_and_frozen():
    import copy
    import dataclasses
    import pickle

    values = [PHI, -INV_PHI_SQUARED, Surd(0, 0), Surd(Fraction(10**40 + 1, 3), Fraction(-7, 9))]
    for s in values:
        pickled = [pickle.loads(pickle.dumps(s, proto)) for proto in range(pickle.HIGHEST_PROTOCOL + 1)]
        for clone in pickled + [copy.copy(s), copy.deepcopy(s)]:
            assert type(clone) is Surd and clone == s and hash(clone) == hash(s) and str(clone) == str(s)
        with pytest.raises(dataclasses.FrozenInstanceError):
            s.p = 3
        with pytest.raises(dataclasses.FrozenInstanceError):
            s.a = Fraction(1)
    with pytest.raises(ZeroDivisionError):
        Surd(0, 0).inverse()
    with pytest.raises(ZeroDivisionError):
        PHI / Surd(0, 0)


@given(st.fractions(), st.fractions())
def test_surd_str_prints_its_parts_as_fraction_str_does(a, b):
    assert str(Surd(a, b)) == f"({a}) + ({b})*sqrt5"


def test_surd_str_and_repr_above_the_int_str_digit_limit():
    # CPython refuses str() of an int of over 4,300 digits; Surd converts its integers in blocks
    big, zeros = 10**5000, "0" * 5000
    assert repr(Surd(big, 1)) == "Surd(p=1" + zeros + ", q=1, d=1)"
    assert str(Surd(big, 1)) == "(1" + zeros + ") + (1)*sqrt5"
    odd = "1" + zeros[1:] + "1"  # 10^5000 + 1, which 3 does not divide
    assert str(Surd(Fraction(-big - 1, 3), Fraction(1, big))) == f"(-{odd}/3) + (1/1{zeros})*sqrt5"
    assert str(Surd(0, Fraction(-big - 1, big))) == f"(0) + (-{odd}/1{zeros})*sqrt5"


def test_surd_str_bytes():
    # recorded from the Fraction-pair Surd; payloads print these strings
    values = [
        PHI, -PHI, PHI_BAR, SQRT5, INV_PHI, INV_PHI_SQUARED, PHI + 1, PHI**10, PHI**-7, PHI**45,
        Surd(0, 0), Surd(Fraction(-3, 4), 0), Surd(0, Fraction(5, 7)), Surd(Fraction(2, 4), Fraction(3, 6)),
        Surd(-7, 3), INV_PHI_SQUARED * 1000, INV_PHI * -999, Surd(Fraction(10**30 + 1, 7), Fraction(-2, 21)),
        Surd(Fraction(1, 3), Fraction(1, 6)) * Surd(Fraction(-2, 5), Fraction(7, 10)), SQRT5.inverse(),
        (PHI - 1) / (PHI + 3), abs(Surd(Fraction(-35, 2), Fraction(7, 2))),
        Surd(Fraction(6, 4), Fraction(-10, 4)) ** 3,
    ]
    assert [str(v) for v in values] == [
        "(1/2) + (1/2)*sqrt5",
        "(-1/2) + (-1/2)*sqrt5",
        "(1/2) + (-1/2)*sqrt5",
        "(0) + (1)*sqrt5",
        "(-1/2) + (1/2)*sqrt5",
        "(3/2) + (-1/2)*sqrt5",
        "(3/2) + (1/2)*sqrt5",
        "(123/2) + (55/2)*sqrt5",
        "(-29/2) + (13/2)*sqrt5",
        "(1268860318) + (567451585)*sqrt5",
        "(0) + (0)*sqrt5",
        "(-3/4) + (0)*sqrt5",
        "(0) + (5/7)*sqrt5",
        "(1/2) + (1/2)*sqrt5",
        "(-7) + (3)*sqrt5",
        "(1500) + (-500)*sqrt5",
        "(999/2) + (-999/2)*sqrt5",
        "(1000000000000000000000000000001/7) + (-2/21)*sqrt5",
        "(9/20) + (1/6)*sqrt5",
        "(0) + (1/5)*sqrt5",
        "(-3/11) + (2/11)*sqrt5",
        "(35/2) + (-7/2)*sqrt5",
        "(144) + (-95)*sqrt5",
    ]


def test_beatty_examples():
    assert [beatty_phi(n) for n in (1, 2, 3)] == [1, 3, 4]
    assert beatty_phi(4) == 6
    assert beatty_phi(30) == 48
    assert [beatty_phi2(n) for n in (1, 2, 3)] == [2, 5, 7]
    assert beatty_phi2(10) == 26
    assert beatty_phi2(30) == 78
    for beatty in (beatty_phi, beatty_phi2):
        with pytest.raises(ValueError, match="^Beatty index must be >= 1$"):
            beatty(0)


@given(st.integers(min_value=1, max_value=10**60))
def test_beatty_phi_matches_isqrt_spelling(n):
    assert beatty_phi(n) == (n + isqrt(5 * n * n)) // 2


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
        assert beatty_phi2(n) == ((PHI + 1) * n).floor()


# -- Fibonacci and Lucas numbers, through GMP and without it ------------------------------------


def _pure_path(mp: pytest.MonkeyPatch) -> None:
    """As where libgmp does not load: fib and lucas double and multiply in Python at every index."""
    mp.setattr(_gmp, "_lib", False)


def _gmp_at_every_index(mp: pytest.MonkeyPatch) -> None:
    """Every pair and every product rule through GMP, from index 0 on."""
    mp.setattr(goldenexact, "_GMP_FROM", 0)


def _on_both_paths(test):
    """Run `test` through GMP at every index (where libgmp loads), then on the pure path.

    Each run starts from an empty memo and gets its own monkeypatch, so the
    test keeps its one id and what one run patches never reaches the other.
    """

    @functools.wraps(test)
    def both(*args, **kwargs):
        for path in (_gmp_at_every_index, _pure_path) if _gmp.available() else (_pure_path,):
            with pytest.MonkeyPatch.context() as mp:
                path(mp)
                mp.setattr(goldenexact, "_memo", (0, 0, 2))
                if "monkeypatch" in kwargs:
                    kwargs["monkeypatch"] = mp
                test(*args, **kwargs)

    return both


def _gmp_calls(monkeypatch) -> list:
    """The indices of `_gmp.fib2` calls and ("mul", j) for `_gmp.mul` calls from here on."""
    calls = []
    fib2, mul = _gmp.fib2, _gmp.mul
    monkeypatch.setattr(_gmp, "fib2", lambda n: calls.append(n) or fib2(n))
    monkeypatch.setattr(_gmp, "mul", lambda a, b: calls.append(("mul", goldenexact._memo[0])) or mul(a, b))
    return calls


def _around(n: int) -> tuple[int, ...]:
    """What one exact-kernel fib item asks for, from an empty memo: a doubling, linear steps, a product."""
    goldenexact._memo = (0, 0, 2)
    return fib(n - 1), fib(n), fib(n + 1), lucas(n), fib(2 * n)


@pytest.mark.skipif(not _gmp.available(), reason="libgmp does not load")
def test_gmp_path_matches_pure_path_within_100_of_the_gmp_index(monkeypatch):
    monkeypatch.setattr(goldenexact, "_memo", (0, 0, 2))
    calls = _gmp_calls(monkeypatch)
    threshold = goldenexact._GMP_FROM
    span = range(threshold - 100, threshold + 101)
    through_gmp = [_around(n) for n in span]
    # GMP serves exactly the pairs and the products from _GMP_FROM on
    pairs = [n - 1 for n in span if n - 1 >= threshold]
    products = [("mul", n) for n in span if n >= threshold]
    assert sorted(calls, key=str) == sorted(pairs + products, key=str)
    _pure_path(monkeypatch)
    assert [_around(n) for n in span] == through_gmp
    first = span[0]
    assert through_gmp[0][:4] == (_TABLE_F[first - 1], _TABLE_F[first], _TABLE_F[first + 1], _TABLE_L[first])


@pytest.mark.skipif(not _gmp.available(), reason="libgmp does not load")
@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_gmp_pair_and_product_match_pure_python(n):
    fn, fn1 = _gmp.fib2(n)
    with pytest.MonkeyPatch.context() as mp:
        _pure_path(mp)
        f, luc = goldenexact._fib_lucas(n)
    assert (fn, fn + 2 * fn1) == (f, luc)
    assert _gmp.mul(f, luc) == f * luc
    with pytest.MonkeyPatch.context() as mp:  # F(2n) by fib's product rule, through GMP from _GMP_FROM on
        mp.setattr(goldenexact, "_memo", (n, f, luc))
        assert fib(2 * n) == f * luc


def _soname_absent(mp: pytest.MonkeyPatch) -> None:
    mp.setattr(_gmp, "SONAME", "libfibword-absent.so.0")


def _limbs_unreadable(mp: pytest.MonkeyPatch) -> None:
    """libgmp loads (where installed), but its limbs are not little-endian words to this process."""
    mp.setattr(sys, "byteorder", "big")


@pytest.mark.parametrize("decline", [_soname_absent, _limbs_unreadable])
def test_results_identical_where_libgmp_does_not_load(monkeypatch, decline):
    threshold = goldenexact._GMP_FROM
    spots = (threshold - 1, threshold, threshold + 1, 8192, 12345, 10**5)
    expected = [_around(n) for n in spots]
    decline(monkeypatch)
    monkeypatch.setattr(_gmp, "_lib", None)

    def find_library(name):  # spawns subprocesses: the binding must never ask it
        raise AssertionError(f"find_library({name!r}) called")

    monkeypatch.setattr(ctypes.util, "find_library", find_library)
    assert [_around(n) for n in spots] == expected
    assert _gmp._lib is False and not _gmp.available()
    assert _gmp.fib2(10) is None and _gmp.mul(2, 3) is None
    assert fib(10**5 + 1) == expected[-1][2]


def test_gmp_binding_edges():
    if not _gmp.available():
        assert _gmp.fib2(5000) is None and _gmp.mul(3, 4) is None
        return
    assert [_gmp.fib2(n) for n in range(5)] == [(0, 1), (1, 0), (1, 1), (2, 1), (3, 2)]
    assert _gmp.fib2(_gmp.ULONG_MAX + 1) is None and _gmp.fib2(-1) is None  # outside C's unsigned long
    full = [2 ** (64 * k) - 1 for k in (1, 2, 5, 40)]  # every limb, the top one too, all ones
    pairs = [(0, 0), (0, 7), (1, 1), (2**64 - 1, 2**64 + 1), (2**64, 2**63), (3**5000, 7**9000)]
    pairs += [(7, 2**2559 + 3)]  # one limb by 40 limbs: mul puts the longer first, whichever order it gets
    pairs += [(a, b) for a in full for b in full]
    pairs += [(0, 3**5000), (0, 2**2560 - 1)]  # no call: mpn_mul takes no operand of 0 limbs
    for a, b in pairs:
        assert _gmp.mul(a, b) == a * b == _gmp.mul(b, a)
    for a in (full[-1], 3**5000, 2**64):  # the same object twice: each side is its own buffer of limbs
        assert _gmp.mul(a, a) == a * a


@_on_both_paths
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


@_on_both_paths
def test_fib_lucas_recurrences():
    for n in range(2, 201):
        assert fib(n) == fib(n - 1) + fib(n - 2)
        assert lucas(n) == lucas(n - 1) + lucas(n - 2)


@_on_both_paths
def test_binet_exact():
    for n in range(201):
        phi_n, bar_n = PHI**n, PHI_BAR**n
        assert (phi_n - bar_n) / SQRT5 == Surd.from_rational(fib(n))
        assert phi_n + bar_n == Surd.from_rational(lucas(n))


# F(0..6001) and L(0..6001) by the plain recurrence: the reference for fib and lucas
_TABLE_F, _TABLE_L = [0, 1], [2, 1]
while len(_TABLE_F) < 6002:
    _TABLE_F.append(_TABLE_F[-1] + _TABLE_F[-2])
    _TABLE_L.append(_TABLE_L[-1] + _TABLE_L[-2])


@_on_both_paths
def test_fib_lucas_match_iteration_to_5000(monkeypatch):
    f, luc = _TABLE_F, _TABLE_L
    # ascending, each call is one linear step from the pair the call before built
    assert [fib(n) for n in range(5001)] == f[:5001]
    assert [lucas(n) for n in range(5001)] == luc[:5001]
    # each call from the pair of n + 2, so doubling builds pair(n) at every n and parity
    doubled = []
    real = goldenexact._fib_lucas
    monkeypatch.setattr(goldenexact, "_fib_lucas", lambda n: doubled.append(n) or real(n))
    for n in range(5001):
        assert lucas(n + 2) == luc[n + 2] and fib(n) == f[n]
        assert fib(n + 2) == f[n + 2] and lucas(n) == luc[n]
    assert sorted(set(doubled)) == list(range(5003))


@_on_both_paths
def test_fib_lucas_identities_at_log_spaced_n():
    spots = sorted({round(10 ** (k / 3)) + s for k in range(19) for s in (0, 1)})
    assert spots[-1] == 10**6 + 1
    for n in spots:
        fn, ln = fib(n), lucas(n)
        before, after = fib(n - 1), fib(n + 1)
        assert fib(2 * n) == fn * ln
        assert before * after - fn * fn == (-1) ** n  # Cassini
        assert ln == before + after


@_on_both_paths
def test_fib_lucas_kernel_op_doubles_once(monkeypatch):
    n = 10**5
    cold = {k: goldenexact._fib_lucas(k) for k in (n - 1, n, n + 1, 2 * n, 2 * n + 1)}
    doubled = []
    real = goldenexact._fib_lucas
    monkeypatch.setattr(goldenexact, "_memo", (0, 0, 2))
    monkeypatch.setattr(goldenexact, "_fib_lucas", lambda k: doubled.append(k) or real(k))
    got = (fib(n - 1), fib(n), fib(n + 1), lucas(n), fib(2 * n))
    assert got == (cold[n - 1][0], cold[n][0], cold[n + 1][0], cold[n][1], cold[2 * n][0])
    # pair(n - 1) by doubling; then linear steps, and F(2n) as a product from pair(n), which stays the memo
    assert doubled == [n - 1] and goldenexact._memo == (n, *cold[n])
    # 2n + 1 has no product rule: lucas builds pair(2n + 1) by doubling, and fib reads it from the memo
    assert (lucas(2 * n + 1), fib(2 * n + 1)) == cold[2 * n + 1][::-1]
    assert doubled == [n - 1, 2 * n + 1] and goldenexact._memo == (2 * n + 1, *cold[2 * n + 1])


_MOVES = ("up", "down", "same", "double", "double+1", "jump")


@_on_both_paths
@given(st.lists(st.tuples(st.sampled_from(_MOVES), st.integers(0, 3000), st.booleans()), max_size=60))
def test_fib_lucas_any_call_sequence_matches_recurrence(steps):
    n = min(goldenexact._memo[0], 6001)
    for move, far, want_lucas in steps:
        if move in ("double", "double+1") and n <= 3000:
            n = 2 * n + (move == "double+1")
        elif move == "up":
            n = min(n + 1, 6001)
        elif move == "down":
            n = max(n - 1, 0)
        elif move != "same":
            n = far
        assert (lucas(n) == _TABLE_L[n]) if want_lucas else (fib(n) == _TABLE_F[n])


@_on_both_paths
def test_fib_lucas_exact_under_interleaving_threads():
    # Each thread walks its own stretch by neighbours and doublings, so the threads keep
    # replacing each other's memo; every answer must still be the recurrence's.
    bad, done = [], []

    def walk(start):
        for n in range(start, start + 600):
            for m in (n, n + 1, n - 1, n, 2 * n, 2 * n + 1):
                if fib(m) != _TABLE_F[m] or lucas(m) != _TABLE_L[m]:
                    bad.append(m)
        done.append(start)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=walk, args=(start,)) for start in (1, 700, 1500, 2300)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert sorted(done) == [1, 700, 1500, 2300] and bad == []


@_on_both_paths
def test_fib_lucas_reject_negative_indices():
    for n in (-1, -2, -(10**6)):
        with pytest.raises(ValueError):
            fib(n)
        with pytest.raises(ValueError):
            lucas(n)


def test_zeckendorf_examples():
    assert zeckendorf_encode(0).bits == ()
    assert zeckendorf_encode(1).bits == (1,)
    assert zeckendorf_encode(4).bits == (1, 0, 1)
    assert zeckendorf_encode(100).bits == (0, 0, 1, 0, 1, 0, 0, 0, 0, 1)


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


def _zeckendorf_verdict_reference(bits):
    """The bit checks ZeckendorfRep made by element-wise generator scans, kept as a reference."""
    if any(b not in (0, 1) for b in bits):
        return "bits must be 0 or 1"
    if any(x == 1 and y == 1 for x, y in zip(bits, bits[1:])):
        return "adjacent 1s in Zeckendorf representation"
    if bits and bits[-1] != 1:
        return "trailing zero bits are not canonical"
    return None


_BIT_LIKE = [0, 1, 1.0, 0.0, True, False, Fraction(1), Fraction(0), 2, -1, 255, 256, 2**70, 0.5, "1", None]


def _check_zeckendorf_parity(bits):
    expected = _zeckendorf_verdict_reference(bits)
    if expected is None:
        assert ZeckendorfRep(bits).bits == bits
    else:
        with pytest.raises(ValueError) as raised:
            ZeckendorfRep(bits)
        assert str(raised.value) == expected, bits


@pytest.mark.parametrize(
    "bits",
    [
        (), (1,), (1.0,), (True, False, True), (1, 0, 1.0), (0, Fraction(1)), (0.0, 1), (2,), (-1,), (0, 2),
        (1, 1), (1, True), (1.0, 1), (1, 0), (1, 0.0), (False,), (1, 0, 1, 0), (2**70,), (256,), (1, 0.5),
        ("1",), (None,), ([1],), (1, 1, 2), (0, 1, 1, 0), (0, 0, 1),
    ],
    ids=repr,
)
def test_zeckendorf_rep_accepts_and_rejects_as_before(bits):
    _check_zeckendorf_parity(bits)


@given(st.lists(st.sampled_from(_BIT_LIKE), max_size=8).map(tuple))
def test_zeckendorf_rep_parity_on_mixed_bits(bits):
    _check_zeckendorf_parity(bits)


@given(st.lists(st.sampled_from(_BIT_LIKE), max_size=8).map(tuple))
def test_zeckendorf_decode_of_any_accepted_bits_is_an_int(bits):
    if _zeckendorf_verdict_reference(bits) is not None:
        return
    value = zeckendorf_decode(bits)
    assert type(value) is int
    assert value == zeckendorf_decode(tuple(int(bit) for bit in bits))


def _assert_encoded_rep_is_valid(m):
    # encode stores its bits without ZeckendorfRep's checks, so check them element-wise here
    rep = zeckendorf_encode(m)
    assert type(rep) is ZeckendorfRep and type(rep.bits) is tuple
    assert all(type(bit) is int for bit in rep.bits)
    assert _zeckendorf_verdict_reference(rep.bits) is None, m
    assert ZeckendorfRep(rep.bits) == rep


def test_zeckendorf_encode_builds_valid_reps_up_to_1e4():
    for m in range(10_001):
        _assert_encoded_rep_is_valid(m)


@given(st.integers(min_value=0, max_value=10**1200))
def test_zeckendorf_encode_builds_valid_reps(m):
    _assert_encoded_rep_is_valid(m)


def test_zeckendorf_decode_validation():
    with pytest.raises(ValueError):
        zeckendorf_decode((1, 1))
    with pytest.raises(ValueError):
        zeckendorf_decode((1, 0))
    with pytest.raises(ValueError):
        ZeckendorfRep((0, 2))
    with pytest.raises(ValueError):
        zeckendorf_encode(-1)


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


def _surd_decimal_reference(s: Surd, places: int) -> str:
    """The Surd-arithmetic renderer that surd_decimal replaced, kept as a reference."""
    if s.is_rational:
        return fraction_decimal(s.a, places)
    scaled = abs(s) * (10**places)
    q = scaled.floor()
    if (scaled - q - Fraction(1, 2)).sign() > 0:
        q += 1
    digits = str(q).rjust(places + 1, "0")
    text = digits if places == 0 else f"{digits[:-places]}.{digits[-places:]}"
    return ("-" if s.sign() < 0 and q else "") + text


_SIXTY_DIGITS = st.integers(min_value=-(10**60 - 1), max_value=10**60 - 1)


@st.composite
def _rendered_surds(draw):
    """(a + b*sqrt5)/den over signs and 60-digit parts; a is within 2 of -b*sqrt5 half the time."""
    b = draw(_SIXTY_DIGITS)
    den = draw(st.integers(min_value=1, max_value=10**60))
    if b and draw(st.booleans()):
        root = isqrt(5 * b * b)
        a = (-root if b > 0 else root) + draw(st.integers(min_value=-2, max_value=2))
    else:
        a = draw(_SIXTY_DIGITS)
    return Surd(Fraction(a, den), Fraction(b, den))


@given(_rendered_surds(), st.integers(min_value=0, max_value=2000))
def test_surd_decimal_matches_surd_arithmetic_reference(s, places):
    assert surd_decimal(s, places) == _surd_decimal_reference(s, places)


def test_operators_read_rational_operands_without_building_surds(monkeypatch):
    built = []
    build, init = goldenexact._surd, Surd.__init__

    def counted_surd(p, q, d):
        built.append((p, q, d))
        return build(p, q, d)

    def counted_init(self, a, b):
        built.append((a, b))
        init(self, a, b)

    monkeypatch.setattr(goldenexact, "_surd", counted_surd)
    monkeypatch.setattr(Surd, "__init__", counted_init)
    for h in (Fraction(1, 2), Fraction(-7, 3), 2, 0, Fraction(10**40 + 1, 3)):
        # a comparison or an equality with an int or Fraction builds nothing (1 < PHI < 2)
        above = h >= 2
        assert (PHI < h, h <= PHI, PHI > h, h >= PHI) == (above, not above, not above, above)
        assert (PHI == h, h == PHI, PHI != h) == (False, False, True)
        assert built == []
        # an arithmetic result is the one Surd built
        wants = Surd(h, 0) - PHI, INV_PHI / 3
        for result, want in zip((lambda: h - PHI, lambda: Fraction(1, 3) / PHI), wants):
            built.clear()
            value = result()
            assert len(built) == 1 and value == want
        built.clear()
    # and the counters do see a Surd built by its constructor: the two built here
    assert (PHI == 2, 2 == PHI, Surd(2, 0) == 2, Surd(Fraction(4, 2), 0) == Fraction(2)) == (False, False, True, True)
    assert built == [(2, 0), (Fraction(2), 0)]


def test_rendering_and_powers_build_no_temporary_surds(monkeypatch):
    calls = []
    build = goldenexact._surd

    def counted(p, q, d):
        calls.append((p, q, d))
        return build(p, q, d)

    operands = [PHI, -INV_PHI_SQUARED, Surd(Fraction(-3, 7), Fraction(2, 5)), PHI**300]
    phi_500 = Surd(lucas(500), fib(500)) / 2
    monkeypatch.setattr(goldenexact, "_surd", counted)
    for s in operands:
        for places in (0, 6, 400):
            surd_decimal(s, places)
    assert calls == []  # an irrational value is rendered from its integer triple alone
    power = PHI**500
    assert len(calls) == 1 and (power.p, power.q, power.d) == (phi_500.p, phi_500.q, phi_500.d)
    for s in operands:
        for exponent in (-1, -2, -500):
            calls.clear()
            power = s**exponent
            assert len(calls) == 1 and power * s**-exponent == 1
    # a quotient is one triple, from a Surd or a rational dividend alike
    for quotient in (lambda: PHI / INV_PHI_SQUARED, lambda: 3 / PHI):
        calls.clear()
        value = quotient()
        assert len(calls) == 1
    assert value == 3 * INV_PHI and PHI / INV_PHI_SQUARED == PHI**3


# -- the fixed-point sqrt(5) pair and the shared Zeckendorf weights ---------------------------


def _floor_isqrt_spelling(p, q, d):
    """floor((p + q*sqrt5)/d) by math.isqrt on 5 q^2, the spelling the fixed-point sqrt(5) replaced."""
    root = math.isqrt(5 * q * q)
    return (p + root) // d if q >= 0 else (p - root - 1) // d


def _pell_denominators(most_bits):
    """q with p + q*sqrt5 = (2 + sqrt5)^k, so p^2 - 5 q^2 = -+1: the q whose q*sqrt5 lies nearest an integer."""
    p, q = 2, 1
    while q.bit_length() <= most_bits:
        yield q
        p, q = 2 * p + 5 * q, p + 2 * q


def _level(q):
    """K of the pair a floor with this q needs: the least power of two above 2 bits(q) + 3."""
    return 1 << (2 * q.bit_length() + 3).bit_length()


_EMPTY_PAIR = (0, 2)
_WIDEST_PAIR = (1 << 17, math.isqrt(5 << (2 << 17)))  # wider than every level these tests reach


def test_fixed_point_floor_on_both_sides_of_every_level(monkeypatch):
    # The bit lengths where the level K steps up, from K = 8 to the step past K = 2^15; at each,
    # the q on both sides and their neighbours, against math.isqrt, read once from an empty pair,
    # which the floor widens to q's level, and once as a shift of a wider pair.
    edges = [bits for bits in range(1, 16_383) if _level((1 << bits) - 1) != _level(1 << bits)]
    assert [_level(1 << bits) for bits in edges] == [2**j for j in range(4, 17)]
    roots = {2**j: math.isqrt(5 << 2 ** (j + 1)) for j in range(3, 17)}
    rng = random.Random(22)
    checked = set()
    for bits in [1, 2, *edges]:
        for q in {(1 << bits) - 2, (1 << bits) - 1, 1 << bits, (1 << bits) + 1, rng.getrandbits(bits) | 1}:
            if q < 1:
                continue
            k = _level(q)
            assert (1 << k) > 8 * q * q
            for p, d in ((0, 1), (rng.getrandbits(bits + 2), rng.randrange(1, 1 << 40)), (-3, 7)):
                for signed_q in (q, -q):
                    expected = _floor_isqrt_spelling(p, signed_q, d)
                    monkeypatch.setattr(goldenexact, "_sqrt5", _EMPTY_PAIR)
                    assert goldenexact._floor(p, signed_q, d) == expected
                    assert goldenexact._sqrt5 == (k, roots[k])
                    monkeypatch.setattr(goldenexact, "_sqrt5", _WIDEST_PAIR)
                    assert goldenexact._floor(p, signed_q, d) == expected
                    assert goldenexact._sqrt5 is _WIDEST_PAIR
            checked.add(k)
    assert checked == {2**j for j in range(3, 17)}


def test_fixed_point_floor_at_every_bit_length():
    # The product takes the top 2 bits(q) + 3 bits of the level, a precision that steps with
    # every bit length of q: the q on both ends of each length up to 4,096 bits, against math.isqrt.
    rng = random.Random(23)
    for bits in range(1, 4097):
        for q in {1 << (bits - 1), (1 << bits) - 1, rng.getrandbits(bits) | 1 << (bits - 1)}:
            for p, d in ((0, 1), (rng.getrandbits(bits + 2), rng.randrange(1, 1 << 40))):
                assert goldenexact._floor(p, q, d) == _floor_isqrt_spelling(p, q, d)
                assert goldenexact._floor(p, -q, d) == _floor_isqrt_spelling(p, -q, d)


def test_fixed_point_floor_where_q_sqrt5_is_nearest_an_integer(monkeypatch):
    # 5 q^2 - f^2 = 1 or -1 is where the truncation comes closest to crossing: every such q up to
    # 1,024 bits, and past that the last one below and the first one above each level's edge.
    pell = list(_pell_denominators(16_384))
    chosen = {q for q in pell if q.bit_length() <= 1024}
    chosen.update(q for q, after in zip(pell, pell[1:]) if _level(q) != _level(after))
    chosen.update(after for q, after in zip(pell, pell[1:]) if _level(q) != _level(after))
    assert {_level(q) for q in chosen} == {2**j for j in range(3, 17)}
    for q in chosen:
        for near in (q - 1, q, q + 1):
            if near >= 1:
                root = math.isqrt(5 * near * near)
                for pair in (_EMPTY_PAIR, _WIDEST_PAIR):  # built at near's level, or shifted down
                    monkeypatch.setattr(goldenexact, "_sqrt5", pair)
                    assert goldenexact._floor(0, near, 1) == root
                    assert goldenexact._floor(0, -near, 1) == -root - 1
                    assert goldenexact._floor(1, near, 2) == (1 + root) // 2


_SIX_HUNDRED_DIGITS = st.integers(min_value=-(10**600), max_value=10**600)


@given(_SIX_HUNDRED_DIGITS.filter(bool), st.integers(min_value=-2, max_value=2), st.integers(1, 10**600))
def test_sign_and_floor_near_cancelling_up_to_1e600(b, offset, den):
    # a within 2 of -b*sqrt5, so a + b*sqrt5 is as close to zero as integers of this size allow
    root = math.isqrt(5 * b * b)
    a = (-root if b > 0 else root) + offset
    s = Surd(Fraction(a, den), Fraction(b, den))
    assert s.floor() == _floor_isqrt_spelling(s.p, s.q, s.d)
    # a and b have opposite signs, so a - b*sqrt5 has the sign of a, and (a + b*sqrt5)(a - b*sqrt5)
    # is the norm a^2 - 5 b^2
    norm = a * a - 5 * b * b
    assert s.sign() == ((norm > 0) - (norm < 0)) * (1 if a > 0 else -1)
    assert int_surd_sign(a, b) == oracle.surd_sign(a, b) == s.sign()
    assert int_surd_sign(-a, -b) == oracle.surd_sign(-a, -b) == -s.sign()


def _operands(digits):
    """(p, q, d) with q of `digits` digits and |p|, d below 10^digits, d > 0; seeded by the size."""
    rng = random.Random(digits)
    p, q = rng.randrange(-(10**digits), 10**digits), rng.randrange(10 ** (digits - 1), 10**digits)
    return p, q, rng.randrange(1, 10**digits)


def _kernel_answers(p, q, d):
    s = Surd(Fraction(p, d), Fraction(-q, 7))  # (7p - dq*sqrt5)/7d
    floors = goldenexact.beatty_floors(q, q + 20)
    floor_q, floor_minus_q = goldenexact._floor(p, q, d), goldenexact._floor(p, -q, d)
    return floor_q, floor_minus_q, s.floor(), s.sign(), surd_decimal(s, 20), floors


def _reference_answers(p, q, d):
    floors = [(m + math.isqrt(5 * m * m)) >> 1 for m in range(q, q + 20)]
    a, b, den = 7 * p, -d * q, 7 * d
    return (
        _floor_isqrt_spelling(p, q, d),
        _floor_isqrt_spelling(p, -q, d),
        _floor_isqrt_spelling(a, b, den),
        oracle.surd_sign(a, b),
        oracle.surd_decimal(a, b, den, 20),
        floors,
    )


def test_floors_and_renderings_build_only_wider_pairs(monkeypatch):
    # Increasing, decreasing and shuffled operand sizes, each from an empty pair: every isqrt build
    # is wider than the one before it, and every answer equals its reference whatever the order.
    sizes = [1, 2, 5, 12, 30, 60, 150, 300, 600, 1200, 2500]
    shuffled = sizes[:]
    random.Random(2501).shuffle(shuffled)
    for order in (sizes, sizes[::-1], shuffled):
        builds = []  # the bit length of each isqrt argument
        monkeypatch.setattr(goldenexact, "_sqrt5", _EMPTY_PAIR)
        monkeypatch.setattr(goldenexact, "isqrt", lambda x: builds.append(x.bit_length()) or math.isqrt(x))
        for digits in order:
            operands = _operands(digits)
            assert _kernel_answers(*operands) == _reference_answers(*operands)
            if digits == max(sizes):
                widest_builds = len(builds)
        assert builds == sorted(set(builds)) and builds
        k, root = goldenexact._sqrt5
        assert builds[-1] == (5 << 2 * k).bit_length() and root == math.isqrt(5 << 2 * k)
        if order[0] == max(sizes):
            assert len(builds) == widest_builds  # every floor after the widest size's is a shift


def _zeckendorf_reference(m):
    """Greedy Zeckendorf bits from weights made here by the plain recurrence."""
    weights, a, b = [], 1, 2
    while a <= m:
        weights.append(a)
        a, b = b, a + b
    bits = []
    for w in reversed(weights):
        bits.append(int(w <= m))
        m -= w * bits[-1]
    return tuple(reversed(bits))


# F(1025) is the last weight the shared tuple keeps, F(1026) the first it leaves to the caller
_ZECKENDORF_VALUES = [0, 1, 2, 3, 4, 7, 100, 10**59 + 7, 10**214, 10**300 + 1]
_ZECKENDORF_VALUES += [_TABLE_F[1025] - 1, _TABLE_F[1025], _TABLE_F[1026], _TABLE_F[1026] + 1]


def test_zeckendorf_same_with_cold_and_warm_weights(monkeypatch):
    cold = []
    for m in _ZECKENDORF_VALUES:
        monkeypatch.setattr(goldenexact, "_weights", (1, 2))
        cold.append(zeckendorf_encode(m).bits)
    assert cold == [_zeckendorf_reference(m) for m in _ZECKENDORF_VALUES]
    big = 10**999 + 12345
    assert zeckendorf_decode(zeckendorf_encode(big)) == big  # a 1,000-digit call leaves the tuple warm
    assert len(goldenexact._weights) == goldenexact._WEIGHTS_KEPT
    assert [zeckendorf_encode(m).bits for m in _ZECKENDORF_VALUES] == cold
    for m, bits in zip(_ZECKENDORF_VALUES, cold):
        assert zeckendorf_decode(bits) == m
        assert zeckendorf_decode(tuple(map(bool, bits))) == m
        assert zeckendorf_decode(tuple(map(float, bits))) == m


def test_zeckendorf_decode_past_the_shared_weights(monkeypatch):
    big = 10**9999 + 1
    rep = zeckendorf_encode(big)  # 47,838 weights, only the first _WEIGHTS_KEPT of them kept
    assert len(goldenexact._weights) == goldenexact._WEIGHTS_KEPT < len(rep.bits)
    assert zeckendorf_decode(rep) == big
    monkeypatch.setattr(goldenexact, "_weights", (1, 2))
    assert zeckendorf_decode(rep) == big and goldenexact._weights == (1, 2)  # decoding never grows it


def _decimal_reference(numerator: int, denominator: int, places: int) -> str:
    """numerator/denominator rounded half-even to `places` places by the decimal module, no signed zero."""
    import decimal

    digits = places + abs(numerator).bit_length() // 3 + 10  # a bit is under a third of a digit
    context = decimal.Context(prec=digits, rounding=decimal.ROUND_HALF_EVEN, Emax=10**9, Emin=-(10**9))
    quotient = context.divide(decimal.Decimal(numerator), decimal.Decimal(denominator))
    text = f"{quotient.quantize(decimal.Decimal(1).scaleb(-places), context=context):f}"
    return text[1:] if text.startswith("-") and not text.strip("-0.") else text


def _phi_reference(places: int) -> str:
    """phi to `places` places: round(phi 10^k) = floor((10^k + 1 + isqrt(5 10^2k)) / 2), as decimal digits."""
    scale = 10**places
    return _decimal_reference((scale + 1 + math.isqrt(5 * scale * scale)) // 2, scale, places)


def test_renderers_work_above_the_int_str_digit_limit(monkeypatch):
    # CPython refuses str() of an int of over 4,300 digits; the renderers convert in blocks instead
    monkeypatch.setattr(goldenexact, "_sqrt5", goldenexact._sqrt5)  # restore the narrower pair after
    assert fraction_decimal(Fraction(1, 7), 5000) == _decimal_reference(1, 7, 5000)
    assert surd_decimal(PHI, 5000) == _phi_reference(5000)
    assert fraction_decimal(Fraction(1, 7), 10**5) == _decimal_reference(1, 7, 10**5)
    assert fraction_decimal(Fraction(-22, 7), 10**5) == _decimal_reference(-22, 7, 10**5)
    phi = _phi_reference(10**5)
    assert surd_decimal(PHI, 10**5) == phi
    assert surd_decimal(-PHI, 10**5) == "-" + phi
    huge = 10**100_000 + 12345
    assert fraction_decimal(Fraction(huge, 3), 2) == _decimal_reference(huge, 3, 2)
    assert fraction_decimal(huge, 0) == _decimal_reference(huge, 1, 0)


def test_renderers_at_the_int_str_digit_limit(monkeypatch):
    # the rendered integer, the value times 10^places, crosses 4,300 digits and the one-`str` bound
    monkeypatch.setattr(goldenexact, "_sqrt5", goldenexact._sqrt5)
    for places in [*range(4205, 4225), *range(4290, 4310), 8000, 8001, 16_000]:
        assert fraction_decimal(Fraction(1, 7), places) == _decimal_reference(1, 7, places), places
        assert fraction_decimal(Fraction(-10**places + 1, 3), places) == _decimal_reference(
            -(10**places) + 1, 3, places
        ), places
        assert surd_decimal(PHI, places) == _phi_reference(places), places
    for digits in (4214, 4215, 4216, 4299, 4300, 4301):
        for value in (10 ** (digits - 1), 10**digits - 1, -(10**digits - 1)):
            assert fraction_decimal(value, 0) == _decimal_reference(value, 1, 0)
            assert fraction_decimal(Fraction(value, 10**6), 6) == _decimal_reference(value, 10**6, 6)


@given(st.integers(min_value=0, max_value=10**1200))
def test_zeckendorf_matches_reference(m):
    rep = zeckendorf_encode(m)
    assert rep.bits == _zeckendorf_reference(m)
    assert zeckendorf_decode(rep) == m


def test_kernel_tables_exact_under_interleaving_threads(monkeypatch):
    # Eight threads, each at its own operand size, start from an empty sqrt(5) pair and weight tuple
    # and keep widening and reading them together; every answer must match its reference.
    monkeypatch.setattr(goldenexact, "_sqrt5", (0, 2))
    monkeypatch.setattr(goldenexact, "_weights", (1, 2))
    bad, done = [], []

    def work(digits):
        rng = random.Random(digits)
        for _ in range(40):
            q = rng.randrange(10 ** (digits - 1), 10**digits)
            p, d = rng.randrange(-(10**digits), 10**digits), rng.randrange(1, 10**digits)
            if goldenexact._floor(p, q, d) != _floor_isqrt_spelling(p, q, d):
                bad.append(("floor", digits, q))
            start = rng.randrange(1, 10**digits)
            floors = goldenexact.beatty_floors(start, start + 50)
            if floors != [(m + math.isqrt(5 * m * m)) >> 1 for m in range(start, start + 50)]:
                bad.append(("beatty", digits, start))
            rep = zeckendorf_encode(q)
            if rep.bits != _zeckendorf_reference(q) or zeckendorf_decode(rep) != q:
                bad.append(("zeckendorf", digits, q))
        done.append(digits)

    sizes = [1, 5, 20, 60, 150, 300, 600, 1000]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(digits,)) for digits in sizes]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert sorted(done) == sizes and bad == []
