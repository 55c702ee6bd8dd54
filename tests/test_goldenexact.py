import math
import random
import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fibword import goldenexact
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
    assert 3 * PHI == PHI * 3 == PHI + PHI + PHI and 1 + PHI == PHI + 1
    for bad in (0.5, "1", None):
        with pytest.raises(TypeError):
            PHI + bad
        with pytest.raises(TypeError):
            PHI < bad


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
        for got, want in results:
            _assert_lowest_terms(got)
            assert (got.a, got.b) == want.pair(), (case, a1, b1, a2, b2)
        diff = (rx - ry).sign()
        assert (x < y, x <= y, x > y, x >= y) == (diff < 0, diff <= 0, diff > 0, diff >= 0)
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
        assert beatty_phi2(n) == ((PHI + 1) * n).floor()


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


# F(0..6001) and L(0..6001) by the plain recurrence: the reference for fib and lucas
_TABLE_F, _TABLE_L = [0, 1], [2, 1]
while len(_TABLE_F) < 6002:
    _TABLE_F.append(_TABLE_F[-1] + _TABLE_F[-2])
    _TABLE_L.append(_TABLE_L[-1] + _TABLE_L[-2])


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


def test_fib_lucas_identities_at_log_spaced_n():
    spots = sorted({round(10 ** (k / 3)) + s for k in range(19) for s in (0, 1)})
    assert spots[-1] == 10**6 + 1
    for n in spots:
        fn, ln = fib(n), lucas(n)
        before, after = fib(n - 1), fib(n + 1)
        assert fib(2 * n) == fn * ln
        assert before * after - fn * fn == (-1) ** n  # Cassini
        assert ln == before + after


def test_fib_lucas_kernel_op_doubles_once(monkeypatch):
    n = 10**5
    cold = {k: goldenexact._fib_lucas(k) for k in (n - 1, n, n + 1, 2 * n, 2 * n + 1)}
    doubled = []
    real = goldenexact._fib_lucas
    monkeypatch.setattr(goldenexact, "_memo", (0, 0, 2))
    monkeypatch.setattr(goldenexact, "_fib_lucas", lambda k: doubled.append(k) or real(k))
    got = (fib(n - 1), fib(n), fib(n + 1), lucas(n), fib(2 * n), lucas(2 * n + 1), fib(2 * n + 1))
    want = (cold[n - 1][0], cold[n][0], cold[n + 1][0], cold[n][1], cold[2 * n][0])
    assert got == (*want, cold[2 * n + 1][1], cold[2 * n + 1][0])
    # pair(n - 1) by doubling; then linear steps, and products from pair(n), which stays the memo
    assert doubled == [n - 1] and goldenexact._memo == (n, *cold[n])


_MOVES = ("up", "down", "same", "double", "double+1", "jump")


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
