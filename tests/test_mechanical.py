from fractions import Fraction
from functools import lru_cache
from itertools import chain
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fibword import mechanical, morphism
from fibword.goldenexact import (
    INV_PHI,
    INV_PHI_SQUARED,
    Surd,
    beatty_floors,
    beatty_phi,
    beatty_phi2,
    fib,
    fraction_decimal,
    surd_decimal,
    zeckendorf_encode,
)
from fibword.claims import morphic_mechanical_agree, verify_beatty_partition
from fibword.mechanical import (
    DensityReport,
    count_ones_upto,
    density_report,
    max_discrepancy,
    mechanical_prefix,
    ones_counts,
)
from fibword.morphism import fibonacci_morphism, fixed_point_prefix
from oracle_reference import oracle

PREFIX_13 = "0100101001001"


def concat_recurrence_prefix(n: int) -> str:
    """Independent construction: s1 = 0, s2 = 01, s_k = s_{k-1} s_{k-2}."""
    prev, cur = "0", "01"
    while len(cur) < n:
        prev, cur = cur, cur + prev
    return cur[:n]


def test_prefix_examples():
    assert mechanical_prefix(13).text == PREFIX_13
    assert mechanical_prefix(1).text == "0"
    assert mechanical_prefix(5).text == "01001"
    with pytest.raises(ValueError):
        mechanical_prefix(0)


def test_prefix_against_concat_recurrence():
    assert mechanical_prefix(10_000).text == concat_recurrence_prefix(10_000)


def test_count_ones_examples():
    assert count_ones_upto(13) == 5
    assert count_ones_upto(1) == 0
    assert count_ones_upto(2) == 1
    with pytest.raises(ValueError):
        count_ones_upto(0)


def _count_ones_isqrt_spelling(n):
    """floor((n+1)/phi^2) = (3N - isqrt(5 N^2) - 1) div 2 with N = n + 1, from (n+1)/phi^2 = (n+1)(3 - sqrt5)/2."""
    big_n = n + 1
    return (3 * big_n - isqrt(5 * big_n * big_n) - 1) // 2


def test_count_ones_matches_isqrt_spelling_up_to_a_million():
    assert list(map(count_ones_upto, range(1, 10**6 + 1))) == list(
        map(_count_ones_isqrt_spelling, range(1, 10**6 + 1))
    )


@given(st.integers(min_value=1, max_value=10**60))
def test_count_ones_matches_isqrt_spelling(n):
    assert count_ones_upto(n) == _count_ones_isqrt_spelling(n)


def test_count_ones_matches_scan():
    text = mechanical_prefix(10_000).text
    running = 0
    for n in range(1, 10_001):
        running += text[n - 1] == "1"
        assert count_ones_upto(n) == running


def test_density_report_examples():
    report = density_report(13)
    assert report.count1 == 5 and report.count0 == 8
    assert report.density1 == Fraction(5, 13)
    assert report.decimals()["density1"] == "0.384615"
    assert report.density0 + report.density1 == 1
    assert report.deviation1 == 5 - INV_PHI_SQUARED * 13

    first = density_report(1)
    assert first.count1 == 0
    assert first.deviation1 == -INV_PHI_SQUARED
    with pytest.raises(ValueError):
        density_report(0)


def test_density_report_matches_coerced_surd_arithmetic():
    # the figures as Surd arithmetic on coerced ints builds them, and as the CLI renders them
    for n in [*range(1, 300), 10**6 + 1, 2**61 - 1, 10**59 + 7, 10**60 - 1, 10**1999 + 3]:
        report = density_report(n)
        target1 = INV_PHI_SQUARED * n
        deviation1 = Surd.from_rational(report.count1) - target1
        for got, want in ((report.target1, target1), (report.deviation1, deviation1)):
            assert type(got) is Surd and (got.p, got.q, got.d) == (want.p, want.q, want.d), n
            assert str(got) == str(want)
        assert (report.count0, report.count1) == (n - report.count1, count_ones_upto(n))
        assert (report.density0, report.density1) == (Fraction(report.count0, n), Fraction(report.count1, n))


def test_density_limits_render():
    # the limiting densities themselves, for reference rendering
    from fibword.goldenexact import surd_decimal

    assert surd_decimal(INV_PHI_SQUARED, 6) == "0.381966"
    assert surd_decimal(INV_PHI, 6) == "0.618034"


def _ones_reference(n):
    """floor((n+1)/phi^2) = 2N - 1 - floor(N*phi) with N = n + 1, by math.isqrt."""
    big_n = n + 1
    return 2 * big_n - 1 - (big_n + isqrt(5 * big_n * big_n)) // 2


def _round_irrational_reference(a: Fraction, b: Fraction, places: int) -> int:
    """round((a + b*sqrt5) * 10^places) for b != 0, by Fraction and math.isqrt; sqrt5 is irrational, so no tie."""
    shifted, slope = a * 10**places + Fraction(1, 2), b * 10**places  # floor(shifted + slope*sqrt5)
    den = shifted.denominator * slope.denominator
    top, root = (shifted * den).numerator, (slope * den).numerator  # both denominators are 1
    root_floor = isqrt(5 * root * root) if root > 0 else -isqrt(5 * root * root) - 1
    return (top + root_floor) // den


def _fixed_point_reference(value: int, places: int) -> str:
    whole, fraction = divmod(abs(value), 10**places)
    text = f"{whole}.{fraction:0{places}d}" if places else str(whole)
    return "-" + text if value < 0 else text


def _decimals_reference(n: int, places: int) -> dict[str, str]:
    """density_report(n).decimals(places) from Fraction (round-half-even) and math.isqrt alone."""
    ones, scale = _ones_reference(n), 10**places
    rounded = {
        "density0": round(Fraction((n - ones) * scale, n)),
        "density1": round(Fraction(ones * scale, n)),
        "target1": _round_irrational_reference(Fraction(3 * n, 2), Fraction(-n, 2), places),
        "deviation1": _round_irrational_reference(Fraction(2 * ones - 3 * n, 2), Fraction(n, 2), places),
    }
    return {name: _fixed_point_reference(value, places) for name, value in rounded.items()}


def test_decimals_match_reference_for_every_small_n():
    # every n <= 3000 at places 0..12, which holds every tie count1 * 10^k / n = m + 1/2 of that range
    ties = 0
    for n in range(1, 3001):
        report = density_report(n)
        for places in range(13):
            assert report.decimals(places) == _decimals_reference(n, places), (n, places)
            ties += (2 * report.count1 * 10**places) % (2 * n) == n
    assert ties > 0
    # n = 2 at places 0 is the tie that 10^0 = 1, an odd scale, cannot take as 1 - density1
    assert density_report(2).decimals(0) == {"density0": "0", "density1": "0", "target1": "1", "deviation1": "0"}


@given(st.integers(min_value=1, max_value=10**2000 - 1), st.integers(min_value=0, max_value=2000))
@settings(deadline=None)
def test_decimals_match_reference_up_to_the_cli_caps(n, places):
    assert density_report(n).decimals(places) == _decimals_reference(n, places)


def _decimals_of_properties(report: DensityReport, places: int) -> dict[str, str]:
    return {
        "density0": fraction_decimal(report.density0, places),
        "density1": fraction_decimal(report.density1, places),
        "target1": surd_decimal(report.target1, places),
        "deviation1": surd_decimal(report.deviation1, places),
    }


@pytest.mark.parametrize("places", [0, 1, 6, 400])
@pytest.mark.parametrize("n", [1, 2, 13, 10**60 + 7])  # n = 2 at places 0 is the tie
def test_decimals_render_the_reports_own_properties(n, places):
    report = density_report(n)
    assert report == DensityReport(n, count_ones_upto(n)) and list(vars(report)) == ["n", "count1"]
    assert report.decimals(places) == _decimals_of_properties(report, places)


@given(st.integers(min_value=-3, max_value=10**80), st.integers(min_value=-(10**80), max_value=10**80))
def test_decimals_agree_with_the_properties_of_any_two_fields(n, count1):
    # a report of any count a prefix can hold, true or not, renders what its properties are
    if not (n >= 1 and 0 <= count1 <= n):  # and a pair no prefix has is refused
        with pytest.raises(ValueError):
            DensityReport(n, count1)
        return
    report = DensityReport(n, count1)
    assert report.count0 + report.count1 == n and report.deviation1 == report.count1 - report.target1
    for places in (0, 3):
        assert report.decimals(places) == _decimals_of_properties(report, places)


def test_report_refuses_pairs_no_prefix_has():
    for n in (0, -1, -(10**40)):  # the message density_report(n) gives
        with pytest.raises(ValueError, match="prefix length must be >= 1"):
            DensityReport(n, 0)
        with pytest.raises(ValueError, match="prefix length must be >= 1"):
            density_report(n)
    for n, count1 in ((5, 9), (5, 6), (5, -1), (1, 2), (10**40, 10**40 + 1)):
        with pytest.raises(ValueError, match="ones count must lie in 0..n"):
            DensityReport(n, count1)
    assert DensityReport(5, 0).decimals(3)["density1"] == "0.000"
    assert DensityReport(5, 5).decimals(3) == {
        "density0": "0.000", "density1": "1.000", "target1": "1.910", "deviation1": "3.090"
    }


def test_decimals_reject_negative_places():
    with pytest.raises(ValueError, match="places must be >= 0"):
        density_report(13).decimals(-1)


def test_max_discrepancy_examples():
    value, at = max_discrepancy(1)
    assert value == INV_PHI_SQUARED and at == 1
    value, at = max_discrepancy(13)
    assert value == Surd(Fraction(14), Fraction(-6)) and at == 12
    with pytest.raises(ValueError):
        max_discrepancy(0)


SWEEP_LIMIT = 10**6


@lru_cache(maxsize=None)
def sweep_records(limit):
    """The reference sweep: every n <= limit where |count1(n) - n/phi^2| beats all smaller n.

    Integers only: twice the deviation at n is p + q*sqrt5 with p = 2*count1 - 3n and q = n,
    and sizes compare through their squares (p^2 + 5q^2) + 2pq*sqrt5, signed by the benchmark's
    fibword-free `surd_sign`. Returns (n, size) pairs.
    """
    records = []
    best_sq = None
    for n, count1 in enumerate(ones_counts(limit), 1):
        p, q = 2 * count1 - 3 * n, n
        sq = (p * p + 5 * q * q, 2 * p * q)
        if best_sq is None or oracle.surd_sign(sq[0] - best_sq[0], sq[1] - best_sq[1]) > 0:
            best_sq = sq
            records.append((n, abs(Surd(Fraction(p, 2), Fraction(q, 2)))))
    return tuple(records)


def swept_max_discrepancy(limit):
    """(sup, argmax) over 1 <= n <= limit, read off the reference sweep."""
    return next((value, n) for n, value in reversed(sweep_records(SWEEP_LIMIT)) if n <= limit)


def test_max_discrepancy_records_are_odd_fibonacci_minus_one():
    # The sup only moves at its records, so equal records mean equal results for every limit.
    odd_fib_minus_one = [fib(k) - 1 for k in range(3, 40, 2) if fib(k) - 1 <= SWEEP_LIMIT]
    records = sweep_records(SWEEP_LIMIT)
    assert [n for n, _ in records] == odd_fib_minus_one
    for (n, value), (after, _) in zip(records, records[1:] + ((SWEEP_LIMIT + 1, None),)):
        assert max_discrepancy(n) == max_discrepancy(after - 1) == (value, n)


@pytest.mark.parametrize("limit", [1, 2, 3, 4])
def test_max_discrepancy_small_limits_match_sweep(limit):
    n, value = sweep_records(limit)[-1]
    assert max_discrepancy(limit) == (value, n)
    assert (value, n) == ((INV_PHI_SQUARED, 1) if limit < 4 else (4 * INV_PHI_SQUARED - 1, 4))


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=SWEEP_LIMIT))
def test_max_discrepancy_matches_sweep(limit):
    value, n = max_discrepancy(limit)
    assert (value, n) == swept_max_discrepancy(limit)
    assert type(value) is Surd and type(n) is int


def test_max_discrepancy_at_the_sweep_cap():
    value, n = max_discrepancy(10**7)
    assert n == fib(35) - 1 == 9_227_464
    assert value == n * INV_PHI_SQUARED - count_ones_upto(n)
    assert (value - 1).sign() < 0


def test_max_discrepancy_against_interval_oracle():
    # independent: bracket sqrt5 rationally and compare |count1(n) - n/phi^2|
    sqrt5_lo = Fraction(isqrt(5 * 10**60), 10**30)
    sqrt5_hi = sqrt5_lo + Fraction(1, 10**30)
    text = mechanical_prefix(500).text

    def deviation_bracket(n, count):
        lo = count - Fraction(n) * (3 - sqrt5_lo) / 2
        hi = count - Fraction(n) * (3 - sqrt5_hi) / 2
        lo, hi = min(lo, hi), max(lo, hi)
        return (max(abs(lo), abs(hi)), min(abs(lo), abs(hi)))

    best_bracket = (Fraction(0), Fraction(0))
    best_n = 0
    running = 0
    for n in range(1, 501):
        running += text[n - 1] == "1"
        upper, lower = deviation_bracket(n, running)
        if lower > best_bracket[0]:  # strictly dominates previous best
            best_bracket = (upper, lower)
            best_n = n
    value, at = max_discrepancy(500)
    assert at == best_n
    assert Surd.from_rational(best_bracket[1]) <= value <= Surd.from_rational(best_bracket[0])


def test_max_discrepancy_monotone_in_bound():
    v100, _ = max_discrepancy(100)
    v500, _ = max_discrepancy(500)
    assert v500 >= v100


def test_beatty_partition_claims():
    result = verify_beatty_partition(78)
    assert result.verified
    assert result.id == "beatty-partition"
    assert "78" in result.witness
    assert verify_beatty_partition(1).verified
    record = result.record()
    assert set(record) == {"id", "location", "status", "witness", "payload"}


@pytest.mark.parametrize(
    "corrupt, first_bad_k, hit_count",
    [
        # floor(9 phi) = 14 twice: 14 is hit twice and floor(10 phi) = 16 never
        (lambda floors: floors[:9] + [floors[8]] + floors[10:], 14, 2),
        # floor(40 phi) = 64 dropped: 64 is hit by no m
        (lambda floors: floors[:39] + floors[40:], 64, 0),
        # floor(124 phi) = 200, the last floor a sweep to 200 takes, dropped: 200 is hit by no m
        (lambda floors: floors[:-1], 200, 0),
    ],
)
def test_beatty_partition_reports_first_bad_k(monkeypatch, corrupt, first_bad_k, hit_count):
    monkeypatch.setattr(mechanical, "beatty_floors", lambda start, stop: corrupt(beatty_floors(start, stop)))
    result = verify_beatty_partition(200)
    assert result.status == "refuted"
    assert result.payload["first_bad_k"] == first_bad_k
    assert result.payload["hit_count"] == hit_count
    assert result.witness == f"k={first_bad_k} is hit {hit_count} times"


def test_morphic_mechanical_agree():
    assert morphic_mechanical_agree(1).verified
    assert morphic_mechanical_agree(13).verified
    result = morphic_mechanical_agree(10_000)
    assert result.verified
    assert result.payload["n_checked"] == 10_000


def test_prefix_has_no_11_or_000():
    text = mechanical_prefix(20_000).text
    assert "11" not in text
    assert "000" not in text


def test_prefix_ones_positions_are_beatty():
    text = mechanical_prefix(5_000).text
    positions = {i + 1 for i, c in enumerate(text) if c == "1"}
    expected = set()
    m = 1
    while beatty_phi2(m) <= 5_000:
        expected.add(beatty_phi2(m))
        m += 1
    assert positions == expected


def test_beatty_floors_match_random_access_floors():
    limit = 10**6
    floors = beatty_floors(1, limit + 1)
    assert floors == list(map(beatty_phi, range(1, limit + 1)))
    assert floors == [(m + isqrt(5 * m * m)) >> 1 for m in range(1, limit + 1)]
    assert list(chain.from_iterable(mechanical._beatty_chunks(limit + 1))) == floors
    assert all(low + m == beatty_phi2(m) for m, low in enumerate(floors[:10_000], 1))
    assert beatty_floors(9_990, 10_001) == floors[9_989:10_000]
    assert beatty_floors(5, 5) == beatty_floors(5, 2) == []
    with pytest.raises(ValueError):
        beatty_floors(0, 3)


@given(st.integers(min_value=1, max_value=10**60), st.integers(min_value=0, max_value=300))
def test_beatty_floors_match_isqrt_spelling_at_large_offsets(start, length):
    floors = beatty_floors(start, start + length)
    assert floors == [(m + isqrt(5 * m * m)) >> 1 for m in range(start, start + length)]
    assert floors[:3] == [beatty_phi(m) for m in range(start, min(start + length, start + 3))]


def _placed_prefix(n):
    """The length-n prefix with a "1" placed at each m + floor(m*phi) <= n, the floor by isqrt."""
    letters = bytearray(b"0") * n
    for m in range(1, count_ones_upto(n) + 1):
        letters[m + ((m + isqrt(5 * m * m)) >> 1) - 1] = 49
    return letters.decode()


def test_prefix_matches_placed_ones(monkeypatch):
    placed = _placed_prefix(3000)
    assert all(mechanical_prefix(n).text == placed[:n] for n in range(1, 3000))
    for n in (10**5, 10**6, 10**7):
        assert mechanical_prefix(n).text == _placed_prefix(n)
    monkeypatch.setattr(mechanical, "_CHUNK", 7)  # a chunk edge every 7 floors
    assert all(mechanical_prefix(n).text == placed[:n] for n in range(1, 3000))


def test_prefix_matches_morphic_route_at_chunk_edges(monkeypatch):
    # The ones count reaches k chunks at n = floor(k * chunk * phi^2), the position of that 1.
    edges = [beatty_phi2(k * mechanical._CHUNK) for k in (1, 2, 3)]
    morphic = fixed_point_prefix(fibonacci_morphism(), "0", edges[-1] + 1).text
    for n in edges:
        assert count_ones_upto(n) % mechanical._CHUNK == 0 != count_ones_upto(n - 1) % mechanical._CHUNK
        for length in (n - 1, n, n + 1):
            assert mechanical_prefix(length).text == morphic[:length]
    assert all(mechanical_prefix(n).text == morphic[:n] for n in range(1, 3001))
    monkeypatch.setattr(mechanical, "_CHUNK", 7)  # a chunk edge every 7 ones
    assert all(mechanical_prefix(n).text == morphic[:n] for n in range(1, 501))


def test_ones_counts_match_closed_form():
    closed = [count_ones_upto(n) for n in range(1, 10_001)]
    for limit in (1, 2, 3, 10, 10_000):
        assert list(ones_counts(limit)) == closed[:limit]


def _unreachable(*args):
    raise AssertionError("a word was built before the prefix length was checked")


PREFIX_ROUTES = {
    "mechanical_prefix": mechanical_prefix,
    "density_report": density_report,
    "count_ones_upto": count_ones_upto,
    "ones_counts": ones_counts,
    "morphic_mechanical_agree": morphic_mechanical_agree,
    "fixed_point_prefix": lambda n: fixed_point_prefix(fibonacci_morphism(), "0", n),
}


@pytest.mark.parametrize("n", [0, -1, -(10**30)])
@pytest.mark.parametrize("route", PREFIX_ROUTES)
def test_prefix_length_guard_raises_before_any_word(monkeypatch, route, n):
    # the steps each route's loop takes: a chunk of floors, the image of a text
    monkeypatch.setattr(mechanical, "beatty_floors", _unreachable)
    monkeypatch.setattr(morphism, "_image_text", _unreachable)
    with pytest.raises(ValueError) as excinfo:
        PREFIX_ROUTES[route](n)
    assert str(excinfo.value) == "prefix length must be >= 1"


# F(0), F(1), ..., F(399) by the plain recurrence: no isqrt, doubling or memo shared with the code
# under test.  F(300) > 10**60, so every Zeckendorf index below stays in range.
FIB_TABLE = [0, 1]
while len(FIB_TABLE) < 400:
    FIB_TABLE.append(FIB_TABLE[-1] + FIB_TABLE[-2])


def _zeckendorf_identities(n):
    """The k_i >= 2 with n = sum F(k_i), after checking the Beatty and ones-count identities on them.

    Bit i of zeckendorf_encode(n) stands for F(i + 2), so the indices come out in increasing order.
    """
    indices = [i + 2 for i, bit in enumerate(zeckendorf_encode(n).bits) if bit]
    assert sum(FIB_TABLE[k] for k in indices) == n
    assert beatty_phi(n + 1) - 1 == sum(FIB_TABLE[k + 1] for k in indices)
    assert count_ones_upto(n) == n - sum(FIB_TABLE[k - 1] for k in indices)
    return indices


def test_zeckendorf_reference_up_to_1e5():
    limit = 10**5
    text = mechanical_prefix(limit + 1).text
    for n in range(1, limit + 1):
        # letter n + 1 is 1 exactly when the Zeckendorf sum of n uses F(2)
        assert (text[n] == "1") == (_zeckendorf_identities(n)[0] == 2), n


@given(st.integers(min_value=1, max_value=10**60))
def test_zeckendorf_reference(n):
    _zeckendorf_identities(n)
