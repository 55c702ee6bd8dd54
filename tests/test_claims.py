import inspect
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracle_reference import oracle

from fibword import claims, goldenexact
from fibword.claimresult import ClaimResult
from fibword.claims import (
    ALL_CLAIM_IDS,
    Budgets,
    _random_bits,
    ball_nesting_check,
    binet_check,
    check_telescoping,
    doubling_fib_check,
    doubling_lucas_form_check,
    genfunc_check,
    run_all_claims,
    run_claims,
    telescope_terms,
)
from fibword.goldenexact import Surd, fib, lucas
from fibword.mechanical import mechanical_prefix
from fibword.words import binary_word

EXPECTED_VERDICTS = {
    "alpha-identity": "verified",
    "ball-nesting": "verified",
    "beatty-partition": "verified",
    "binet-formulas": "verified",
    "density-convergence": "verified",
    "df-convergence": "verified",
    "discrepancy-bound": "verified",
    "doubling-fib": "verified",
    "doubling-lucas-form": "refuted",
    "framed-density-limit": "verified",
    "generating-function": "verified",
    "letter-counts": "verified",
    "local-no-11": "verified",
    "local-three-window": "refuted",
    "morphic-mechanical-agreement": "verified",
    "pow-invariance": "refuted",
    "pow-value": "refuted",
    "telescoping-identity": "refuted",
    "y-length-formula": "verified",
}


def test_claim_result_validation():
    with pytest.raises(ValueError):
        ClaimResult("x", "somewhere", "maybe", "w")
    with pytest.raises(ValueError):
        ClaimResult("x", "somewhere", "refuted", "")


def test_telescope_terms_examples():
    assert telescope_terms(1, 1) == (Fraction(3, 5), Fraction(3, 4))
    assert telescope_terms(1, 2) == (Fraction(42, 25), Fraction(7, 4))
    with pytest.raises(ValueError):
        telescope_terms(0, 1)


def test_telescope_terms_two_forms_agree():
    # 2^k F / (L + 1/L) equals 2^k F L / (L^2 + 1), definitionally
    for k in range(1, 11):
        index = 2**k
        f, lu = fib(index), lucas(index)
        a_form1 = Fraction(2**k) * f / (Fraction(lu) + Fraction(1, lu))
        a_k, _ = telescope_terms(1, k)
        assert a_form1 == a_k


def test_telescope_rhs_value():
    # 2 F(2) / (L(2) - 1/L(2)) = 3/4 = T_1 at m = 1
    rhs = Fraction(2) * fib(2) / (Fraction(lucas(2)) - Fraction(1, lucas(2)))
    assert rhs == Fraction(3, 4) == telescope_terms(1, 1)[1]


def test_check_telescoping_refuted():
    result = check_telescoping(1, 3)
    assert not result.verified
    assert result.payload["k"] == 1
    assert result.payload["a_k"] == "3/5"
    assert result.payload["telescoped"] == "-1"
    # terms grow: a_2 > a_1 (evidence against convergence)
    a1, _ = telescope_terms(1, 1)
    a2, _ = telescope_terms(1, 2)
    assert a2 > a1
    with pytest.raises(ValueError):
        check_telescoping(1, 1)


def test_doubling_identity_check():
    fib_claim, lucas_claim = doubling_fib_check(50), doubling_lucas_form_check(50)
    assert fib_claim.verified
    assert not lucas_claim.verified
    assert lucas_claim.payload["n"] == 3
    assert lucas_claim.payload["lucas_2n"] == 18
    assert lucas_claim.payload["stated_value"] == 14
    assert lucas_claim.payload["signed_form_value"] == 18
    # spot identities
    assert fib(4) == fib(2) * lucas(2) == 3
    assert fib(2) == fib(1) * lucas(1) == 1
    with pytest.raises(ValueError):
        doubling_fib_check(1)
    with pytest.raises(ValueError):
        doubling_lucas_form_check(1)


def test_genfunc_check():
    result = genfunc_check(20)
    assert result.verified
    assert result.payload["first_coefficients"] == ["0", "1", "1", "2", "3", "5", "8", "13"]
    with pytest.raises(ValueError):
        genfunc_check(0)


def test_binet_check():
    assert binet_check(200).verified


def test_ball_nesting_check_deterministic():
    a = ball_nesting_check(500, 16, 7)
    b = ball_nesting_check(500, 16, 7)
    assert a == b
    assert a.verified
    assert a.payload["exhaustive_cases"] == 50


def _last_disagreement(u, v):
    """Not an ultrametric: the last index where u and v differ, not the first."""
    if u.text == v.text:
        return None
    return max(i for i, (x, y) in enumerate(zip(u.text, v.text)) if x != y)


def test_ball_nesting_check_refutes_a_non_ultrametric(monkeypatch):
    monkeypatch.setattr("fibword.claims.ultrametric_distance", _last_disagreement)
    result = ball_nesting_check(2_000, 24, 7)
    assert result.status == "refuted"
    u, v, r, s = (result.payload[key] for key in ("u", "v", "r", "s"))
    universe = [format(i, f"0{len(u)}b") for i in range(2 ** len(u))]

    def ball(center, radius):
        exponents = {z: _last_disagreement(binary_word(z), binary_word(center)) for z in universe}
        return {z for z, n in exponents.items() if n is None or n > radius}

    ball_u, ball_v = ball(u, r), ball(v, s)
    assert ball_u & ball_v and not (ball_u <= ball_v or ball_v <= ball_u)


def test_ball_nesting_enumerates_every_word_of_the_center_length(monkeypatch):
    seen = []

    def spy(universe, center, r):
        seen.append(({z.text for z in universe}, len(center)))
        return ball_members(universe, center, r)

    ball_members = claims._ball_members
    monkeypatch.setattr(claims, "_ball_members", spy)
    assert ball_nesting_check(2_000, 24, 7).verified
    assert len(seen) == 2 * 200
    assert {length for _, length in seen} == set(range(1, 9))
    for texts, length in seen:
        assert texts == {format(i, f"0{length}b") for i in range(2**length)}


def test_random_bits_draws_exactly_the_asked_length():
    rng = random.Random(3)
    for length in range(25):
        drawn = {_random_bits(rng, length) for _ in range(500)}
        assert {len(bits) for bits in drawn} == {length}
        assert set("".join(drawn)) <= {"0", "1"}
        if length <= 4:
            assert len(drawn) == 2**length


def test_budgets_validation():
    with pytest.raises(ValueError):
        Budgets(sweep_n=0)
    with pytest.raises(ValueError):
        Budgets(scan_n=2)
    with pytest.raises(ValueError):
        Budgets(ball_cases=0)
    assert Budgets().sweep_n == 100_000


def test_registry_ids_and_verdicts(all_claims):
    assert tuple(r.id for r in all_claims) == tuple(sorted(ALL_CLAIM_IDS))
    assert {r.id: r.status for r in all_claims} == EXPECTED_VERDICTS


def test_registry_deterministic():
    budgets = Budgets(sweep_n=2_000, scan_n=1_000, ball_cases=400)
    first = [r.record() for r in run_all_claims(budgets)]
    second = [r.record() for r in run_all_claims(budgets)]
    assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)


SMALL_BUDGETS = Budgets(sweep_n=2_000, scan_n=1_000, ball_cases=400)


@pytest.fixture(scope="module")
def small_registry():
    return {r.id: r.record() for r in run_all_claims(SMALL_BUDGETS)}


@pytest.mark.parametrize("claim_id", ALL_CLAIM_IDS)
def test_run_claims_single_id_matches_full_registry(claim_id, small_registry):
    assert [r.record() for r in run_claims([claim_id], SMALL_BUDGETS)] == [small_registry[claim_id]]


BUDGET_FIELDS = set(vars(Budgets()))


@pytest.mark.parametrize("claim_id", ALL_CLAIM_IDS)
def test_registry_record_runs_the_named_check_on_its_bounds(claim_id, small_registry, monkeypatch):
    name, bounds = claims.REGISTRY[claim_id]
    assert all(b in BUDGET_FIELDS if isinstance(b, str) else isinstance(b, int) for b in bounds)
    assert len(bounds) == len(inspect.signature(getattr(claims, name)).parameters)
    assert small_registry[claim_id]["id"] == claim_id
    calls = []
    monkeypatch.setattr(claims, name, lambda *args: calls.append(args) or "rebound")
    assert run_claims([claim_id], SMALL_BUDGETS) == ["rebound"]
    assert calls == [tuple(getattr(SMALL_BUDGETS, b) if isinstance(b, str) else b for b in bounds)]


def test_registry_ids_are_the_oracle_ids():
    assert ALL_CLAIM_IDS == oracle.CLAIM_IDS


def _fib_lucas_seeded_l0_3(n):
    """`goldenexact._fib_lucas` with L(0) seeded as 3 in place of 2."""
    fk, lk, k_odd = 0, 3, False
    for bit in bin(n)[2:]:
        fk, lk = fk * lk, lk * lk + (2 if k_odd else -2)
        k_odd = bit == "1"
        if k_odd:
            fk, lk = (fk + lk) >> 1, (5 * fk + lk) >> 1
    return fk, lk


def test_doubling_claims_do_not_read_the_kernel(monkeypatch):
    # The kernel builds F(2n) as F(n) L(n), so a wrong seed keeps that identity; the doubling
    # claims must not notice a kernel mutant, because they check the identity, not the kernel.
    ids = ["doubling-fib", "doubling-lucas-form"]
    unmutated = [r.record() for r in run_claims(ids)]
    monkeypatch.setattr(goldenexact, "_fib_lucas", _fib_lucas_seeded_l0_3)
    monkeypatch.setattr(goldenexact, "_memo", (0, 0, 3))
    assert goldenexact.fib(10) == 33463  # the mutant is live
    assert [r.record() for r in run_claims(ids)] == unmutated


def test_run_claims_unknown_id():
    with pytest.raises(ValueError, match="unknown claim id\\(s\\): nope"):
        run_claims(["nope"])


def test_refutation_witnesses_replay(all_claims):
    by_id = {r.id: r for r in all_claims}

    # local-three-window: the factor at the witnessed position truly has 2 ones
    local = by_id["local-three-window"]
    position = local.payload["position"]
    text = mechanical_prefix(position + 2).text
    window = text[position - 1 : position + 2]
    assert window == local.payload["factor"] == "101"
    assert window.count("1") == 2 != 1

    # pow-invariance: the two elements genuinely differ, via plain strings
    pair = by_id["pow-invariance"].payload["witness_pair"]
    assert pair == [2, 3]
    words2 = {"a" + "ab" + "a" * 2, "ab" + "ab" + "aba" * 2}
    words3 = {"a" + "aba" + "ab" * 2, "ab" + "aba" + "abaab" * 2}
    assert words2 != words3

    # pow-value: claimed second monomial is not the concatenation
    value = by_id["pow-value"]
    assert value.payload["computed"] == ["aabaa", "abababaaba"]
    assert value.payload["claimed"] == ["aabaa", "abababaabaaba"]
    assert value.payload["computed"][1] != value.payload["claimed"][1]

    # telescoping: a_1 != T_1 - T_2, recomputed from scratch
    tele = by_id["telescoping-identity"]
    assert tele.payload["m"] == 1 and tele.payload["k"] == 1
    a1 = Fraction(2 * fib(2) * lucas(2), lucas(2) ** 2 + 1)
    t1 = Fraction(2 * fib(2) * lucas(2), lucas(2) ** 2 - 1)
    t2 = Fraction(4 * fib(4) * lucas(4), lucas(4) ** 2 - 1)
    assert a1 == Fraction(3, 5) and t1 - t2 == -1 and a1 != t1 - t2

    # doubling-lucas-form at n=3: 18 != 14
    lucas_form = by_id["doubling-lucas-form"]
    n = lucas_form.payload["n"]
    assert n == 3
    assert lucas(2 * n) == 18 != lucas(n) ** 2 - 2 == 14


def test_verified_witnesses_state_bounds(all_claims):
    for result in all_claims:
        if result.verified:
            assert any(ch.isdigit() for ch in result.witness), result.id


def test_framed_density_payload_documents_published_table(all_claims):
    claim = next(r for r in all_claims if r.id == "framed-density-limit")
    assert claim.payload["published_cells_matching"] == 29
    divergent = claim.payload["published_cells_diverging"]
    assert len(divergent) == 15
    q13 = next(d for d in divergent if d["m"] == 13 and d["column"] == "dens_a_q")
    assert q13["published"] == "0.606195"
    assert q13["computed"] == "0.617647"
    y11 = next(d for d in divergent if d["m"] == 11 and d["column"] == "dens_a_y")
    assert y11["published"] == "0.618025"
    assert y11["computed"] == "0.618026"


def _squared_form_refutes(n, count1):
    """|count1/n - 1/phi^2| >= 1/n as |(3c - 2n) + c*sqrt5| >= 3 + sqrt5, squared, signed by the oracle."""
    p, q = 3 * count1 - 2 * n, count1
    return oracle.surd_sign(14 - (p * p + 5 * q * q), 6 - 2 * p * q) <= 0


def _floor_rule_refutes(n, count1):
    """The density-convergence rule: the floor of count1 - n/phi^2 = (2c - 3n + n*sqrt5)/2 is not -1 or 0."""
    return goldenexact._floor(2 * count1 - 3 * n, n, 2) not in (-1, 0)


def test_density_convergence_floor_rule_is_the_squared_form():
    for n in range(1, 3001):
        ones = oracle.ones_upto(n)
        for count1 in range(ones - 2, ones + 3):
            assert _floor_rule_refutes(n, count1) == _squared_form_refutes(n, count1), (n, count1)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 10**30), st.integers(-2, 2))
def test_density_convergence_floor_rule_is_the_squared_form_at_large_n(n, offset):
    count1 = oracle.ones_upto(n) + offset
    assert _floor_rule_refutes(n, count1) == _squared_form_refutes(n, count1)


@pytest.mark.parametrize("offset", [-2, -1, 1, 2])
@pytest.mark.parametrize("start", [2, 3, 40, 150])
def test_density_convergence_refutes_where_the_squared_form_does(monkeypatch, start, offset):
    # the counts, shifted by `offset` from n = start on: refuted at the first n the squared form rejects
    counts = [c + offset * (n >= start) for n, c in enumerate(claims.ones_counts(200), 1)]
    monkeypatch.setattr(claims, "ones_counts", lambda limit: counts[:limit])
    n = next(n for n, c in enumerate(counts, 1) if n >= 2 and _squared_form_refutes(n, c))
    result = claims._claim_density_convergence(200)
    assert not result.verified and result.payload == {"n": n, "count1": counts[n - 1]}
    assert result.witness == f"|count1({n})/{n} - 1/phi^2| >= 1/{n}"


MUTANT_BUDGETS = Budgets(sweep_n=2_000, scan_n=1_000, ball_cases=50)


def _one_at(index):
    """Mutate a word builder: the word it builds, with letter `index` set to 1."""

    def mutate(build):
        def mutant(*args):
            text = build(*args).text
            return binary_word(text[:index] + "1" + text[index + 1 :])

        return mutant

    return mutate


# case -> (the `fibword.claims` global to rebind, original -> mutant, and the witness and payload
# of each record the mutant refutes anew).  Together the cases reach every refuted branch that a
# binary word can reach; `alpha-identity` holds on any 0/1 word, so it never refutes.
REFUTING_MUTANTS = {
    "fib-plus-1-at-20": (
        "fib",
        lambda f: lambda n: f(n) + (n == 20),
        {
            "binet-formulas": ("(phi^20 - phibar^20)/sqrt5 != F(20)", {"n": 20}),
            "generating-function": (
                "coefficient of x^20 is 6765, expected F(20) = 6766",
                {"k": 20, "coefficient": "6765", "expected": 6766},
            ),
            "y-length-formula": ("|y_18| = 6765 != F(20) = 6766", {"n": 18}),
        },
    ),
    "lucas-plus-1-at-7": (
        "lucas",
        lambda f: lambda n: f(n) + (n == 7),
        {"binet-formulas": ("phi^7 + phibar^7 != L(7)", {"n": 7})},
    ),
    "recurrence-fib-plus-1-at-20": (
        "_fib_lucas_table",
        lambda f: lambda top: ([x + (k == 20) for k, x in enumerate(f(top)[0])], f(top)[1]),
        {"doubling-fib": ("n=10: F(20) = 6766 != F(10) L(10) = 6765", {"n": 10})},
    ),
    "telescope-terms-flat": (
        "telescope_terms",
        lambda f: lambda m, k: (1, -k),
        {"telescoping-identity": ("m=1: a_2 = 1 >= a_1 = 1, terms do not shrink", {"m": 1, "k": 1})},
    ),
    "ones-counts-jump": (
        "ones_counts",
        lambda f: lambda limit: [0, 1, 5, 5, 5],
        {"density-convergence": ("|count1(3)/3 - 1/phi^2| >= 1/3", {"n": 3, "count1": 5})},
    ),
    "discrepancy-one": (
        "max_discrepancy",
        lambda f: lambda limit: (Surd(1, 0), 7),
        {
            "discrepancy-bound": (
                "deviation 1.000000 >= 1 at n=7",
                {"sweep_n": 2000, "value_exact": "(1) + (0)*sqrt5", "attained_at": 7},
            )
        },
    ),
    "mechanical-1-at-3": (
        "mechanical_prefix",
        _one_at(3),
        {
            "local-no-11": ("factor 11 at position 4", {"position": 4}),
            "local-three-window": (
                "factor 101 at position 2 contains 2 ones",
                {"factor": "101", "position": 2, "ones": 2, "scan_n": 1000},
            ),
            "morphic-mechanical-agreement": (
                "first mismatch at index 3: morphic 0 vs mechanical 1",
                {"first_mismatch_index": 3, "n_checked": 2000},
            ),
        },
    ),
    "morphic-1-at-5": (
        "fixed_point_prefix",
        _one_at(5),
        {
            "morphic-mechanical-agreement": (
                "first mismatch at index 5: morphic 1 vs mechanical 0",
                {"first_mismatch_index": 5, "n_checked": 2000},
            )
        },
    ),
    "q4-counts-zero": (
        "letter_counts_closed_form",
        lambda f: lambda family, index: (0, 0) if (family, index) == ("q", 4) else f(family, index),
        {
            "letter-counts": (
                "family q, index 4: scan (6, 4) != closed form (0, 0)",
                {"family": "q", "index": 4, "scanned": [6, 4], "closed_form": [0, 0]},
            )
        },
    ),
    "densities-half": (
        "letter_densities",
        lambda f: lambda family, index: (Fraction(1, 2), Fraction(1, 2)),
        {"framed-density-limit": ("|dens_a(q_13) - 1/phi| >= 1/1000", {"m": 13, "dens_a": "1/2"})},
    ),
    "density-b-half": (
        "letter_densities",
        lambda f: lambda family, index: (Fraction(618034, 10**6), Fraction(1, 2)),
        {"framed-density-limit": ("|dens_b(q_13) - 1/phi^2| >= 1/1000", {"m": 13, "dens_b": "1/2"})},
    ),
    "df-half": (
        "df_density",
        lambda f: lambda k: Fraction(1, 2),
        {"df-convergence": ("|df(30) - (phi - 1)| >= 10^-6", {"df_k": 30, "density": "1/2"})},
    ),
    "y-words-short": (
        "y_words",
        lambda f: lambda: ["a", "ab", "aba", "abaa"],
        {"y-length-formula": ("|y_3| = 4 != F(5) = 5", {"n": 3})},
    ),
}


@pytest.fixture(scope="module")
def mutant_baseline():
    return {r.id: r.record() for r in run_all_claims(MUTANT_BUDGETS)}


@pytest.mark.parametrize(
    "attr, mutate, expected", list(REFUTING_MUTANTS.values()), ids=list(REFUTING_MUTANTS)
)
def test_mutated_kernel_reaches_refuted_branches(monkeypatch, mutant_baseline, attr, mutate, expected):
    monkeypatch.setattr(claims, attr, mutate(getattr(claims, attr)))
    refuted = {r.id: r.record() for r in run_all_claims(MUTANT_BUDGETS) if not r.verified}
    anew = {
        claim_id: {
            "id": claim_id,
            "location": mutant_baseline[claim_id]["location"],
            "status": "refuted",
            "witness": witness,
            "payload": payload,
        }
        for claim_id, (witness, payload) in expected.items()
    }
    unchanged = {i: rec for i, rec in mutant_baseline.items() if rec["status"] == "refuted"}
    assert refuted == {**unchanged, **anew}
