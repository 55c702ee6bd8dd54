"""Exact adjudication of the quantitative claims about these constructions.

Every check runs in integer/rational/surd arithmetic; a refuted claim always
carries a concrete exact witness, a verified one states the bounds swept.
Claimed-but-wrong values (the power-element constant, the published density
table) are kept here as data so they can be compared against, never asserted.
"""

from __future__ import annotations

import functools
import random
from collections.abc import Iterable
from fractions import Fraction

from ._frozen import Frozen
from .claimresult import REFUTED, VERIFIED, ClaimResult
from .derived import (
    FAMILY_FIBAB,
    FAMILY_Q,
    FAMILY_Y,
    DensityRow,
    density_table,
    df_density,
    fib_word_ab,
    letter_counts_closed_form,
    letter_densities,
    q_word,
    y_word,
    y_words,
)
from .freealg import element_from_texts, pow_fib
from .goldenexact import (
    INV_PHI,
    INV_PHI_SQUARED,
    PHI,
    PHI_BAR,
    SQRT5,
    _floor,
    fib,
    fraction_decimal,
    lucas,
    surd_decimal,
)
from .mechanical import beatty_hits, max_discrepancy, mechanical_prefix, ones_counts
from .morphism import fibonacci_morphism, fixed_point_prefix
from .words import AB, Word, binary_word, ultrametric_distance

# Claimed constant value of the power element (13-letter second monomial);
# direct concatenation gives a 10-letter monomial, so this is claim data only.
CLAIMED_POW_WORDS = ("aabaa", "abababaabaaba")

# Published density table (rows m = 3..13, six-decimal strings as printed:
# dens_a(q_m), dens_b(q_m), dens_a(y_m), dens_b(y_m)).  Kept as data; the
# framed-density-limit claim compares it against the exact table.
PUBLISHED_DENSITY_TABLE = (
    (3, "0.571429", "0.428571", "0.600000", "0.400000"),
    (4, "0.600000", "0.400000", "0.625000", "0.375000"),
    (5, "0.600000", "0.400000", "0.615385", "0.384615"),
    (6, "0.608696", "0.391304", "0.619048", "0.380952"),
    (7, "0.605263", "0.394737", "0.617647", "0.382353"),
    (8, "0.606557", "0.393443", "0.618182", "0.381818"),
    (9, "0.606061", "0.393939", "0.617978", "0.382022"),
    (10, "0.606250", "0.393750", "0.618056", "0.381944"),
    (11, "0.606178", "0.393822", "0.618025", "0.381974"),
    (12, "0.606206", "0.393794", "0.618037", "0.381963"),
    (13, "0.606195", "0.393805", "0.618033", "0.381967"),
)


class Budgets(Frozen):
    """The sweep bounds the CLI sets; all checks are exact within them.

    A claim's `_claim` decorator names the fields its check reads; every
    other bound is a literal there.
    """

    def __init__(self, sweep_n: int = 100_000, scan_n: int = 10_000, ball_cases: int = 10_000) -> None:
        self.__dict__.update(sweep_n=sweep_n, scan_n=scan_n, ball_cases=ball_cases)
        for name, minimum in (("sweep_n", 1), ("scan_n", 3), ("ball_cases", 1)):
            value = getattr(self, name)
            if value < minimum:
                raise ValueError(f"budget {name} must be >= {minimum}, got {value}")


# -- verdicts --------------------------------------------------------------------

# What a check returns: (status, witness, payload).  `_claim` adds the id and location.
Verdict = tuple[str, str, dict[str, object]]


def verified(witness: str, **payload: object) -> Verdict:
    return VERIFIED, witness, payload


def refuted(witness: str, **payload: object) -> Verdict:
    return REFUTED, witness, payload


# Claim id -> (name of its decorated check in this module, bounds), filled by `_claim`.
REGISTRY: dict[str, tuple[str, tuple[object, ...]]] = {}


def _claim(claim_id: str, location: str, bounds: tuple[object, ...] | None = None):
    """Decorator for a check of one claim: the check returns its `Verdict`, and the
    decorated function returns the `ClaimResult` under this id and location.

    `bounds` holds one entry per check argument: a `Budgets` field name, read
    when the claim runs, or a fixed literal.  With bounds the check is the
    claim's `REGISTRY` entry; without, it is a public check outside the run.
    """

    def decorate(check):
        @functools.wraps(check)
        def result(*args: object, **kwargs: object) -> ClaimResult:
            return ClaimResult(claim_id, location, *check(*args, **kwargs))

        if bounds is not None:
            REGISTRY[claim_id] = (check.__name__, bounds)
        return result

    return decorate


# -- series identities ---------------------------------------------------------


def telescope_terms(m: int, k: int) -> tuple[Fraction, Fraction]:
    """(a_k, T_k) with F = fib(2^k m), L = lucas(2^k m):
    a_k = 2^k F L / (L^2 + 1),  T_k = 2^k F L / (L^2 - 1)."""
    if m < 1 or k < 1:
        raise ValueError("m and k must be >= 1")
    index = (1 << k) * m
    f, lu = fib(index), lucas(index)
    scale = (1 << k) * f * lu
    return Fraction(scale, lu * lu + 1), Fraction(scale, lu * lu - 1)


@_claim("telescoping-identity", "claimed telescoping series of scaled Fibonacci-Lucas ratios", (1, 10))
def check_telescoping(m: int, k_max: int) -> Verdict:
    """Is a_k = T_k - T_{k+1}, and do the terms shrink, as the claimed
    telescoping series requires?"""
    if k_max < 2:
        raise ValueError("telescoping check needs k_max >= 2")
    terms = [telescope_terms(m, k) for k in range(1, k_max + 1)]
    for k in range(1, k_max):
        a_k, t_k = terms[k - 1]
        t_next = terms[k][1]
        if a_k != t_k - t_next:
            return refuted(
                f"m={m}, k={k}: a_{k} = {a_k} but T_{k} - T_{k + 1} = {t_k} - {t_next} = {t_k - t_next}",
                m=m,
                k=k,
                a_k=str(a_k),
                t_k=str(t_k),
                t_next=str(t_next),
                telescoped=str(t_k - t_next),
                terms_grow=str(terms[1][0] > terms[0][0]),
            )
    for k in range(1, k_max):
        if terms[k][0] >= terms[k - 1][0]:
            return refuted(
                f"m={m}: a_{k + 1} = {terms[k][0]} >= a_{k} = {terms[k - 1][0]}, terms do not shrink",
                m=m,
                k=k,
            )
    return verified(f"telescoping and monotone decay hold for m={m}, k < {k_max}", m=m, k_max=k_max)


def _fib_lucas_table(top: int) -> tuple[list[int], list[int]]:
    """F(0..top) and L(0..top) by the plain recurrences x(k+2) = x(k+1) + x(k).

    The doubling checks read these, not `fib` and `lucas`: the kernel builds
    F(2n) as F(n) L(n) itself, so checking the identity on its values would
    compare the kernel with itself.
    """
    f, lu = [0, 1], [2, 1]
    while len(f) <= top:
        f.append(f[-1] + f[-2])
        lu.append(lu[-1] + lu[-2])
    return f, lu


@_claim("doubling-fib", "Fibonacci doubling identity F(2n) = F(n) L(n)", (50,))
def doubling_fib_check(n_max: int) -> Verdict:
    """Check F(2n) = F(n)L(n) for 2 <= n <= n_max, on the recurrences' values."""
    if n_max < 2:
        raise ValueError("doubling check needs n_max >= 2")
    f, lu = _fib_lucas_table(2 * n_max)
    for n in range(2, n_max + 1):
        if f[2 * n] != f[n] * lu[n]:
            return refuted(f"n={n}: F({2 * n}) = {f[2 * n]} != F({n}) L({n}) = {f[n] * lu[n]}", n=n)
    return verified(f"holds for all 2 <= n <= {n_max}", n_max=n_max)


@_claim("doubling-lucas-form", "Lucas doubling identity as stated, L(2n) = L(n)^2 - 2", (50,))
def doubling_lucas_form_check(n_max: int) -> Verdict:
    """Check the stated L(2n) = L(n)^2 - 2 for 2 <= n <= n_max, on the recurrence's values.

    The stated form drops the sign term of L(2n) = L(n)^2 - 2(-1)^n, so it
    fails at odd n (already at n = 1, outside this sweep's domain).
    """
    if n_max < 2:
        raise ValueError("doubling check needs n_max >= 2")
    lu = _fib_lucas_table(2 * n_max)[1]
    for n in range(2, n_max + 1):
        if lu[2 * n] != lu[n] ** 2 - 2:
            return refuted(
                f"n={n}: L({2 * n}) = {lu[2 * n]} but L({n})^2 - 2 = {lu[n] ** 2 - 2}",
                n=n,
                lucas_2n=lu[2 * n],
                stated_value=lu[n] ** 2 - 2,
                signed_form_value=lu[n] ** 2 - 2 * (-1) ** n,
                note="the signed form L(2n) = L(n)^2 - 2(-1)^n holds; n=1 also fails the stated form",
            )
    return verified(f"holds for all 2 <= n <= {n_max}", n_max=n_max)


@_claim("generating-function", "x / (1 - x - x^2) generates the Fibonacci sequence", (20,))
def genfunc_check(n_max: int) -> Verdict:
    """Truncated expansion of x / (1 - x - x^2) versus the Fibonacci numbers.

    Long division against denominator 1 - x - x^2 gives exactly the
    recurrence c_k = c_{k-1} + c_{k-2} once seeded with c_0 = 0, c_1 = 1.
    """
    if n_max < 1:
        raise ValueError("expansion order must be >= 1")
    numerator = [Fraction(0), Fraction(1)]  # x
    denominator = [Fraction(1), Fraction(-1), Fraction(-1)]  # 1 - x - x^2
    coefficients: list[Fraction] = []
    for k in range(n_max + 1):
        value = numerator[k] if k < len(numerator) else Fraction(0)
        for i in range(1, min(k, len(denominator) - 1) + 1):
            value -= denominator[i] * coefficients[k - i]
        coefficients.append(value / denominator[0])
    for k, c in enumerate(coefficients):
        if c != fib(k):
            return refuted(
                f"coefficient of x^{k} is {c}, expected F({k}) = {fib(k)}",
                k=k,
                coefficient=str(c),
                expected=fib(k),
            )
    return verified(
        f"coefficients of x^0..x^{n_max} equal F(0)..F({n_max})",
        n_max=n_max,
        first_coefficients=[str(c) for c in coefficients[: min(8, len(coefficients))]],
    )


@_claim("binet-formulas", "Binet formulas for Fibonacci and Lucas numbers", (200,))
def binet_check(n_max: int) -> Verdict:
    """Surd exponentiation versus the recurrences, exactly, for n <= n_max."""
    if n_max < 1:
        raise ValueError("binet check needs n_max >= 1")
    for n in range(n_max + 1):
        phi_n = PHI**n
        bar_n = PHI_BAR**n
        if (phi_n - bar_n) / SQRT5 != fib(n):
            return refuted(f"(phi^{n} - phibar^{n})/sqrt5 != F({n})", n=n)
        if phi_n + bar_n != lucas(n):
            return refuted(f"phi^{n} + phibar^{n} != L({n})", n=n)
    return verified(f"both formulas exact for 0 <= n <= {n_max}", n_max=n_max)


# -- ultrametric ball nesting ----------------------------------------------------


def _ball_members(universe: list[Word], center: Word, r: int) -> set[str]:
    """Texts of the open ball B(center, 2^-r) by the word metric itself (enumeration oracle).

    d(z, center) < 2^-r iff the distance is zero (None) or its exponent exceeds r.
    """
    members = set()
    for z in universe:
        n = ultrametric_distance(z, center)
        if n is None or n > r:
            members.add(z.text)
    return members


def _random_bits(rng: random.Random, length: int) -> str:
    """A uniform binary string of this length, from one getrandbits draw."""
    return format(rng.getrandbits(length), f"0{length}b") if length else ""


@_claim("ball-nesting", "two intersecting open balls in the word ultrametric are nested", ("ball_cases", 24, 7))
def ball_nesting_check(cases: int, word_len: int, seed: int) -> Verdict:
    """Intersecting open balls must be nested (restricted to equal-length words).

    Bulk cases use the prefix characterization of balls; a slice of small
    universes is checked exhaustively against the raw distance definition.
    """
    if cases < 1 or word_len < 1:
        raise ValueError("cases and word_len must be >= 1")
    rng = random.Random(seed)
    exhaustive = min(cases // 10, 200)
    universes: dict[int, list[Word]] = {}
    for _ in range(exhaustive):
        length = rng.randint(1, 8)
        universe = universes.get(length)
        if universe is None:
            universe = universes[length] = [binary_word(format(i, f"0{length}b")) for i in range(2**length)]
        u = rng.choice(universe)
        v = rng.choice(universe)
        r = rng.randint(0, length + 1)
        s = rng.randint(0, length + 1)
        ball_u = _ball_members(universe, u, r)
        ball_v = _ball_members(universe, v, s)
        if ball_u & ball_v and not (ball_u <= ball_v or ball_v <= ball_u):
            return refuted(
                f"balls B({u}, 2^-{r}) and B({v}, 2^-{s}) intersect but neither contains the other",
                u=u.text,
                v=v.text,
                r=r,
                s=s,
            )
    for _ in range(cases - exhaustive):
        length = rng.randint(1, word_len)
        u = _random_bits(rng, length)
        if rng.random() < 0.5:
            cut = rng.randint(0, length)
            v = u[:cut] + _random_bits(rng, length - cut)
        else:
            v = _random_bits(rng, length)
        r = rng.randint(0, length + 1)
        s = rng.randint(0, length + 1)
        small = min(r, s)
        intersects = u[: small + 1] == v[: small + 1]
        contains_uv = min(s, length) <= min(r, length) and u[: s + 1] == v[: s + 1]
        contains_vu = min(r, length) <= min(s, length) and v[: r + 1] == u[: r + 1]
        if intersects != (contains_uv or contains_vu):
            return refuted(
                f"balls B({u}, 2^-{r}) and B({v}, 2^-{s}) violate the nesting law", u=u, v=v, r=r, s=s
            )
    return verified(
        f"nesting law holds on {cases} sampled ball pairs "
        f"({exhaustive} verified by exhaustive enumeration)",
        cases=cases,
        exhaustive_cases=exhaustive,
        seed=seed,
    )


# -- word-structure claims ---------------------------------------------------------


@_claim(
    "beatty-partition",
    "complementary Beatty sequences for phi and phi^2 partition the positive integers",
    ("sweep_n",),
)
def verify_beatty_partition(limit: int) -> Verdict:
    """Each k <= limit must be hit exactly once across the two Beatty sequences."""
    hits = beatty_hits(limit)
    rest = hits[1:].lstrip(b"\x01")  # starts at the first k not hit exactly once
    if not rest:
        return verified(f"every k <= {limit} is hit exactly once", n_checked=limit)
    k = limit + 1 - len(rest)
    return refuted(f"k={k} is hit {rest[0]} times", first_bad_k=k, hit_count=rest[0], n_checked=limit)


@_claim(
    "morphic-mechanical-agreement", "the morphic fixed point equals the mechanical (Beatty) word", ("sweep_n",)
)
def morphic_mechanical_agree(n: int) -> Verdict:
    """Fixed point of 0->01, 1->0 versus the Beatty labelling, symbol by symbol."""
    morphic = fixed_point_prefix(fibonacci_morphism(), "0", n).text
    mechanical = mechanical_prefix(n).text
    if morphic == mechanical:
        return verified(f"prefixes of length {n} are identical", n_checked=n)
    k = next(i for i, (x, y) in enumerate(zip(morphic, mechanical)) if x != y)
    return refuted(
        f"first mismatch at index {k}: morphic {morphic[k]} vs mechanical {mechanical[k]}",
        first_mismatch_index=k,
        n_checked=n,
    )


@_claim("density-convergence", "symbol densities of the Fibonacci word are 1/phi and 1/phi^2", ("scan_n",))
def _claim_density_convergence(scan_n: int) -> Verdict:
    for n, count1 in enumerate(ones_counts(scan_n), 1):
        if n < 2:
            continue
        # count1 - n/phi^2 = (2 count1 - 3n + n sqrt5)/2 is irrational: below 1 in size iff its floor is -1 or 0
        if _floor(2 * count1 - 3 * n, n, 2) not in (-1, 0):
            return refuted(f"|count1({n})/{n} - 1/phi^2| >= 1/{n}", n=n, count1=count1)
    final_density = Fraction(count1, scan_n)
    return verified(
        f"|count1(n)/n - 1/phi^2| < 1/n for all 2 <= n <= {scan_n}",
        scan_n=scan_n,
        density1_at_bound=str(final_density),
        density1_decimal=fraction_decimal(final_density, 6),
        limit_decimal=surd_decimal(INV_PHI_SQUARED, 6),
    )


@_claim(
    "discrepancy-bound",
    "ones-count of prefixes deviates from n/phi^2 by O(1); constant 1 certified",
    ("sweep_n",),
)
def _claim_discrepancy_bound(sweep_n: int) -> Verdict:
    value, attained_at = max_discrepancy(sweep_n)
    if value < 1:
        return verified(
            f"max deviation over n <= {sweep_n} is {surd_decimal(value, 6)} < 1, at n={attained_at}",
            sweep_n=sweep_n,
            value_exact=str(value),
            value_decimal=surd_decimal(value, 6),
            attained_at=attained_at,
            constant=1,
        )
    return refuted(
        f"deviation {surd_decimal(value, 6)} >= 1 at n={attained_at}",
        sweep_n=sweep_n,
        value_exact=str(value),
        attained_at=attained_at,
    )


@_claim("local-no-11", "the Fibonacci word contains no factor 11", ("sweep_n",))
def _claim_local_no_11(sweep_n: int) -> Verdict:
    position = mechanical_prefix(sweep_n).text.find("11")
    if position == -1:
        return verified(f"no factor 11 in the length-{sweep_n} prefix", sweep_n=sweep_n)
    return refuted(f"factor 11 at position {position + 1}", position=position + 1)


@_claim("local-three-window", "every length-3 factor of the Fibonacci word contains exactly one 1", ("scan_n",))
def _claim_local_three_window(scan_n: int) -> Verdict:
    text = mechanical_prefix(scan_n).text
    for i in range(len(text) - 2):
        window = text[i : i + 3]
        ones = window.count("1")
        if ones != 1:
            return refuted(
                f"factor {window} at position {i + 1} contains {ones} ones",
                factor=window,
                position=i + 1,
                ones=ones,
                scan_n=scan_n,
            )
    return verified(f"all length-3 windows of the length-{scan_n} prefix have exactly one 1", scan_n=scan_n)


@_claim("y-length-formula", "the n-th y-word has length F(n+2)", (30,))
def _claim_y_length(y_max: int) -> Verdict:
    for n, text in zip(range(y_max + 1), y_words()):
        if len(text) != fib(n + 2):
            return refuted(f"|y_{n}| = {len(text)} != F({n + 2}) = {fib(n + 2)}", n=n)
    return verified(f"|y_n| = F(n+2) for 0 <= n <= {y_max}", y_max=y_max)


@_claim("letter-counts", "closed-form letter counts for the three Fibonacci-type families", (25,))
def _claim_letter_counts(letters_max: int) -> Verdict:
    families = ((FAMILY_Y, y_word, 0), (FAMILY_Q, q_word, 1), (FAMILY_FIBAB, fib_word_ab, 1))
    for family, build, first in families:
        for index in range(first, letters_max + 1):
            text = build(index).text
            scanned = (text.count("a"), text.count("b"))
            closed = letter_counts_closed_form(family, index)
            if scanned != closed:
                return refuted(
                    f"family {family}, index {index}: scan {scanned} != closed form {closed}",
                    family=family,
                    index=index,
                    scanned=list(scanned),
                    closed_form=list(closed),
                )
    return verified(
        f"closed forms match direct scans for all indices <= {letters_max}, all families",
        letters_max=letters_max,
        indexing_note=(
            "classical indexing: |fw_k| = F(k+1), a-count F(k), b-count F(k-1); "
            "the shifted convention under which |fw_k| = F(k) is recorded, not adopted"
        ),
    )


@_claim(
    "framed-density-limit",
    "letter densities of the framed family tend to 1/phi and 1/phi^2 (published density table)",
    (19,),
)
def _claim_framed_density_limit(framed_m_max: int) -> Verdict:
    tolerance = Fraction(1, 1000)
    for m in range(13, framed_m_max + 1):
        dens_a, dens_b = letter_densities(FAMILY_Q, m)
        if abs(dens_a - INV_PHI) >= tolerance:
            return refuted(f"|dens_a(q_{m}) - 1/phi| >= 1/1000", m=m, dens_a=str(dens_a))
        if abs(dens_b - INV_PHI_SQUARED) >= tolerance:
            return refuted(f"|dens_b(q_{m}) - 1/phi^2| >= 1/1000", m=m, dens_b=str(dens_b))
    # Compare the exact table against the published one, as data.
    matches = []
    divergences = []
    exact_rows = {row.m: row.rendered(6) for row in density_table(13)}
    for m, *published in PUBLISHED_DENSITY_TABLE:
        computed = exact_rows[m]
        for column, pub_cell, exact_cell in zip(DensityRow.COLUMNS, published, computed):
            if pub_cell == exact_cell:
                matches.append((m, column))
            else:
                divergences.append(
                    {"m": m, "column": column, "published": pub_cell, "computed": exact_cell}
                )
    return verified(
        (
            f"|dens_a(q_m) - 1/phi| < 1/1000 and |dens_b(q_m) - 1/phi^2| < 1/1000 "
            f"certified exactly for 13 <= m <= {framed_m_max}; published table matches the "
            f"exact densities at {len(matches)} of 44 cells (divergent cells in payload)"
        ),
        framed_m_max=framed_m_max,
        published_cells_matching=len(matches),
        published_cells_diverging=divergences,
    )


@_claim("df-convergence", "a-density of the Fibonacci words converges to phi - 1", (30,))
def _claim_df_convergence(df_k: int) -> Verdict:
    density = df_density(df_k)
    if abs(density - INV_PHI) < Fraction(1, 10**6):
        return verified(
            f"|df({df_k}) - (phi - 1)| < 10^-6, exactly",
            df_k=df_k,
            density=str(density),
            density_decimal=fraction_decimal(density, 6),
            limit_decimal=surd_decimal(INV_PHI, 6),
        )
    return refuted(f"|df({df_k}) - (phi - 1)| >= 10^-6", df_k=df_k, density=str(density))


@_claim("pow-invariance", "the power element built from Fibonacci words is independent of the index", (6,))
def check_pow_invariance(k_max: int) -> Verdict:
    """Are pow_fib(2), ..., pow_fib(k_max) all equal, as claimed?"""
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
    return verified(f"pow(k) identical for 2 <= k <= {k_max}", k_max=k_max)


@_claim("pow-value", "claimed constant value of the power element", ())
def _claim_pow_value() -> Verdict:
    computed = pow_fib(2)
    claimed = element_from_texts(AB, CLAIMED_POW_WORDS)
    if computed == claimed:
        return verified("pow(2) equals the claimed constant")
    computed_words = [w.text for w in computed.words()]
    claimed_words = list(CLAIMED_POW_WORDS)
    return refuted(
        (
            f"pow(2) = {computed.render()} but the claimed value is "
            f"{claimed.render()}; second monomial has {len(computed_words[1])} letters "
            f"by direct concatenation, {len(claimed_words[1])} as claimed"
        ),
        computed=computed_words,
        claimed=claimed_words,
    )


def _alpha_identity(alpha: int, w: Word) -> Verdict:
    """Weighted power sums over a 0/1 word versus the triangular-number multiple.

    Checks sum_k sum_{j=1..alpha} (alpha+1-j) * w_k^j = alpha(alpha+1)/2 * sum_k w_k
    with exact integers.  Each power is evaluated literally once per letter value and
    weighted by the number of positions that carry it.
    """
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
            f"both sides equal {lhs} for alpha={alpha} on a length-{len(text)} word",
            alpha=alpha,
            length=len(text),
            value=lhs,
        )
    return refuted(
        f"lhs {lhs} != rhs {rhs} for alpha={alpha}", alpha=alpha, length=len(text), lhs=lhs, rhs=rhs
    )


_ALPHA_IDENTITY = ("alpha-identity", "weighted power-sum identity for binary sequences")


@_claim(*_ALPHA_IDENTITY, (10, "scan_n"))
def _claim_alpha_identity(alpha_max: int, scan_n: int) -> Verdict:
    """The identity for alpha = 1..alpha_max on one prefix, as one claim."""
    prefix = mechanical_prefix(scan_n)
    for alpha in range(1, alpha_max + 1):
        status, _, payload = verdict = _alpha_identity(alpha, prefix)
        if status != VERIFIED:
            return verdict
    return verified(
        f"identity exact for alpha in 1..{alpha_max} on the length-{scan_n} prefix",
        alpha_max=alpha_max,
        scan_n=scan_n,
        value_at_alpha_max=payload["value"],
    )


# The per-alpha check, public under the same id and location; with no bounds it is not in `REGISTRY`.
alpha_identity_check = _claim(*_ALPHA_IDENTITY)(_alpha_identity)

ALL_CLAIM_IDS = tuple(sorted(REGISTRY))


def run_claims(ids: Iterable[str] | None, budgets: Budgets | None = None) -> list[ClaimResult]:
    """Evaluate each wanted id once (all if None); results in stable id order.

    Each check is looked up by name as its claim runs, so rebinding it reaches
    the run.  A bound that names a `Budgets` field reads it; any other bound is
    the argument itself.
    """
    fields = vars(budgets if budgets is not None else Budgets())
    wanted = ALL_CLAIM_IDS if ids is None else list(ids)
    unknown = [i for i in wanted if i not in REGISTRY]
    if unknown:
        raise ValueError(f"unknown claim id(s): {', '.join(unknown)}")
    entries = [REGISTRY[i] for i in sorted(set(wanted))]
    return [globals()[name](*(fields.get(x, x) for x in bounds)) for name, bounds in entries]


def run_all_claims(budgets: Budgets | None = None) -> list[ClaimResult]:
    """Evaluate every registered claim; results in stable id order."""
    return run_claims(None, budgets)
