"""Behaviour of the nine immutable value classes: repr, equality, hashing,
immutability, pickling and copying, constructor defaults and validation.

The repr strings and error messages were recorded from the frozen-dataclass
implementation, so any reimplementation of the classes must keep them.
"""

import copy
import dataclasses
import pickle
from fractions import Fraction

import pytest

from fibword.claimresult import ClaimResult
from fibword.claims import Budgets
from fibword.derived import DensityRow
from fibword.freealg import AlgebraElement
from fibword.goldenexact import PHI, Surd, ZeckendorfRep
from fibword.mechanical import DensityReport
from fibword.words import AB, BINARY, Alphabet, Word

AB_REPR = "Alphabet(symbols=('a', 'b'))"
WORD_AB = Word(AB, "ab")
WORD_BA = Word(AB, "ba")
TARGET1 = Surd(Fraction(39, 2), Fraction(-13, 2))
DEVIATION1 = Surd(Fraction(-29, 2), Fraction(13, 2))
BIG = Surd(Fraction(10**20 + 1, 3), Fraction(-7, 9))

# (instance, its field values in declaration order, repr recorded from the dataclasses)
VALUES = [
    (BINARY, (("0", "1"),), "Alphabet(symbols=('0', '1'))"),
    (Word(AB, "abaab"), (AB, "abaab"), f"Word(alphabet={AB_REPR}, text='abaab')"),
    (
        ClaimResult("pow-value", "Sec. 3", "refuted", "w", {"k": 1}),
        ("pow-value", "Sec. 3", "refuted", "w", {"k": 1}),
        "ClaimResult(id='pow-value', location='Sec. 3', status='refuted', witness='w', payload={'k': 1})",
    ),
    (Budgets(), (100_000, 10_000, 10_000), "Budgets(sweep_n=100000, scan_n=10000, ball_cases=10000)"),
    (
        DensityRow(3, Fraction(4, 7), Fraction(3, 7), Fraction(3, 5), Fraction(2, 5)),
        (3, Fraction(4, 7), Fraction(3, 7), Fraction(3, 5), Fraction(2, 5)),
        "DensityRow(m=3, dens_a_q=Fraction(4, 7), dens_b_q=Fraction(3, 7), "
        "dens_a_y=Fraction(3, 5), dens_b_y=Fraction(2, 5))",
    ),
    (
        DensityReport(13, 8, 5, Fraction(8, 13), Fraction(5, 13), TARGET1, DEVIATION1),
        (13, 8, 5, Fraction(8, 13), Fraction(5, 13), TARGET1, DEVIATION1),
        "DensityReport(n=13, count0=8, count1=5, density0=Fraction(8, 13), density1=Fraction(5, 13), "
        "target1=Surd(p=39, q=-13, d=2), deviation1=Surd(p=-29, q=13, d=2))",
    ),
    (
        AlgebraElement(AB, ((WORD_AB, 3), (WORD_BA, -1))),
        (AB, ((WORD_AB, 3), (WORD_BA, -1))),
        f"AlgebraElement(alphabet={AB_REPR}, terms=((Word(alphabet={AB_REPR}, text='ab'), 3), "
        f"(Word(alphabet={AB_REPR}, text='ba'), -1)))",
    ),
    (ZeckendorfRep((1, 0, 1, 0, 1)), ((1, 0, 1, 0, 1),), "ZeckendorfRep(bits=(1, 0, 1, 0, 1))"),
    (PHI, (1, 1, 2), "Surd(p=1, q=1, d=2)"),
    (BIG, (300000000000000000003, -7, 9), "Surd(p=300000000000000000003, q=-7, d=9)"),
]
IDS = [type(value).__name__ for value, _, _ in VALUES]
NOT_PRINTABLE = "alphabet symbols must be single printable characters"


def _field_hash(value, fields):
    """The hash of the field tuple; a ClaimResult hashes the fields before its unhashable dict payload."""
    return hash(fields[:4] if isinstance(value, ClaimResult) else fields)


@pytest.mark.parametrize(("value", "fields", "text"), VALUES, ids=IDS)
def test_repr_equality_and_hash(value, fields, text):
    assert repr(value) == text
    assert value == copy.copy(value) and not value != copy.copy(value)
    assert value != fields and not value == fields and fields != value
    assert hash(value) == _field_hash(value, fields)
    for other, _, _ in VALUES:
        if other is not value:
            assert value != other and not value == other
        if type(other) is not type(value):
            assert value.__eq__(other) is NotImplemented
    assert value.__eq__(fields) is NotImplemented


@pytest.mark.parametrize(("value", "fields", "text"), VALUES, ids=IDS)
def test_frozen(value, fields, text):
    first = next(iter(vars(value)))
    for name in (first, "other"):
        with pytest.raises(dataclasses.FrozenInstanceError, match=f"cannot assign to field '{name}'"):
            setattr(value, name, 1)
        with pytest.raises(dataclasses.FrozenInstanceError, match=f"cannot delete field '{name}'"):
            delattr(value, name)
    assert repr(value) == text


@pytest.mark.parametrize(("value", "fields", "text"), VALUES, ids=IDS)
def test_pickle_and_copy(value, fields, text):
    clones = [pickle.loads(pickle.dumps(value, proto)) for proto in range(pickle.HIGHEST_PROTOCOL + 1)]
    for clone in clones + [copy.copy(value), copy.deepcopy(value)]:
        assert type(clone) is type(value) and clone == value and repr(clone) == text
        assert hash(clone) == hash(value)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(clone, "other", 1)


def test_claim_results_key_sets_and_dicts():
    result = ClaimResult("x", "l", "verified", "w", {"k": 1})
    same = ClaimResult("x", "l", "verified", "w", {"k": 1})
    other_payload = ClaimResult("x", "l", "verified", "w", {"k": 2})
    assert {result: 1}[same] == 1 and len({result, same, other_payload}) == 2
    assert hash(other_payload) == hash(result)


def test_keyword_construction_and_defaults():
    assert Alphabet(symbols=["x", "y"]).symbols == ("x", "y")
    assert Word(alphabet=AB, text="ba") == WORD_BA
    assert ZeckendorfRep(bits=[1, 0, 1]).bits == (1, 0, 1)
    assert AlgebraElement(alphabet=AB, terms=()) == AlgebraElement.zero(AB)
    default = ClaimResult(id="x", location="l", status="verified", witness="w")
    assert default.payload == {}
    assert default.payload is not ClaimResult("x", "l", "verified", "w").payload
    assert repr(default) == "ClaimResult(id='x', location='l', status='verified', witness='w', payload={})"
    assert (Budgets().sweep_n, Budgets().scan_n, Budgets().ball_cases) == (100_000, 10_000, 10_000)
    assert Budgets(scan_n=3) == Budgets(100_000, 3, 10_000)
    row = DensityRow(m=3, dens_a_q=1, dens_b_q=2, dens_a_y=3, dens_b_y=4)
    assert row == DensityRow(3, 1, 2, 3, 4)
    report = DensityReport(
        n=1, count0=1, count1=0, density0=1, density1=0, target1=TARGET1, deviation1=DEVIATION1
    )
    assert report == DensityReport(1, 1, 0, 1, 0, TARGET1, DEVIATION1)


@pytest.mark.parametrize(
    ("build", "error", "message"),
    [
        (lambda: Alphabet(("0",)), ValueError, "alphabet must have 2..10 symbols, got 1"),
        (lambda: Alphabet(("0", "0")), ValueError, "alphabet symbols must be distinct"),
        (lambda: Alphabet(("0", "ab")), ValueError, f"{NOT_PRINTABLE}, got 'ab'"),
        (lambda: Alphabet(("0", "\n")), ValueError, f"{NOT_PRINTABLE}, got '\\n'"),
        (lambda: Word(BINARY, "012"), ValueError, "letters ['2'] not in alphabet"),
        (lambda: ClaimResult("x", "l", "maybe", "w"), ValueError, "status must be 'verified' or 'refuted'"),
        (lambda: ClaimResult("x", "l", "verified", ""), ValueError, "a claim result must carry witness text"),
        (lambda: Budgets(sweep_n=0), ValueError, "budget sweep_n must be >= 1, got 0"),
        (lambda: Budgets(scan_n=2), ValueError, "budget scan_n must be >= 3, got 2"),
        (lambda: Budgets(ball_cases=0), ValueError, "budget ball_cases must be >= 1, got 0"),
        (lambda: ZeckendorfRep((2,)), ValueError, "bits must be 0 or 1"),
        (lambda: ZeckendorfRep((1, 1)), ValueError, "adjacent 1s in Zeckendorf representation"),
        (lambda: ZeckendorfRep((1, 0)), ValueError, "trailing zero bits are not canonical"),
        (lambda: Surd(0.5, 0), TypeError, "surd components must be exact (int or Fraction)"),
    ],
)
def test_validation_messages(build, error, message):
    with pytest.raises(error) as info:
        build()
    assert str(info.value) == message
