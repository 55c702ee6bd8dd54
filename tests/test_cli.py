import contextlib
import csv
import io
import json
import os
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fibword import cli
from fibword.cli import main
from fibword.goldenexact import beatty_phi, beatty_phi2, fib


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_examples(capsys):
    code, out, _ = run_cli(capsys, "gen", "mechanical", "13")
    assert code == 0 and out == "0100101001001\n"
    code, out, _ = run_cli(capsys, "gen", "q", "1")
    assert code == 0 and out == "aabb\n"
    code, out, _ = run_cli(capsys, "gen", "fibab", "5")
    assert code == 0 and out == "abaababa\n"
    code, out, _ = run_cli(capsys, "gen", "y", "3")
    assert code == 0 and out == "abaab\n"


def test_gen_morphic_equals_mechanical(capsys):
    for n in ("1", "13", "1000"):
        _, morphic, _ = run_cli(capsys, "gen", "morphic", n)
        _, mechanical, _ = run_cli(capsys, "gen", "mechanical", n)
        assert morphic == mechanical


def test_gen_csv_and_json(capsys):
    code, out, _ = run_cli(capsys, "gen", "mechanical", "5", "--format", "csv")
    assert code == 0
    assert out == "kind,index,word\nmechanical,5,01001\n"
    code, out, _ = run_cli(capsys, "gen", "mechanical", "5", "--format", "json")
    document = json.loads(out)
    assert document["schema_version"] == 1
    assert document["word"] == "01001"


@pytest.mark.parametrize("kind, index", [("morphic", 1), ("mechanical", 1000), ("y", 0), ("q", 1), ("fibab", 20)])
def test_gen_csv_matches_csv_writer(capsys, kind, index):
    _, text, _ = run_cli(capsys, "gen", kind, str(index))
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows([["kind", "index", "word"], [kind, str(index), text[:-1]]])
    assert run_cli(capsys, "gen", kind, str(index), "--format", "csv") == (0, buffer.getvalue(), "")


def test_gen_invalid_index(capsys):
    code, _, err = run_cli(capsys, "gen", "mechanical", "0")
    assert code == 1
    assert "error" in err


def test_gen_unknown_kind(capsys):
    code = main(["gen", "nope", "5"])
    captured = capsys.readouterr()
    assert code == 1
    assert "invalid choice" in captured.err


# (kind, largest index within the cap, letters it makes): |y_k| = F(k+2),
# |q_k| = F(k+2) + 2, |fw_k| = F(k+1), and F(35) = 9227465 <= 10**7 < F(36).
GEN_CAP_EDGES = [
    ("morphic", 10**7, 10**7),
    ("mechanical", 10**7, 10**7),
    ("y", 33, fib(35)),
    ("q", 33, fib(35) + 2),
    ("fibab", 34, fib(35)),
]


@pytest.mark.parametrize("kind, index, letters", GEN_CAP_EDGES)
def test_gen_cap_checked_before_building(capsys, monkeypatch, kind, index, letters):
    def unreachable(*args):
        raise RuntimeError("word construction reached")

    makers = ("morphism.fixed_point_prefix", "mechanical.mechanical_prefix", "derived.y_word",
                "derived.q_word", "derived.fib_word_ab")
    for target in makers:
        monkeypatch.setattr(f"fibword.{target}", unreachable)
    assert cli.GEN_MAX_LETTERS == 10**7
    reached = (2, "", "fibword: internal error: word construction reached\n")
    over = f"fibword: error: gen {kind} {index + 1} would make more than 10000000 letters\n"
    assert run_cli(capsys, "gen", kind, str(index)) == reached
    assert run_cli(capsys, "gen", kind, str(index + 1)) == (1, "", over)
    assert run_cli(capsys, "gen", kind, str(10**30))[0] == 1
    monkeypatch.setattr(cli, "GEN_MAX_LETTERS", letters)  # the cap itself, then cap + 1 letters
    assert run_cli(capsys, "gen", kind, str(index)) == reached
    monkeypatch.setattr(cli, "GEN_MAX_LETTERS", letters - 1)
    over = f"fibword: error: gen {kind} {index} would make more than {letters - 1} letters\n"
    assert run_cli(capsys, "gen", kind, str(index)) == (1, "", over)


def test_gen_cap_keeps_index_errors(capsys):
    for argv, message in [
        (["gen", "y", "-1"], "y-word index must be >= 0"),
        (["gen", "q", "0"], "framed-word index must be >= 1"),
        (["gen", "fibab", "-5"], "Fibonacci word index must be >= 1"),
        (["gen", "morphic", "0"], "prefix length must be >= 1"),
    ]:
        assert run_cli(capsys, *argv) == (1, "", f"fibword: error: {message}\n")


def test_density_text_and_json(capsys):
    code, out, _ = run_cli(capsys, "density", "13")
    assert code == 0
    assert "count1: 5" in out
    assert "density1: 0.384615" in out
    code, out, _ = run_cli(capsys, "density", "13", "--format", "json")
    document = json.loads(out)
    assert document["count1"] == 5
    assert document["density1"] == "0.384615"
    assert document["density1_exact"] == "5/13"
    assert document["deviation1_sign"] == 1
    code, out, _ = run_cli(capsys, "density", "1", "--format", "json")
    document = json.loads(out)
    assert document["count1"] == 0
    assert document["deviation1_sign"] == -1
    assert document["deviation1"] == "-0.381966"


def test_density_invalid(capsys):
    code, _, err = run_cli(capsys, "density", "0")
    assert code == 1 and "error" in err


def test_density_large_prefix_deviation_below_one(capsys):
    code, out, _ = run_cli(capsys, "density", "100000", "--format", "json")
    assert code == 0
    document = json.loads(out)
    assert document["count0"] + document["count1"] == 100000
    # rendered magnitude stays below 1; exactness is covered by library tests
    assert abs(float(document["deviation1"])) < 1
    assert document["deviation1_sign"] in (-1, 1)


def test_table_csv_single_row(capsys):
    code, out, _ = run_cli(capsys, "table", "--rows", "1", "--format", "csv")
    assert code == 0
    assert out == (
        "m,dens_a_q,dens_b_q,dens_a_y,dens_b_y\n"
        "3,0.571429,0.428571,0.600000,0.400000\n"
    )


def test_table_json_strings(capsys):
    code, out, _ = run_cli(capsys, "table", "--rows", "2", "--format", "json")
    document = json.loads(out)
    assert document["rows"][1] == {
        "m": "4",
        "dens_a_q": "0.600000",
        "dens_b_q": "0.400000",
        "dens_a_y": "0.625000",
        "dens_b_y": "0.375000",
    }


def test_table_cells_fixed_point(capsys):
    _, out, _ = run_cli(capsys, "table", "--rows", "20", "--format", "csv")
    assert "\r" not in out
    for line in out.splitlines()[1:]:
        m, *cells = line.split(",")
        assert m.isdigit()
        for cell in cells:
            assert re.fullmatch(r"0\.\d{6}", cell), cell


def test_table_invalid(capsys):
    code, _, err = run_cli(capsys, "table", "--rows", "0")
    assert code == 1 and "error" in err


def test_beatty_rows(capsys):
    code, out, _ = run_cli(capsys, "beatty", "4", "--format", "csv")
    assert code == 0
    assert out == "n,f1,f2\n1,1,2\n2,3,5\n3,4,7\n4,6,10\n"
    _, out, _ = run_cli(capsys, "beatty", "30", "--format", "csv")
    assert out.splitlines()[-1] == "30,48,78"
    code, out, _ = run_cli(capsys, "beatty", "1", "--format", "json")
    assert json.loads(out)["rows"] == [{"n": 1, "f1": 1, "f2": 2}]


def _beatty_reference(n: int, fmt: str) -> str:
    """`beatty n` as csv.writer and json.dumps write it, from the random-access floors."""
    rows = [(m, beatty_phi(m), beatty_phi2(m)) for m in range(1, n + 1)]
    if fmt == "text":
        return "".join(f"{m} {f1} {f2}\n" for m, f1, f2 in rows)
    if fmt == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(["n", "f1", "f2"])
        writer.writerows(rows)
        return buffer.getvalue()
    document = {
        "schema_version": 1,
        "command": "beatty",
        "rows": [{"n": m, "f1": f1, "f2": f2} for m, f1, f2 in rows],
    }
    return json.dumps(document, indent=2, sort_keys=True, ensure_ascii=False) + "\n"


@pytest.mark.parametrize("fmt", cli.FORMATS)
def test_beatty_rows_match_encoder_reference(capsys, fmt):
    for n in [*range(1, 41), 2000]:
        assert run_cli(capsys, "beatty", str(n), "--format", fmt) == (0, _beatty_reference(n, fmt), "")


def _unreachable(*args):
    raise RuntimeError("builder reached")


REACHED = (2, "", "fibword: internal error: builder reached\n")


def test_beatty_cap_checked_before_building(capsys, monkeypatch):
    monkeypatch.setattr("fibword.goldenexact.beatty_floors", _unreachable)
    assert cli.BEATTY_MAX_N == 10**6
    over = (1, "", "fibword: error: beatty prints at most 1000000 rows\n")
    for fmt in cli.FORMATS:
        assert run_cli(capsys, "beatty", str(10**6), "--format", fmt) == REACHED
        assert run_cli(capsys, "beatty", str(10**6 + 1), "--format", fmt) == over
    assert run_cli(capsys, "beatty", str(10**30)) == over


def test_density_caps_checked_before_building(capsys, monkeypatch):
    monkeypatch.setattr("fibword.mechanical.density_report", _unreachable)
    assert (cli.DENSITY_MAX_DIGITS, cli.DENSITY_MAX_PLACES) == (2000, 2000)
    top = str(10**2000 - 1)
    assert run_cli(capsys, "density", top, "--places", "2000") == REACHED
    big_n = (1, "", "fibword: error: density needs n < 10**2000\n")
    # 10**4295 has 4296 digits, just inside the interpreter's int-to-str limit of 4300
    for n in (10**2000, 10**4295):
        assert run_cli(capsys, "density", str(n)) == big_n
    many_places = (1, "", "fibword: error: density prints at most 2000 places\n")
    for places in ("2001", "4300"):
        assert run_cli(capsys, "density", "13", "--places", places) == many_places


@pytest.mark.parametrize("fmt", cli.FORMATS)
def test_density_served_at_its_caps(capsys, fmt):
    code, out, err = run_cli(capsys, "density", str(10**2000 - 1), "--places", "2000", "--format", fmt)
    assert (code, err) == (0, "")
    assert re.search(r"\b0\.3819660112501051\d{1984}\b", out)  # density1 ~ 1/phi^2 to 2000 places


def test_table_rows_cap_checked_before_building(capsys, monkeypatch):
    monkeypatch.setattr("fibword.derived.density_table", _unreachable)
    assert cli.TABLE_MAX_ROWS == 10**4
    over = (1, "", "fibword: error: table prints at most 10000 rows\n")
    for fmt in cli.FORMATS:
        assert run_cli(capsys, "table", "--rows", str(10**4), "--format", fmt) == REACHED
        assert run_cli(capsys, "table", "--rows", str(10**4 + 1), "--format", fmt) == over
    assert run_cli(capsys, "table", "--rows", str(10**30)) == over


@pytest.mark.parametrize("name, cap", [("sweep_n", 10**7), ("scan_n", 10**6), ("ball_cases", 10**6)])
def test_claims_budget_caps_checked_before_running(capsys, monkeypatch, name, cap):
    served = []

    def unreachable(ids, budgets):
        served.append(getattr(budgets, name))
        raise RuntimeError("builder reached")

    monkeypatch.setattr("fibword.claims.run_claims", unreachable)
    assert cli.BUDGET_FLAGS[name] == cap
    flag = "--" + name.replace("_", "-")
    over = (1, "", f"fibword: error: claims {flag} is at most {cap}\n")
    for ids in ([], ["--id", "local-no-11"], ["--all"]):
        assert run_cli(capsys, "claims", *ids, flag, str(cap)) == REACHED
        assert run_cli(capsys, "claims", *ids, flag, str(cap + 1)) == over
    assert run_cli(capsys, "claims", flag, str(10**30)) == over
    assert served == [cap] * 3


def test_default_budgets_within_caps():
    from fibword.claims import Budgets

    defaults = Budgets()
    assert all(getattr(defaults, name) <= cap for name, cap in cli.BUDGET_FLAGS.items())


def test_internal_error_without_message_names_its_type(capsys, monkeypatch):
    def exhausted(*args):
        raise MemoryError()

    monkeypatch.setattr("fibword.goldenexact.beatty_floors", exhausted)
    assert run_cli(capsys, "beatty", "5", "--format", "json") == (2, "", "fibword: internal error: MemoryError\n")


def test_claims_single_id(capsys):
    code, out, _ = run_cli(
        capsys, "claims", "--id", "beatty-partition", "--sweep-n", "2000",
        "--scan-n", "1000", "--ball-cases", "200",
    )
    assert code == 0
    assert "beatty-partition: verified" in out


def test_claims_refuted_exit_zero(capsys):
    code, out, _ = run_cli(
        capsys, "claims", "--id", "pow-invariance", "--sweep-n", "2000",
        "--scan-n", "1000", "--ball-cases", "200",
    )
    assert code == 0
    assert "pow-invariance: refuted" in out
    assert "witness" in out


def test_claims_unknown_id(capsys):
    code, _, err = run_cli(capsys, "claims", "--id", "nope")
    assert code == 1 and "unknown claim id" in err


def test_claims_json_schema(capsys):
    code, out, _ = run_cli(
        capsys, "claims", "--id", "pow-value", "--format", "json",
        "--sweep-n", "2000", "--scan-n", "1000", "--ball-cases", "200",
    )
    document = json.loads(out)
    assert document["schema_version"] == 1
    record = document["claims"][0]
    assert set(record) == {"id", "location", "status", "witness", "payload"}
    assert record["status"] == "refuted"


def test_claims_csv_payload_column(capsys):
    code, out, _ = run_cli(
        capsys, "claims", "--id", "doubling-lucas-form", "--format", "csv",
        "--sweep-n", "2000", "--scan-n", "1000", "--ball-cases", "200",
    )
    lines = out.splitlines()
    assert lines[0] == "id,location,status,witness,payload"
    assert lines[1].startswith("doubling-lucas-form,")
    assert len(lines) == 2  # one record: only the named claim runs


def test_claims_id_evaluates_only_named_claims(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("this claim must not be evaluated")

    monkeypatch.setattr("fibword.claims.ball_nesting_check", broken)
    monkeypatch.setattr("fibword.claims.verify_beatty_partition", broken)
    code, out, err = run_cli(capsys, "claims", "--id", "pow-value")
    assert code == 0, err
    assert out.startswith("pow-value: refuted\n")


def test_claims_repeated_ids_print_once_in_id_order(capsys):
    code, out, _ = run_cli(
        capsys, "claims", "--id", "pow-value", "--id", "alpha-identity", "--id", "pow-value",
        "--format", "json", "--sweep-n", "2000", "--scan-n", "1000", "--ball-cases", "200",
    )
    assert code == 0
    assert [r["id"] for r in json.loads(out)["claims"]] == ["alpha-identity", "pow-value"]


def test_claims_all_lists_whole_registry(capsys):
    import csv as csv_module
    import io

    code, out, _ = run_cli(
        capsys, "claims", "--all", "--format", "csv",
        "--sweep-n", "2000", "--scan-n", "1000", "--ball-cases", "200",
    )
    assert code == 0
    rows = list(csv_module.reader(io.StringIO(out)))
    assert len(rows) == 1 + 19
    from fibword.claims import ALL_CLAIM_IDS

    assert [row[0] for row in rows[1:]] == sorted(ALL_CLAIM_IDS)


def test_deterministic_output(capsys):
    _, first, _ = run_cli(capsys, "table", "--rows", "11", "--format", "csv")
    _, second, _ = run_cli(capsys, "table", "--rows", "11", "--format", "csv")
    assert first == second
    _, a, _ = run_cli(
        capsys, "claims", "--format", "json", "--sweep-n", "2000",
        "--scan-n", "1000", "--ball-cases", "200",
    )
    _, b, _ = run_cli(
        capsys, "claims", "--format", "json", "--sweep-n", "2000",
        "--scan-n", "1000", "--ball-cases", "200",
    )
    assert a == b


def test_out_flag(tmp_path, capsys):
    target = tmp_path / "beatty.csv"
    code, out, _ = run_cli(capsys, "beatty", "3", "--format", "csv", "--out", str(target))
    assert code == 0 and out == ""
    assert target.read_text() == "n,f1,f2\n1,1,2\n2,3,5\n3,4,7\n"


def test_out_flag_unwritable_path(tmp_path, capsys):
    target = tmp_path / "missing" / "out.txt"
    code, out, err = run_cli(capsys, "gen", "y", "3", "--out", str(target))
    assert code == 1 and out == ""
    assert "Traceback" not in err
    assert err.startswith(f"fibword: error: cannot write {target}: ")


def test_out_flag_path_with_nul_byte(capsys):
    code, out, err = run_cli(capsys, "gen", "y", "3", "--out", "nul\x00byte")
    assert (code, out, err) == (1, "", "fibword: error: cannot write nul\x00byte: embedded null byte\n")


def test_missing_subcommand(capsys):
    code = main([])
    captured = capsys.readouterr()
    assert code == 1
    assert "usage" in captured.err.lower()


# Fuzzing main(argv): requests shaped like each subcommand's, then options,
# words and junk in any order. Numbers are small, negative or over every size
# cap at once, so that no draw asks for a large amount of work a cap allows.
_OVER_EVERY_CAP = [10**cli.DENSITY_MAX_DIGITS, 3 * 10**cli.DENSITY_MAX_DIGITS + 1, 10**4299]
_NUMBER = st.one_of(
    st.integers(0, 20).map(str),
    st.integers(0, 20).map(str),  # twice: most draws should name work that runs
    st.integers(-(10**6), -1).map(str),
    st.sampled_from(_OVER_EVERY_CAP).map(str),
    st.just("9" * 5000),  # past the int() digit limit of Python 3.11 and later
)
_JUNK = st.one_of(st.text(max_size=8), st.just("nul\x00byte"))  # open() raises ValueError on a NUL
_FLAGS = ["--format", "--out", "--places", "--rows", "--id", *("--" + n.replace("_", "-") for n in cli.BUDGET_FLAGS)]
_WORDS = [*cli._DISPATCH, *cli.GEN_KINDS, *cli.FORMATS, *_FLAGS, "xml", "--all", "--version", "--help", "-h", "--", "-"]
_CLAIM_IDS = ["local-no-11", "pow-value", "doubling-fib", "nope"]  # a few of the cheap claims
_STEM = st.one_of(
    st.tuples(st.just("gen"), st.sampled_from([*cli.GEN_KINDS, "x"]), _NUMBER),
    st.tuples(st.sampled_from(["density", "beatty"]), _NUMBER),
    st.tuples(st.just("table"), st.just("--rows"), _NUMBER),
    st.tuples(st.just("claims"), st.just("--id"), st.sampled_from(_CLAIM_IDS)),
    st.tuples(st.sampled_from([*cli._DISPATCH, "--version", "nope"])),
    st.just(()),
)
_OPTION = st.tuples(
    st.sampled_from(_FLAGS),
    st.one_of(st.sampled_from([*cli.FORMATS, "xml", *_CLAIM_IDS]), _NUMBER, _JUNK),
)
_FUZZ_ARGV = st.builds(
    lambda stem, options, tail: [*stem, *(token for option in options for token in option), *tail],
    _STEM,
    st.lists(_OPTION, max_size=3),
    st.lists(st.one_of(st.sampled_from(_WORDS), _NUMBER, _JUNK), max_size=2),
)


@settings(max_examples=150, deadline=None)
@given(argv=_FUZZ_ARGV)
def test_fuzzed_argv_exits_0_1_or_2_without_traceback(tmp_path_factory, argv):
    err = io.StringIO()
    cwd = os.getcwd()
    os.chdir(tmp_path_factory.mktemp("fuzz"))  # any --out a draw names is written here
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        os.chdir(cwd)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
