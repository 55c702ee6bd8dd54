"""CLI requests drawn by Hypothesis, run in-process and checked by the benchmark's fibword-free oracle.

The requests stay within the caps of the benchmark's `cli-requests` workload
(`perfbench/workloads.py`), and `claims --id` requests take `test_cli`'s small
budgets, so each one is served in milliseconds.
"""

import contextlib
import io
import os
import subprocess
import sys
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import fibword.cli
from fibword.claims import ALL_CLAIM_IDS
from oracle_reference import PATH as ORACLE_PATH
from oracle_reference import oracle

# The cli-requests caps (perfbench/workloads.py)
Y_INDEX_MAX = 30
GEN_N_MAX = 10**6
BEATTY_N_MAX = 10**5
PLACES_MAX = 1000
TABLE_ROWS_MAX = 200
DENSITY_DIGITS_MAX = 30
CLAIMS_BUDGETS = ("--sweep-n", "2000", "--scan-n", "1000", "--ball-cases", "200")  # test_cli's


def _sized(most_digits, high):
    """Decimal strings of integers in 1..high, the digit count drawn uniformly, so large sizes are rare."""
    by_digits = st.integers(1, most_digits)
    return by_digits.flatmap(lambda k: st.integers(10 ** (k - 1), min(high, 10**k - 1)).map(str))


_SERVED = st.one_of(
    st.tuples(st.just("gen"), st.sampled_from(("morphic", "mechanical")), _sized(7, GEN_N_MAX)),
    st.tuples(st.just("gen"), st.just("y"), st.integers(0, Y_INDEX_MAX).map(str)),
    st.tuples(st.just("gen"), st.sampled_from(("q", "fibab")), st.integers(1, Y_INDEX_MAX).map(str)),
    st.tuples(
        st.just("density"),
        _sized(DENSITY_DIGITS_MAX, 10**DENSITY_DIGITS_MAX),
        st.just("--places"),
        st.integers(0, PLACES_MAX).map(str),
    ),
    st.tuples(st.just("beatty"), _sized(6, BEATTY_N_MAX)),
    st.tuples(st.just("table"), st.just("--rows"), st.integers(1, TABLE_ROWS_MAX).map(str)),
    st.sampled_from(ALL_CLAIM_IDS).map(lambda claim_id: ("claims", "--id", claim_id, *CLAIMS_BUDGETS)),
)
_USAGE_ERRORS = st.sampled_from(
    (
        ("claims", "--id", "no-such-claim"),
        ("table", "--rows", "0"),
        ("beatty", "0"),
        ("gen", "q", "0"),
        ("density", "0"),
        ("gen", "nosuchkind", "5"),
        ("gen", "y", str(Y_INDEX_MAX + 10)),
        ("density", "12", "--places", "-1"),
    )
)


@st.composite
def _requests(draw):
    """(argv, expected exit code): a served request or a usage error, in a drawn format."""
    argv, code = draw(st.one_of(_SERVED.map(lambda a: (a, 0)), _USAGE_ERRORS.map(lambda a: (a, 1))))
    return [*argv, "--format", draw(st.sampled_from(("text", "csv", "json")))], code


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = fibword.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def test_cli_requests_agree_with_the_oracle():
    cli_oracle, checked = oracle.CliOracle(), []

    @settings(max_examples=200, deadline=None)
    @given(_requests())
    def agrees(request):
        argv, expected_code = request
        assert cli_oracle.check(argv, expected_code, *_run(argv)), argv
        checked.append(argv)

    agrees()
    assert len(checked) >= 200 and any(argv[:2] == ["claims", "--id"] and argv[2] in ALL_CLAIM_IDS for argv in checked)


def test_the_oracle_loads_no_fibword_module():
    # fibword is importable in the child, so an import of it from the oracle would show
    script = (
        "import importlib.util, sys\n"
        "assert importlib.util.find_spec('fibword') is not None\n"
        f"spec = importlib.util.spec_from_file_location('perfbench_oracle', {str(ORACLE_PATH)!r})\n"
        "module = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(module)\n"
        "module.CliOracle()\n"
        "sys.stderr.write(' '.join(sys.modules))\n"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run(
        [sys.executable, "-S", "-B", "-c", script],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(src)),
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert [name for name in done.stderr.split() if name.partition(".")[0] == "fibword"] == []
