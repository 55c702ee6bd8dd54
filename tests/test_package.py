import os
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import pytest

import fibword
from fibword import goldenexact

SRC = Path(__file__).resolve().parent.parent / "src"
SUBMODULES = {f"fibword.{path.stem}" for path in (SRC / "fibword").glob("*.py")} - {"fibword.__init__"}


def test_all_lists_exactly_the_public_names():
    assert "annotations" not in fibword.__all__
    assert "run_claims" in fibword.__all__
    assert [name for name in fibword.__all__ if not hasattr(fibword, name)] == []
    public = {
        name
        for name, value in vars(fibword).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    }
    assert sorted(fibword.__all__) == sorted(public)


def _modules_loaded_after(code: str) -> set[str]:
    """Modules in sys.modules after running `code` in a fresh interpreter without site."""
    script = f"import sys\n{code}\nsys.stderr.write(' '.join(sys.modules))\n"
    done = subprocess.run(
        [sys.executable, "-S", "-c", script],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return set(done.stderr.split())


@pytest.mark.parametrize(
    "code, unwanted",
    [
        # annotations name collections.abc and `|` unions, so no request loads typing
        ("import fibword", SUBMODULES | {"typing"}),
        ("import fibword.cli", {"dataclasses", "fractions", "json", "csv", "fibword.claims", "typing"}),
        (
            "import fibword.cli\nfibword.cli.main(['gen', 'morphic', '10'])",
            {"fibword.claims", "fibword.freealg", "fractions", "typing"},
        ),
        # beatty renders its rows itself: the pure-Python json encoder (indent=2) is slow
        ("import fibword.cli\nfibword.cli.main(['beatty', '5', '--format', 'json'])", {"json", "csv", "typing"}),
        ("import fibword.cli\nfibword.cli.main(['beatty', '5', '--format', 'csv'])", {"json", "csv", "typing"}),
        # the library below the verifier builds no verdicts
        (
            "import fibword.cli\nfibword.cli.main(['density', '5'])",
            {"fibword.claimresult", "fibword.morphism", "fibword.claims", "typing"},
        ),
        (
            "import fibword.cli\nfibword.cli.main(['gen', 'mechanical', '10'])",
            {"fibword.claimresult", "fibword.morphism", "fibword.claims", "typing"},
        ),
        # the verifier loads every module of the package
        ("import fibword.cli\nfibword.cli.main(['claims', '--id', 'letter-counts'])", {"typing"}),
    ],
)
def test_each_request_imports_only_what_it_uses(code, unwanted):
    loaded = _modules_loaded_after(code)
    assert "fibword" in loaded and "fibword.goldenexact" in SUBMODULES
    assert loaded & unwanted == set()


def test_requests_below_the_gmp_index_never_load_ctypes():
    # GMP serves fib and lucas from index _GMP_FROM on; no CLI request reaches it (`table` walks the
    # memo from index 3 by linear steps), so none loads ctypes
    assert goldenexact._GMP_FROM > 1024  # the top index of telescoping-identity
    assert {"ctypes", "fibword._gmp"} & _modules_loaded_after("import fibword.goldenexact") == set()
    requests = [
        ["gen", "morphic", "10"],
        ["density", "123456789", "--places", "300"],
        ["table", "--rows", "200"],
        ["table", "--rows", "4100"],
        ["beatty", "1000"],
        ["claims"],
    ]
    code = "import fibword.cli\n" + "".join(f"assert fibword.cli.main({argv!r}) == 0\n" for argv in requests)
    loaded = _modules_loaded_after(code)
    assert "fibword.claims" in loaded and {"ctypes", "fibword._gmp"} & loaded == set()
