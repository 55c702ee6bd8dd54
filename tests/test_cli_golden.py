"""Golden CLI output: exit code, stderr and the sha256 of stdout for fixed requests.

The digests pin today's output byte for byte, so a refactor of the kernel or
the word builders cannot change what the CLI prints without failing here.
If an output change is intended, regenerate the digests and say why.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from fibword.cli import main

FORMATS = ("text", "csv", "json")

REQUESTS = {
    "gen-morphic": ["gen", "morphic", "1000"],
    "gen-mechanical": ["gen", "mechanical", "1000"],
    "gen-y": ["gen", "y", "15"],
    "gen-q": ["gen", "q", "12"],
    "gen-fibab": ["gen", "fibab", "14"],
    "density-13": ["density", "13"],
    "density-30-digit": ["density", str(10**29 + 7), "--places", "200"],
    "density-1-places-0": ["density", "1", "--places", "0"],  # deviation1 has sign -1 and renders as 0
    "beatty": ["beatty", "2000"],
    "table": ["table", "--rows", "40"],
    "claims": ["claims", "--sweep-n", "3000", "--scan-n", "500", "--ball-cases", "200"],
    "claims-default": ["claims"],
}

STDOUT_SHA256 = {
    ("gen-morphic", "text"): "c4a4206a98301e46609842003c39c558da3cdbe1cbab0dfafdd9ca16e5f8e55e",
    ("gen-morphic", "csv"): "595bbd8769e194bd29dfe4ec006df2475f7f60afa014a64c1425289e1d1208ec",
    ("gen-morphic", "json"): "87e21b90f4f7549c49d10342334ab00ec8707cb92d870b135842956e2505100d",
    ("gen-mechanical", "text"): "c4a4206a98301e46609842003c39c558da3cdbe1cbab0dfafdd9ca16e5f8e55e",
    ("gen-mechanical", "csv"): "7ab4db17fbea4376729d56a46b8beffbcd9613a1d0f40c17270884e5a1eb2346",
    ("gen-mechanical", "json"): "540ed38db99338fb427ab48f6ef36a7f975e71ddd7f5a10c12e36adda7149be4",
    ("gen-y", "text"): "6b927aa6714f11bfe5da049cb9c299b338e7742ce40669b605c790d52cbccb78",
    ("gen-y", "csv"): "4cb949e5cd93ba3d91539c50ea19ae19ce56befaa910f6ff3361538c800d5c02",
    ("gen-y", "json"): "147ae207c51e5dc184065bf7e70370ff37c686dceed5288b0e2844ad8657c913",
    ("gen-q", "text"): "7463fa67fe8b6850e9eb4a27d494dcf52f9b026030ce95641d6c33b553a73569",
    ("gen-q", "csv"): "4dba6fa69bf7891a21bea021ed08998f379739f809e6ecbe5f309736e59bc041",
    ("gen-q", "json"): "0e8f8156cb99d6d4ce1b2d07e2d4fd9e25ace6d81c06d6d5877b60fc1dd5dd91",
    ("gen-fibab", "text"): "570976ad66cce9822c37b94dee11bbf3c48a0a94e6b8003bcba2d1eaefd32ae8",
    ("gen-fibab", "csv"): "d1774076e03c1ff8761de1f4d07657115259c5a48bc00dfbd1135125314b864a",
    ("gen-fibab", "json"): "3e0469933915b1079af3e0661e58a21357f78fbeec74a63dd4fed36070a26204",
    ("density-13", "text"): "fa5fa86ebf730ef743bf78da3b4b424fbdcd0a77cef69bdd2f5b6e60e208ad60",
    ("density-13", "csv"): "76e08f6ab55d4624a22901c98d81b2495522e6b846440e6cc135ef7d3e8cefea",
    ("density-13", "json"): "4b2564631f7b98167c57ffcbb8976979ba9c4c5529fe1f6fad5896c16c5935ff",
    ("density-30-digit", "text"): "e6158d2802f9c3155b42ce255eaa9a1d721516963765c955c22f89ec3d4ab385",
    ("density-30-digit", "csv"): "719f7eca62e5d1d02dcd27f0cc1e610a443fa9b54d64c15d25cf355c8184ec3f",
    ("density-30-digit", "json"): "d2130fc217624718d3564cef7db54835d4da10240b8083caaa8dd24f58bc102e",
    ("density-1-places-0", "text"): "82a2866a2915823f4743dced4537e6854037fe5493ebccfc04c18399e7b79bae",
    ("density-1-places-0", "csv"): "1f08a3f4d61464fa3ef430fd5576f32187ae5ad974edff4bec666ab5531747ce",
    ("density-1-places-0", "json"): "d219a1d79441dae36fedc6d7b6757fc39aac3d69a6d25c6cb0f1c15161e7202b",
    ("beatty", "text"): "81fcd24b30f0e72b296c601438b294732a26b3b71274c84e5bc56b231c1ea67a",
    ("beatty", "csv"): "55647bcf86d69171f3bba9721f3b56cef968ff1389422d0e5ed3b5155e56b1a8",
    ("beatty", "json"): "dc8e94d5cb81b96d4e01571b53a0d7a903a2fbc6f1a7546c6e6fe113072a4d66",
    ("table", "text"): "f20665948259275759f8f7d833f269b87804393e8e8f684a76147fa69a3f7041",
    ("table", "csv"): "9770f08a6b530317fff4c015283b2c495ee1f9efbcdc1b5f534ef1befae03176",
    ("table", "json"): "ec49b18f36d8870ab10b3ba4066293ee57252c0986d91be810becd5bf6fec360",
    ("claims", "text"): "7e49aef9b6ce235a24dd9bb07a8e0740e97860138f8891d9aa22518778e8f827",
    ("claims", "csv"): "96d69fcdec9cbe8a6fc43a643adb5ceee7a0d6379740e1b70254fa995750a163",
    ("claims", "json"): "7fc3ab0485f38c28277261965bebac9f9326409fd5f44c9fda6a623a3f8a9f7f",
    ("claims-default", "text"): "ee4388e627005219df00039c322c98fc2e4faee34d022f788a3ba3beb4f8bc6a",
    ("claims-default", "csv"): "a4dfe18e85e08af4a2e590f54ac4fab5d8b63f97436dd58dbbff654e5afe1778",
    ("claims-default", "json"): "f141894281d739e9a8adb7f0a5a258d7670dad9608269aae243bcd5e67948723",
}

USAGE_ERRORS = [
    (["gen", "mechanical", "0"], "fibword: error: prefix length must be >= 1\n"),
    (["density", "0"], "fibword: error: prefix length must be >= 1\n"),
    (["beatty", "0"], "fibword: error: beatty needs n >= 1\n"),
    (["table", "--rows", "0"], "fibword: error: table needs at least one row\n"),
    (["claims", "--id", "nope"], "fibword: error: unknown claim id(s): nope\n"),
]


def test_digest_table_covers_every_request_and_format():
    assert set(STDOUT_SHA256) == {(name, fmt) for name in REQUESTS for fmt in FORMATS}


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("name", list(REQUESTS))
def test_golden_output(capsys, name, fmt):
    code = main(REQUESTS[name] + ["--format", fmt])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.err == ""
    assert hashlib.sha256(captured.out.encode("utf-8")).hexdigest() == STDOUT_SHA256[(name, fmt)]


@pytest.mark.parametrize("argv, stderr", USAGE_ERRORS)
def test_golden_usage_errors(capsys, argv, stderr):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == stderr


# The same requests through `python -m fibword.cli` in a fresh interpreter:
# runpy imports the package as a shell user's request does, which `main()`
# called in-process above never exercises.
SRC = Path(__file__).resolve().parent.parent / "src"
CLAIMS_HELP_SHA256 = (  # argparse wraps the usage line differently from Python 3.13 on
    "8762bafc4c5d6636c11137c51d943e41635da5cc35ce7e1a8f2267f6248f48f8"
    if sys.version_info < (3, 13)
    else "c916c2edf3825d991ef1bf193d09a7b12ef9c8849df93932d758e6520615c305"
)
EMPTY_SHA256 = hashlib.sha256(b"").hexdigest()
SPAWNED = [  # (argv, exit code, stderr, stdout sha256)
    *[(REQUESTS[name] + ["--format", "json"], 0, "", STDOUT_SHA256[(name, "json")]) for name in REQUESTS],
    (["--version"], 0, "", "cfd4bde549d5b8d8819aa38e23139e17b908a769c3c4c735ecd17084be0f50c5"),
    (["claims", "--help"], 0, "", CLAIMS_HELP_SHA256),
    (
        ["gen", "morphic", "x"],
        1,
        "usage: fibword gen [-h] [--format {text,csv,json}] [--out OUT]\n"
        "                   {morphic,mechanical,y,q,fibab} index\n"
        "fibword gen: error: argument index: invalid int value: 'x'\n",
        EMPTY_SHA256,
    ),
    (["claims", "--id", "nope"], 1, "fibword: error: unknown claim id(s): nope\n", EMPTY_SHA256),
]


@pytest.mark.parametrize("argv, code, stderr, digest", SPAWNED, ids=[" ".join(s[0]) for s in SPAWNED])
def test_golden_spawned(argv, code, stderr, digest):
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONIOENCODING="utf-8")
    done = subprocess.run(
        [sys.executable, "-m", "fibword.cli", *argv], capture_output=True, env=env, timeout=120
    )
    assert (done.returncode, done.stderr.decode("utf-8")) == (code, stderr)
    assert hashlib.sha256(done.stdout).hexdigest() == digest
