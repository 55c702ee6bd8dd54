"""How a `fibword` process ends: `fibword.cli.run()`, checked in spawned interpreters.

`run()` runs `main()`, the `atexit` callbacks and the stream flushes, then
leaves with `os._exit`; under a tracer or profiler it raises SystemExit as a
plain script would. These tests pin what a shell user sees on both paths:
exit code, stdout bytes and stderr, including when stdout cannot be written.
"""

import errno
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from fibword import cli
from fibword.cli import main

SRC = Path(__file__).resolve().parent.parent / "src"

# Each way of starting a request: as `python -m`, as the console script that
# `pip install` writes (`sys.exit(run())`), and under a profile hook, which
# takes the SystemExit fallback.
LAUNCHERS = {
    "module": ["-m", "fibword.cli"],
    "script": ["-c", "import sys; from fibword.cli import run; sys.exit(run())"],
    "profiled": ["-c", "import sys; sys.setprofile(lambda *a: None); from fibword.cli import run; run()"],
}


def _command(launcher, argv):
    return [sys.executable, *LAUNCHERS[launcher], *argv]


def _env(unbuffered=False):
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONIOENCODING="utf-8")
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


def _spawn(command, unbuffered=False, **kwargs):
    kwargs.setdefault("stdout", subprocess.PIPE)
    return subprocess.run(command, stderr=subprocess.PIPE, env=_env(unbuffered), timeout=120, **kwargs)


def _write_error(code):
    return f"fibword: error: cannot write stdout: {os.strerror(code)}\n"


# A short answer that sits in the stdout buffer until the flush, a long one that
# fails inside write(), and the --version text that argparse writes itself.
FAILING_WRITES = [["gen", "morphic", "10"], ["gen", "mechanical", "300000"], ["--version"]]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("launcher", list(LAUNCHERS))
@pytest.mark.parametrize("argv", FAILING_WRITES, ids=" ".join)
def test_full_device_exits_1_with_one_error_line(argv, launcher, unbuffered):
    with open("/dev/full", "wb") as full:
        done = _spawn(_command(launcher, argv), unbuffered, stdout=full)
    assert (done.returncode, done.stderr.decode()) == (1, _write_error(errno.ENOSPC))


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("launcher", list(LAUNCHERS))
@pytest.mark.parametrize("argv", FAILING_WRITES, ids=" ".join)
def test_closed_pipe_exits_1_with_one_error_line(argv, launcher, unbuffered):
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the first byte is written
    try:
        done = _spawn(_command(launcher, argv), unbuffered, stdout=write_end)
    finally:
        os.close(write_end)
    allowed = [(1, _write_error(errno.EPIPE))]
    if unbuffered and argv == ["--version"]:
        # argparse ignores a failed write of its own text, and with no buffer
        # nothing is left for the flush to report.
        allowed.append((0, ""))
    assert (done.returncode, done.stderr.decode()) in allowed


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_reader_closing_mid_stream_gets_no_traceback(unbuffered):
    """`fibword gen mechanical 1000000 | head -c 10`."""
    proc = subprocess.Popen(
        _command("module", ["gen", "mechanical", "1000000"]),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=_env(unbuffered),
    )
    assert proc.stdout.read(10) == b"0100101001"
    proc.stdout.close()
    stderr = proc.stderr.read().decode()
    code = proc.wait(timeout=120)
    proc.stderr.close()
    # Unbuffered, the raw file takes part of the answer and then fails; main() retries the
    # short write, so the failure is reported as in the buffered run.
    assert (code, stderr) == (1, _write_error(errno.EPIPE))


@pytest.mark.parametrize("launcher", list(LAUNCHERS))
def test_closed_stdout_exits_1_with_one_error_line(launcher):
    """`fibword gen morphic 10 >&-`: fd 1 is closed at start-up, so sys.stdout is None."""
    done = _spawn(["sh", "-c", 'exec "$@" >&-', "sh", *_command(launcher, ["gen", "morphic", "10"])])
    assert (done.returncode, done.stderr.decode()) == (1, _write_error(errno.EBADF))


def test_atexit_callbacks_run_and_their_output_is_flushed():
    script = (
        "import atexit, sys\n"
        "atexit.register(sys.stderr.write, 'second callback, no newline')\n"
        "atexit.register(print, 'first callback', file=sys.stderr)\n"
        "from fibword.cli import run\n"
        "run()\n"
    )
    done = _spawn([sys.executable, "-c", script, "gen", "morphic", "5"])
    assert (done.returncode, done.stdout, done.stderr) == (
        0,
        b"01001\n",
        b"first callback\nsecond callback, no newline",
    )


def test_fast_exit_skips_module_teardown():
    script = (
        "import sys\n"
        "class Witness:\n"
        "    def __del__(self):\n"
        "        sys.stderr.write('torn down')\n"
        "witness = Witness()\n"
        "from fibword.cli import run\n"
        "run()\n"
    )
    done = _spawn([sys.executable, "-c", script, "gen", "morphic", "5"])
    assert (done.returncode, done.stdout, done.stderr) == (0, b"01001\n", b"")


def test_profiler_gets_the_normal_exit():
    done = _spawn([sys.executable, "-m", "cProfile", "-m", "fibword.cli", "gen", "morphic", "5"])
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith(b"01001\n")
    assert b"function calls" in done.stdout


def test_large_piped_output_is_complete(capsys):
    argv = ["beatty", "100000", "--format", "json"]
    assert main(argv) == 0
    in_process = capsys.readouterr().out.encode()
    done = _spawn(_command("module", argv))
    assert (done.returncode, done.stderr) == (0, b"")
    assert len(done.stdout) > 6_000_000
    assert hashlib.sha256(done.stdout).hexdigest() == hashlib.sha256(in_process).hexdigest()


def test_internal_error_exits_2_as_in_process(capsys, monkeypatch):
    def broken(args):
        raise RuntimeError("dispatch table entry replaced")

    monkeypatch.setitem(cli._DISPATCH, "gen", broken)
    assert main(["gen", "morphic", "5"]) == 2
    in_process = capsys.readouterr()
    script = (
        "from fibword import cli\n"
        "def broken(args):\n"
        "    raise RuntimeError('dispatch table entry replaced')\n"
        "cli._DISPATCH['gen'] = broken\n"
        "cli.run()\n"
    )
    done = _spawn([sys.executable, "-c", script, "gen", "morphic", "5"])
    assert (done.returncode, done.stdout.decode(), done.stderr.decode()) == (2, in_process.out, in_process.err)


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "morphic", "1000", "--format", "csv"],
        ["density", str(10**29 + 7), "--places", "40", "--format", "json"],
        ["claims", "--id", "local-no-11", "--sweep-n", "2000"],
        ["beatty", "0"],
        ["gen", "morphic", "x"],
        ["--version"],
        ["claims", "--help"],
        [],
    ],
    ids=lambda argv: " ".join(argv) or "no arguments",
)
def test_console_script_matches_module(argv):
    module, script = (_spawn(_command(launcher, argv)) for launcher in ("module", "script"))
    assert (script.returncode, script.stdout, script.stderr) == (module.returncode, module.stdout, module.stderr)
    assert module.returncode in (0, 1)
