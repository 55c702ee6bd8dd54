"""Command-line surface: word generation, density reports, tables, claims.

Output is deterministic byte-for-byte for identical invocations.  Exit codes:
0 = ran (claim statuses are data, not errors), 1 = usage error, 2 = internal
failure.
"""

from __future__ import annotations

import argparse
import atexit
import errno
import os
import sys

from . import __version__

# The layers are imported inside the commands that use them, so a request
# loads only the modules it runs and start-up stays short.

FORMATS = ("text", "csv", "json")
GEN_KINDS = ("morphic", "mechanical", "y", "q", "fibab")
GEN_MAX_LETTERS = 10**7  # the longest word `gen` builds; F(36) > 10**7, so y stops at index 33
# `claims` budget flags and the largest value each serves, 100 times its default; sweep_n is the
# length of the words its claims build, so its cap is the gen cap.
BUDGET_FLAGS = {"sweep_n": GEN_MAX_LETTERS, "scan_n": 10**6, "ball_cases": 10**6}
SCHEMA_VERSION = 1
BEATTY_MAX_N = 10**6  # rows `beatty` prints at most; 72 MB of JSON at the cap
# `density` n < 10**DENSITY_MAX_DIGITS and at most DENSITY_MAX_PLACES places bound the work of one
# request; the renderers serve any size.  At both caps the density work of a cold request is about
# 4 ms in-process (the whole spawned request 74 ms, `density 13` 65 ms); at ten times both, 0.68 s
# (Python 3.11.7, 2 vCPUs).
DENSITY_MAX_DIGITS = 2000
DENSITY_MAX_PLACES = 2000
TABLE_MAX_ROWS = 10**4  # row m holds exact densities of about m digits, so a table costs O(rows^2)

# `beatty` rows (n, floor(n*phi), floor(n*phi^2)) as (head, row template, separator, tail): the
# bytes csv.writer and json.dumps(indent=2, sort_keys=True) write, with no row lists or dicts built.
_BEATTY_LAYOUT = {
    "text": ("", "{} {} {}", "\n", "\n"),
    "csv": ("n,f1,f2\n", "{},{},{}", "\n", "\n"),
    "json": (
        '{\n  "command": "beatty",\n  "rows": [\n',
        '    {{\n      "f1": {1},\n      "f2": {2},\n      "n": {0}\n    }}',
        ",\n",
        f'\n  ],\n  "schema_version": {SCHEMA_VERSION}\n}}\n',
    ),
}


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the CLI contract wants 1."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _csv_text(header: list[str], rows: list[list]) -> str:
    import csv
    import io

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()


def _json_text(command: str, fields: dict) -> str:
    """The JSON document of `command`: its fields, with the schema version and the command name."""
    import json

    document = {"schema_version": SCHEMA_VERSION, "command": command, **fields}
    return json.dumps(document, indent=2, sort_keys=True, ensure_ascii=False) + "\n"


def _word_length(kind: str, index: int) -> int:
    """Letters in the word `gen KIND INDEX` asks for, from the closed forms, building nothing."""
    if kind in ("morphic", "mechanical"):
        return index
    from .derived import letter_counts_closed_form

    # Index 100 is far past the cap, so clamp before the closed form; a bad index raises its error.
    return sum(letter_counts_closed_form(kind, min(index, 100)))


def _generate_word(kind: str, index: int) -> str:
    if _word_length(kind, index) > GEN_MAX_LETTERS:
        raise ValueError(f"gen {kind} {index} would make more than {GEN_MAX_LETTERS} letters")
    if kind == "morphic":
        from .morphism import fibonacci_morphism, fixed_point_prefix

        return fixed_point_prefix(fibonacci_morphism(), "0", index).text
    if kind == "mechanical":
        from .mechanical import mechanical_prefix

        return mechanical_prefix(index).text
    from .derived import fib_word_ab, q_word, y_word

    return {"y": y_word, "q": q_word, "fibab": fib_word_ab}[kind](index).text


def _cmd_gen(args: argparse.Namespace) -> str:
    word = _generate_word(args.kind, args.index)
    if args.format == "text":
        return word + "\n"
    if args.format == "csv":  # a kind name, an integer and a run of letters: no field needs quoting
        return f"kind,index,word\n{args.kind},{args.index},{word}\n"
    return _json_text("gen", {"kind": args.kind, "index": args.index, "word": word})


def _cmd_density(args: argparse.Namespace) -> str:
    if args.n >= 10**DENSITY_MAX_DIGITS:
        raise ValueError(f"density needs n < 10**{DENSITY_MAX_DIGITS}")
    if args.places > DENSITY_MAX_PLACES:
        raise ValueError(f"density prints at most {DENSITY_MAX_PLACES} places")
    from .mechanical import density_report

    report = density_report(args.n)
    counts = {"n": report.n, "count0": report.count0, "count1": report.count1}
    decimals = report.decimals(args.places)  # density0, density1, target1, deviation1
    exact = {name: str(getattr(report, name)) for name in decimals}
    sign = report.deviation1.sign()
    if args.format == "text":
        notes = {name: f"= {text}" for name, text in exact.items()}
        notes["deviation1"] = f"sign {sign:+d}, " + notes["deviation1"]
        lines = [f"{name}: {value}\n" for name, value in counts.items()]
        lines += [f"{name}: {text} ({notes[name]})\n" for name, text in decimals.items()]
        return "".join(lines)
    if args.format == "csv":
        row = {**counts, **decimals, "deviation1_sign": sign}
        return _csv_text(list(row), [list(row.values())])
    exact_fields = {f"{name}_exact": text for name, text in exact.items()}
    return _json_text("density", {**counts, **decimals, **exact_fields, "deviation1_sign": sign})


def _cmd_table(args: argparse.Namespace) -> str:
    if args.rows < 1:
        raise ValueError("table needs at least one row")
    if args.rows > TABLE_MAX_ROWS:
        raise ValueError(f"table prints at most {TABLE_MAX_ROWS} rows")
    from .derived import DensityRow, density_table

    header = ["m", *DensityRow.COLUMNS]
    rows = []
    for row in density_table(3 + args.rows - 1):
        rows.append([str(row.m), *row.rendered(6)])
    if args.format == "csv":
        return _csv_text(header, rows)
    if args.format == "text":
        lines = ["  ".join(header)]
        lines += ["  ".join(cells) for cells in rows]
        return "\n".join(lines) + "\n"
    return _json_text("table", {"rows": [dict(zip(header, cells)) for cells in rows]})


def _cmd_beatty(args: argparse.Namespace) -> str:
    if args.n < 1:
        raise ValueError("beatty needs n >= 1")
    if args.n > BEATTY_MAX_N:
        raise ValueError(f"beatty prints at most {BEATTY_MAX_N} rows")
    from operator import add

    from .goldenexact import beatty_floors

    head, row, separator, tail = _BEATTY_LAYOUT[args.format]
    indices = range(1, args.n + 1)
    floors = beatty_floors(1, args.n + 1)
    return head + separator.join(map(row.format, indices, floors, map(add, indices, floors))) + tail


def _cmd_claims(args: argparse.Namespace) -> str:
    budgets = {name: value for name, value in vars(args).items() if name in BUDGET_FLAGS}
    for name, value in budgets.items():
        if value > BUDGET_FLAGS[name]:
            raise ValueError(f"claims --{name.replace('_', '-')} is at most {BUDGET_FLAGS[name]}")
    from .claims import Budgets, run_claims

    records = [r.record() for r in run_claims(args.ids, Budgets(**budgets))]
    if args.format == "text":
        blocks = []
        for r in records:
            blocks.append(
                f"{r['id']}: {r['status']}\n"
                f"  location: {r['location']}\n"
                f"  witness: {r['witness']}"
            )
        return "\n\n".join(blocks) + "\n"
    if args.format == "csv":  # one column per record field, the payload as compact JSON
        import json

        for r in records:
            r["payload"] = json.dumps(r["payload"], sort_keys=True, separators=(",", ":"))
        return _csv_text(list(records[0]), [list(r.values()) for r in records])
    return _json_text("claims", {"claims": records})


def build_parser() -> _Parser:
    parser = _Parser(prog="fibword", description=__doc__)
    parser.add_argument("--version", action="version", version=f"fibword {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=FORMATS, default="text")
    common.add_argument("--out", default=None, help="write output to this path instead of stdout")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_gen = sub.add_parser("gen", parents=[common], help="generate a word")
    p_gen.add_argument("kind", choices=GEN_KINDS)
    p_gen.add_argument("index", type=int, help="prefix length or family index")

    p_density = sub.add_parser("density", parents=[common], help="density report for a prefix")
    p_density.add_argument("n", type=int)
    p_density.add_argument("--places", type=int, default=6)

    p_table = sub.add_parser("table", parents=[common], help="density table of the word families")
    p_table.add_argument("--rows", type=int, required=True, help="row count, starting at m = 3")

    p_beatty = sub.add_parser("beatty", parents=[common], help="Beatty floor series for phi, phi^2")
    p_beatty.add_argument("n", type=int)

    p_claims = sub.add_parser("claims", parents=[common], help="run the claims verifier")
    group = p_claims.add_mutually_exclusive_group()
    group.add_argument("--all", action="store_true", help="run every claim (default)")
    group.add_argument(
        "--id",
        dest="ids",
        action="append",
        metavar="CLAIM_ID",
        help="run only this claim (repeatable)",
    )
    for name in BUDGET_FLAGS:  # an unset flag leaves its Budgets default
        p_claims.add_argument("--" + name.replace("_", "-"), type=int, default=argparse.SUPPRESS)
    return parser


_DISPATCH = {
    "gen": _cmd_gen,
    "density": _cmd_density,
    "table": _cmd_table,
    "beatty": _cmd_beatty,
    "claims": _cmd_claims,
}


def _write_stdout(output: str) -> None:
    """Write and flush `output` on stdout, raising OSError if any of it cannot be written.

    The bytes go to the binary layer in a loop: under PYTHONUNBUFFERED that layer is the raw
    file, whose short writes the text layer would drop without an error. A stdout with no
    binary layer (a StringIO) or one that translates newlines takes the text write, and so
    does the empty output of --help and --version, whose text argparse wrote already."""
    stdout = sys.stdout
    if stdout is None:  # the shell closed it (`>&-`)
        raise OSError(errno.EBADF, os.strerror(errno.EBADF))
    buffer = getattr(stdout, "buffer", None)
    if buffer is None or not output or os.linesep != "\n":
        stdout.write(output)
        stdout.flush()
        return
    stdout.flush()  # what argparse or a caller left in the text layer goes first
    data = memoryview(output.encode(stdout.encoding, stdout.errors))
    while data:
        data = data[buffer.write(data) :]
    buffer.flush()


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        if exc.code:  # usage error, reported on stderr
            return int(exc.code)
        args, output = argparse.Namespace(out=None), ""  # --help, --version: flush what argparse wrote
    else:
        try:
            output = _DISPATCH[args.command](args)
        except ValueError as exc:
            print(f"fibword: error: {exc}", file=sys.stderr)
            return 1
        except Exception as exc:  # internal failure contract
            print(f"fibword: internal error: {str(exc) or type(exc).__name__}", file=sys.stderr)
            return 2
    try:
        if args.out:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(output)
        else:  # flushed here, so a full disk or a reader that closed the pipe is reported like --out
            _write_stdout(output)
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the --out path
        reason = getattr(exc, "strerror", None) or exc
        print(f"fibword: error: cannot write {args.out or 'stdout'}: {reason}", file=sys.stderr)
        return 1
    return 0


def run() -> None:
    """Entry point of `fibword` and `python -m fibword.cli`: main(), then `os._exit`; never returns.

    The `atexit` callbacks run and both streams are flushed first; the teardown skipped only frees
    memory. Under a tracer, a profiler or `python -i` it raises SystemExit, so the tool reports."""
    code = main()
    try:
        if sys.stdout is not None:  # None when the shell closed it (`>&-`)
            sys.stdout.flush()
    except OSError:  # main() has reported it; what is left goes to devnull, so no exit flush retries it
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    monitoring = getattr(sys, "monitoring", None)  # cProfile and coverage use it from Python 3.12 on
    hooked = monitoring is not None and any(map(monitoring.get_tool, range(6)))
    if hooked or sys.gettrace() is not None or sys.getprofile() is not None or sys.flags.inspect:
        raise SystemExit(code)
    atexit._run_exitfuncs()
    for stream in filter(None, (sys.stdout, sys.stderr)):
        stream.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
