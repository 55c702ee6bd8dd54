"""Code lines of each `src/fibword` module: lines that hold code, not blanks, comments or docstrings.

    python3 tools/code_lines.py [--parent REF]

Prints one `<lines>  <module>` row per module and a total row.  With
`--parent REF` it exports `src/fibword` at the git ref REF with `git archive`,
as `tools/ab.py` does, and prints `<parent> <change> <difference>  <module>`
rows instead, `-` for a module one side lacks.  A line counts when it holds a
token other than a comment or a line break and is not part of a docstring (the
string that opens a module, class or function body).  The count needs only the
standard library and git, never imports fibword, and gates nothing.
"""

from __future__ import annotations

import argparse
import ast
import io
import os
import subprocess
import sys
import tarfile
import tokenize

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "fibword")
_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of lines of `source` that hold code."""
    docstrings = _docstring_lines(ast.parse(source))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstrings)


def _checkout_counts() -> dict[str, int]:
    """Code lines of each module of this checkout's src/fibword."""
    counts = {}
    for name in os.listdir(PACKAGE):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE, name), encoding="utf-8") as handle:
                counts[name] = code_lines(handle.read())
    return counts


def _counts_at(ref: str) -> dict[str, int]:
    """Code lines of each module of src/fibword at the git ref `ref`, read from `git archive`."""
    archive = subprocess.run(["git", "-C", ROOT, "archive", "--format=tar", ref, "src/fibword"], capture_output=True)
    if archive.returncode:
        sys.exit(f"code_lines: git archive {ref} failed: {archive.stderr.decode().strip()}")
    counts = {}
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        for member in tar.getmembers():
            name = os.path.relpath(member.name, "src/fibword")
            if member.isfile() and name.endswith(".py") and os.sep not in name:
                counts[name] = code_lines(tar.extractfile(member).read().decode("utf-8"))
    return counts


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", help="git ref whose counts are printed beside this checkout's")
    args = parser.parse_args(argv)
    change = _checkout_counts()
    if args.parent is None:
        for name in sorted(change):
            print(f"{change[name]:6d}  {name}")
        print(f"{sum(change.values()):6d}  total")
        return 0
    parent = _counts_at(args.parent)
    rows = [(parent.get(name), change.get(name), name) for name in sorted(parent.keys() | change.keys())]
    rows.append((sum(parent.values()), sum(change.values()), "total"))
    print(f"{'parent':>6} {'change':>6} {'diff':>5}  module ({args.parent} -> checkout)")
    for before, after, name in rows:
        diff = (after or 0) - (before or 0)
        print(f"{'-' if before is None else before:>6} {'-' if after is None else after:>6} {diff:+5d}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
