"""The benchmark's fibword-free reference, `perfbench/oracle.py`, loaded read-only for the tests.

    from oracle_reference import oracle

It is loaded from its file under its own module name, without writing bytecode
next to it, so the tests neither change the benchmark's directory nor put a
module named `oracle` on the import path.
"""

import importlib.util
import sys
from pathlib import Path

PATH = Path(__file__).resolve().parent.parent / "perfbench" / "oracle.py"

_spec = importlib.util.spec_from_file_location("perfbench_oracle", PATH)
oracle = importlib.util.module_from_spec(_spec)
_writes_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
try:
    _spec.loader.exec_module(oracle)
finally:
    sys.dont_write_bytecode = _writes_bytecode
