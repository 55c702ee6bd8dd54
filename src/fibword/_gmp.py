"""Large Fibonacci numbers and products through the system's GMP, where it loads.

`fib2(n)` gives (F(n), F(n-1)) from `mpz_fib2_ui` and `mul(a, b)` gives a*b
from `mpn_mul`; each returns None where `libgmp.so.10` does not load, and
`fib2` also where n does not fit C's unsigned long.  The library is opened
by soname, through `ctypes`, at the first call, and a failure to open it is
recorded once: `ctypes.util.find_library`, which starts subprocesses, is
never called.  Only `goldenexact` imports this module, and only for indices
from its `_GMP_FROM` on, so smaller requests never load `ctypes`.

A product is one foreign call: the operands go in as `int.to_bytes` buffers
of 64-bit little-endian limbs, the longer first, and `int.from_bytes` reads
the product back from a buffer of their two limb counts.  The pair is read
in place from each `mpz_t`'s limbs, its `size` being the limb count of a
value >= 0, and both `mpz_t` are cleared in a `finally`.  Reading limbs so
needs 64-bit little-endian limbs: where the library has others, the first
load records it as not loading, and the pure path serves.  Every buffer and
every `mpz_t` belongs to one call, so threads share nothing here while
`ctypes` releases the GIL.  GMP aborts the process when an allocation
fails, where CPython would raise `MemoryError`.
"""

from __future__ import annotations

import ctypes
import sys

SONAME = "libgmp.so.10"
ULONG_MAX = (1 << 8 * ctypes.sizeof(ctypes.c_ulong)) - 1
_LIMB = 8  # bytes per limb; other widths are declined at load


class _Mpz(ctypes.Structure):
    """GMP's `__mpz_struct`: allocated here, initialised, written and cleared by GMP."""

    _fields_ = [("alloc", ctypes.c_int), ("size", ctypes.c_int), ("limbs", ctypes.c_void_p)]


_mpz_p, _limbs = ctypes.POINTER(_Mpz), ctypes.c_char_p
_SIGNATURES = {  # name: (argument types, result type)
    "__gmpz_init": ((_mpz_p,), None),
    "__gmpz_clear": ((_mpz_p,), None),
    "__gmpz_fib2_ui": ((_mpz_p, _mpz_p, ctypes.c_ulong), None),
    "__gmpn_mul": ((_limbs, _limbs, ctypes.c_long, _limbs, ctypes.c_long), None),  # its top limb is not wanted
}

# The bound functions by name once the library has loaded, False once it has failed to or has limbs
# that are not 64-bit little-endian words, None before the first try.  One assignment sets it, after
# every signature is declared, so threads share it without a lock: two first calls at once may both
# open the library, and each gets working functions.
_lib: dict | bool | None = None


def _functions() -> dict | bool:
    global _lib
    if _lib is None:
        try:
            library = ctypes.CDLL(SONAME)
            functions = {name: getattr(library, name) for name in _SIGNATURES}
            limb_bits = ctypes.c_int.in_dll(library, "__gmp_bits_per_limb").value
        except (OSError, AttributeError, ValueError):  # not installed, or without one of the symbols
            _lib = False
        else:
            for name, (argtypes, restype) in _SIGNATURES.items():
                functions[name].argtypes, functions[name].restype = argtypes, restype
            _lib = functions if limb_bits == 8 * _LIMB and sys.byteorder == "little" else False
    return _lib


def available() -> bool:
    """Whether libgmp has loaded with limbs read here (trying to load it on the first call)."""
    return bool(_functions())


def fib2(n: int) -> tuple[int, int] | None:
    """(F(n), F(n-1)) for 0 <= n <= ULONG_MAX (F(-1) = 1); None where libgmp does not load or n is outside."""
    lib = _functions()
    if not lib or not 0 <= n <= ULONG_MAX:  # ctypes would wrap a negative n into an unsigned long
        return None
    fn, fn1 = _Mpz(), _Mpz()
    lib["__gmpz_init"](fn)
    lib["__gmpz_init"](fn1)
    try:
        lib["__gmpz_fib2_ui"](fn, fn1, n)
        return (
            int.from_bytes(ctypes.string_at(fn.limbs, fn.size * _LIMB), "little"),
            int.from_bytes(ctypes.string_at(fn1.limbs, fn1.size * _LIMB), "little"),
        )
    finally:
        lib["__gmpz_clear"](fn)
        lib["__gmpz_clear"](fn1)


def mul(a: int, b: int) -> int | None:
    """a*b for a, b >= 0, by one `mpn_mul` call; None where libgmp does not load."""
    lib = _functions()
    if not lib:
        return None
    if a < b:  # mpn_mul wants the longer operand first
        a, b = b, a
    if not b:  # and no operand of 0 limbs
        return 0
    na, nb = (a.bit_length() + 63) >> 6, (b.bit_length() + 63) >> 6
    product = ctypes.create_string_buffer((na + nb) * _LIMB)  # apart from both operands, as mpn_mul needs
    lib["__gmpn_mul"](product, a.to_bytes(na * _LIMB, "little"), na, b.to_bytes(nb * _LIMB, "little"), nb)
    return int.from_bytes(product, "little")
