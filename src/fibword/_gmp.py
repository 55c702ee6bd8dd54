"""Large Fibonacci numbers and products through the system's GMP, where it loads.

`fib2(n)` gives (F(n), F(n-1)) from `mpz_fib2_ui` and `mul(a, b)` gives a*b
from `mpz_mul`; each returns None where `libgmp.so.10` does not load, and
`fib2` also where n does not fit C's unsigned long.  The library is opened
by soname, through `ctypes`, at the first call, and a failure to open it is
recorded once: `ctypes.util.find_library`, which starts subprocesses, is
never called.  Only `goldenexact` imports this module, and only for indices
from its `_GMP_FROM` on, so smaller requests never load `ctypes`.

Integers cross the boundary as little-endian 8-byte words (`mpz_import`
and `mpz_export`), so no limb is read here and 32-bit and 64-bit limbs work
alike.  Every `mpz_t` is cleared in a `finally`, and every buffer belongs
to one call.  GMP aborts the process when an allocation fails, where
CPython would raise `MemoryError`.
"""

from __future__ import annotations

import ctypes

SONAME = "libgmp.so.10"
ULONG_MAX = (1 << 8 * ctypes.sizeof(ctypes.c_ulong)) - 1
_WORD = 8  # bytes per word that crosses the boundary: order -1, size 8, endian -1, nails 0


class _Mpz(ctypes.Structure):
    """GMP's `__mpz_struct`: allocated and initialised here, read only by GMP."""

    _fields_ = [("alloc", ctypes.c_int), ("size", ctypes.c_int), ("limbs", ctypes.c_void_p)]


_mpz_p = ctypes.POINTER(_Mpz)
_size_t = ctypes.c_size_t
_SIGNATURES = {  # name: (argument types, result type)
    "__gmpz_init": ((_mpz_p,), None),
    "__gmpz_clear": ((_mpz_p,), None),
    "__gmpz_fib2_ui": ((_mpz_p, _mpz_p, ctypes.c_ulong), None),
    "__gmpz_mul": ((_mpz_p, _mpz_p, _mpz_p), None),
    "__gmpz_import": ((_mpz_p, _size_t, ctypes.c_int, _size_t, ctypes.c_int, _size_t, ctypes.c_char_p), None),
    "__gmpz_export": (  # it returns its first argument, which the caller already holds
        (ctypes.c_void_p, ctypes.POINTER(_size_t), ctypes.c_int, _size_t, ctypes.c_int, _size_t, _mpz_p),
        None,
    ),
    "__gmpz_sizeinbase": ((_mpz_p, ctypes.c_int), _size_t),
}

# The bound functions by name once the library has loaded, False once it has failed to, None before
# the first try.  One assignment sets it, after every signature is declared, so threads share it
# without a lock: two first calls at once may both open the library, and each gets working functions.
_lib: dict | bool | None = None


def _functions() -> dict | bool:
    global _lib
    if _lib is None:
        try:
            library = ctypes.CDLL(SONAME)
            functions = {name: getattr(library, name) for name in _SIGNATURES}
        except (OSError, AttributeError):  # not installed, or without one of the symbols
            _lib = False
        else:
            for name, (argtypes, restype) in _SIGNATURES.items():
                functions[name].argtypes, functions[name].restype = argtypes, restype
            _lib = functions
    return _lib


def available() -> bool:
    """Whether libgmp has loaded (trying to load it on the first call)."""
    return bool(_functions())


def _set(lib: dict, z: _Mpz, value: int) -> None:
    """z = value, for an initialised z and value >= 0."""
    words = (value.bit_length() + 63) >> 6
    lib["__gmpz_import"](z, words, -1, _WORD, -1, 0, value.to_bytes(words * _WORD, "little"))


def _get(lib: dict, z: _Mpz) -> int:
    """The value of z >= 0, through a buffer sized from its bit length."""
    words = (lib["__gmpz_sizeinbase"](z, 2) + 63) >> 6
    buffer = (ctypes.c_char * (words * _WORD))()  # zeroed, so the value 0, which exports no word, reads 0
    lib["__gmpz_export"](buffer, None, -1, _WORD, -1, 0, z)  # None: the word count is not wanted
    return int.from_bytes(buffer, "little")


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
        return _get(lib, fn), _get(lib, fn1)
    finally:
        lib["__gmpz_clear"](fn)
        lib["__gmpz_clear"](fn1)


def mul(a: int, b: int) -> int | None:
    """a*b for a, b >= 0; None where libgmp does not load."""
    lib = _functions()
    if not lib:
        return None
    za, zb, product = _Mpz(), _Mpz(), _Mpz()
    for z in (za, zb, product):
        lib["__gmpz_init"](z)
    try:
        _set(lib, za, a)
        _set(lib, zb, b)
        lib["__gmpz_mul"](product, za, zb)
        return _get(lib, product)
    finally:
        for z in (za, zb, product):
            lib["__gmpz_clear"](z)
