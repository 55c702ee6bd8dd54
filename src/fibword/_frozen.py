"""The base of fibword's immutable value classes, and `str` of an int at any size."""


# CPython 3.10.7+ and 3.11+ refuse `str` of an int of over 4,300 digits by default.  Up to
# _STR_BITS bits (at most 4,215 digits) one `str` call serves; a larger int is split in blocks of
# _BLOCK digits, which fibword's own code converts, never touching the process-wide limit.
_STR_BITS = 14_000
_BLOCK = 4_000


def _digits_in_blocks(n: int) -> str:
    """str(n) at any size: one `str` call up to _STR_BITS bits, else blocks of _BLOCK digits.

    A larger n is split by divmod by 10^(_BLOCK 2^i), recursively.
    """
    if n.bit_length() <= _STR_BITS:
        return str(n)
    if n < 0:
        return "-" + _digits_in_blocks(-n)
    powers = [10**_BLOCK]  # powers[i] = 10^(_BLOCK 2^i), squared until n < powers[-1]^2
    while 2 * powers[-1].bit_length() - 2 < n.bit_length():
        powers.append(powers[-1] * powers[-1])

    def block(m: int, i: int) -> str:  # m < 10^(_BLOCK 2^i): exactly that many digits, zeros kept
        if i == 0:
            return str(m).zfill(_BLOCK)
        high, low = divmod(m, powers[i - 1])
        return block(high, i - 1) + block(low, i - 1)

    return block(n, len(powers)).lstrip("0")


class Frozen:
    """Immutable record whose fields are its instance dict, in the order `__init__` wrote them.

    Subclasses store their fields with one `self.__dict__.update(...)`: on
    CPython 3.11 and 3.12, item writes to the dict slow every later attribute
    read of the instance about threefold.  Equality (same
    class only), hashing and repr are field-wise, and assignment or deletion
    raises `dataclasses.FrozenInstanceError`, as for a frozen dataclass.
    Two subclasses override the hash because their value is not the field
    tuple's: a rational `Surd` equals, so hashes as, its int or Fraction, and
    a `ClaimResult`'s payload is an unhashable dict, so its hash leaves it out.
    """

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.__dict__ == other.__dict__

    def __hash__(self) -> int:
        return hash(tuple(self.__dict__.values()))

    def __repr__(self) -> str:
        fields = ", ".join(
            f"{name}={_digits_in_blocks(value) if type(value) is int else repr(value)}"
            for name, value in self.__dict__.items()
        )
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        from dataclasses import FrozenInstanceError  # only here: importing it costs start-up time

        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot delete field {name!r}")
