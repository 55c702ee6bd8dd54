"""The base of fibword's immutable value classes."""


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
        fields = ", ".join(f"{name}={value!r}" for name, value in self.__dict__.items())
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        from dataclasses import FrozenInstanceError  # only here: importing it costs start-up time

        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot delete field {name!r}")
