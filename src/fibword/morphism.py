"""Substitutions on free monoids and lazy fixed-point expansion."""

from __future__ import annotations

from typing import Mapping

from .words import Alphabet, BINARY, Word


class Morphism:
    """Letter-to-word substitution, determined by one image per source symbol."""

    def __init__(
        self,
        source: Alphabet,
        target: Alphabet,
        images: Mapping[str, Word | str],
    ) -> None:
        self.source = source
        self.target = target
        table: dict[str, Word] = {}
        for symbol in source.symbols:
            if symbol not in images:
                raise ValueError(f"no image given for symbol {symbol!r}")
            image = images[symbol]
            if isinstance(image, str):
                image = Word(target, image)
            elif image.alphabet != target:
                raise ValueError(f"image of {symbol!r} is not over the target alphabet")
            table[symbol] = image
        extra = set(images) - set(source.symbols)
        if extra:
            raise ValueError(f"images given for unknown symbols {sorted(extra)!r}")
        self._images = table

    def image(self, symbol: str) -> Word:
        if symbol not in self._images:
            raise ValueError(f"symbol {symbol!r} not in source alphabet")
        return self._images[symbol]

    def __repr__(self) -> str:
        body = ", ".join(f"{s}->{w.text}" for s, w in self._images.items())
        return f"Morphism({body})"


def fibonacci_morphism() -> Morphism:
    """The substitution 0 -> 01, 1 -> 0 on the binary alphabet."""
    return Morphism(BINARY, BINARY, {"0": "01", "1": "0"})


def apply(h: Morphism, w: Word) -> Word:
    """Concatenation of the images of w's letters, in order."""
    if w.alphabet != h.source:
        raise ValueError("word is not over the morphism's source alphabet")
    return Word(h.target, "".join(h.image(c).text for c in w.text))


def mortal_letters(h: Morphism) -> frozenset[str]:
    """Letters whose iterated images eventually vanish.

    Fixpoint: a letter is mortal iff its image consists only of mortal
    letters (in particular, letters with empty image).  Requires equal
    source and target alphabets.
    """
    if h.source != h.target:
        raise ValueError("mortality needs an endomorphism (equal alphabets)")
    mortal = {s for s in h.source.symbols if h.image(s).is_empty}
    changed = True
    while changed:
        changed = False
        for s in h.source.symbols:
            if s not in mortal and all(c in mortal for c in h.image(s).text):
                mortal.add(s)
                changed = True
    return frozenset(mortal)


def is_prolongable(h: Morphism, a: str) -> bool:
    """True iff h(a) = a x with x non-empty and never erased under iteration."""
    if h.source != h.target:
        raise ValueError("prolongability needs an endomorphism (equal alphabets)")
    if a not in h.source:
        raise ValueError(f"symbol {a!r} not in alphabet")
    image = h.image(a).text
    if not image.startswith(a) or len(image) < 2:
        return False
    remainder = image[1:]
    mortal = mortal_letters(h)
    return any(c not in mortal for c in remainder)


class FixedPointStream:
    """Lazy prefix generator for h^omega(a).

    Keeps a produced-prefix buffer and a read cursor; each step appends the
    image of the next unconsumed produced symbol, so only O(n) symbols are
    ever materialized for a length-n prefix.  The cursor is mutable state:
    one owner per stream, make separate streams for concurrent use.
    """

    def __init__(self, h: Morphism, a: str) -> None:
        if not is_prolongable(h, a):
            raise ValueError(f"morphism is not prolongable on {a!r}")
        self._h = h
        self._alphabet = h.source
        self._buffer: list[str] = list(h.image(a).text)
        self._cursor = 1

    @property
    def buffered(self) -> int:
        return len(self._buffer)

    def take(self, n: int) -> Word:
        """The length-n prefix of the fixed point; extends the buffer as needed."""
        if n < 1:
            raise ValueError("prefix length must be >= 1")
        buf = self._buffer
        h = self._h
        while len(buf) < n:
            if self._cursor >= len(buf):
                raise RuntimeError("fixed-point stream stalled (morphism not productive)")
            buf.extend(h.image(buf[self._cursor]).text)
            self._cursor += 1
        return Word(self._alphabet, "".join(buf[:n]))


def fixed_point_prefix(h: Morphism, a: str, n: int) -> Word:
    """The length-n prefix of the infinite fixed point h^omega(a)."""
    return FixedPointStream(h, a).take(n)
